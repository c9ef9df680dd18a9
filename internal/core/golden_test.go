package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"
)

// goldenSpec is one pinned characterization: its model's JSON encoding
// must hash to digest.
type goldenSpec struct {
	module   string
	width    int
	enhanced bool
	backend  BackendKind
	patterns int
	digest   string
}

// goldenSpecs pins the SHA-256 of json.Marshal(model) for a spread of
// module structures, both tables and both backends. The digests were
// recorded before the limb-level pair generator and lane transpose
// landed; any change to the drawn bits, the lane order or the per-lane
// summation order moves them. Performance work must leave them alone.
var goldenSpecs = []goldenSpec{
	{"ripple-adder", 16, true, BackendBitParallel, 5000,
		"e29165a46bf31abf773ab40244780a0ea4fb376af41b1842142886add2200731"},
	{"kogge-stone-adder", 8, true, BackendBitParallel, 5000,
		"1fab6ef93198c7705ea359129350f12fba62467e2d75b27c64ee6f843073885d"},
	{"csa-multiplier", 8, false, BackendBitParallel, 5000,
		"a99ec37a0d7875b7b629dcf24f8502a2538048fcb8c3b1823248bb5272c6e30a"},
	{"booth-wallace-multiplier", 16, false, BackendBitParallel, 5000,
		"14a2572e5bc366d469eb70873b784df797ce69f2c3f4a4c4df39bad32ddb8a63"},
	{"ripple-adder", 8, true, BackendEvent, 1000,
		"4889e5b9c21f6ea21a81d6a07c83994cde5dcd95e64648554eaf7db57101f3a5"},
}

func digestJSON(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// TestGoldenModelDigests guards every characterization path against
// silent model drift: the bit-parallel specs at Workers 1 and 4, the
// event-driven reference, and a port-resolved model.
func TestGoldenModelDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("golden characterizations skipped in -short mode")
	}
	for _, g := range goldenSpecs {
		workers := []int{1, 4}
		if g.backend == BackendEvent {
			workers = []int{2}
		}
		for _, w := range workers {
			name := fmt.Sprintf("%s-%d/%s/workers=%d", g.module, g.width, g.backend, w)
			t.Run(name, func(t *testing.T) {
				opt := CharacterizeOptions{
					Patterns: g.patterns, Seed: 42, Enhanced: g.enhanced,
					Backend: g.backend, Workers: w,
				}
				model, err := Characterize(meterFor(t, g.module, g.width), g.module, opt)
				if err != nil {
					t.Fatal(err)
				}
				if got := digestJSON(t, model); got != g.digest {
					t.Fatalf("model digest %s, want %s", got, g.digest)
				}
			})
		}
	}
	t.Run("ports/csa-multiplier-8", func(t *testing.T) {
		opt := CharacterizeOptions{Patterns: 1500, Seed: 42, Backend: BackendBitParallel, Workers: 3}
		pm, err := CharacterizePorts(meterFor(t, "csa-multiplier", 8), "csa-multiplier", 8, 8, opt)
		if err != nil {
			t.Fatal(err)
		}
		const want = "d3d04b4ac02d89b1ba67153ead289ae1109a401886d66255724daabb5e14515a"
		if got := digestJSON(t, pm); got != want {
			t.Fatalf("port model digest %s, want %s", got, want)
		}
	})
}
