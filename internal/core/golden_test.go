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
// module structures, both tables and both backends. Any change to the
// drawn bits, the lane order or the charges moves them, and performance
// work must leave them alone. The bit-parallel digests (and the port
// model's) were re-recorded once, when bitsim began summing charge in
// int64 tenths instead of float64: every p and ε moved by at most
// 1e-13 relative, and two ε of float noise became exactly 0. Charge is
// now exact, so any summation order gives the same bits. The event
// digest has not moved since the limb-level pair generator landed.
var goldenSpecs = []goldenSpec{
	{"ripple-adder", 16, true, BackendBitParallel, 5000,
		"04252a77d63cfb61c23cc2d6822c936c7972e7b8d022e6e85f735d512224a78b"},
	{"kogge-stone-adder", 8, true, BackendBitParallel, 5000,
		"be012c19d28baa55e4d2e30e5b18f2eed235eed862f2925d455acd889f78b0c8"},
	{"csa-multiplier", 8, false, BackendBitParallel, 5000,
		"dd115372e24956defe8d9e7272d85f0bed41ea734e868ad0f5b11d33242e166d"},
	{"booth-wallace-multiplier", 16, false, BackendBitParallel, 5000,
		"b8ad8fbc792a75f39a11adf3d85ee802f4a1752c9a9222ac5e40a287bb1a3c93"},
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
		const want = "e9314f2141a3b7865a74df123dfd888f076ffd6737d3c5fc0781ed70b01f7f78"
		if got := digestJSON(t, pm); got != want {
			t.Fatalf("port model digest %s, want %s", got, want)
		}
	})
}
