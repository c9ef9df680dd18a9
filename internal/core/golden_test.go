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
// digest was re-recorded when the event engine's time steps became
// two-phase and the meter's charge exact, and every digest when the pair
// stream became a SplitMix64 counter stream.
var goldenSpecs = []goldenSpec{
	{"ripple-adder", 16, true, BackendBitParallel, 5000,
		"9a0517e6446b03129c4f4186f92f9f9b63155185d11d37556b4a60c588ed167d"},
	{"kogge-stone-adder", 8, true, BackendBitParallel, 5000,
		"518a151d09539fa5bb6e62369cb89900c18b782f2ddfbaffc77fbdf74c1d1d56"},
	{"csa-multiplier", 8, false, BackendBitParallel, 5000,
		"1dd8d813a3b7ca29d1deccab856b32e5563de1e806b2d18890ba525087e8d9d0"},
	{"booth-wallace-multiplier", 16, false, BackendBitParallel, 5000,
		"52389fd46b4267704bf1af543ded3a962d3b66b23005df4e2a79671329a1666d"},
	{"ripple-adder", 8, true, BackendEvent, 1000,
		"bee5abeb6ddaccb36c95f97ab7151243d68679ad7d9c7f2fc42f6ba67ea370a3"},
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
		const want = "0002cfedb7ec62af046373f094b5d9a32b66c854278b5a38a71a63a2a54b8b71"
		if got := digestJSON(t, pm); got != want {
			t.Fatalf("port model digest %s, want %s", got, want)
		}
	})
}
