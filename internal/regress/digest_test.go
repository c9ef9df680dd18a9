package regress

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hdpower/internal/core"
)

// fitDigests pins the float64 bits of every regression vector and
// residual the fitter produces on fixed noisy prototypes: Fit with both
// bases over the three prototype sets, on two-operand and (linear only)
// single-operand prototypes, and FitRect over the rectangular study's five
// shapes. Each is the first 16 hex digits of the SHA-256 of the R and
// Residual bits, with nil vectors marked. A change to the weighting, the
// row order or the solver that moves one bit fails it.
var fitDigests = map[string]string{
	"linear/2/ALL":    "2bdb62b7a3684919",
	"linear/2/SEC":    "eb384f4aa29f3ea0",
	"linear/2/THI":    "8d0d9b8753b93605",
	"linear/1/ALL":    "8430aa9090e4726f",
	"linear/1/SEC":    "7b959cf36245a976",
	"linear/1/THI":    "0d904bc57e7160f2",
	"quadratic/2/ALL": "10f40d303253d397",
	"quadratic/2/SEC": "66dbfced17227642",
	"quadratic/2/THI": "738aa917a0dfb285",
	"rect":            "886546bbe0b460dd",
}

// noisyCoef draws the coefficient of one prototype class: law scaled by
// up to ±5% noise, with some classes unobserved (Count 0) and some priced
// at zero, so the fitter's skip and weighting branches all run.
func noisyCoef(rng *rand.Rand, i int, law float64) core.Coef {
	p := law * (1 + 0.1*(rng.Float64()-0.5))
	switch {
	case i%7 == 3:
		return core.Coef{}
	case i%11 == 5:
		return core.Coef{P: 0, Count: 4}
	}
	return core.Coef{P: p, Count: 10}
}

// noisyProtos builds prototypes with ports operands of each width.
func noisyProtos(widths []int, ports int, law func(i, w int) float64, seed int64) []Prototype {
	rng := rand.New(rand.NewSource(seed))
	protos := make([]Prototype, len(widths))
	for k, w := range widths {
		m := ports * w
		model := &core.Model{Module: "noisy", InputBits: m, Basic: make([]core.Coef, m)}
		for i := 1; i <= m; i++ {
			model.Basic[i-1] = noisyCoef(rng, i, law(i, w))
		}
		protos[k] = Prototype{Width: w, Model: model}
	}
	return protos
}

func fitDigest(r [][]float64, residual []float64) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(r)))
	for _, x := range r {
		put(uint64(len(x))) // 0 marks an unfitted class
		for _, v := range x {
			put(math.Float64bits(v))
		}
	}
	put(uint64(len(residual)))
	for _, v := range residual {
		put(math.Float64bits(v))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func TestFitDigests(t *testing.T) {
	got := make(map[string]string)
	laws := map[string]func(i, w int) float64{
		"linear": func(i, w int) float64 { return float64(i) * (3*float64(w) + 5) },
		"quadratic": func(i, w int) float64 {
			fw := float64(w)
			return float64(i) * (0.7*fw*fw + 2*fw + 1)
		},
	}
	for _, c := range []struct {
		basis Basis
		ports int
	}{{Linear, 2}, {Linear, 1}, {Quadratic, 2}} {
		for k, set := range AllSets() {
			protos := noisyProtos(set.Widths(), c.ports, laws[c.basis.Name], int64(10*c.ports+k))
			pm, err := fitSquare("noisy", protos, c.basis)
			if err != nil {
				t.Fatal(err)
			}
			got[fmt.Sprintf("%s/%d/%s", c.basis.Name, c.ports, set)] = fitDigest(pm.R, pm.Residual)
		}
	}

	rng := rand.New(rand.NewSource(99))
	shapes := [][2]int{{4, 4}, {8, 4}, {4, 8}, {8, 8}, {6, 6}}
	rect := make([]RectPrototype, len(shapes))
	for k, sh := range shapes {
		m := sh[0] + sh[1]
		model := &core.Model{Module: "noisy", InputBits: m, Basic: make([]core.Coef, m)}
		for i := 1; i <= m; i++ {
			law := float64(i) * (2*float64(sh[0]*sh[1]) + 3*float64(sh[0]) + 7)
			model.Basic[i-1] = noisyCoef(rng, i, law)
		}
		rect[k] = RectPrototype{W1: sh[0], W0: sh[1], Model: model}
	}
	rpm, err := FitRect("noisy", rect)
	if err != nil {
		t.Fatal(err)
	}
	got["rect"] = fitDigest(rpm.R, rpm.Residual)

	if len(got) != len(fitDigests) {
		t.Fatalf("%d fits for %d digests", len(got), len(fitDigests))
	}
	for key, want := range fitDigests {
		if got[key] != want {
			t.Errorf("%s: fit digest %s, want %s", key, got[key], want)
		}
	}
}
