package modellib

import (
	"encoding/json"
	"math"
	"testing"

	"hdpower/internal/core"
	"hdpower/internal/fleet"
	"hdpower/internal/lut"
	"hdpower/internal/regress"
)

// maxServeWidth is the widest operand serve builds or synthesizes.
const maxServeWidth = 32

// FuzzLibraryFiles feeds arbitrary bytes to the two parsers behind the
// library's files, which may come from another process or an older
// version without a checksum trailer. Any bytes core.LoadModel accepts
// must flatten with lut.New into finite, non-negative slots. For any bytes
// regress.LoadParamModel accepts, Synthesize at every width serve accepts
// must either fail lut.New or price only finite, non-negative slots.
func FuzzLibraryFiles(f *testing.F) {
	for _, seed := range libraryFileSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := core.LoadModel(data); err == nil {
			tab, err := lut.New(m)
			if err != nil {
				t.Fatalf("loaded model does not flatten: %v", err)
			}
			checkSlots(t, tab, "model")
		}
		pm, err := regress.LoadParamModel(data)
		if err != nil {
			return
		}
		for w := 1; w <= maxServeWidth; w++ {
			if tab, err := lut.New(pm.Synthesize(w)); err == nil {
				checkSlots(t, tab, "synthesis")
			}
		}
	})
}

// checkSlots fails the test unless every basic and enhanced slot of tab
// is a finite, non-negative charge.
func checkSlots(t *testing.T, tab *lut.Table, what string) {
	t.Helper()
	for i := 0; i <= tab.InputBits; i++ {
		if p := tab.P(i); !(p >= 0) || math.IsInf(p, 0) {
			t.Fatalf("%s prices Hd %d at %v", what, i, p)
		}
		if !tab.HasEnhanced() {
			continue
		}
		for z := 0; z <= tab.InputBits-i; z++ {
			if p := tab.PEnhanced(i, z); !(p >= 0) || math.IsInf(p, 0) {
				t.Fatalf("%s prices Hd %d, %d stable zeros at %v", what, i, z, p)
			}
		}
	}
}

// libraryFileSeeds returns what the library stores: characterized basic,
// enhanced and z-clustered model files and a width regression fitted to
// characterized prototypes, plus a model with a negative enhanced charge
// and a regression whose width factor exceeds its class count.
func libraryFileSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	characterize := func(width int, enhanced bool, zClusters int) *core.Model {
		job := fleet.JobSpec{Module: "ripple-adder", Width: width, Seed: 1, Patterns: 512,
			Enhanced: enhanced, ZClusters: zClusters, Backend: core.BackendBitParallel.Name()}
		meter, err := job.Meter()
		if err != nil {
			tb.Fatal(err)
		}
		m, err := core.Characterize(meter, job.Name(), job.Options())
		if err != nil {
			tb.Fatal(err)
		}
		return m
	}
	var protos []regress.Prototype
	for _, w := range regress.SetThi.Widths() {
		protos = append(protos, regress.Prototype{Width: w, Model: characterize(w, false, 0)})
	}
	pm, err := regress.Fit("ripple-adder", protos, regress.Linear)
	if err != nil {
		tb.Fatal(err)
	}
	negative := characterize(3, true, 0)
	negative.Enhanced[0][0] = core.Coef{P: -5, Count: 3}
	var seeds [][]byte
	for _, v := range []any{characterize(3, false, 0), characterize(3, true, 0),
		characterize(4, true, 2), pm, negative} {
		data, err := json.Marshal(v)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	return append(seeds, []byte(`{"format":"hdpower-parammodel-v1","module":"ripple-adder",`+
		`"basis":"linear","width_factor":1125899906842624,"r":[[1,2]],"residual":[0]}`))
}
