package lut

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"hdpower/internal/core"
	"hdpower/internal/dwlib"
	"hdpower/internal/logic"
	"hdpower/internal/power"
	"hdpower/internal/sim"
)

// MustNew is New for models known valid (test fixtures).
func MustNew(m *core.Model) *Table {
	t, err := New(m)
	if err != nil {
		panic(err)
	}
	return t
}

// sparseModel builds a model with deliberate coefficient gaps so the
// flattening has to reproduce P's interpolation and PEnhanced's fallback.
func sparseModel(m int, enhanced bool) *core.Model {
	model := &core.Model{Module: "sparse", InputBits: m, Basic: make([]core.Coef, m)}
	for i := 1; i <= m; i++ {
		if i%2 == 1 { // observe odd classes only
			model.Basic[i-1] = core.Coef{P: float64(i) * 1.5, Epsilon: 0.1, Count: 7}
		}
	}
	if enhanced {
		model.Enhanced = make([][]core.Coef, m)
		for i := 1; i <= m; i++ {
			row := make([]core.Coef, model.NumZBuckets(i))
			for zb := range row {
				if (i+zb)%3 != 0 { // leave some classes unobserved
					row[zb] = core.Coef{P: float64(i) + float64(zb)/8, Count: 3}
				}
			}
			model.Enhanced[i-1] = row
		}
	}
	return model
}

// assertTableMatchesModel checks bit-identical agreement over every
// (Hd, stable-zeros) class plus the batch and distribution entry points.
func assertTableMatchesModel(t *testing.T, model *core.Model) {
	t.Helper()
	tab, err := New(model)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if tab.HasEnhanced() != model.HasEnhanced() {
		t.Fatalf("HasEnhanced: table %v, model %v", tab.HasEnhanced(), model.HasEnhanced())
	}
	m := model.InputBits
	for i := 0; i <= m; i++ {
		if got, want := tab.P(i), model.P(i); got != want {
			t.Fatalf("P(%d): table %v != model %v", i, got, want)
		}
		for z := 0; z <= m-i; z++ {
			if got, want := tab.PEnhanced(i, z), model.PEnhanced(i, z); got != want {
				t.Fatalf("PEnhanced(%d,%d): table %v != model %v", i, z, got, want)
			}
		}
	}

	hds := make([]int, 0, m+1)
	zeros := make([]int, 0, m+1)
	for i := 0; i <= m; i++ {
		hds = append(hds, i)
		zeros = append(zeros, (m-i)/2)
	}
	dst := make([]float64, len(hds))
	total := tab.EstimateBasicInto(dst, hds)
	want := model.EstimateBasic(hds)
	var wantTotal float64
	for j := range want {
		if dst[j] != want[j] {
			t.Fatalf("EstimateBasicInto[%d]: %v != %v", j, dst[j], want[j])
		}
		wantTotal += want[j]
	}
	if total != wantTotal {
		t.Fatalf("EstimateBasicInto total %v != %v", total, wantTotal)
	}

	totalEnh := tab.EstimateEnhancedInto(dst, hds, zeros)
	wantEnh, err := model.EstimateEnhanced(hds, zeros)
	if err != nil {
		t.Fatal(err)
	}
	wantTotal = 0
	for j := range wantEnh {
		if dst[j] != wantEnh[j] {
			t.Fatalf("EstimateEnhancedInto[%d]: %v != %v", j, dst[j], wantEnh[j])
		}
		wantTotal += wantEnh[j]
	}
	if totalEnh != wantTotal {
		t.Fatalf("EstimateEnhancedInto total %v != %v", totalEnh, wantTotal)
	}

	dist := make([]float64, m+1)
	for i := range dist {
		dist[i] = 1 / float64(m+1)
	}
	gotAvg, err := tab.AvgFromDist(dist)
	if err != nil {
		t.Fatal(err)
	}
	wantAvg, err := model.AvgFromDist(dist)
	if err != nil {
		t.Fatal(err)
	}
	if gotAvg != wantAvg {
		t.Fatalf("AvgFromDist: table %v != model %v", gotAvg, wantAvg)
	}
}

// joinJSON renders vals through encoding/json, sep between two values.
func joinJSON(t *testing.T, vals []float64, sep string) []byte {
	t.Helper()
	var out []byte
	for j, v := range vals {
		if j > 0 {
			out = append(out, sep...)
		}
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b...)
	}
	return out
}

// checkAppend compares one Append estimator's bytes and total with the
// encoding/json rendering of the reference estimates and their total.
func checkAppend(t *testing.T, name string, got []byte, total float64, want []float64, wantTotal float64, sep string) {
	t.Helper()
	if w := joinJSON(t, want, sep); !bytes.Equal(got, w) {
		t.Fatalf("%s (sep %q): bytes\n%s\nwant\n%s", name, sep, got, w)
	}
	if math.Float64bits(total) != math.Float64bits(wantTotal) {
		t.Fatalf("%s (sep %q): total %v, want %v bit for bit", name, sep, total, wantTotal)
	}
}

// assertTextMatches pins a table's wire text: every slot's bytes are
// json.Marshal of its value, and each Append estimator returns the
// encoding/json rendering of the float entry points' estimates, with a
// total bit-identical to theirs — EstimateBasicInto and
// EstimateEnhancedInto over every (Hd, stable-zero) class, and for words
// a P/PEnhanced loop over logic.Hd and logic.StableZeros.
func assertTextMatches(t *testing.T, model *core.Model) {
	t.Helper()
	tab := MustNew(model)
	for k, v := range tab.vals {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := tab.text[tab.textAt[k]:tab.textAt[k+1]]; !bytes.Equal(got, want) {
			t.Fatalf("%s slot %d: text %q, json.Marshal %q", model.Module, k, got, want)
		}
	}

	m := model.InputBits
	var hds, zeros []int
	for i := 0; i <= m; i++ {
		for z := 0; z <= m-i; z++ {
			hds = append(hds, i)
			zeros = append(zeros, z)
		}
	}
	dst := make([]float64, len(hds))

	var words []uint64
	var wordEst []float64
	var wordTotal float64
	if m <= 64 {
		rng := rand.New(rand.NewSource(int64(m)))
		words = []uint64{0, ^uint64(0), ^uint64(0), 0, 0} // Hd m, 0 with no and all zeros
		for len(words) < 64 {
			// Sparse and dense toggles reach the extreme Hd classes.
			w := rng.Uint64()
			switch len(words) % 3 {
			case 1:
				w &= rng.Uint64()
			case 2:
				w |= rng.Uint64()
			}
			words = append(words, w)
		}
		mask := ^uint64(0) >> uint(64-m)
		for j := 1; j < len(words); j++ {
			prev, cur := logic.FromUint(words[j-1]&mask, m), logic.FromUint(words[j]&mask, m)
			hd := logic.Hd(prev, cur)
			q := tab.P(hd)
			if tab.HasEnhanced() {
				q = tab.PEnhanced(hd, logic.StableZeros(prev, cur))
			}
			wordEst = append(wordEst, q)
			wordTotal += q
		}
	}

	for _, sep := range []string{",", ",\n    "} {
		got, total := tab.AppendBasic(nil, sep, hds)
		want := tab.EstimateBasicInto(dst, hds)
		checkAppend(t, model.Module+" AppendBasic", got, total, dst, want, sep)

		got, total = tab.AppendEnhanced(nil, sep, hds, zeros)
		want = tab.EstimateEnhancedInto(dst, hds, zeros)
		checkAppend(t, model.Module+" AppendEnhanced", got, total, dst, want, sep)

		if words != nil {
			got, total = tab.AppendWords([]byte("["), sep, words)
			checkAppend(t, model.Module+" AppendWords", got[1:], total, wordEst, wordTotal, sep)
		}
	}
}

func TestTableMatchesSparseModel(t *testing.T) {
	for _, enhanced := range []bool{false, true} {
		assertTableMatchesModel(t, sparseModel(9, enhanced))
		assertTextMatches(t, sparseModel(9, enhanced))
	}
}

// TestTableTextNastyFloats pins the rendered text on values that hit
// every branch of encoding/json's float format: the 'e' form thresholds
// (1e-6, 1e21), unpadded negative exponents, subnormals, the largest
// float64 (whose sums overflow to +Inf, matched bit for bit), and
// repeating binary fractions.
func TestTableTextNastyFloats(t *testing.T) {
	vals := []float64{1e-7, 1e21, 5e-324, math.MaxFloat64, 0.1 + 0.2, 1.0 / 3.0,
		9.9e20, 1e-6, 9.99e-7, 2.5e-7, 1.23456789e21, 123456.789012345, 1e20, 0}
	m := len(vals)
	model := &core.Model{Module: "nasty", InputBits: m, Basic: make([]core.Coef, m),
		Enhanced: make([][]core.Coef, m)}
	for i := 1; i <= m; i++ {
		model.Basic[i-1] = core.Coef{P: vals[i-1], Count: 5}
		row := make([]core.Coef, model.NumZBuckets(i))
		for zb := range row {
			if (i+zb)%3 != 0 { // unobserved slots fall back to basic
				row[zb] = core.Coef{P: vals[(i*5+zb)%m], Count: 1}
			}
		}
		model.Enhanced[i-1] = row
	}
	assertTableMatchesModel(t, model)
	assertTextMatches(t, model)
	model.Enhanced = nil
	assertTextMatches(t, model)
}

func TestTableMatchesClusteredModel(t *testing.T) {
	model := sparseModel(10, true)
	model.ZClusters = 3
	// Rebuild rows to the clustered bucket counts.
	for i := 1; i <= 10; i++ {
		row := make([]core.Coef, model.NumZBuckets(i))
		for zb := range row {
			if zb%2 == 0 {
				row[zb] = core.Coef{P: float64(i*10 + zb), Count: 2}
			}
		}
		model.Enhanced[i-1] = row
	}
	assertTableMatchesModel(t, model)
	assertTextMatches(t, model)
}

// TestTableMatchesCharacterizedCatalog pins the equivalence on real
// fitted models: every dwlib catalog module is characterized (enhanced)
// at two widths, z-clustered at the smaller and at full resolution at
// the larger, and the flattened table must agree bit-for-bit with the
// struct-walking Model on every class, and its wire text with
// encoding/json on every slot and estimator. This is the whole-library
// guarantee the serving fast path rests on.
func TestTableMatchesCharacterizedCatalog(t *testing.T) {
	if testing.Short() {
		t.Skip("characterizes the whole catalog")
	}
	for _, name := range dwlib.Names() {
		mod, err := dwlib.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		width := mod.MinWidth
		if width < 4 {
			width = 4
		}
		for _, run := range []struct{ width, zClusters int }{{width, 4}, {width + 4, 0}} {
			nl := mod.Build(run.width)
			if err := nl.Finalize(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			meter, err := power.NewMeter(nl, sim.EventDriven)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			model, err := core.Characterize(meter, name, core.CharacterizeOptions{
				Patterns: 400, Seed: 1, Enhanced: true, ZClusters: run.zClusters, Workers: 1,
				Backend: core.BackendBitParallel,
			})
			if err != nil {
				t.Fatalf("characterize %s at width %d: %v", name, run.width, err)
			}
			assertTableMatchesModel(t, model)
			assertTextMatches(t, model)
		}
	}
}

func TestNewRejectsInvalidModel(t *testing.T) {
	if _, err := New(&core.Model{Module: "bad", InputBits: 0}); err == nil {
		t.Fatal("New accepted a model with 0 input bits")
	}
	if _, err := New(&core.Model{Module: "bad", InputBits: 4, Basic: make([]core.Coef, 2)}); err == nil {
		t.Fatal("New accepted a model with a short basic table")
	}
}

func TestMustNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic on an invalid model")
		}
	}()
	MustNew(&core.Model{Module: "bad", InputBits: 0})
}

func TestPanicsOnOutOfRange(t *testing.T) {
	tab := MustNew(sparseModel(4, true))
	for _, fn := range []func(){
		func() { tab.P(-1) },
		func() { tab.P(5) },
		func() { tab.PEnhanced(5, 0) },
		func() { tab.PEnhanced(2, 3) },
		func() { tab.PEnhanced(2, -1) },
		func() { tab.EstimateBasicInto(make([]float64, 1), []int{1, 2}) },
		func() { tab.EstimateEnhancedInto(make([]float64, 2), []int{1, 2}, []int{0}) },
		func() { tab.EstimateEnhancedInto(make([]float64, 1), []int{1, 2}, []int{0, 0}) },
		func() { tab.AppendBasic(nil, ",", []int{1, 5}) },
		func() { tab.AppendEnhanced(nil, ",", []int{1, 2}, []int{0}) },
		func() { tab.AppendEnhanced(nil, ",", []int{1, 2}, []int{0, 3}) },
		func() { MustNew(sparseModel(65, false)).AppendWords(nil, ",", []uint64{0, 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestAvgFromDistLengthMismatch(t *testing.T) {
	tab := MustNew(sparseModel(4, false))
	if _, err := tab.AvgFromDist(make([]float64, 3)); err == nil {
		t.Fatal("AvgFromDist accepted a wrong-length distribution")
	}
}

// TestEstimateIntoAllocs pins the zero-allocation contract of the batch
// entry points the stream endpoint leans on: the float estimators, and
// the Append estimators once dst has grown.
func TestEstimateIntoAllocs(t *testing.T) {
	tab := MustNew(sparseModel(12, true))
	hds := []int{1, 5, 9, 12, 0, 3}
	zeros := []int{2, 4, 1, 0, 6, 5}
	words := []uint64{0, 4095, 17, 3000, 5}
	dst := make([]float64, len(hds))
	buf := make([]byte, 0, 1024)
	allocs := testing.AllocsPerRun(200, func() {
		tab.EstimateBasicInto(dst, hds)
		tab.EstimateEnhancedInto(dst, hds, zeros)
		buf, _ = tab.AppendBasic(buf[:0], ",", hds)
		buf, _ = tab.AppendEnhanced(buf[:0], ",", hds, zeros)
		buf, _ = tab.AppendWords(buf[:0], ",", words)
	})
	if allocs != 0 {
		t.Fatalf("estimators allocated %v allocs/op, want 0", allocs)
	}
}

func TestTableValuesFinite(t *testing.T) {
	tab := MustNew(sparseModel(8, true))
	for i := 0; i <= 8; i++ {
		if v := tab.P(i); math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("P(%d) = %v", i, v)
		}
	}
}
