package core

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// handModel builds a small model with known coefficients for estimator
// tests: p_i = 10·i for i in 1..4.
func handModel() *Model {
	m := &Model{Module: "hand", InputBits: 4, Basic: make([]Coef, 4)}
	for i := 1; i <= 4; i++ {
		m.Basic[i-1] = Coef{P: float64(10 * i), Epsilon: 0.1, Count: 100}
	}
	return m
}

func TestPBasic(t *testing.T) {
	m := handModel()
	if m.P(0) != 0 {
		t.Errorf("P(0) = %v", m.P(0))
	}
	for i := 1; i <= 4; i++ {
		if m.P(i) != float64(10*i) {
			t.Errorf("P(%d) = %v", i, m.P(i))
		}
	}
}

func TestPOutOfRangePanics(t *testing.T) {
	m := handModel()
	for _, i := range []int{-1, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("P(%d) did not panic", i)
				}
			}()
			m.P(i)
		}()
	}
}

func TestPInterpolatesUnobservedClasses(t *testing.T) {
	m := handModel()
	m.Basic[1] = Coef{} // drop p_2; neighbors p_1=10, p_3=30
	if got := m.P(2); got != 20 {
		t.Errorf("interpolated P(2) = %v, want 20", got)
	}
	// unobserved at the high end: constant extrapolation
	m = handModel()
	m.Basic[3] = Coef{}
	if got := m.P(4); got != 30 {
		t.Errorf("extrapolated P(4) = %v, want 30", got)
	}
	// unobserved at the low end: interpolate towards p_0 = 0
	m = handModel()
	m.Basic[0] = Coef{}
	if got := m.P(1); got != 10 {
		t.Errorf("extrapolated P(1) = %v, want 10 (20*1/2)", got)
	}
	// all empty
	m = &Model{Module: "empty", InputBits: 3, Basic: make([]Coef, 3)}
	if got := m.P(2); got != 0 {
		t.Errorf("P on empty model = %v", got)
	}
}

func TestInterpP(t *testing.T) {
	m := handModel()
	cases := []struct{ x, want float64 }{
		{-1, 0}, {0, 0}, {0.5, 5}, {1, 10}, {2.5, 25}, {4, 40}, {9, 40},
	}
	for _, c := range cases {
		if got := m.InterpP(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("InterpP(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestEstimateBasic(t *testing.T) {
	m := handModel()
	got := m.EstimateBasic([]int{0, 1, 4, 2})
	want := []float64{0, 10, 40, 20}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("estimate[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEnhancedFallback(t *testing.T) {
	m := handModel()
	// No enhanced table: falls back to basic.
	if got := m.PEnhanced(2, 1); got != 20 {
		t.Errorf("fallback PEnhanced = %v", got)
	}
	// With a table: populated class wins, empty class falls back.
	m.Enhanced = make([][]Coef, 4)
	for i := 1; i <= 4; i++ {
		m.Enhanced[i-1] = make([]Coef, m.NumZBuckets(i))
	}
	m.Enhanced[1][0] = Coef{P: 99, Count: 5} // Hd=2, z=0
	if got := m.PEnhanced(2, 0); got != 99 {
		t.Errorf("enhanced coefficient = %v, want 99", got)
	}
	if got := m.PEnhanced(2, 1); got != 20 {
		t.Errorf("empty enhanced class fallback = %v, want 20", got)
	}
}

func TestPEnhancedRangeChecks(t *testing.T) {
	m := handModel()
	defer func() {
		if recover() == nil {
			t.Fatal("z out of range accepted")
		}
	}()
	m.PEnhanced(2, 3) // z may be at most m-i = 2
}

func TestEstimateEnhancedLengthMismatch(t *testing.T) {
	m := handModel()
	if _, err := m.EstimateEnhanced([]int{1, 2}, []int{0}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestAvgFromDist(t *testing.T) {
	m := handModel()
	dist := []float64{0.1, 0.2, 0.3, 0.2, 0.2} // Hd 0..4
	got, err := m.AvgFromDist(dist)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.2*10 + 0.3*20 + 0.2*30 + 0.2*40
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("AvgFromDist = %v, want %v", got, want)
	}
	if _, err := m.AvgFromDist([]float64{1}); err == nil {
		t.Error("short distribution accepted")
	}
}

func TestNumCoefficientsFullResolution(t *testing.T) {
	m := 8
	model := &Model{Module: "x", InputBits: m, Basic: make([]Coef, m)}
	model.Enhanced = make([][]Coef, m)
	for i := 1; i <= m; i++ {
		model.Enhanced[i-1] = make([]Coef, model.NumZBuckets(i))
	}
	b, e := model.NumCoefficients()
	if b != m {
		t.Errorf("basic count = %d", b)
	}
	if want := (m*m + m) / 2; e != want {
		t.Errorf("enhanced count = %d, want %d (paper's (m^2+m)/2)", e, want)
	}
}

func TestZBucketClustering(t *testing.T) {
	model := &Model{Module: "x", InputBits: 16, ZClusters: 4, Basic: make([]Coef, 16)}
	// Hd=1: z in 0..15, 4 buckets of 4.
	if model.NumZBuckets(1) != 4 {
		t.Fatalf("NumZBuckets(1) = %d", model.NumZBuckets(1))
	}
	if model.ZBucket(1, 0) != 0 || model.ZBucket(1, 15) != 3 {
		t.Errorf("bucket ends: %d, %d", model.ZBucket(1, 0), model.ZBucket(1, 15))
	}
	// monotone in z
	last := -1
	for z := 0; z <= 15; z++ {
		b := model.ZBucket(1, z)
		if b < last {
			t.Errorf("bucket not monotone at z=%d", z)
		}
		last = b
	}
	// Hd near m: fewer possible z values than clusters -> full resolution.
	if model.NumZBuckets(15) != 2 {
		t.Errorf("NumZBuckets(15) = %d, want 2", model.NumZBuckets(15))
	}
}

func TestValidate(t *testing.T) {
	good := handModel()
	if err := good.Validate(); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
	bad := handModel()
	bad.Basic = bad.Basic[:2]
	if err := bad.Validate(); err == nil {
		t.Error("short basic table accepted")
	}
	bad = handModel()
	bad.Basic[0].P = math.NaN()
	if err := bad.Validate(); err == nil {
		t.Error("NaN coefficient accepted")
	}
	bad = &Model{Module: "x", InputBits: 0}
	if err := bad.Validate(); err == nil {
		t.Error("zero-width model accepted")
	}
	// Enhanced coefficients pass the same check as basic ones.
	for _, p := range []float64{-5, math.NaN(), math.Inf(1)} {
		bad = handModel()
		bad.Enhanced = make([][]Coef, 4)
		for i := 1; i <= 4; i++ {
			bad.Enhanced[i-1] = make([]Coef, bad.NumZBuckets(i))
		}
		if err := bad.Validate(); err != nil {
			t.Fatalf("valid enhanced table rejected: %v", err)
		}
		bad.Enhanced[0][0] = Coef{P: p, Count: 3}
		if err := bad.Validate(); err == nil {
			t.Errorf("enhanced coefficient %v accepted", p)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	m := handModel()
	m.Enhanced = make([][]Coef, 4)
	for i := 1; i <= 4; i++ {
		m.Enhanced[i-1] = make([]Coef, m.NumZBuckets(i))
		for z := range m.Enhanced[i-1] {
			m.Enhanced[i-1][z] = Coef{P: float64(i*10 + z), Count: 3}
		}
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := LoadModel(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Module != m.Module || back.InputBits != m.InputBits {
		t.Errorf("round trip header mismatch: %+v", back)
	}
	for i := range m.Basic {
		if back.Basic[i] != m.Basic[i] {
			t.Errorf("basic[%d] = %+v, want %+v", i, back.Basic[i], m.Basic[i])
		}
	}
	if back.PEnhanced(2, 1) != m.PEnhanced(2, 1) {
		t.Error("enhanced table lost in round trip")
	}
}

func TestLoadModelRejectsGarbage(t *testing.T) {
	if _, err := LoadModel([]byte("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := LoadModel([]byte(`{"module":"x","input_bits":2,"basic":[]}`)); err == nil {
		t.Error("inconsistent model accepted")
	}
}

// Property: InterpP is monotone for a monotone coefficient table.
func TestInterpPMonotone(t *testing.T) {
	m := handModel()
	f := func(a, b float64) bool {
		x := math.Abs(math.Mod(a, 5))
		y := math.Abs(math.Mod(b, 5))
		if x > y {
			x, y = y, x
		}
		return m.InterpP(x) <= m.InterpP(y)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTotalDeviation(t *testing.T) {
	m := handModel()
	if got := m.TotalDeviation(); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("total deviation = %v", got)
	}
	empty := &Model{Module: "e", InputBits: 2, Basic: make([]Coef, 2)}
	if empty.TotalDeviation() != 0 {
		t.Error("empty model deviation nonzero")
	}
}

func TestReport(t *testing.T) {
	m := handModel()
	out := m.Report()
	for _, want := range []string{"hand", "4 input bits", "p_i", "eps_i", "="} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	m.Basic[2] = Coef{} // unobserved class should be marked
	if !strings.Contains(m.Report(), "interpolated") {
		t.Error("report does not mark interpolated classes")
	}
	m.Enhanced = [][]Coef{}
	m.Enhanced = nil
	m.ZClusters = 4
	if !strings.Contains(m.Report(), "hand") {
		t.Error("report broken with z clusters set")
	}
}
