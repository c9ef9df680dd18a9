package regress

import (
	"math"
	"testing"

	"hdpower/internal/core"
	"hdpower/internal/dwlib"
	"hdpower/internal/power"
	"hdpower/internal/sim"
)

// syntheticProtos builds prototype models whose coefficients follow an
// exact law p_i[m] = law(i, m) over total input bits 2*width.
func syntheticProtos(widths []int, law func(i, width int) float64) []Prototype {
	protos := make([]Prototype, len(widths))
	for k, w := range widths {
		m := 2 * w
		model := &core.Model{Module: "synthetic", InputBits: m, Basic: make([]core.Coef, m)}
		for i := 1; i <= m; i++ {
			model.Basic[i-1] = core.Coef{P: law(i, w), Count: 10}
		}
		protos[k] = Prototype{Width: w, Model: model}
	}
	return protos
}

// fitSquare fits square prototypes (one width for every operand);
// TestFitDigests fits through it.
func fitSquare(module string, protos []Prototype, basis Basis) (*ParamModel, error) {
	return Fit(module, protos, basis)
}

func TestFitRecoversLinearLaw(t *testing.T) {
	// p_i[m] = i·(3m + 5): linear in width for each class.
	law := func(i, w int) float64 { return float64(i) * (3*float64(w) + 5) }
	protos := syntheticProtos(SetAll.Widths(), law)
	pm, err := Fit("ripple-adder", protos, Linear)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{4, 7, 16, 24} { // includes unseen and extrapolated widths
		for i := 1; i <= 8; i++ {
			got, ok := pm.Coefficient(i, w)
			if !ok {
				t.Fatalf("class %d unfitted", i)
			}
			want := law(i, w)
			if math.Abs(got-want) > 1e-6*want {
				t.Errorf("p_%d[%d] = %v, want %v", i, w, got, want)
			}
		}
	}
}

func TestFitRecoversQuadraticLaw(t *testing.T) {
	law := func(i, w int) float64 {
		fw := float64(w)
		return float64(i) * (0.7*fw*fw + 2*fw + 1)
	}
	protos := syntheticProtos(SetThi.Widths(), law) // minimum set: 3 points, 3 terms
	pm, err := Fit("csa-multiplier", protos, Quadratic)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 8; i++ {
		got, ok := pm.Coefficient(i, 8)
		if !ok {
			t.Fatalf("class %d unfitted", i)
		}
		want := law(i, 8)
		if math.Abs(got-want) > 1e-6*want {
			t.Errorf("p_%d[8] = %v, want %v", i, got, want)
		}
	}
}

func TestFitResidualZeroForExactLaw(t *testing.T) {
	law := func(i, w int) float64 { return float64(i) * float64(w) }
	pm, err := Fit("x", syntheticProtos(SetSec.Widths(), law), Linear)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 8; i++ {
		if pm.Residual[i-1] > 1e-9 {
			t.Errorf("class %d residual = %v", i, pm.Residual[i-1])
		}
	}
}

func TestFitHighClassesNeedEnoughPrototypes(t *testing.T) {
	// Class i = 2*16 = 32 exists only in the width-16 prototype: with a
	// 2-term basis it cannot be fitted and must be reported as such.
	law := func(i, w int) float64 { return float64(i + w) }
	pm, err := Fit("x", syntheticProtos(SetThi.Widths(), law), Linear)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := pm.Coefficient(32, 16); ok {
		t.Error("class 32 fitted from a single prototype")
	}
	if _, ok := pm.Coefficient(8, 16); !ok {
		t.Error("class 8 unfitted despite full coverage")
	}
}

func TestSynthesizeProducesValidModel(t *testing.T) {
	law := func(i, w int) float64 { return float64(i) * float64(w) }
	pm, _ := Fit("x", syntheticProtos(SetAll.Widths(), law), Linear)
	model := pm.Synthesize(8)
	if err := model.Validate(); err != nil {
		t.Fatal(err)
	}
	if model.InputBits != 16 {
		t.Errorf("input bits = %d", model.InputBits)
	}
	if got, want := model.P(5), 40.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("synthesized P(5) = %v, want %v", got, want)
	}
}

func TestCoefficientClampsNegativeFits(t *testing.T) {
	law := func(i, w int) float64 { return 100 - 10*float64(w) } // goes negative
	pm, _ := Fit("x", syntheticProtos([]int{4, 6, 8}, law), Linear)
	got, ok := pm.Coefficient(1, 16)
	if !ok {
		t.Fatal("class unfitted")
	}
	if got != 0 {
		t.Errorf("negative fit not clamped: %v", got)
	}
}

func TestFitValidation(t *testing.T) {
	law := func(i, w int) float64 { return 1 }
	protos := syntheticProtos([]int{4, 8}, law)
	if _, err := Fit("x", protos, Quadratic); err == nil {
		t.Error("too few prototypes accepted for quadratic basis")
	}
	few := syntheticProtos([]int{4, 8}, law)
	few[0].Width, few[1].Width = 9, 17 // fewer input bits than operand bits
	if _, err := Fit("x", few, Linear); err == nil {
		t.Error("zero width factor accepted")
	}
	bad := []Prototype{{Width: 4, Model: nil}, {Width: 8, Model: nil}}
	if _, err := Fit("x", bad, Linear); err == nil {
		t.Error("nil prototype model accepted")
	}
	// inconsistent bit count
	p := syntheticProtos([]int{4, 8}, law)
	p[0].Width = 5
	if _, err := Fit("x", p, Linear); err == nil {
		t.Error("inconsistent prototype bits accepted")
	}
}

func TestPrototypeSetWidths(t *testing.T) {
	if got := SetAll.Widths(); len(got) != 7 || got[0] != 4 || got[6] != 16 {
		t.Errorf("ALL = %v", got)
	}
	if got := SetSec.Widths(); len(got) != 4 {
		t.Errorf("SEC = %v", got)
	}
	if got := SetThi.Widths(); len(got) != 3 {
		t.Errorf("THI = %v", got)
	}
	if PrototypeSet("nope").Widths() != nil {
		t.Error("unknown set returned widths")
	}
	if len(AllSets()) != 3 {
		t.Error("AllSets wrong")
	}
}

func TestBasisFor(t *testing.T) {
	if BasisFor("csa-multiplier").Name != "quadratic" {
		t.Error("multiplier basis")
	}
	if BasisFor("ripple-adder").Name != "linear" {
		t.Error("adder basis")
	}
}

func TestTermsRect(t *testing.T) {
	got := TermsRect(6, 4)
	want := []float64{24, 6, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("TermsRect = %v", got)
		}
	}
}

// Integration: regression over real characterized ripple-adder prototypes
// reproduces the instance coefficients within the tolerance the paper
// reports (5–10%) for mid-range classes.
func TestFitRealRippleAdderPrototypes(t *testing.T) {
	widths := []int{3, 4, 5, 6}
	protos := make([]Prototype, len(widths))
	for k, w := range widths {
		meter, err := power.NewMeter(dwlib.RippleAdder(w), sim.EventDriven)
		if err != nil {
			t.Fatal(err)
		}
		model, err := core.Characterize(meter, "ripple-adder", core.CharacterizeOptions{
			Patterns: 4000, Seed: int64(100 + w),
		})
		if err != nil {
			t.Fatal(err)
		}
		protos[k] = Prototype{Width: w, Model: model}
	}
	pm, err := Fit("ripple-adder", protos, Linear)
	if err != nil {
		t.Fatal(err)
	}
	// Compare regression vs instance coefficients for the width-5 adder
	// (an interior prototype) on classes covered by all prototypes.
	inst := protos[2].Model
	for i := 1; i <= 6; i++ {
		reg, ok := pm.Coefficient(i, 5)
		if !ok {
			t.Fatalf("class %d unfitted", i)
		}
		instP := inst.P(i)
		if instP == 0 {
			continue
		}
		relErr := math.Abs(reg-instP) / instP
		if relErr > 0.15 {
			t.Errorf("class %d: regression %v vs instance %v (%.1f%% off)",
				i, reg, instP, relErr*100)
		}
	}
}
