package regress

import (
	"math"
	"testing"

	"hdpower/internal/core"
	"hdpower/internal/dwlib"
	"hdpower/internal/power"
	"hdpower/internal/sim"
)

// syntheticRect builds rectangular prototypes following an exact eq. (8)
// law p_i = i·(2·m1·m0 + 3·m1 + 7).
func syntheticRect(shapes [][2]int) []RectPrototype {
	law := func(i, m1, m0 int) float64 {
		return float64(i) * (2*float64(m1)*float64(m0) + 3*float64(m1) + 7)
	}
	out := make([]RectPrototype, len(shapes))
	for k, sh := range shapes {
		m := sh[0] + sh[1]
		model := &core.Model{Module: "synthetic", InputBits: m, Basic: make([]core.Coef, m)}
		for i := 1; i <= m; i++ {
			model.Basic[i-1] = core.Coef{P: law(i, sh[0], sh[1]), Count: 5}
		}
		out[k] = RectPrototype{W1: sh[0], W0: sh[1], Model: model}
	}
	return out
}

func TestFitRectRecoversLaw(t *testing.T) {
	protos := syntheticRect([][2]int{{4, 4}, {8, 4}, {4, 8}, {8, 8}, {6, 6}})
	pm, err := FitRect("csa-multiplier", protos)
	if err != nil {
		t.Fatal(err)
	}
	law := func(i, m1, m0 int) float64 {
		return float64(i) * (2*float64(m1)*float64(m0) + 3*float64(m1) + 7)
	}
	for _, sh := range [][2]int{{6, 4}, {10, 6}, {12, 12}} { // unseen shapes
		for i := 1; i <= 8; i++ {
			got, ok := pm.Coefficient(i, sh[0], sh[1])
			if !ok {
				t.Fatalf("class %d unfitted", i)
			}
			want := law(i, sh[0], sh[1])
			if math.Abs(got-want) > 1e-6*want {
				t.Errorf("p_%d[%dx%d] = %v, want %v", i, sh[0], sh[1], got, want)
			}
		}
	}
}

func TestFitRectValidation(t *testing.T) {
	if _, err := FitRect("x", syntheticRect([][2]int{{4, 4}, {8, 4}})); err == nil {
		t.Error("two prototypes accepted for three terms")
	}
	bad := syntheticRect([][2]int{{4, 4}, {8, 4}, {4, 8}})
	bad[0].W1 = 5 // inconsistent with the model's input bits
	if _, err := FitRect("x", bad); err == nil {
		t.Error("inconsistent prototype accepted")
	}
	bad = syntheticRect([][2]int{{4, 4}, {8, 4}, {4, 8}})
	bad[1].Model = nil
	if _, err := FitRect("x", bad); err == nil {
		t.Error("nil model accepted")
	}
}

// Integration: the paper's Figure 3 scenario — predict the coefficients
// of a 6x4 csa-multiplier from square and rectangular prototypes that do
// not include 6x4.
func TestFitRectRealMultiplier(t *testing.T) {
	if testing.Short() {
		t.Skip("characterizes five multiplier instances")
	}
	shapes := [][2]int{{4, 4}, {8, 4}, {4, 8}, {8, 8}, {6, 6}}
	protos := make([]RectPrototype, len(shapes))
	for k, sh := range shapes {
		meter, err := power.NewMeter(dwlib.CSAMult(sh[0], sh[1]), sim.EventDriven)
		if err != nil {
			t.Fatal(err)
		}
		model, err := core.Characterize(meter, "csa", core.CharacterizeOptions{
			Patterns: 4000, Seed: int64(10*sh[0] + sh[1]),
		})
		if err != nil {
			t.Fatal(err)
		}
		protos[k] = RectPrototype{W1: sh[0], W0: sh[1], Model: model}
	}
	pm, err := FitRect("csa-multiplier", protos)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: direct characterization of the unseen 6x4 instance.
	meter, err := power.NewMeter(dwlib.CSAMult(6, 4), sim.EventDriven)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := core.Characterize(meter, "csa-6x4", core.CharacterizeOptions{
		Patterns: 4000, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		reg, ok := pm.Coefficient(i, 6, 4)
		if !ok {
			t.Fatalf("class %d unfitted", i)
		}
		instP := inst.P(i)
		if instP == 0 {
			continue
		}
		rel := math.Abs(reg-instP) / instP
		// Paper: <5-10% "in most cases". Classes up to 8 are covered by
		// every prototype and fit tightly; the top classes sit near each
		// prototype's own saturation point, where a width-only basis
		// cannot distinguish shapes — allow them more slack.
		limit := 0.25
		if i > 8 {
			limit = 0.45
		}
		if rel > limit {
			t.Errorf("class %d: rect regression %v vs instance %v (%.0f%% off)",
				i, reg, instP, rel*100)
		}
	}
}
