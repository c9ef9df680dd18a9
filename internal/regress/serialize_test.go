package regress

import (
	"encoding/json"
	"math"
	"testing"
)

func TestParamModelJSONRoundTrip(t *testing.T) {
	law := func(i, w int) float64 { return float64(i) * (3*float64(w) + 5) }
	pm, err := Fit("ripple-adder", syntheticProtos(SetAll.Widths(), law), Linear)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(pm)
	if err != nil {
		t.Fatal(err)
	}
	back, err := LoadParamModel(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Module != pm.Module || back.Basis.Name != pm.Basis.Name ||
		back.WidthFactor != pm.WidthFactor {
		t.Errorf("header mismatch: %+v", back)
	}
	// Coefficients evaluate identically, including at unseen widths.
	for _, w := range []int{4, 9, 20} {
		for i := 1; i <= 8; i++ {
			a, okA := pm.Coefficient(i, w)
			b, okB := back.Coefficient(i, w)
			if okA != okB || math.Abs(a-b) > 1e-12 {
				t.Errorf("p_%d[%d]: %v/%v vs %v/%v", i, w, a, okA, b, okB)
			}
		}
	}
	// Synthesized models match too.
	ma, mb := pm.Synthesize(10), back.Synthesize(10)
	for i := 1; i <= ma.InputBits; i++ {
		if math.Abs(ma.P(i)-mb.P(i)) > 1e-12 {
			t.Errorf("synthesized p_%d differs", i)
		}
	}
}

func TestLoadParamModelRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":    "nope",
		"bad basis":   `{"module":"x","basis":"cubic","width_factor":2,"r":[[1,2]],"residual":[0]}`,
		"bad factor":  `{"module":"x","basis":"linear","width_factor":0,"r":[[1,2]],"residual":[0]}`,
		"empty table": `{"module":"x","basis":"linear","width_factor":2,"r":[],"residual":[]}`,
		"arity":       `{"module":"x","basis":"linear","width_factor":2,"r":[[1,2,3]],"residual":[0]}`,
		"mismatch":    `{"module":"x","basis":"linear","width_factor":2,"r":[[1,2]],"residual":[0,0]}`,
		// More input bits per operand bit than the fit has classes.
		"factor > classes": `{"module":"x","basis":"linear","width_factor":3,"r":[[1,2],[3,4]],"residual":[0,0]}`,
		"factor 2^50":      `{"module":"x","basis":"linear","width_factor":1125899906842624,"r":[[1,2]],"residual":[0]}`,
	}
	for name, src := range cases {
		if _, err := LoadParamModel([]byte(src)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestBasisByName(t *testing.T) {
	for _, b := range []Basis{Linear, Quadratic} {
		got, err := BasisByName(b.Name)
		if err != nil {
			t.Fatal(err)
		}
		if got.Degree != b.Degree {
			t.Errorf("%s: degree %d", b.Name, got.Degree)
		}
	}
	if _, err := BasisByName("septic"); err == nil {
		t.Error("unknown basis accepted")
	}
}
