package core

import (
	"encoding/json"
	"math"
	"testing"

	"hdpower/internal/logic"
	"hdpower/internal/power"
	"hdpower/internal/stimuli"
)

func handPortModel() *PortModel {
	pm := &PortModel{Module: "hand", WidthA: 2, WidthB: 2}
	pm.Coeffs = make([][]Coef, 3)
	for ia := range pm.Coeffs {
		pm.Coeffs[ia] = make([]Coef, 3)
		for ib := range pm.Coeffs[ia] {
			if ia == 0 && ib == 0 {
				continue
			}
			pm.Coeffs[ia][ib] = Coef{P: float64(10*ia + ib), Count: 5}
		}
	}
	return pm
}

func TestPortModelP(t *testing.T) {
	pm := handPortModel()
	if pm.P(0, 0) != 0 {
		t.Error("P(0,0) != 0")
	}
	if pm.P(1, 2) != 12 {
		t.Errorf("P(1,2) = %v", pm.P(1, 2))
	}
	if pm.P(2, 0) != 20 {
		t.Errorf("P(2,0) = %v", pm.P(2, 0))
	}
}

func TestPortModelFallbackRing(t *testing.T) {
	pm := handPortModel()
	pm.Coeffs[1][1] = Coef{} // unobserved; ring-1 neighbors: (0,1)=1, (2,1)=21, (1,0)=10, (1,2)=12
	want := (1.0 + 21 + 10 + 12) / 4
	if got := pm.P(1, 1); math.Abs(got-want) > 1e-12 {
		t.Errorf("fallback P(1,1) = %v, want %v", got, want)
	}
}

func TestPortModelPOutOfRangePanics(t *testing.T) {
	pm := handPortModel()
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range accepted")
		}
	}()
	pm.P(3, 0)
}

func TestPortModelEstimate(t *testing.T) {
	pm := handPortModel()
	got, err := pm.Estimate([]int{0, 1, 2}, []int{0, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 12, 21}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("estimate[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if _, err := pm.Estimate([]int{1}, []int{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestPortModelJSONRoundTrip(t *testing.T) {
	pm := handPortModel()
	data, err := json.Marshal(pm)
	if err != nil {
		t.Fatal(err)
	}
	var back PortModel
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	if back.P(2, 1) != pm.P(2, 1) {
		t.Error("round trip lost coefficients")
	}
	var bad PortModel
	if err := json.Unmarshal([]byte(`{"width_a":0}`), &bad); err != nil || bad.Validate() == nil {
		t.Error("invalid port model accepted")
	}
}

func TestCharacterizePortsCoverage(t *testing.T) {
	meter := meterFor(t, "csa-multiplier", 4) // ports 4+4
	pm, err := CharacterizePorts(meter, "csa4", 4, 4, CharacterizeOptions{
		Patterns: 6000, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pm.NumCoefficients() != 24 {
		t.Errorf("coefficient count = %d", pm.NumCoefficients())
	}
	covered := 0
	for ia := 0; ia <= 4; ia++ {
		for ib := 0; ib <= 4; ib++ {
			if ia == 0 && ib == 0 {
				continue
			}
			if pm.Coeffs[ia][ib].Count > 0 {
				covered++
			}
		}
	}
	if covered < 20 {
		t.Errorf("only %d of 24 port classes covered", covered)
	}
	// Edge classes (one port frozen) must be covered — they're the whole
	// point of the port model.
	if pm.Coeffs[4][0].Count == 0 || pm.Coeffs[0][4].Count == 0 {
		t.Error("edge classes uncovered")
	}
}

func TestCharacterizePortsWidthValidation(t *testing.T) {
	meter := meterFor(t, "csa-multiplier", 4)
	if _, err := CharacterizePorts(meter, "x", 3, 4, CharacterizeOptions{Patterns: 10}); err == nil {
		t.Error("mismatched port widths accepted")
	}
}

// The port model must beat the total-Hd model when the two ports carry
// asymmetric streams — here a live data port against a frozen
// coefficient port, the FIR situation from examples/firfilter.
func TestPortModelBeatsBasicOnFrozenPort(t *testing.T) {
	width := 4
	basic, err := Characterize(meterFor(t, "csa-multiplier", width), "csa4",
		CharacterizeOptions{Patterns: 6000, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	pm, err := CharacterizePorts(meterFor(t, "csa-multiplier", width), "csa4",
		width, width, CharacterizeOptions{Patterns: 6000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}

	// Evaluation stream: random data on port A, constant 0b0101 on B.
	eval := meterFor(t, "csa-multiplier", width)
	constB := logic.FromUint(5, width)
	var words []logic.Word
	src := stimuli.Random(width, 77)
	for i := 0; i < 2001; i++ {
		words = append(words, src.Next().Concat(constB))
	}
	tr, err := eval.Run(words)
	if err != nil {
		t.Fatal(err)
	}
	hdA := make([]int, tr.Len())
	hdB := make([]int, tr.Len())
	for j := 1; j < len(words); j++ {
		hdA[j-1] = logic.Hd(words[j-1].Slice(0, width), words[j].Slice(0, width))
		hdB[j-1] = logic.Hd(words[j-1].Slice(width, 2*width), words[j].Slice(width, 2*width))
	}
	basicEst := basic.EstimateBasic(tr.Hd)
	portEst, err := pm.Estimate(hdA, hdB)
	if err != nil {
		t.Fatal(err)
	}
	basicErr, err := power.AvgError(basicEst, tr.Q)
	if err != nil {
		t.Fatal(err)
	}
	portErr, err := power.AvgError(portEst, tr.Q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(portErr) >= math.Abs(basicErr) {
		t.Errorf("port model |%.1f%%| not better than basic |%.1f%%| with frozen port",
			portErr, basicErr)
	}
	if math.Abs(portErr) > 12 {
		t.Errorf("port model error %.1f%% too large", portErr)
	}
}
