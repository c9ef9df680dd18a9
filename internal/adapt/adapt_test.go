package adapt

import (
	"math"
	"reflect"
	"testing"

	"hdpower/internal/core"
	"hdpower/internal/dwlib"
	"hdpower/internal/power"
	"hdpower/internal/sim"
	"hdpower/internal/stimuli"
)

func baseModel() *core.Model {
	m := &core.Model{Module: "hand", InputBits: 4, Basic: make([]core.Coef, 4)}
	for i := 1; i <= 4; i++ {
		m.Basic[i-1] = core.Coef{P: float64(10 * i), Count: 100}
	}
	return m
}

func TestNewValidates(t *testing.T) {
	if _, err := New(baseModel(), 0); err == nil {
		t.Error("mu=0 accepted")
	}
	if _, err := New(baseModel(), 1.5); err == nil {
		t.Error("mu>1 accepted")
	}
	bad := &core.Model{Module: "x", InputBits: 2}
	if _, err := New(bad, 0.1); err == nil {
		t.Error("invalid base model accepted")
	}
}

func TestBaseModelNotMutated(t *testing.T) {
	base := baseModel()
	a, err := New(base, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	a.Observe(2, 1000)
	if base.P(2) != 20 {
		t.Errorf("base model mutated: p2 = %v", base.P(2))
	}
	if a.Model().P(2) == 20 {
		t.Error("adapted model unchanged")
	}
}

func TestLMSConvergesToStreamMean(t *testing.T) {
	a, _ := New(baseModel(), 0.1)
	for i := 0; i < 500; i++ {
		a.Observe(3, 90) // true class mean of this stream is 90, not 30
	}
	if got := a.Model().P(3); math.Abs(got-90) > 1 {
		t.Errorf("p3 after adaptation = %v, want ~90", got)
	}
	// untouched classes keep their characterized values
	if a.Model().P(1) != 10 {
		t.Errorf("p1 = %v", a.Model().P(1))
	}
}

func TestObserveZeroHdIgnored(t *testing.T) {
	a, _ := New(baseModel(), 0.5)
	a.Observe(0, 123)
	if got, want := a.Model().Basic, baseModel().Basic; !reflect.DeepEqual(got, want) {
		t.Errorf("Hd=0 moved the coefficients: %v, want %v", got, want)
	}
}

func TestObserveOutOfRangePanics(t *testing.T) {
	a, _ := New(baseModel(), 0.5)
	defer func() {
		if recover() == nil {
			t.Fatal("Hd out of range accepted")
		}
	}()
	a.Observe(5, 1)
}

func TestUnobservedClassAdoptsFirstSample(t *testing.T) {
	base := baseModel()
	base.Basic[3] = core.Coef{} // class 4 never characterized
	a, _ := New(base, 0.1)
	a.Observe(4, 77)
	if got := a.Model().P(4); got != 77 {
		t.Errorf("p4 = %v, want 77", got)
	}
}

// Integration: adaptation on the counter stream (the paper's data type V
// stress case) must substantially reduce the basic model's average error
// on held-out cycles.
func TestAdaptationFixesCounterStream(t *testing.T) {
	nl := dwlib.CSAMult(4, 4)
	meter, err := power.NewMeter(nl, sim.EventDriven)
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.Characterize(meter, "csa4", core.CharacterizeOptions{
		Patterns: 4000, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Counter stream on both ports.
	src := stimuli.Concat(
		stimuli.NewStream(stimuli.TypeCounter, 4, 0),
		stimuli.NewStream(stimuli.TypeCounter, 4, 1),
	)
	eval, err := power.NewMeter(dwlib.CSAMult(4, 4), sim.EventDriven)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := eval.Run(stimuli.Take(src, 3001))
	if err != nil {
		t.Fatal(err)
	}
	const split = 1000 // adapt on the first cycles, evaluate on the rest
	a, err := New(model, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < split; j++ {
		a.Observe(tr.Hd[j], tr.Q[j])
	}
	before := model.EstimateBasic(tr.Hd[split:])
	after := a.Model().EstimateBasic(tr.Hd[split:])
	errBefore, err := power.AvgError(before, tr.Q[split:])
	if err != nil {
		t.Fatal(err)
	}
	errAfter, err := power.AvgError(after, tr.Q[split:])
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(errAfter) >= math.Abs(errBefore)/2 {
		t.Errorf("adaptation: error only improved from %.1f%% to %.1f%%",
			errBefore, errAfter)
	}
}
