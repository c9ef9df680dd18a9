package propagate

import (
	"math"
	"testing"

	"hdpower/internal/stats"
	"hdpower/internal/stimuli"
)

func TestInputStatsPassThrough(t *testing.T) {
	g := New()
	in := g.Input("x", stats.WordStats{Mean: 5, Std: 10, Rho: 0.7})
	ws := g.Stats(in)
	if ws.Mean != 5 || math.Abs(ws.Std-10) > 1e-12 || math.Abs(ws.Rho-0.7) > 1e-12 {
		t.Errorf("input stats = %+v", ws)
	}
}

func TestConstNode(t *testing.T) {
	g := New()
	c := g.Const(42)
	ws := g.Stats(c)
	if ws.Mean != 42 || ws.Std != 0 || ws.Rho != 0 {
		t.Errorf("const stats = %+v", ws)
	}
}

func TestGainScalesMoments(t *testing.T) {
	g := New()
	x := g.Input("x", stats.WordStats{Mean: 2, Std: 3, Rho: 0.5})
	y := g.Gain(x, -4)
	ws := g.Stats(y)
	if ws.Mean != -8 {
		t.Errorf("mean = %v", ws.Mean)
	}
	if math.Abs(ws.Std-12) > 1e-9 {
		t.Errorf("std = %v", ws.Std)
	}
	if math.Abs(ws.Rho-0.5) > 1e-12 {
		t.Errorf("rho = %v (gain must not change correlation)", ws.Rho)
	}
}

func TestDelayPreservesStats(t *testing.T) {
	g := New()
	x := g.Input("x", stats.WordStats{Mean: 1, Std: 2, Rho: 0.9})
	d := g.Delay(x, 3)
	ws := g.Stats(d)
	if ws.Mean != 1 || math.Abs(ws.Std-2) > 1e-12 || math.Abs(ws.Rho-0.9) > 1e-12 {
		t.Errorf("delayed stats = %+v", ws)
	}
}

func TestAddIndependentInputs(t *testing.T) {
	g := New()
	a := g.Input("a", stats.WordStats{Mean: 1, Std: 3, Rho: 0.8})
	b := g.Input("b", stats.WordStats{Mean: 2, Std: 4, Rho: 0.2})
	sum := g.Add(a, b)
	ws := g.Stats(sum)
	if ws.Mean != 3 {
		t.Errorf("mean = %v", ws.Mean)
	}
	if math.Abs(ws.Std-5) > 1e-9 { // sqrt(9+16)
		t.Errorf("std = %v", ws.Std)
	}
	// rho = (0.8*9 + 0.2*16)/25
	want := (0.8*9 + 0.2*16) / 25
	if math.Abs(ws.Rho-want) > 1e-9 {
		t.Errorf("rho = %v, want %v", ws.Rho, want)
	}
}

func TestCorrelatedPathsAreExact(t *testing.T) {
	// y = x − x[n−1]: a first difference. Var = 2σ²(1−ρ); the naive
	// independence assumption would give 2σ². This is the case that
	// motivates the lag-polynomial representation.
	g := New()
	x := g.Input("x", stats.WordStats{Mean: 10, Std: 2, Rho: 0.75})
	y := g.Sub(x, g.Delay(x, 1))
	ws := g.Stats(y)
	if ws.Mean != 0 {
		t.Errorf("mean = %v", ws.Mean)
	}
	want := math.Sqrt(2 * 4 * (1 - 0.75))
	if math.Abs(ws.Std-want) > 1e-9 {
		t.Errorf("std = %v, want %v", ws.Std, want)
	}
}

func TestCancellationIsExact(t *testing.T) {
	// x + (−x) must vanish entirely.
	g := New()
	x := g.Input("x", stats.WordStats{Mean: 7, Std: 3, Rho: 0.5})
	z := g.Add(x, g.Gain(x, -1))
	ws := g.Stats(z)
	if ws.Mean != 0 || ws.Std != 0 {
		t.Errorf("cancelled stats = %+v", ws)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	g := New()
	x := g.Input("x", stats.WordStats{Std: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay accepted")
		}
	}()
	g.Delay(x, -1)
}

func TestBadNodePanics(t *testing.T) {
	g := New()
	defer func() {
		if recover() == nil {
			t.Fatal("bogus node accepted")
		}
	}()
	g.Stats(NodeID(3))
}

// Integration: propagate a 3-tap FIR y[n] = x[n] + 2x[n-1] + x[n-2] and
// compare every moment against a word-level simulation of the same graph
// on an AR(1) stream.
func TestFIRPropagationMatchesSimulation(t *testing.T) {
	const (
		rho = 0.9
		std = 500.0
		n   = 60000
	)
	// Analytic side.
	g := New()
	x := g.Input("x", stats.WordStats{Mean: 0, Std: std, Rho: rho})
	y := g.Add(g.Add(x, g.Gain(g.Delay(x, 1), 2)), g.Delay(x, 2))
	pred := g.Stats(y)

	// Simulation side: run the same filter on a quantized AR(1) stream.
	xs := stimuli.TakeInts(stimuli.AR1(16, 0, std, rho, 77), n)
	ys := make([]int64, 0, n-2)
	for i := 2; i < n; i++ {
		ys = append(ys, xs[i]+2*xs[i-1]+xs[i-2])
	}
	got, err := stats.FromInts(ys)
	if err != nil {
		t.Fatal(err)
	}
	// The sample mean of a strongly correlated stream has standard error
	// σ·√((1+ρ)/((1−ρ)n)) ≈ 0.018σ here; allow 3 of those.
	if math.Abs(got.Mean-pred.Mean) > 0.055*pred.Std {
		t.Errorf("mean: simulated %v vs predicted %v", got.Mean, pred.Mean)
	}
	if math.Abs(got.Std-pred.Std)/pred.Std > 0.03 {
		t.Errorf("std: simulated %v vs predicted %v", got.Std, pred.Std)
	}
	if math.Abs(got.Rho-pred.Rho) > 0.02 {
		t.Errorf("rho: simulated %v vs predicted %v", got.Rho, pred.Rho)
	}
}

// Integration: the propagated stats drive the Section 6 pipeline — the
// resulting analytic Hd distribution of the filter output must track the
// distribution extracted from simulating the filter.
func TestPropagationFeedsHdPipeline(t *testing.T) {
	const (
		rho = 0.95
		std = 800.0
		m   = 16
		n   = 40000
	)
	g := New()
	x := g.Input("x", stats.WordStats{Mean: 0, Std: std, Rho: rho})
	y := g.Sub(x, g.Gain(g.Delay(x, 1), 0.5))
	pred := g.Stats(y)

	xs := stimuli.TakeInts(stimuli.AR1(m, 0, std, rho, 99), n)
	ys := make([]int64, 0, n-1)
	for i := 1; i < n; i++ {
		ys = append(ys, xs[i]-xs[i-1]/2)
	}
	got, err := stats.FromInts(ys)
	if err != nil {
		t.Fatal(err)
	}
	// The propagated word stats must be close enough that the derived
	// breakpoints agree within one bit position.
	bpPred := stats.ComputeBreakpoints(pred, m)
	bpGot := stats.ComputeBreakpoints(got, m)
	if d := bpPred.BP0 - bpGot.BP0; d < -1 || d > 1 {
		t.Errorf("BP0 predicted %d vs measured %d", bpPred.BP0, bpGot.BP0)
	}
	if d := bpPred.BP1 - bpGot.BP1; d < -1 || d > 1 {
		t.Errorf("BP1 predicted %d vs measured %d", bpPred.BP1, bpGot.BP1)
	}
}
