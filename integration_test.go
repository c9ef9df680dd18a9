package hdpower

import (
	"math"
	"strings"
	"testing"

	"hdpower/internal/hddist"
	"hdpower/internal/propagate"
	"hdpower/internal/regress"
	"hdpower/internal/sim"
	"hdpower/internal/stats"
)

// TestPipelineBuildCharacterizeEstimateVCD exercises the tool chain on
// one module: generate → characterize → estimate → dump waveforms. The
// Verilog round trip of the same netlists is proven with BDDs in
// internal/verilog.
func TestPipelineBuildCharacterizeEstimateVCD(t *testing.T) {
	const module = "cla-adder"
	const width = 6

	nl, err := Build(module, width)
	if err != nil {
		t.Fatal(err)
	}
	model, err := Characterize(nl, module, CharacterizeOptions{Patterns: 3000, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	words := TakeWords(OperandStream(TypeMusic, width, 2, 17), 1201)
	report, err := Estimate(model, nl, words)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(report.AvgErr) > 15 {
		t.Errorf("estimation error %.1f%%", report.AvgErr)
	}

	// Waveform dump of a few cycles must succeed.
	var vcd strings.Builder
	if err := sim.DumpVCD(&vcd, nl, words[:5], 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(vcd.String(), "$enddefinitions") {
		t.Error("VCD incomplete")
	}
}

// TestPipelineRegressionToAnalyticPower goes from three prototype
// characterizations to a simulation-free average-power estimate of an
// unseen width driven by propagated word statistics.
func TestPipelineRegressionToAnalyticPower(t *testing.T) {
	const module = "ripple-adder"

	var protos []regress.Prototype
	for _, w := range regress.SetThi.Widths() {
		nl, err := Build(module, w)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Characterize(nl, module, CharacterizeOptions{Patterns: 3000, Seed: int64(w)})
		if err != nil {
			t.Fatal(err)
		}
		protos = append(protos, regress.Prototype{Width: w, Model: m})
	}
	pm, err := regress.Fit(module, protos, regress.BasisFor(module))
	if err != nil {
		t.Fatal(err)
	}

	// Target: width 12 (never characterized), fed by a filtered stream
	// whose statistics come from propagation (never simulated).
	const targetWidth = 12
	g := propagate.New()
	x := g.Input("x", stats.WordStats{Mean: 0, Std: 300, Rho: 0.9})
	y := g.Add(x, g.Delay(x, 1)) // smoother
	ws := g.Stats(y)
	portDist := hddist.FromWordStats(ws, targetWidth)
	dist := hddist.Convolve(portDist, portDist)

	model := pm.Synthesize(targetWidth)
	analytic, err := model.AvgFromDist(dist)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: simulate the real width-12 adder on a materialized
	// version of the same construction.
	nl, err := Build(module, targetWidth)
	if err != nil {
		t.Fatal(err)
	}
	meter, err := NewMeter(nl)
	if err != nil {
		t.Fatal(err)
	}
	xsA := streamInts(targetWidth, 300, 0.9, 101, 6001)
	xsB := streamInts(targetWidth, 300, 0.9, 202, 6001)
	words := make([]Word, 6000)
	for i := range words {
		a := clampTo(targetWidth, xsA[i]+xsA[i+1])
		b := clampTo(targetWidth, xsB[i]+xsB[i+1])
		words[i] = WordFromInt(a, targetWidth).Concat(WordFromInt(b, targetWidth))
	}
	tr, err := meter.Run(words)
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(analytic-tr.Mean()) / tr.Mean()
	if rel > 0.25 {
		t.Errorf("fully analytic estimate %.1f vs simulated %.1f (%.0f%% off)",
			analytic, tr.Mean(), rel*100)
	}
}

// streamInts synthesizes a seeded Gaussian AR(1) integer stream without
// depending on stimuli internals.
func streamInts(width int, std float64, rho float64, seed int64, n int) []int64 {
	_ = width
	out := make([]int64, n)
	state := 0.0
	rng := newDeterministicGaussian(seed)
	for i := range out {
		state = rho*state + math.Sqrt(1-rho*rho)*std*rng()
		out[i] = int64(math.Round(state))
	}
	return out
}

// newDeterministicGaussian returns a seeded standard-normal generator
// (Box-Muller over a simple LCG) so the test has no dependency on
// unexported stimuli internals.
func newDeterministicGaussian(seed int64) func() float64 {
	s := uint64(seed)*6364136223846793005 + 1442695040888963407
	next := func() float64 {
		s = s*6364136223846793005 + 1442695040888963407
		return float64(s>>11) / float64(1<<53)
	}
	var spare float64
	var has bool
	return func() float64 {
		if has {
			has = false
			return spare
		}
		u1, u2 := next(), next()
		for u1 == 0 {
			u1 = next()
		}
		r := math.Sqrt(-2 * math.Log(u1))
		spare = r * math.Sin(2*math.Pi*u2)
		has = true
		return r * math.Cos(2*math.Pi*u2)
	}
}

func clampTo(width int, v int64) int64 {
	hi := int64(1)<<uint(width-1) - 1
	lo := -int64(1) << uint(width-1)
	if v > hi {
		return hi
	}
	if v < lo {
		return lo
	}
	return v
}
