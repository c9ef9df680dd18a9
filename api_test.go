package hdpower

import (
	"math"
	"strings"
	"testing"
)

func TestModulesNonEmpty(t *testing.T) {
	mods := Modules()
	if len(mods) < 10 {
		t.Fatalf("catalog has %d modules", len(mods))
	}
	found := false
	for _, m := range mods {
		if m == "csa-multiplier" {
			found = true
		}
	}
	if !found {
		t.Error("csa-multiplier missing from catalog")
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build("nonexistent", 8); err == nil {
		t.Error("unknown module accepted")
	}
	if _, err := Build("csa-multiplier", 1); err == nil {
		t.Error("sub-minimum width accepted")
	}
	nl, err := Build("ripple-adder", 8)
	if err != nil {
		t.Fatal(err)
	}
	if nl.NumInputBits() != 16 {
		t.Errorf("input bits = %d", nl.NumInputBits())
	}
}

// TestOperandStreamCounterPorts: the two ports of a counter stream count
// by one together from phase-shifted starts, port B a quarter turn of the
// 2^(width-1) counter ahead, so a two-operand module sees two different
// operands.
func TestOperandStreamCounterPorts(t *testing.T) {
	const width = 8
	const mod = 1 << (width - 1)
	for i, w := range TakeWords(OperandStream(TypeCounter, width, 2, 1), 3*mod) {
		a, b := w.Uint()&(1<<width-1), w.Uint()>>width
		if a == b {
			t.Fatalf("cycle %d: both ports read %#x", i, a)
		}
		if a != uint64(i)%mod || b != uint64(i+mod/2)%mod {
			t.Fatalf("cycle %d: ports read %#x and %#x, want %#x and %#x", i, a, b, i%mod, (i+mod/2)%mod)
		}
	}
}

func TestEndToEndWorkflow(t *testing.T) {
	nl, err := Build("cla-adder", 4)
	if err != nil {
		t.Fatal(err)
	}
	model, err := Characterize(nl, "cla-4", CharacterizeOptions{Patterns: 3000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	stream := OperandStream(TypeRandom, 4, 2, 5)
	// A fresh netlist for estimation (meters own their simulator state).
	nl2, _ := Build("cla-adder", 4)
	report, err := Estimate(model, nl2, TakeWords(stream, 1501))
	if err != nil {
		t.Fatal(err)
	}
	if report.Cycles != 1500 {
		t.Errorf("cycles = %d", report.Cycles)
	}
	if math.Abs(report.AvgErr) > 10 {
		t.Errorf("avg error on random stream = %.1f%%", report.AvgErr)
	}
	if report.SimulatedAvg <= 0 || report.EstimatedAvg <= 0 {
		t.Errorf("non-positive averages: %+v", report)
	}
	if !strings.Contains(report.String(), "cla-4") {
		t.Error("report string missing module name")
	}
}

func TestEstimateUsesEnhancedWhenAvailable(t *testing.T) {
	nl, _ := Build("absval", 6)
	model, err := Characterize(nl, "absval-6", CharacterizeOptions{
		Patterns: 2000, Enhanced: true, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	nl2, _ := Build("absval", 6)
	report, err := Estimate(model, nl2, TakeWords(OperandStream(TypeSpeech, 6, 1, 4), 501))
	if err != nil {
		t.Fatal(err)
	}
	if !report.Enhanced {
		t.Error("enhanced model not used")
	}
}

func TestStreamAndDistHelpers(t *testing.T) {
	words := TakeWords(OperandStream(TypeSpeech, 12, 1, 9), 4000)
	ws, err := StreamStats(words)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Rho < 0.8 {
		t.Errorf("speech rho = %v", ws.Rho)
	}
	d := AnalyticHdDist(ws, 12)
	if len(d) != 13 {
		t.Fatalf("dist support = %d", len(d))
	}
	if math.Abs(d.Sum()-1) > 1e-9 {
		t.Errorf("dist sum = %v", d.Sum())
	}
}

func TestSuiteConstruction(t *testing.T) {
	cfg := QuickExperimentConfig()
	s := NewSuite(cfg)
	if s.Config().EvalPatterns != cfg.EvalPatterns {
		t.Error("config not retained")
	}
	if DefaultExperimentConfig().EvalPatterns < cfg.EvalPatterns {
		t.Error("default config smaller than quick config")
	}
}
