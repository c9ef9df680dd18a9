package core

import (
	"encoding/json"
	"errors"
	"testing"
)

// TestRunRecorderCompleteRun verifies a successful run's manifest:
// budgets, phase pattern splits, shard counts, convergence trajectory and
// the final coefficient table all land in the record.
func TestRunRecorderCompleteRun(t *testing.T) {
	meter := meterFor(t, "ripple-adder", 4)
	opt := CharacterizeOptions{Patterns: 1000, Seed: 7, Workers: 2, Enhanced: true}
	rec := NewRunRecorder("ripple-adder", opt)
	opt.Hooks = rec.Hooks()
	model, err := Characterize(meter, "ripple-adder", opt)
	if err != nil {
		t.Fatal(err)
	}
	man := rec.Finish(model, nil)

	if man.Module != "ripple-adder" || man.Seed != 7 || man.Workers != 2 {
		t.Errorf("identity fields wrong: %+v", man)
	}
	if man.PatternsBudget != 1000 || man.PatternsBasic != 1000 {
		t.Errorf("patterns: budget %d basic %d, want 1000/1000", man.PatternsBudget, man.PatternsBasic)
	}
	if man.PatternsBiased != 1000 {
		t.Errorf("biased phase mirrors the basic budget, got %d", man.PatternsBiased)
	}
	wantShards := len(shardPlan(1000))
	if man.ShardsPlanned != wantShards || man.ShardsMerged != 2*wantShards {
		t.Errorf("shards: planned %d merged %d, want %d/%d",
			man.ShardsPlanned, man.ShardsMerged, wantShards, 2*wantShards)
	}
	if len(man.Convergence) == 0 {
		t.Errorf("no convergence snapshots recorded")
	}
	if len(man.Coefficients) != model.InputBits {
		t.Errorf("coefficients: %d entries, want %d", len(man.Coefficients), model.InputBits)
	}
	var total int
	for _, c := range man.Coefficients {
		total += c.Count
	}
	if total != 1000 {
		t.Errorf("per-class counts sum to %d, want 1000", total)
	}
	if man.EnhancedCoefficients == 0 {
		t.Errorf("enhanced coefficient count missing")
	}
	if man.WallSeconds <= 0 {
		t.Errorf("wall time not stamped: %v", man.WallSeconds)
	}

	// The manifest must round-trip through JSON (no Inf/NaN leaks).
	raw, err := json.Marshal(man)
	if err != nil {
		t.Fatalf("manifest does not marshal: %v", err)
	}
	var back RunManifest
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("manifest does not unmarshal: %v", err)
	}
	if back.PatternsBasic != man.PatternsBasic || len(back.Coefficients) != len(man.Coefficients) {
		t.Errorf("round-trip lost fields")
	}
}

// TestRunRecorderDefaultsAndBudget pins that the recorder reflects the
// effective (defaulted) option values, not the zero ones.
func TestRunRecorderDefaultsAndBudget(t *testing.T) {
	rec := NewRunRecorder("m", CharacterizeOptions{})
	man := rec.Finish(nil, nil)
	if man.PatternsBudget != 5000 {
		t.Errorf("defaulted budget = %d, want 5000", man.PatternsBudget)
	}
	if man.Workers < 1 {
		t.Errorf("workers = %d", man.Workers)
	}
}

// TestRunRecorderFailedRun verifies the error path: the manifest carries
// the failure and partial progress, with no coefficients.
func TestRunRecorderFailedRun(t *testing.T) {
	cause := errors.New("canceled")
	meter := meterFor(t, "ripple-adder", 4)
	opt := CharacterizeOptions{Patterns: 2000, Seed: 1, Workers: 2}
	rec := NewRunRecorder("ripple-adder", opt)
	merged := 0
	opt.Hooks = JoinHooks(rec.Hooks(), &Hooks{ShardMerged: func() { merged++ }})
	opt.Interrupt = func() error {
		if merged >= 2 {
			return cause
		}
		return nil
	}
	model, err := Characterize(meter, "ripple-adder", opt)
	if model != nil {
		t.Fatalf("interrupted run returned a model")
	}
	man := rec.Finish(model, err)
	if man.Error == "" {
		t.Errorf("manifest lost the failure")
	}
	if man.ShardsMerged == 0 || man.ShardsMerged >= man.ShardsPlanned {
		t.Errorf("partial progress not recorded: merged %d of %d", man.ShardsMerged, man.ShardsPlanned)
	}
	if len(man.Coefficients) != 0 {
		t.Errorf("failed run recorded coefficients")
	}

	// Finish is idempotent.
	again := rec.Finish(nil, nil)
	if again.Error != man.Error || again.WallSeconds != man.WallSeconds {
		t.Errorf("second Finish diverged: %+v vs %+v", again, man)
	}
}

// TestJoinHooks verifies fan-out to every member and the nil handling.
func TestJoinHooks(t *testing.T) {
	if JoinHooks(nil, nil) != nil {
		t.Errorf("all-nil join must be nil")
	}
	single := &Hooks{}
	if JoinHooks(nil, single) != single {
		t.Errorf("single live hook set must pass through")
	}

	var aPatterns, bPatterns, phases int
	a := &Hooks{PatternsSimulated: func(n int) { aPatterns += n }}
	b := &Hooks{
		PatternsSimulated: func(n int) { bPatterns += n },
		PhaseStart:        func(string, int, int) { phases++ },
		PhaseEnd:          func(string) { phases++ },
	}
	j := JoinHooks(a, b)
	j.patterns(128)
	j.phaseStart(PhaseBasic, 4, 512)
	j.phaseEnd(PhaseBasic)
	j.shardMerged() // no listener: must not panic
	if aPatterns != 128 || bPatterns != 128 || phases != 2 {
		t.Errorf("fan-out wrong: a=%d b=%d phases=%d", aPatterns, bPatterns, phases)
	}
	j.convergence(512, 0.5) // no listener: must not panic
	var points int
	j2 := JoinHooks(a, &Hooks{Convergence: func(int, float64) { points++ }})
	j2.convergence(512, 0.5)
	if points != 1 {
		t.Errorf("join delivered %d convergence points, want 1", points)
	}
}
