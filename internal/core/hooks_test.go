package core

import (
	"errors"
	"testing"
)

// TestHooksObserveRun verifies the observability callbacks fire with
// totals consistent with the run: patterns sum to the budget and shard
// counts match the plan.
func TestHooksObserveRun(t *testing.T) {
	meter := meterFor(t, "ripple-adder", 4)
	patterns, shards := 0, 0
	hooks := &Hooks{
		PatternsSimulated: func(n int) { patterns += n },
		ShardMerged:       func() { shards++ },
	}
	const budget = 600
	if _, err := Characterize(meter, "hooked", CharacterizeOptions{
		Patterns: budget, Seed: 3, Workers: 2, Hooks: hooks,
	}); err != nil {
		t.Fatal(err)
	}
	if patterns != budget {
		t.Errorf("hooks saw %d patterns, want %d", patterns, budget)
	}
	if want := len(shardPlan(budget)); shards != want {
		t.Errorf("hooks saw %d shards, want %d", shards, want)
	}
}

// TestInterruptAbortsRun verifies the Interrupt poll cancels a run at a
// shard boundary and surfaces the cause, for every worker mode.
func TestInterruptAbortsRun(t *testing.T) {
	cause := errors.New("deadline exceeded")
	for _, workers := range []int{1, 4} {
		meter := meterFor(t, "ripple-adder", 4)
		merged := 0
		_, err := Characterize(meter, "interrupted", CharacterizeOptions{
			Patterns: 2000, Seed: 1, Workers: workers,
			Hooks: &Hooks{ShardMerged: func() { merged++ }},
			Interrupt: func() error {
				if merged >= 2 {
					return cause
				}
				return nil
			},
		})
		if !errors.Is(err, cause) {
			t.Fatalf("workers=%d: err = %v, want wrapped %v", workers, err, cause)
		}
		if merged > 3 {
			t.Errorf("workers=%d: run continued for %d shards after interrupt", workers, merged)
		}
	}
}

// TestInterruptParallelClosesHooksOnce covers the interrupt firing mid-run
// under the multi-worker path, between shard merges: the run must surface
// the wrapped cause instead of a partial model, and the phase lifecycle
// hooks must balance — PhaseStart/PhaseEnd for "basic" exactly once each,
// and the biased phase never started even though Enhanced was requested.
// Span-producing observers key child spans off these callbacks, so an
// unbalanced or duplicated pair would leak or double-close spans.
func TestInterruptParallelClosesHooksOnce(t *testing.T) {
	cause := errors.New("client went away")
	meter := meterFor(t, "ripple-adder", 4)
	merged := 0
	starts := map[string]int{}
	ends := map[string]int{}
	model, err := Characterize(meter, "interrupted", CharacterizeOptions{
		Patterns: 4000, Seed: 2, Workers: 4, Enhanced: true,
		Hooks: &Hooks{
			PhaseStart: func(phase string, shards, patterns int) {
				starts[phase]++
				if phase == PhaseBasic {
					if want := len(shardPlan(4000)); shards != want {
						t.Errorf("PhaseStart(basic) reported %d shards, want %d", shards, want)
					}
					if patterns != 4000 {
						t.Errorf("PhaseStart(basic) reported %d patterns, want 4000", patterns)
					}
				}
			},
			PhaseEnd:    func(phase string) { ends[phase]++ },
			ShardMerged: func() { merged++ },
		},
		Interrupt: func() error {
			if merged >= 3 {
				return cause
			}
			return nil
		},
	})
	if model != nil {
		t.Fatalf("interrupted run returned a partial model")
	}
	if !errors.Is(err, cause) {
		t.Fatalf("err = %v, want wrapped %v", err, cause)
	}
	if starts[PhaseBasic] != 1 || ends[PhaseBasic] != 1 {
		t.Errorf("basic phase hooks unbalanced: %d starts, %d ends",
			starts[PhaseBasic], ends[PhaseBasic])
	}
	if starts[PhaseBiased] != 0 || ends[PhaseBiased] != 0 {
		t.Errorf("biased phase ran after a phase-1 interrupt: %d starts, %d ends",
			starts[PhaseBiased], ends[PhaseBiased])
	}
}

// TestPhaseHooksBalanceOnSuccess pins the phase lifecycle on the happy
// path: both phases of an enhanced run open and close exactly once, in
// order, and the biased PhaseStart reports the basic phase's results as
// its inputs.
func TestPhaseHooksBalanceOnSuccess(t *testing.T) {
	meter := meterFor(t, "ripple-adder", 4)
	var order []string
	if _, err := Characterize(meter, "phased", CharacterizeOptions{
		Patterns: 600, Seed: 4, Workers: 2, Enhanced: true,
		Hooks: &Hooks{
			PhaseStart: func(phase string, shards, patterns int) {
				order = append(order, "start:"+phase)
				if phase == PhaseBiased && patterns != 600 {
					t.Errorf("PhaseStart(biased) saw %d basic patterns, want 600", patterns)
				}
			},
			PhaseEnd: func(phase string) { order = append(order, "end:"+phase) },
		},
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"start:basic", "end:basic", "start:biased", "end:biased"}
	if len(order) != len(want) {
		t.Fatalf("phase events %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("phase events %v, want %v", order, want)
		}
	}
}

// TestInterruptNilIsNoop pins that runs without an Interrupt behave as
// before (guards the nil-check fast path).
func TestInterruptNilIsNoop(t *testing.T) {
	meter := meterFor(t, "incrementer", 3)
	model, err := Characterize(meter, "plain", CharacterizeOptions{Patterns: 300, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := model.Validate(); err != nil {
		t.Fatal(err)
	}
}
