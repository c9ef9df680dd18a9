package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"hdpower/internal/dwlib"
	"hdpower/internal/logic"
	"hdpower/internal/power"
	"hdpower/internal/sim"
	"hdpower/internal/stimuli"
)

func meterFor(t *testing.T, name string, width int) *power.Meter {
	t.Helper()
	mod, err := dwlib.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := power.NewMeter(mod.Build(width), sim.EventDriven)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPairSourceCoversAllClasses(t *testing.T) {
	const m = 16
	ps := NewPairSource(m, 1)
	seen := make(map[int]int)
	for k := 0; k < 4000; k++ {
		u, v := ps.Next()
		if u.Width() != m || v.Width() != m {
			t.Fatal("pair width wrong")
		}
		seen[logic.Hd(u, v)]++
	}
	for i := 1; i <= m; i++ {
		if seen[i] < 50 {
			t.Errorf("Hd class %d saw only %d samples", i, seen[i])
		}
	}
	if seen[0] != 0 {
		t.Error("pair source produced identical vectors")
	}
}

func TestPairSourceCoversStableZeroRange(t *testing.T) {
	const m = 12
	ps := NewPairSource(m, 2)
	lowZ, highZ := 0, 0
	for k := 0; k < 3000; k++ {
		u, v := ps.Next()
		if logic.Hd(u, v) != 1 {
			continue
		}
		z := logic.StableZeros(u, v)
		if z <= 2 {
			lowZ++
		}
		if z >= m-3 {
			highZ++
		}
	}
	if lowZ == 0 || highZ == 0 {
		t.Errorf("stable-zero coverage: low %d, high %d", lowZ, highZ)
	}
}

func TestCharacterizeRippleAdder(t *testing.T) {
	meter := meterFor(t, "ripple-adder", 4) // m = 8
	model, err := Characterize(meter, "ripple-adder-4", CharacterizeOptions{
		Patterns: 3000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if model.InputBits != 8 {
		t.Fatalf("input bits = %d", model.InputBits)
	}
	// Every class should be populated at this width.
	for i := 1; i <= 8; i++ {
		if model.Basic[i-1].Count == 0 {
			t.Errorf("class %d unpopulated", i)
		}
	}
	// Figure 1 shape: coefficients grow with Hamming-distance. Allow
	// small non-monotonicity from sampling noise at adjacent classes but
	// demand the global trend.
	if !(model.P(8) > model.P(4) && model.P(4) > model.P(1)) {
		t.Errorf("coefficients not increasing: p1=%v p4=%v p8=%v",
			model.P(1), model.P(4), model.P(8))
	}
	if model.P(1) <= 0 {
		t.Errorf("p1 = %v", model.P(1))
	}
}

func TestCharacterizeDeterministicInSeed(t *testing.T) {
	a, err := Characterize(meterFor(t, "absval", 6), "absval-6",
		CharacterizeOptions{Patterns: 500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Characterize(meterFor(t, "absval", 6), "absval-6",
		CharacterizeOptions{Patterns: 500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Basic {
		if a.Basic[i] != b.Basic[i] {
			t.Fatalf("class %d differs across identical runs", i+1)
		}
	}
}

func TestCharacterizeEnhancedResolvesZeroBias(t *testing.T) {
	// Figure 2 shape: for the same Hd, transitions where the stable bits
	// are all zero must cost measurably less than transitions where the
	// stable bits are all ones (more of the multiplier array is active).
	meter := meterFor(t, "csa-multiplier", 4) // m = 8
	model, err := Characterize(meter, "csa-multiplier-4x4", CharacterizeOptions{
		Patterns: 8000, Enhanced: true, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	i := 2 // low-Hd class shows the effect most clearly (paper Fig. 2)
	allZero := model.Enhanced[i-1][model.ZBucket(i, 8-i)]
	noneZero := model.Enhanced[i-1][model.ZBucket(i, 0)]
	if allZero.Count == 0 || noneZero.Count == 0 {
		t.Skip("extreme classes not populated at this pattern budget")
	}
	if allZero.P >= noneZero.P {
		t.Errorf("all-stable-zero coefficient %v not below none-zero %v",
			allZero.P, noneZero.P)
	}
}

func TestCharacterizedModelEstimatesRandomStreamWell(t *testing.T) {
	// End-to-end: the basic model's average-power estimate for a random
	// stream (same statistics as characterization) must be within a few
	// percent of the simulated reference — the paper's Table 1, data type
	// I, average charge column (errors of 1–4%).
	meter := meterFor(t, "csa-multiplier", 4)
	model, err := Characterize(meter, "csa-multiplier-4x4",
		CharacterizeOptions{Patterns: 6000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	eval := meterFor(t, "csa-multiplier", 4)
	vecs := stimuli.Take(stimuli.Random(8, 77), 2001)
	tr, err := eval.Run(vecs)
	if err != nil {
		t.Fatal(err)
	}
	est := model.EstimateBasic(tr.Hd)
	eps, err := power.AvgError(est, tr.Q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eps) > 8 {
		t.Errorf("average-charge error on random stream = %.1f%%, want within 8%%", eps)
	}
}

func TestEnhancedBeatsBasicOnCounterStream(t *testing.T) {
	// The paper's headline Table 2 result: for the counter stream (sign
	// bits frozen at zero) the enhanced model's average error improves
	// substantially over the basic model.
	meter := meterFor(t, "csa-multiplier", 4)
	model, err := Characterize(meter, "csa-multiplier-4x4",
		CharacterizeOptions{Patterns: 10000, Enhanced: true, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	eval := meterFor(t, "csa-multiplier", 4)
	counter := stimuli.Concat(
		stimuli.NewStream(stimuli.TypeCounter, 4, 0),
		stimuli.NewStream(stimuli.TypeCounter, 4, 1),
	)
	tr, err := eval.Run(stimuli.Take(counter, 2001))
	if err != nil {
		t.Fatal(err)
	}
	basicEst := model.EstimateBasic(tr.Hd)
	enhEst, err := model.EstimateEnhanced(tr.Hd, tr.StableZeros)
	if err != nil {
		t.Fatal(err)
	}
	basicErr, _ := power.AvgError(basicEst, tr.Q)
	enhErr, _ := power.AvgError(enhEst, tr.Q)
	if math.Abs(enhErr) >= math.Abs(basicErr) {
		t.Errorf("enhanced |%.1f%%| not better than basic |%.1f%%| on counter stream",
			enhErr, basicErr)
	}
}

// modelsIdentical asserts bit-identical basic and enhanced tables.
func modelsIdentical(t *testing.T, ref, got *Model, label string) {
	t.Helper()
	if !reflect.DeepEqual(ref.Basic, got.Basic) {
		t.Fatalf("%s: basic coefficients differ", label)
	}
	if !reflect.DeepEqual(ref.Enhanced, got.Enhanced) {
		t.Fatalf("%s: enhanced coefficients differ", label)
	}
}

// TestCharacterizeWorkerCountIndependent is the engine's determinism
// contract: for a fixed seed, Workers ∈ {1, 2, 7} must produce
// bit-identical Basic and Enhanced coefficient tables.
func TestCharacterizeWorkerCountIndependent(t *testing.T) {
	for _, enhanced := range []bool{false, true} {
		opt := CharacterizeOptions{Patterns: 1200, Seed: 9, Enhanced: enhanced, Workers: 1}
		ref, err := Characterize(meterFor(t, "csa-multiplier", 4), "csa", opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 7} {
			opt.Workers = workers
			got, err := Characterize(meterFor(t, "csa-multiplier", 4), "csa", opt)
			if err != nil {
				t.Fatal(err)
			}
			modelsIdentical(t, ref, got,
				fmt.Sprintf("enhanced=%v workers=%d", enhanced, workers))
		}
	}
}

// TestCharacterizeConvergenceWorkerCountIndependent checks that the
// convergence trajectory is worker-count-independent: checkpoints run on
// merged shard prefixes, so every worker count must report the same
// points, whether or not a recorder listens.
func TestCharacterizeConvergenceWorkerCountIndependent(t *testing.T) {
	trajectory := func(workers int) []ConvergencePoint {
		return recordTrajectory(t, CharacterizeOptions{Patterns: 3000, Seed: 17, Workers: workers})
	}
	ref := trajectory(1)
	if len(ref) != 6 || ref[0].Patterns != 512 || ref[5].Patterns != 3000 {
		t.Fatalf("trajectory %v, want 6 points from 512 to 3000 patterns", ref)
	}
	for _, workers := range []int{2, 7} {
		if got := trajectory(workers); !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d trajectory %v, want %v", workers, got, ref)
		}
	}
}

// TestCharacterizePortsWorkerCountIndependent extends the determinism
// contract to the port-resolved model.
func TestCharacterizePortsWorkerCountIndependent(t *testing.T) {
	opt := CharacterizeOptions{Patterns: 900, Seed: 5, Workers: 1}
	ref, err := CharacterizePorts(meterFor(t, "csa-multiplier", 4), "csa", 4, 4, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 7} {
		opt.Workers = workers
		got, err := CharacterizePorts(meterFor(t, "csa-multiplier", 4), "csa", 4, 4, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref.Coeffs, got.Coeffs) {
			t.Fatalf("workers=%d: port coefficients differ", workers)
		}
	}
}
