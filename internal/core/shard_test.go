package core

import (
	"math"
	"reflect"
	"sync/atomic"
	"testing"
)

func TestShardPlanCoversBudgetExactly(t *testing.T) {
	for _, patterns := range []int{1, 127, 128, 129, 500, 5000} {
		plan := shardPlan(patterns)
		total, off := 0, 0
		for i, sh := range plan {
			if sh.index != i {
				t.Fatalf("patterns %d: shard %d has index %d", patterns, i, sh.index)
			}
			if sh.offset != off {
				t.Fatalf("patterns %d: shard %d offset %d, want %d", patterns, i, sh.offset, off)
			}
			if sh.patterns <= 0 || sh.patterns > shardPatterns {
				t.Fatalf("patterns %d: shard %d size %d", patterns, i, sh.patterns)
			}
			total += sh.patterns
			off += sh.patterns
		}
		if total != patterns {
			t.Fatalf("plan for %d covers %d patterns", patterns, total)
		}
	}
}

func TestShardPlanPrefixProperty(t *testing.T) {
	// Smaller budgets must be shard-prefixes of larger ones (identical
	// indices and offsets, with only the final shard truncated), which the
	// budget-convergence experiments rely on.
	small, large := shardPlan(500), shardPlan(8000)
	for i, sh := range small {
		ref := large[i]
		if sh.index != ref.index || sh.offset != ref.offset {
			t.Fatalf("shard %d: (%d,%d) vs (%d,%d)", i, sh.index, sh.offset, ref.index, ref.offset)
		}
		if i < len(small)-1 && sh.patterns != ref.patterns {
			t.Fatalf("non-final shard %d truncated: %d vs %d", i, sh.patterns, ref.patterns)
		}
	}
}

func TestShardSeedsDistinct(t *testing.T) {
	seen := make(map[int64]string)
	for stream := 0; stream < 4; stream++ {
		for idx := 0; idx < 256; idx++ {
			s := shardSeed(1999, stream, idx)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: stream %d idx %d vs %s", stream, idx, prev)
			}
			seen[s] = ""
		}
	}
}

// TestRunShardsOrderedMergesInOrder checks that merge always observes
// shard results in index order regardless of worker count, and that the
// merged value is identical across worker counts.
func TestRunShardsOrderedMergesInOrder(t *testing.T) {
	const n = 37
	var ref []int
	for _, workers := range []int{1, 2, 5, 16} {
		var got []int
		merged := runShardsOrdered(n, workers,
			func(w, idx int) int { return idx * idx },
			func(idx int, r int) bool {
				got = append(got, r)
				return true
			})
		if merged != n {
			t.Fatalf("workers %d: merged %d of %d", workers, merged, n)
		}
		if ref == nil {
			ref = got
			continue
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("workers %d: merge order differs: %v vs %v", workers, got, ref)
		}
	}
}

// TestRunShardsOrderedEarlyStopDeterministic checks that a stop decided
// on the merged prefix (an Interrupt) cuts at the same shard for every
// worker count, and that no shard past the cut is ever merged.
func TestRunShardsOrderedEarlyStopDeterministic(t *testing.T) {
	const n, stopAt = 64, 23
	for _, workers := range []int{1, 3, 8} {
		var ran int32
		var mergedIdx []int
		merged := runShardsOrdered(n, workers,
			func(w, idx int) int {
				atomic.AddInt32(&ran, 1)
				return idx
			},
			func(idx int, r int) bool {
				mergedIdx = append(mergedIdx, idx)
				return idx < stopAt
			})
		if merged != stopAt+1 {
			t.Fatalf("workers %d: merged %d shards, want %d", workers, merged, stopAt+1)
		}
		for i, idx := range mergedIdx {
			if idx != i {
				t.Fatalf("workers %d: merged shard %d at position %d", workers, idx, i)
			}
		}
		if int(ran) < stopAt+1 {
			t.Fatalf("workers %d: only %d shards ran", workers, ran)
		}
	}
}

func TestClassAccReservoirBounded(t *testing.T) {
	var a AccState
	const n = 7 * 700 // whole periods of 0..6, so the true mean is exactly 3
	for i := 0; i < n; i++ {
		a.add(float64(i % 7))
	}
	if len(a.Dev) != epsilonReservoir {
		t.Fatalf("reservoir holds %d samples, want %d", len(a.Dev), epsilonReservoir)
	}
	c := a.coef()
	if c.Count != n {
		t.Fatalf("count %d, want %d", c.Count, n)
	}
	if c.P != 3 { // mean of 0..6 repeated
		t.Fatalf("mean %v, want 3", c.P)
	}
	if c.Epsilon <= 0 {
		t.Fatalf("epsilon %v", c.Epsilon)
	}
}

func TestClassAccMergeMatchesSequential(t *testing.T) {
	samples := make([]float64, 2000)
	for i := range samples {
		samples[i] = float64((i*37)%101) / 10
	}
	var seq AccState
	for _, q := range samples {
		seq.add(q)
	}
	// Shard the same stream and merge in order.
	var merged AccState
	for off := 0; off < len(samples); off += 300 {
		end := off + 300
		if end > len(samples) {
			end = len(samples)
		}
		var part AccState
		for _, q := range samples[off:end] {
			part.add(q)
		}
		merged.merge(&part)
	}
	// Counts and reservoirs are exact; the sum is merged from per-shard
	// partial sums, so it matches the single-stream sum only up to float
	// regrouping error. (Bit-identity across worker counts holds because
	// every worker count uses the SAME shard partition and merge order —
	// see TestCharacterizeWorkerCountIndependent.)
	if seq.Count != merged.Count {
		t.Fatalf("merged count %d != sequential %d", merged.Count, seq.Count)
	}
	if math.Abs(seq.Sum-merged.Sum) > 1e-9*math.Abs(seq.Sum) {
		t.Fatalf("merged sum %v far from sequential %v", merged.Sum, seq.Sum)
	}
	if !reflect.DeepEqual(seq.Dev, merged.Dev) {
		t.Fatal("merged reservoir differs from sequential reservoir")
	}
}

// TestConvergenceZeroMeanClassConverges covers the fixed semantics: a
// class whose running mean is legitimately zero (or which received no new
// samples since the previous checkpoint) must not report an infinite
// relative change and block convergence forever.
func TestConvergenceZeroMeanClassConverges(t *testing.T) {
	basic := []AccState{
		{Count: 200, Sum: 100}, // mean 0.5, stable
		{Count: 80, Sum: 0},    // legitimately zero-mean class
	}
	prev := []float64{0.5, 0}
	prevCount := []int64{150, 40}
	worst := convergenceWorst(basic, prev, prevCount)
	if math.IsInf(worst, 1) {
		t.Fatal("zero-mean class reported +Inf change")
	}
	if worst != 0 {
		t.Fatalf("worst change %v, want 0", worst)
	}
	// A class that first turns nonzero must still defer convergence.
	basic[1].Count = 90
	basic[1].Sum = 4
	worst = convergenceWorst(basic, prev, prevCount)
	if !math.IsInf(worst, 1) {
		t.Fatalf("newly nonzero class reported %v, want +Inf", worst)
	}
	// ... but only once: with a baseline established the next checkpoint
	// sees a finite relative change again.
	basic[1].Count += 10
	worst = convergenceWorst(basic, prev, prevCount)
	if math.IsInf(worst, 1) {
		t.Fatal("settled class still reports +Inf")
	}
}
