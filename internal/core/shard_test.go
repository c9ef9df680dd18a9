package core

import (
	"math"
	"math/rand"
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

// foldAll folds the samples into class 0 of totals, chunk samples at a
// time, as the shards of a run are folded.
func foldAll(totals []AccState, samples []float64, chunk int) {
	f := newClassFold(len(totals))
	cls := make([]int, chunk)
	for off := 0; off < len(samples); off += chunk {
		q := samples[off:min(off+chunk, len(samples))]
		f.fold(totals, cls[:len(q)], q)
	}
}

func TestClassAccReservoirBounded(t *testing.T) {
	const n = 7 * 700 // whole periods of 0..6, so the true mean is exactly 3
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = float64(i % 7)
	}
	a := make([]AccState, 1)
	foldAll(a, samples, shardPatterns)
	if len(a[0].Dev) != epsilonReservoir {
		t.Fatalf("reservoir holds %d samples, want %d", len(a[0].Dev), epsilonReservoir)
	}
	if !reflect.DeepEqual(a[0].Dev, samples[:epsilonReservoir]) {
		t.Fatal("reservoir is not the class's first samples in stream order")
	}
	c := a[0].coef()
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
	seq, merged := make([]AccState, 1), make([]AccState, 1)
	foldAll(seq, samples, len(samples))
	// Shard the same stream and fold in order.
	foldAll(merged, samples, 300)
	// Counts and reservoirs are exact; the sum is merged from per-shard
	// partial sums, so it matches the single-stream sum only up to float
	// regrouping error. (Bit-identity across worker counts holds because
	// every worker count uses the SAME shard partition and merge order —
	// see TestCharacterizeWorkerCountIndependent.)
	if seq[0].Count != merged[0].Count {
		t.Fatalf("merged count %d != sequential %d", merged[0].Count, seq[0].Count)
	}
	if math.Abs(seq[0].Sum-merged[0].Sum) > 1e-9*math.Abs(seq[0].Sum) {
		t.Fatalf("merged sum %v far from sequential %v", merged[0].Sum, seq[0].Sum)
	}
	if !reflect.DeepEqual(seq[0].Dev, merged[0].Dev) {
		t.Fatal("merged reservoir differs from sequential reservoir")
	}
}

// TestClassFoldMatchesPartials holds the fold to the per-class partials
// it replaced: every shard summed per class from zero in stream order,
// each partial sum then added to its class total, and the reservoir the
// first epsilonReservoir samples in merged order. Sums must agree bit for
// bit, including classes a shard does not touch.
func TestClassFoldMatchesPartials(t *testing.T) {
	const classes, n = 7, 5000
	rng := rand.New(rand.NewSource(1))
	cls, q := make([]int, n), make([]float64, n)
	for j := range cls {
		cls[j] = rng.Intn(classes) * rng.Intn(2) // class 0 dominates
		q[j] = rng.Float64() * 100
	}
	got, want := make([]AccState, classes), make([]AccState, classes)
	f := newClassFold(classes)
	for off := 0; off < n; off += shardPatterns {
		end := min(off+shardPatterns, n)
		f.fold(got, cls[off:end], q[off:end])
		part := make([]AccState, classes)
		for j := off; j < end; j++ {
			part[cls[j]].Count++
			part[cls[j]].Sum += q[j]
		}
		for c := range want {
			want[c].Count += part[c].Count
			want[c].Sum += part[c].Sum
		}
	}
	for j := range cls {
		if a := &want[cls[j]]; len(a.Dev) < epsilonReservoir {
			a.Dev = append(a.Dev, q[j])
		}
	}
	for c := range want {
		if got[c].Count != want[c].Count || math.Float64bits(got[c].Sum) != math.Float64bits(want[c].Sum) ||
			!reflect.DeepEqual(got[c].Dev, want[c].Dev) {
			t.Fatalf("class %d: fold gives (%d, %v, %d samples), partials give (%d, %v, %d samples)",
				c, got[c].Count, got[c].Sum, len(got[c].Dev), want[c].Count, want[c].Sum, len(want[c].Dev))
		}
	}
	for c := range f.sum {
		if f.sum[c] != 0 || f.count[c] != 0 {
			t.Fatalf("class %d: fold left scratch (%v, %d)", c, f.sum[c], f.count[c])
		}
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
