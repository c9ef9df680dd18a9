package core

import "testing"

// TestSteadyStateShardAllocs pins the recycled shard path: with a reused
// worker, a recycled sample buffer and reservoirs that are already full,
// a bit-parallel shard and its fold into the session's totals allocate
// nothing — basic, biased and port shards alike.
func TestSteadyStateShardAllocs(t *testing.T) {
	meter := meterFor(t, "ripple-adder", 8)
	b, err := NewBitParallelBackend(meter.Simulator().Netlist())
	if err != nil {
		t.Fatal(err)
	}
	m := meter.NumInputBits()
	sh := shardPlan(5000)[3]
	for _, biased := range []bool{false, true} {
		s, err := newSession("ripple-adder", m, CharacterizeOptions{Enhanced: true})
		if err != nil {
			t.Fatal(err)
		}
		if biased {
			s.phase = PhaseBiased
		}
		w := workerPool(b, 1)[0]
		parts := newRecycler(1, func() *ShardResult { return newShardBuffer(shardPatterns, true) })
		run := func() {
			r := parts.get()
			w.runCharShard(r, m, sh, 7, biased)
			s.fold(r)
			parts.put(r)
		}
		// The same shard every time: after epsilonReservoir runs every
		// class it touches has a full reservoir.
		for range epsilonReservoir {
			run()
		}
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Errorf("biased=%v: steady-state shard allocates %.1f times, want 0", biased, allocs)
		}
	}
	w := workerPool(b, 1)[0]
	wa := m / 2
	totals := make([]AccState, (wa+1)*(m-wa+1))
	acc := newClassFold(len(totals))
	parts := newRecycler(1, func() *portSamples {
		return &portSamples{cls: make([]int, shardPatterns), q: make([]float64, shardPatterns)}
	})
	run := func() {
		part := parts.get()
		w.runPortShard(part, wa, m-wa, sh, 7)
		acc.fold(totals, part.cls, part.q)
		parts.put(part)
	}
	for range epsilonReservoir {
		run()
	}
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("steady-state port shard allocates %.1f times, want 0", allocs)
	}
}

// TestRecycledPartialMatchesFresh checks that a sample buffer reused after
// a different (and shorter) shard records exactly what a fresh one does,
// and what CharacterizeShardRange returns for that shard, and that
// recycling buffers leaves a ShardResult still held intact.
func TestRecycledPartialMatchesFresh(t *testing.T) {
	meter := meterFor(t, "ripple-adder", 4)
	b, err := NewBitParallelBackend(meter.Simulator().Netlist())
	if err != nil {
		t.Fatal(err)
	}
	m := meter.NumInputBits()
	plan := shardPlan(1000)
	fresh := newShardBuffer(shardPatterns, true)
	workerPool(b, 1)[0].runCharShard(fresh, m, plan[2], 3, false)
	want := digestJSON(t, fresh)
	opt := CharacterizeOptions{Patterns: 1000, Seed: 3, Enhanced: true, Backend: BackendBitParallel}
	rs, err := CharacterizeShardRange(meter, "ripple-adder", opt, PhaseBasic, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if digestJSON(t, rs[0]) != want {
		t.Fatal("CharacterizeShardRange differs from a fresh buffer")
	}

	w := workerPool(b.Clone(), 1)[0]
	parts := newRecycler(1, func() *ShardResult { return newShardBuffer(shardPatterns, true) })
	kept := parts.get()
	w.runCharShard(kept, m, plan[4], 3, false)
	keptJSON := digestJSON(t, kept)
	first := parts.get()
	w.runCharShard(first, m, plan[len(plan)-1], 3, false) // 104 pairs
	parts.put(first)
	again := parts.get()
	if again != first {
		t.Fatal("recycler did not hand back the folded buffer")
	}
	w.runCharShard(again, m, plan[2], 3, false)
	if digestJSON(t, again) != want {
		t.Fatal("recycled buffer differs from a fresh one")
	}
	if digestJSON(t, kept) != keptJSON {
		t.Fatal("recycling a buffer changed a ShardResult still held")
	}
}
