package core

import "testing"

// TestSteadyStateShardAllocs pins the recycled shard path: with a reused
// worker and a recycled partial, a bit-parallel shard allocates nothing —
// basic, biased and port shards alike.
func TestSteadyStateShardAllocs(t *testing.T) {
	meter := meterFor(t, "ripple-adder", 8)
	b, err := NewBitParallelBackend(meter.Simulator().Netlist())
	if err != nil {
		t.Fatal(err)
	}
	m := meter.NumInputBits()
	model := &Model{Module: "ripple-adder", InputBits: m, Basic: make([]Coef, m)}
	sh := shardPlan(5000)[3]
	for _, biased := range []bool{false, true} {
		w := workerPool(b, 1)[0]
		parts := shardPartials(model, 1, biased, true)
		run := func() { parts.put(w.runCharShard(parts, model, sh, 7, biased)) }
		run()
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Errorf("biased=%v: steady-state shard allocates %.1f times, want 0", biased, allocs)
		}
	}
	w := workerPool(b, 1)[0]
	wa := m / 2
	parts := newRecycler(1, func() [][]AccState { return newPortPartial(wa, m-wa) })
	run := func() { parts.put(w.runPortShard(parts, wa, m-wa, sh, 7)) }
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("steady-state port shard allocates %.1f times, want 0", allocs)
	}
}

// TestRecycledPartialMatchesFresh checks that a partial reused after a
// different shard accumulates exactly what a fresh one does, and that a
// ShardResult stays intact after its partial is recycled.
func TestRecycledPartialMatchesFresh(t *testing.T) {
	meter := meterFor(t, "ripple-adder", 4)
	b, err := NewBitParallelBackend(meter.Simulator().Netlist())
	if err != nil {
		t.Fatal(err)
	}
	m := meter.NumInputBits()
	model := &Model{Module: "ripple-adder", InputBits: m, Basic: make([]Coef, m)}
	plan := shardPlan(1000)
	fresh := workerPool(b, 1)[0].runCharShard(shardPartials(model, 1, false, true), model, plan[2], 3, false)
	want := fresh.clone()

	w := workerPool(b.Clone(), 1)[0]
	parts := newRecycler(1, func() *ShardResult { return newShardResult(model, false, true) })
	first := w.runCharShard(parts, model, plan[5], 3, false)
	kept := first.clone()
	keptJSON := digestJSON(t, kept)
	parts.put(first)
	again := w.runCharShard(parts, model, plan[2], 3, false)
	if again != first {
		t.Fatal("recycler did not hand back the merged partial")
	}
	if got := digestJSON(t, again.clone()); got != digestJSON(t, want) {
		t.Fatal("recycled partial differs from a fresh one")
	}
	if digestJSON(t, kept) != keptJSON {
		t.Fatal("recycling a partial changed an earlier ShardResult")
	}
}
