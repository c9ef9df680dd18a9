package bitsim

import (
	"math/bits"
	"runtime"
	"testing"

	"hdpower/internal/cells"
	"hdpower/internal/dwlib"
	"hdpower/internal/netlist"
)

// TestCompileSchedule pins the compiled schedule on a small netlist: a
// gate is listed under every step a path of that many gates reaches it
// by, never under a step no path reaches it by, and a gate fed only by
// constant ties under none; runs group one step's gates by kind and
// output class; counters are sized to the most changes a class can see.
func TestCompileSchedule(t *testing.T) {
	n := netlist.New("sched")
	a := n.AddInputBus("a", 1).Nets[0]
	b := n.AddInputBus("b", 1).Nets[0]
	x := n.Xor(a, b)                            // position 0: step 1
	y := n.And(x, a)                            // position 1: steps 1, 2
	z := n.Or(n.Const(false), n.Const(true))    // position 2: never
	w := n.Mux(y, x, b)                         // position 3: steps 1, 2, 3
	n.MarkOutputBus("y", []netlist.NetID{w, z}) // z keeps its gate alive
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	p := n.Program()
	pos := map[netlist.NetID]int32{}
	for i, g := range p.Gates {
		pos[netlist.NetID(g.Out)] = int32(i)
	}
	class, tenths := capClasses(p)
	s := compile(p, UnitDelay, class, tenths)

	wantSteps := [][]int32{
		{pos[x], pos[y], pos[w]},
		{pos[y], pos[w]},
		{pos[w]},
	}
	if len(s.stepEnd) != len(wantSteps) {
		t.Fatalf("%d steps, want %d", len(s.stepEnd), len(wantSteps))
	}
	start := int32(0)
	for st, want := range wantSteps {
		got := map[int32]bool{}
		for k := start; k < s.stepEnd[st]; k++ {
			got[s.slots[k]] = true
		}
		if len(got) != len(want) || int(s.stepEnd[st]-start) != len(want) {
			t.Errorf("step %d: slots %v, want %v", st+1, s.slots[start:s.stepEnd[st]], want)
		}
		for _, gi := range want {
			if !got[gi] {
				t.Errorf("step %d misses gate %d", st+1, gi)
			}
		}
		start = s.stepEnd[st]
	}
	if s.widest != 3 {
		t.Errorf("widest step %d, want 3", s.widest)
	}

	// Runs: contiguous, ending at their step's end, one kind and class
	// each, and every slot's gate of its run's kind and class.
	start, r := int32(0), 0
	for st, end := range s.stepEnd {
		for ; r < int(s.stepRuns[st]); r++ {
			run := s.runs[r]
			if run.end <= start || run.end > end {
				t.Fatalf("run %d ends at %d outside step %d's slots [%d, %d)", r, run.end, st+1, start, end)
			}
			for k := start; k < run.end; k++ {
				g := p.Gates[s.slots[k]]
				if g.Kind != run.kind || s.class[g.Out] != run.class {
					t.Errorf("slot %d: %v class %d in a run of %v class %d", k, g.Kind, s.class[g.Out], run.kind, run.class)
				}
			}
			start = run.end
		}
		if start != end {
			t.Errorf("step %d: runs end at %d, slots at %d", st+1, start, end)
		}
	}

	// Classes and counter planes: a class's planes count every change a
	// lane can see, one per input edge and one per slot.
	for id, c := range p.CapTenths {
		if s.tenths[s.class[id]] != c {
			t.Errorf("net %d in class of %d tenths, has %d", id, s.tenths[s.class[id]], c)
		}
	}
	events := make([]int, len(s.tenths))
	for _, id := range p.Inputs {
		events[s.class[id]]++
	}
	for _, gi := range s.slots {
		events[s.class[p.Gates[gi].Out]]++
	}
	for c, e := range events {
		if got, want := s.planeOff[c+1]-s.planeOff[c], int32(bits.Len(uint(e))); got != want {
			t.Errorf("class %d: %d planes for %d events, want %d", c, got, e, want)
		}
	}

	zd := compile(p, ZeroDelay, class, tenths)
	if len(zd.slots) != 0 || len(zd.stepEnd) != 0 || zd.widest != 0 {
		t.Errorf("zero-delay schedule has steps: %d slots, %d steps", len(zd.slots), len(zd.stepEnd))
	}
}

// TestCloneSharesSchedule: New compiles the schedule once and every clone
// shares it with the program, while each clone's own scratch is sized by
// the nets, the inputs and the widest step, not by the schedule.
func TestCloneSharesSchedule(t *testing.T) {
	mod, err := dwlib.Lookup("csa-multiplier")
	if err != nil {
		t.Fatal(err)
	}
	nl := mod.Build(16)
	if err := nl.Finalize(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := New(nl, UnitDelay)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	newBytes := after.TotalAlloc - before.TotalAlloc
	runtime.ReadMemStats(&before)
	c := m.Clone()
	runtime.ReadMemStats(&after)
	t.Logf("csa-multiplier:16: New allocates %d B, Clone %d B; %d slots over %d steps, widest %d",
		newBytes, after.TotalAlloc-before.TotalAlloc, len(m.s.slots), len(m.s.stepEnd), m.s.widest)

	if c.s != m.s || c.p != m.p {
		t.Fatal("clone recompiled the program or the schedule")
	}
	nets := nl.NumNets()
	for name, got := range map[string]int{
		"val": cap(c.val), "next": cap(c.next), "outs": cap(c.outs), "planes": cap(c.planes),
		"uPack": cap(c.uPack), "vPack": cap(c.vPack),
	} {
		want := map[string]int{
			"val": nets, "next": m.s.widest, "outs": m.s.widest, "planes": int(m.s.planeOff[len(m.s.planeOff)-1]),
			"uPack": nl.NumInputBits(), "vPack": nl.NumInputBits(),
		}[name]
		if got != want {
			t.Errorf("clone %s holds %d words, want %d", name, got, want)
		}
	}
	if m.s.widest >= len(m.s.slots) {
		t.Errorf("widest step %d not below %d slots", m.s.widest, len(m.s.slots))
	}
	if &c.val[0] == &m.val[0] || &c.next[0] == &m.next[0] || &c.planes[0] == &m.planes[0] {
		t.Error("clone shares mutable scratch with its original")
	}
}

// TestEvalRunMatchesEvalPacked: the per-kind loops of the unit-delay
// steps compute every kind's truth table exactly as the topological
// sweeps' evalPacked does.
func TestEvalRunMatchesEvalPacked(t *testing.T) {
	val := []uint64{0xF0F0_F0F0_0F0F_0F0F, 0xCCCC_3333_CCCC_3333, 0xAAAA_5555_5555_AAAA, 0}
	for _, k := range cells.Kinds() {
		g := netlist.Gate{Kind: k, In: [3]int32{0, 1, 2}, Out: 3}
		next, outs := []uint64{0}, []int32{0}
		evalRun(next, outs, []int32{0}, []netlist.Gate{g}, val, k)
		if want := evalPacked(val, &g); next[0] != want || outs[0] != 3 {
			t.Errorf("%s: evalRun %#x to net %d, evalPacked %#x to net 3", k, next[0], outs[0], want)
		}
	}
}
