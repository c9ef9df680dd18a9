package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hdpower/internal/dwlib"
	"hdpower/internal/logic"
	"hdpower/internal/netlist"
)

// fullAdderNetlist builds a 1-bit full adder with inputs a,b,cin and
// outputs s, co.
func fullAdderNetlist() *netlist.Netlist {
	n := netlist.New("fa")
	a := n.AddInputBus("a", 1)
	b := n.AddInputBus("b", 1)
	c := n.AddInputBus("cin", 1)
	s, co := n.FullAdder(a.Nets[0], b.Nets[0], c.Nets[0])
	n.MarkOutputBus("s", []netlist.NetID{s})
	n.MarkOutputBus("co", []netlist.NetID{co})
	return n
}

func TestFullAdderFunctionBothEngines(t *testing.T) {
	for _, engine := range []Engine{ZeroDelay, EventDriven} {
		s, err := New(fullAdderNetlist(), engine)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < 8; v++ {
			in := logic.FromUint(uint64(v), 3)
			sum, err := s.Eval(in, "s")
			if err != nil {
				t.Fatal(err)
			}
			co, err := s.Eval(in, "co")
			if err != nil {
				t.Fatal(err)
			}
			a, b, c := v&1, v>>1&1, v>>2&1
			wantSum := uint64((a + b + c) & 1)
			wantCo := uint64((a + b + c) >> 1)
			if sum.Uint() != wantSum || co.Uint() != wantCo {
				t.Errorf("%s: fa(%03b) = s%d co%d, want s%d co%d",
					engine, v, sum.Uint(), co.Uint(), wantSum, wantCo)
			}
		}
	}
}

func TestApplyBeforeSettlePanics(t *testing.T) {
	s, _ := New(fullAdderNetlist(), ZeroDelay)
	defer func() {
		if recover() == nil {
			t.Fatal("Apply before Settle did not panic")
		}
	}()
	s.Apply(logic.NewWord(3))
}

func TestWidthMismatchPanics(t *testing.T) {
	s, _ := New(fullAdderNetlist(), ZeroDelay)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-width Settle did not panic")
		}
	}()
	s.Settle(logic.NewWord(2))
}

func TestUnknownEngineRejected(t *testing.T) {
	if _, err := New(fullAdderNetlist(), Engine(7)); err == nil {
		t.Fatal("Engine(7) accepted")
	}
}

func TestZeroDelayTogglesAtMostOnce(t *testing.T) {
	s, _ := New(fullAdderNetlist(), ZeroDelay)
	rng := rand.New(rand.NewSource(7))
	s.Settle(logic.FromUint(uint64(rng.Intn(8)), 3))
	for i := 0; i < 100; i++ {
		tog := s.Apply(logic.FromUint(uint64(rng.Intn(8)), 3))
		for id, c := range tog {
			if c > 1 {
				t.Fatalf("net %d toggled %d times under zero delay", id, c)
			}
		}
	}
}

func TestIdenticalVectorNoActivity(t *testing.T) {
	for _, engine := range []Engine{ZeroDelay, EventDriven} {
		s, _ := New(fullAdderNetlist(), engine)
		v := logic.FromUint(5, 3)
		s.Settle(v)
		tog := s.Apply(v)
		for id, c := range tog {
			if c != 0 {
				t.Errorf("%s: net %d toggled %d times on identical vector", engine, id, c)
			}
		}
	}
}

// glitchCircuit: y = a XOR a' where a' is a delayed through a long buffer
// chain. A single input edge causes y to glitch under event-driven timing
// but y stays 0 in the steady state.
func glitchCircuit(chainLen int) *netlist.Netlist {
	n := netlist.New("glitch")
	a := n.AddInputBus("a", 1)
	cur := a.Nets[0]
	for i := 0; i < chainLen; i++ {
		cur = n.Not(n.Not(cur)) // two inverters keep polarity
	}
	y := n.Xor(a.Nets[0], cur)
	n.MarkOutputBus("y", []netlist.NetID{y})
	return n
}

func TestEventDrivenCountsGlitches(t *testing.T) {
	nl := glitchCircuit(4)
	yNet := nl.Outputs()[0].Nets[0]

	zd, _ := New(glitchCircuit(4), ZeroDelay)
	ed, _ := New(nl, EventDriven)

	zd.Settle(logic.FromUint(0, 1))
	ed.Settle(logic.FromUint(0, 1))
	zdTog := zd.Apply(logic.FromUint(1, 1))
	edTog := ed.Apply(logic.FromUint(1, 1))

	// Steady-state y is 0 before and after, so zero-delay sees no toggle.
	if zdTog[yNet] != 0 {
		t.Errorf("zero-delay toggled y %d times", zdTog[yNet])
	}
	// Event-driven must see the hazard pulse: an even, positive count.
	if edTog[yNet] == 0 {
		t.Error("event-driven saw no glitch on y")
	}
	if edTog[yNet]%2 != 0 {
		t.Errorf("glitch toggle count %d is odd though steady state is unchanged", edTog[yNet])
	}
	// Both engines agree on the final value.
	if zd.NetValue(yNet) != ed.NetValue(yNet) {
		t.Error("engines disagree on steady state")
	}
}

// Property: for random vector pairs the two engines always agree on the
// steady-state outputs, and each net's event-driven toggle count has the
// same parity as its zero-delay count (both start and end in the same
// states).
func TestEnginesAgreeOnSteadyState(t *testing.T) {
	nl1 := fullAdderNetlist()
	nl2 := fullAdderNetlist()
	zd, _ := New(nl1, ZeroDelay)
	ed, _ := New(nl2, EventDriven)
	f := func(u8, v8 uint8) bool {
		u := logic.FromUint(uint64(u8%8), 3)
		v := logic.FromUint(uint64(v8%8), 3)
		zd.Settle(u)
		ed.Settle(u)
		zt := zd.Apply(v)
		et := ed.Apply(v)
		for id := range zt {
			if zt[id]%2 != et[id]%2 {
				return false
			}
			if et[id] < zt[id] {
				return false // event-driven can only add activity
			}
		}
		for id := 0; id < nl1.NumNets(); id++ {
			if zd.NetValue(netlist.NetID(id)) != ed.NetValue(netlist.NetID(id)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEvalUnknownOutput(t *testing.T) {
	s, _ := New(fullAdderNetlist(), ZeroDelay)
	if _, err := s.Eval(logic.NewWord(3), "nope"); err == nil {
		t.Fatal("Eval with unknown output bus succeeded")
	}
}

func TestApplyIsRepeatableAfterResettle(t *testing.T) {
	s, _ := New(fullAdderNetlist(), EventDriven)
	u := logic.FromUint(0, 3)
	v := logic.FromUint(7, 3)
	s.Settle(u)
	first := append([]int64(nil), s.Apply(v)...)
	s.Settle(u)
	second := append([]int64(nil), s.Apply(v)...)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("net %d: toggle counts differ across identical runs: %d vs %d",
				i, first[i], second[i])
		}
	}
}

func TestEngineString(t *testing.T) {
	if ZeroDelay.String() != "zero-delay" || EventDriven.String() != "event-driven" {
		t.Error("engine names wrong")
	}
	if Engine(9).String() == "" {
		t.Error("unknown engine name empty")
	}
}

func TestInertialBetweenZeroDelayAndTransport(t *testing.T) {
	// Per-net: zero-delay <= inertial <= event-driven toggles, with all
	// three agreeing on steady state and toggle parity.
	mk := func(engine Engine) *Simulator {
		s, err := New(fullAdderNetlist(), engine)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	zd, in, ed := mk(ZeroDelay), mk(Inertial), mk(EventDriven)
	rng := rand.New(rand.NewSource(99))
	u := logic.FromUint(0, 3)
	zd.Settle(u)
	in.Settle(u)
	ed.Settle(u)
	for step := 0; step < 300; step++ {
		v := logic.FromUint(uint64(rng.Intn(8)), 3)
		zt := zd.Apply(v)
		it := in.Apply(v)
		et := ed.Apply(v)
		for id := range zt {
			if it[id] < zt[id] || it[id] > et[id] {
				t.Fatalf("step %d net %d: inertial %d outside [zero-delay %d, transport %d]",
					step, id, it[id], zt[id], et[id])
			}
			if it[id]%2 != zt[id]%2 {
				t.Fatalf("step %d net %d: inertial parity %d vs steady-state parity %d",
					step, id, it[id], zt[id])
			}
		}
		for id := 0; id < zd.Netlist().NumNets(); id++ {
			nid := netlist.NetID(id)
			if zd.NetValue(nid) != in.NetValue(nid) {
				t.Fatalf("step %d: inertial steady state differs on net %d", step, id)
			}
		}
	}
}

func TestInertialFiltersNarrowPulse(t *testing.T) {
	// In the glitch circuit, the XOR sees a hazard pulse; with inertial
	// filtering a sufficiently slow consumer would swallow it. The XOR
	// itself (delay 3) sees the pulse at its inputs: the pulse width is
	// the path-delay difference of the two branches. Build a wide skew so
	// the transport engine glitches, then check the inertial engine
	// produces no more activity than transport on every net.
	nlT := glitchCircuit(6)
	nlI := glitchCircuit(6)
	ed, _ := New(nlT, EventDriven)
	in, _ := New(nlI, Inertial)
	ed.Settle(logic.FromUint(0, 1))
	in.Settle(logic.FromUint(0, 1))
	et := ed.Apply(logic.FromUint(1, 1))
	it := in.Apply(logic.FromUint(1, 1))
	var edTotal, inTotal int64
	for id := range et {
		edTotal += et[id]
		inTotal += it[id]
	}
	if inTotal > edTotal {
		t.Errorf("inertial total toggles %d exceed transport %d", inTotal, edTotal)
	}
	if inTotal == 0 {
		t.Error("inertial engine saw no activity at all")
	}
}

func TestInertialEngineName(t *testing.T) {
	if Inertial.String() != "inertial" {
		t.Errorf("name = %q", Inertial)
	}
}

// TestWarmCycleDoesNotAllocate pins the steady-state cost of a cycle on
// the csa-multiplier:8 array: once every pair of a set has run, further
// Settle+Apply cycles on ZeroDelay and EventDriven allocate nothing (the
// event engine reuses its time-wheel buckets). Inertial's heap events are
// not covered.
func TestWarmCycleDoesNotAllocate(t *testing.T) {
	nl := dwlib.CSAMult(8, 8)
	rng := rand.New(rand.NewSource(5))
	words := make([]logic.Word, 16)
	for i := range words {
		words[i] = logic.FromUint(rng.Uint64()&0xffff, 16)
	}
	for _, engine := range []Engine{ZeroDelay, EventDriven} {
		s, err := New(nl, engine)
		if err != nil {
			t.Fatal(err)
		}
		k := 0
		cycle := func() {
			s.Settle(words[k%len(words)])
			s.Apply(words[(k+1)%len(words)])
			k++
		}
		for range words {
			cycle()
		}
		if allocs := testing.AllocsPerRun(64, cycle); allocs != 0 {
			t.Errorf("%s: %v allocations per warm Settle+Apply, want 0", engine, allocs)
		}
	}
}
