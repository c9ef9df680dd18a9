package netlist

import (
	"strings"
	"testing"

	"hdpower/internal/cells"
)

// IsInput reports whether the net is a primary input.
func (n *Netlist) IsInput(id NetID) bool {
	n.checkNet(id)
	return n.nets[id].drvKind == driverInput
}

// buildXorPair returns a tiny netlist: out = (a^b) & b.
func buildXorPair(t *testing.T) (*Netlist, Bus) {
	t.Helper()
	n := New("tiny")
	a := n.AddInputBus("a", 1)
	b := n.AddInputBus("b", 1)
	x := n.Xor(a.Nets[0], b.Nets[0])
	o := n.And(x, b.Nets[0])
	bus := n.MarkOutputBus("y", []NetID{o})
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	return n, bus
}

func TestBuilderBasics(t *testing.T) {
	n, _ := buildXorPair(t)
	if n.NumGates() != 2 {
		t.Errorf("gates = %d, want 2", n.NumGates())
	}
	if n.NumInputBits() != 2 {
		t.Errorf("input bits = %d, want 2", n.NumInputBits())
	}
	if got := len(n.InputNets()); got != 2 {
		t.Errorf("InputNets len = %d", got)
	}
	if n.Depth() != 2 {
		t.Errorf("depth = %d, want 2", n.Depth())
	}
}

func TestTopoOrderRespectsDependencies(t *testing.T) {
	n := New("chain")
	a := n.AddInputBus("a", 1)
	cur := a.Nets[0]
	var gates []NetID
	for i := 0; i < 10; i++ {
		cur = n.Not(cur)
		gates = append(gates, cur)
	}
	n.MarkOutputBus("y", []NetID{cur})
	order := n.TopoOrder()
	pos := make(map[GateID]int)
	for i, g := range order {
		pos[g] = i
	}
	for _, g := range order {
		for _, in := range n.GateInputs(g) {
			if n.IsInput(in) {
				continue
			}
			if _, isC := n.IsConst(in); isC {
				continue
			}
			// The driving gate must appear earlier in the order.
			for _, g2 := range order {
				if n.GateOutput(g2) == in && pos[g2] >= pos[g] {
					t.Fatalf("gate %d ordered before its driver %d", g, g2)
				}
			}
		}
	}
	_ = gates
	if n.Depth() != 10 {
		t.Errorf("chain depth = %d, want 10", n.Depth())
	}
}

func TestConstDeduplication(t *testing.T) {
	n := New("consts")
	c0 := n.Const(false)
	c1 := n.Const(true)
	if c0 == c1 {
		t.Fatal("const 0 and 1 share a net")
	}
	if n.Const(false) != c0 || n.Const(true) != c1 {
		t.Error("Const not deduplicated")
	}
	v, isC := n.IsConst(c1)
	if !isC || !v {
		t.Errorf("IsConst(c1) = %v,%v", v, isC)
	}
}

func TestAddGateArityPanics(t *testing.T) {
	n := New("bad")
	a := n.AddInputBus("a", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("AddGate with wrong arity did not panic")
		}
	}()
	n.AddGate(cells.And2, a.Nets[0])
}

func TestAddGateBadNetPanics(t *testing.T) {
	n := New("bad")
	defer func() {
		if recover() == nil {
			t.Fatal("AddGate with bogus net did not panic")
		}
	}()
	n.AddGate(cells.Inv, NetID(42))
}

func TestModificationAfterFinalizePanics(t *testing.T) {
	n, _ := buildXorPair(t)
	defer func() {
		if recover() == nil {
			t.Fatal("AddInputBus after Finalize did not panic")
		}
	}()
	n.AddInputBus("late", 1)
}

func TestFinalizeIdempotent(t *testing.T) {
	n, _ := buildXorPair(t)
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
}

func TestNetCap(t *testing.T) {
	n, _ := buildXorPair(t)
	// Input net b feeds the XOR2 and the AND2: cap = piDriver + inCap(XOR2) + inCap(AND2).
	bNet := n.Inputs()[1].Nets[0]
	want := 1.0 + cells.Lookup(cells.Xor2).InputCap + cells.Lookup(cells.And2).InputCap
	if got := n.NetCap(bNet); got != want {
		t.Errorf("NetCap(b) = %v, want %v", got, want)
	}
	// Output net of the AND has no fanout: cap = outCap(AND2).
	outNet := n.Outputs()[0].Nets[0]
	if got := n.NetCap(outNet); got != cells.Lookup(cells.And2).OutputCap {
		t.Errorf("NetCap(out) = %v", got)
	}
}

func TestTotalCapPositiveAndAdditive(t *testing.T) {
	n, _ := buildXorPair(t)
	var sum float64
	for id := 0; id < n.NumNets(); id++ {
		sum += n.NetCap(NetID(id))
	}
	if got := n.TotalCap(); got != sum {
		t.Errorf("TotalCap = %v, want %v", got, sum)
	}
	if sum <= 0 {
		t.Error("TotalCap not positive")
	}
}

func TestStats(t *testing.T) {
	n, _ := buildXorPair(t)
	s := n.Stats()
	if s.Gates != 2 || s.Inputs != 2 || s.Outputs != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.GateCount["XOR2"] != 1 || s.GateCount["AND2"] != 1 {
		t.Errorf("gate counts = %v", s.GateCount)
	}
	str := s.String()
	if !strings.Contains(str, "XOR2:1") || !strings.Contains(str, "tiny") {
		t.Errorf("Stats.String() = %q", str)
	}
}

func TestFullAdderStructure(t *testing.T) {
	n := New("fa")
	a := n.AddInputBus("a", 1)
	b := n.AddInputBus("b", 1)
	c := n.AddInputBus("c", 1)
	s, co := n.FullAdder(a.Nets[0], b.Nets[0], c.Nets[0])
	n.MarkOutputBus("s", []NetID{s})
	n.MarkOutputBus("co", []NetID{co})
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	if n.NumGates() != 5 {
		t.Errorf("full adder gates = %d, want 5", n.NumGates())
	}
}

func TestEmptyOutputBusPanics(t *testing.T) {
	n := New("bad")
	defer func() {
		if recover() == nil {
			t.Fatal("empty output bus did not panic")
		}
	}()
	n.MarkOutputBus("y", nil)
}

func TestZeroWidthInputPanics(t *testing.T) {
	n := New("bad")
	defer func() {
		if recover() == nil {
			t.Fatal("zero-width input bus did not panic")
		}
	}()
	n.AddInputBus("a", 0)
}

func TestWriteDOT(t *testing.T) {
	n, _ := buildXorPair(t)
	var sb strings.Builder
	if err := n.WriteDOT(&sb); err != nil {
		t.Fatal(err)
	}
	dot := sb.String()
	for _, want := range []string{"digraph", "XOR2", "AND2", "a[0]", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

func TestFanoutPins(t *testing.T) {
	n, _ := buildXorPair(t)
	bNet := n.Inputs()[1].Nets[0]
	pins := n.FanoutPins(bNet)
	if len(pins) != 2 {
		t.Fatalf("fanout pins = %d, want 2", len(pins))
	}
}
