package netlist

import (
	"errors"
	"fmt"
	"math"
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
	// A gateless netlist has no logic levels.
	w := New("wires")
	w.MarkOutputBus("y", w.AddInputBus("a", 2).Nets)
	if w.Depth() != 0 || w.Stats().Depth != 0 || len(w.TopoOrder()) != 0 {
		t.Errorf("gateless: depth %d, Stats().Depth %d, order %v; want 0, 0, none",
			w.Depth(), w.Stats().Depth, w.TopoOrder())
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

// TestProgram checks the compiled netlist: gates in topological order
// with fanout lists of positions (not gate ids), cell delays, NetCap per
// net, input nets and constant ties; surgery drops it, and the next
// Program recompiles without touching the old one.
func TestProgram(t *testing.T) {
	n := New("prog")
	a := n.AddInputBus("a", 1).Nets[0]
	b := n.AddInputBus("b", 1).Nets[0]
	one, zero := n.Const(true), n.Const(false)
	x := n.Xor(a, b)         // gate 0, position 0
	y := n.Not(x)            // gate 1, position 2: ready only after gate 0
	m := n.Mux(zero, b, one) // gate 2, position 1
	n.MarkOutputBus("y", []NetID{y, m})
	p := n.Program()
	if n.Program() != p {
		t.Fatal("Program recompiled a finalized netlist")
	}
	kinds := []cells.Kind{cells.Xor2, cells.Mux2, cells.Inv}
	ins := [][3]int32{{int32(a), int32(b)}, {int32(zero), int32(b), int32(one)}, {int32(x)}}
	outs := []NetID{x, m, y}
	for i, g := range p.Gates {
		if g.Kind != kinds[i] || g.In != ins[i] || NetID(g.Out) != outs[i] {
			t.Errorf("gate %d = %+v, want %v %v -> %d", i, g, kinds[i], ins[i], outs[i])
		}
		if p.Delay[i] != cells.Lookup(kinds[i]).Delay {
			t.Errorf("gate %d delay %d", i, p.Delay[i])
		}
	}
	// b feeds the XOR (position 0) before the MUX (position 1); x feeds
	// the INV at position 2.
	if got := p.Fanout[b]; len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("fanout of b = %v, want [0 1]", got)
	}
	if got := p.Fanout[x]; len(got) != 1 || got[0] != 2 {
		t.Errorf("fanout of x = %v, want [2]", got)
	}
	if got := p.Fanout[y]; len(got) != 0 {
		t.Errorf("fanout of y = %v, want none", got)
	}
	// b drives the XOR and MUX data pins from a primary-input driver:
	// 1.0 + 1.8 + 1.4 = 4.2, which the float sum only approximates.
	if got := p.CapTenths[b]; got != 42 {
		t.Errorf("CapTenths[b] = %d, want 42", got)
	}
	for id, c := range p.CapTenths {
		if d := float64(c)/10 - n.NetCap(NetID(id)); d > 1e-12 || d < -1e-12 {
			t.Errorf("CapTenths[%d] = %d, NetCap %v", id, c, n.NetCap(NetID(id)))
		}
	}
	if len(p.Inputs) != 2 || p.Inputs[0] != a || p.Inputs[1] != b {
		t.Errorf("inputs = %v", p.Inputs)
	}
	if len(p.Ties) != 2 || p.Ties[0] != (Tie{one, true}) || p.Ties[1] != (Tie{zero, false}) {
		t.Errorf("ties = %v", p.Ties)
	}

	n.RewireGateInput(1, 0, a)
	if n.prog != nil {
		t.Fatal("surgery kept the compiled program")
	}
	// The rewired INV no longer waits for the XOR: it moves to position 1.
	q := n.Program()
	if q == p || q.Gates[1].Kind != cells.Inv || q.Gates[1].In[0] != int32(a) {
		t.Errorf("recompiled gates %+v", q.Gates)
	}
	if p.Gates[2].In[0] != int32(x) {
		t.Errorf("surgery changed the old program: %+v", p.Gates)
	}
}

// TestTenths pins the one conversion from the cell table to integer
// tenths: a whole number of tenths converts exactly, anything else is an
// error, never a rounding.
func TestTenths(t *testing.T) {
	for _, c := range []struct {
		x    float64
		want int64
	}{{0, 0}, {0.8, 8}, {1, 10}, {1.2, 12}, {1.4, 14}, {1.8, 18}, {2.2, 22}, {-0.3, -3}, {123456.7, 1234567}} {
		if got, err := tenths(c.x); err != nil || got != c.want {
			t.Errorf("tenths(%v) = %d, %v; want %d", c.x, got, err, c.want)
		}
	}
	for _, x := range []float64{1.25, 0.05, 1.2000000000000002, math.NaN(), math.Inf(1), 1e300} {
		if got, err := tenths(x); err == nil {
			t.Errorf("tenths(%v) = %d, want an error", x, got)
		}
	}
	if tenthsErr != nil {
		t.Fatalf("cell table: %v", tenthsErr)
	}
	for _, k := range cells.Kinds() {
		c := cells.Lookup(k)
		if got := float64(cellTenths[k].in) / 10; got != c.InputCap {
			t.Errorf("%s: input %v tenths, table %v", k, got, c.InputCap)
		}
		if got := float64(cellTenths[k].out) / 10; got != c.OutputCap {
			t.Errorf("%s: output %v tenths, table %v", k, got, c.OutputCap)
		}
	}
}

// TestFinalizeRefusesInexactCells: a cell table that is not whole tenths
// fails every Finalize with an error naming the cell, and leaves the
// netlist unfinalized.
func TestFinalizeRefusesInexactCells(t *testing.T) {
	saved := tenthsErr
	defer func() { tenthsErr = saved }()
	tenthsErr = fmt.Errorf("cell AND2 input capacitance: %w", errors.New("1.25 is not a whole number of tenths"))
	n := New("inexact")
	a := n.AddInputBus("a", 2)
	n.MarkOutputBus("y", []NetID{n.And(a.Nets[0], a.Nets[1])})
	err := n.Finalize()
	if err == nil || !strings.Contains(err.Error(), "AND2") {
		t.Fatalf("Finalize = %v, want the cell table error", err)
	}
	if n.finalized || n.prog != nil || n.order != nil {
		t.Fatal("a failed Finalize left the netlist finalized")
	}
	tenthsErr = saved
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
}

// TestGateNetNames pins the name of every net of a small netlist byte
// for byte: an input bit is its bus and index, a constant const0 or
// const1, and a gate's output its kind's library name and gate index,
// one and two digits alike.
func TestGateNetNames(t *testing.T) {
	n := New("names")
	a := n.AddInputBus("a", 2)
	b := n.AddInputBus("b", 1)
	s, c := n.FullAdder(a.Nets[0], a.Nets[1], b.Nets[0])
	x := n.AddGate(cells.Xnor2, s, c)
	y := n.Not(n.Mux(x, n.Const(true), a.Nets[0]))
	for k := 0; k < 4; k++ {
		y = n.AddGate(cells.Buf, y)
	}
	n.MarkOutputBus("y", []NetID{y})
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a[0]", "a[1]", "b[0]", "XOR2_0", "XOR2_1", "AND2_2", "AND2_3", "OR2_4",
		"XNOR2_5", "const1", "MUX2_6", "INV_7", "BUF_8", "BUF_9", "BUF_10", "BUF_11"}
	got := make([]string, n.NumNets())
	for id := range got {
		got[id] = n.NetName(NetID(id))
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("net names\n got %q\nwant %q", got, want)
	}
}
