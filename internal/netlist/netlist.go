// Package netlist provides the structural gate-level circuit representation
// shared by the datapath generators, the logic simulators and the charge
// model. A Netlist is a directed acyclic graph of primitive gates from the
// cells library connected by single-driver nets, with named input and
// output buses.
//
// The package is purely structural: simulation lives in internal/sim and
// charge accounting in internal/power.
package netlist

import (
	"fmt"
	"sort"

	"hdpower/internal/cells"
)

// NetID identifies a net within one Netlist.
type NetID int

// GateID identifies a gate instance within one Netlist.
type GateID int

// driverKind distinguishes how a net is driven.
type driverKind int

const (
	driverNone  driverKind = iota // not driven yet (an error if it persists)
	driverInput                   // primary input
	driverGate                    // gate output
	driverConst                   // constant tie cell
)

type net struct {
	name     string
	drvKind  driverKind
	drvGate  GateID // valid when drvKind == driverGate
	constVal bool   // valid when drvKind == driverConst
	fanout   []pin  // gate input pins this net feeds
}

// pin addresses one input of one gate.
type pin struct {
	gate  GateID
	input int
}

type gate struct {
	kind cells.Kind
	in   []NetID
	out  NetID
}

// Bus is a named, ordered group of nets; index 0 is the LSB.
type Bus struct {
	Name string
	Nets []NetID
}

// Width returns the number of bits in the bus.
func (b Bus) Width() int { return len(b.Nets) }

// Netlist is a combinational gate-level circuit. Create one with New and
// populate it through the builder methods; call Finalize (or any analysis
// method, which finalizes implicitly) before simulating.
type Netlist struct {
	Name string

	nets  []net
	gates []gate

	inputs  []Bus // primary input buses in declaration order
	outputs []Bus

	finalized bool
	levels    [][]GateID // gates grouped by logic level, valid after Finalize
	order     []GateID   // topological order, valid after Finalize
}

// New returns an empty netlist with the given instance name.
func New(name string) *Netlist {
	return &Netlist{Name: name}
}

func (n *Netlist) newNet(name string) NetID {
	n.nets = append(n.nets, net{name: name})
	return NetID(len(n.nets) - 1)
}

func (n *Netlist) mutable() {
	if n.finalized {
		panic("netlist: modification after Finalize")
	}
}

// AddInputBus declares a primary input bus of the given width and returns
// it. Bit 0 of the returned bus is the LSB.
func (n *Netlist) AddInputBus(name string, width int) Bus {
	n.mutable()
	if width <= 0 {
		panic(fmt.Sprintf("netlist: input bus %q with width %d", name, width))
	}
	b := Bus{Name: name, Nets: make([]NetID, width)}
	for i := range b.Nets {
		id := n.newNet(fmt.Sprintf("%s[%d]", name, i))
		n.nets[id].drvKind = driverInput
		b.Nets[i] = id
	}
	n.inputs = append(n.inputs, b)
	return b
}

// MarkOutputBus declares an output bus over existing nets, LSB first.
func (n *Netlist) MarkOutputBus(name string, nets []NetID) Bus {
	n.mutable()
	if len(nets) == 0 {
		panic(fmt.Sprintf("netlist: empty output bus %q", name))
	}
	for _, id := range nets {
		n.checkNet(id)
	}
	b := Bus{Name: name, Nets: append([]NetID(nil), nets...)}
	n.outputs = append(n.outputs, b)
	return b
}

// Const returns a net tied to the given constant value. Repeated calls
// with the same value return the same net.
func (n *Netlist) Const(v bool) NetID {
	n.mutable()
	for id, nt := range n.nets {
		if nt.drvKind == driverConst && nt.constVal == v {
			return NetID(id)
		}
	}
	name := "const0"
	if v {
		name = "const1"
	}
	id := n.newNet(name)
	n.nets[id].drvKind = driverConst
	n.nets[id].constVal = v
	return id
}

// AddGate instantiates a gate of the given kind driven by the given input
// nets and returns its freshly created output net.
func (n *Netlist) AddGate(kind cells.Kind, in ...NetID) NetID {
	n.mutable()
	c := cells.Lookup(kind)
	if len(in) != c.NumInputs {
		panic(fmt.Sprintf("netlist: %s expects %d inputs, got %d", kind, c.NumInputs, len(in)))
	}
	for _, id := range in {
		n.checkNet(id)
	}
	g := GateID(len(n.gates))
	out := n.newNet(fmt.Sprintf("%s_%d", kind, g))
	n.nets[out].drvKind = driverGate
	n.nets[out].drvGate = g
	n.gates = append(n.gates, gate{kind: kind, in: append([]NetID(nil), in...), out: out})
	for i, id := range in {
		n.nets[id].fanout = append(n.nets[id].fanout, pin{gate: g, input: i})
	}
	return out
}

func (n *Netlist) checkNet(id NetID) {
	if id < 0 || int(id) >= len(n.nets) {
		panic(fmt.Sprintf("netlist: net %d out of range (have %d nets)", id, len(n.nets)))
	}
}

// Convenience single-gate builders used heavily by the generators.

// Not returns !a.
func (n *Netlist) Not(a NetID) NetID { return n.AddGate(cells.Inv, a) }

// And returns a & b.
func (n *Netlist) And(a, b NetID) NetID { return n.AddGate(cells.And2, a, b) }

// Or returns a | b.
func (n *Netlist) Or(a, b NetID) NetID { return n.AddGate(cells.Or2, a, b) }

// Xor returns a ^ b.
func (n *Netlist) Xor(a, b NetID) NetID { return n.AddGate(cells.Xor2, a, b) }

// Xnor returns !(a ^ b).
func (n *Netlist) Xnor(a, b NetID) NetID { return n.AddGate(cells.Xnor2, a, b) }

// Mux returns sel ? d1 : d0.
func (n *Netlist) Mux(d0, d1, sel NetID) NetID { return n.AddGate(cells.Mux2, d0, d1, sel) }

// HalfAdder returns (sum, carry) = a + b built from an XOR and an AND.
func (n *Netlist) HalfAdder(a, b NetID) (sum, carry NetID) {
	return n.Xor(a, b), n.And(a, b)
}

// FullAdder returns (sum, carry) = a + b + cin using the standard
// two-half-adder decomposition.
func (n *Netlist) FullAdder(a, b, cin NetID) (sum, carry NetID) {
	s1 := n.Xor(a, b)
	sum = n.Xor(s1, cin)
	c1 := n.And(a, b)
	c2 := n.And(s1, cin)
	carry = n.Or(c1, c2)
	return sum, carry
}

// NumNets returns the total number of nets.
func (n *Netlist) NumNets() int { return len(n.nets) }

// NumGates returns the total number of gate instances.
func (n *Netlist) NumGates() int { return len(n.gates) }

// Inputs returns the primary input buses in declaration order.
func (n *Netlist) Inputs() []Bus { return n.inputs }

// Outputs returns the output buses in declaration order.
func (n *Netlist) Outputs() []Bus { return n.outputs }

// NumInputBits returns the total number of primary input bits across all
// input buses — the m of the paper's Hd model.
func (n *Netlist) NumInputBits() int {
	total := 0
	for _, b := range n.inputs {
		total += b.Width()
	}
	return total
}

// InputNets returns all primary input nets flattened in bus declaration
// order, each bus LSB first. This ordering defines the input vector layout
// used by the simulators and the Hd model.
func (n *Netlist) InputNets() []NetID {
	out := make([]NetID, 0, n.NumInputBits())
	for _, b := range n.inputs {
		out = append(out, b.Nets...)
	}
	return out
}

// GateKind returns the kind of gate g.
func (n *Netlist) GateKind(g GateID) cells.Kind { return n.gates[g].kind }

// GateInputs returns the input nets of gate g.
func (n *Netlist) GateInputs(g GateID) []NetID { return n.gates[g].in }

// GateOutput returns the output net of gate g.
func (n *Netlist) GateOutput(g GateID) NetID { return n.gates[g].out }

// NetName returns the debug name of a net.
func (n *Netlist) NetName(id NetID) string {
	n.checkNet(id)
	return n.nets[id].name
}

// IsConst reports whether the net is a constant tie, and its value.
func (n *Netlist) IsConst(id NetID) (val, isConst bool) {
	n.checkNet(id)
	nt := n.nets[id]
	return nt.constVal, nt.drvKind == driverConst
}

// FanoutPins returns (gate, pin-index) pairs fed by net id. The returned
// slices alias internal state and must not be modified.
func (n *Netlist) FanoutPins(id NetID) []struct {
	Gate  GateID
	Input int
} {
	n.checkNet(id)
	out := make([]struct {
		Gate  GateID
		Input int
	}, len(n.nets[id].fanout))
	for i, p := range n.nets[id].fanout {
		out[i] = struct {
			Gate  GateID
			Input int
		}{p.gate, p.input}
	}
	return out
}

// Finalize validates the netlist (single drivers, acyclicity) and computes
// the topological gate ordering and level structure. It is idempotent, and
// implied by TopoOrder/Levels. After Finalize the netlist is immutable.
func (n *Netlist) Finalize() error {
	if n.finalized {
		return nil
	}
	for id, nt := range n.nets {
		if nt.drvKind == driverNone {
			return fmt.Errorf("netlist %s: net %q (id %d) has no driver", n.Name, nt.name, id)
		}
	}
	// Kahn's algorithm over gates: a gate is ready when all its input nets
	// are primary inputs, constants, or outputs of already-ordered gates.
	indeg := make([]int, len(n.gates))
	for gi, g := range n.gates {
		for _, in := range g.in {
			if n.nets[in].drvKind == driverGate {
				indeg[gi]++
			}
		}
	}
	level := make([]int, len(n.gates))
	queue := make([]GateID, 0, len(n.gates))
	for gi := range n.gates {
		if indeg[gi] == 0 {
			queue = append(queue, GateID(gi))
			level[gi] = 0
		}
	}
	order := make([]GateID, 0, len(n.gates))
	for len(queue) > 0 {
		g := queue[0]
		queue = queue[1:]
		order = append(order, g)
		out := n.gates[g].out
		for _, p := range n.nets[out].fanout {
			indeg[p.gate]--
			if lvl := level[g] + 1; lvl > level[p.gate] {
				level[p.gate] = lvl
			}
			if indeg[p.gate] == 0 {
				queue = append(queue, p.gate)
			}
		}
	}
	if len(order) != len(n.gates) {
		return fmt.Errorf("netlist %s: combinational cycle detected (%d of %d gates orderable)",
			n.Name, len(order), len(n.gates))
	}
	maxLevel := 0
	for _, l := range level {
		if l > maxLevel {
			maxLevel = l
		}
	}
	levels := make([][]GateID, maxLevel+1)
	for gi, l := range level {
		levels[l] = append(levels[l], GateID(gi))
	}
	n.order = order
	n.levels = levels
	n.finalized = true
	return nil
}

// mustFinalize finalizes or panics; analysis helpers use it because a
// generator-produced netlist failing validation is a programming error.
func (n *Netlist) mustFinalize() {
	if err := n.Finalize(); err != nil {
		panic(err)
	}
}

// TopoOrder returns the gates in a valid evaluation order.
func (n *Netlist) TopoOrder() []GateID {
	n.mustFinalize()
	return n.order
}

// Depth returns the number of logic levels (0 for a gateless netlist).
func (n *Netlist) Depth() int {
	n.mustFinalize()
	return len(n.levels)
}

// piDriverCap is the output capacitance assumed for the (external) driver
// of a primary input net and for constant ties.
const piDriverCap = 1.0

// NetCap returns the total switched capacitance of a net: the driver's
// output capacitance plus the input capacitance of every pin it fans out
// to. This value, times the number of transitions, is the net's charge.
func (n *Netlist) NetCap(id NetID) float64 {
	n.checkNet(id)
	nt := n.nets[id]
	var c float64
	switch nt.drvKind {
	case driverGate:
		c = cells.Lookup(n.gates[nt.drvGate].kind).OutputCap
	default:
		c = piDriverCap
	}
	for _, p := range nt.fanout {
		c += cells.Lookup(n.gates[p.gate].kind).InputCap
	}
	return c
}

// TotalCap returns the sum of NetCap over all nets — a size/complexity
// proxy comparable to the module capacitance used by the DBT model.
func (n *Netlist) TotalCap() float64 {
	var total float64
	for id := range n.nets {
		total += n.NetCap(NetID(id))
	}
	return total
}

// Stats summarizes netlist structure.
type Stats struct {
	Name      string
	Inputs    int
	Outputs   int
	Nets      int
	Gates     int
	Depth     int
	TotalCap  float64
	GateCount map[string]int // per gate-kind instance counts
}

// Stats computes structural statistics.
func (n *Netlist) Stats() Stats {
	n.mustFinalize()
	counts := make(map[string]int)
	for _, g := range n.gates {
		counts[g.kind.String()]++
	}
	outBits := 0
	for _, b := range n.outputs {
		outBits += b.Width()
	}
	return Stats{
		Name:      n.Name,
		Inputs:    n.NumInputBits(),
		Outputs:   outBits,
		Nets:      len(n.nets),
		Gates:     len(n.gates),
		Depth:     len(n.levels),
		TotalCap:  n.TotalCap(),
		GateCount: counts,
	}
}

// String renders the stats compactly, with gate kinds sorted for
// determinism.
func (s Stats) String() string {
	kinds := make([]string, 0, len(s.GateCount))
	for k := range s.GateCount {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	out := fmt.Sprintf("%s: %d in, %d out, %d gates, %d nets, depth %d, cap %.1f [",
		s.Name, s.Inputs, s.Outputs, s.Gates, s.Nets, s.Depth, s.TotalCap)
	for i, k := range kinds {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s:%d", k, s.GateCount[k])
	}
	return out + "]"
}
