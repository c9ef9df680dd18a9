package netlist

import (
	"fmt"
	"math"

	"hdpower/internal/cells"
)

// Program is a finalized netlist compiled once for simulation. Finalize
// builds it, surgery drops it with the rest of the finalized state, and
// every engine (the scalar simulators in internal/sim, the charge meter in
// internal/power and the 64-lane engine in internal/bitsim) reads its
// topology from it and keeps only mutable state of its own. A Program is
// immutable, so any number of engines and clones may share one.
type Program struct {
	// Gates holds one record per gate in topological order. A gate's
	// index in Gates is its position, the index Fanout and Delay use.
	Gates []Gate
	// Fanout lists, per net, the positions of the gates the net feeds:
	// one entry per input pin, in the order the pins were connected.
	Fanout [][]int32
	// Delay is each gate's intrinsic cell delay, by position.
	Delay []int
	// CapTenths is each net's switched capacitance (NetCap) in tenths of
	// a charge unit, by net id, summed in integers from the cell table.
	// It is exact where NetCap carries float rounding, so charges summed
	// from it come out the same in any order.
	CapTenths []int64
	// Inputs are the primary input nets in InputNets order.
	Inputs []NetID
	// Ties are the constant nets with the values they are tied to.
	Ties []Tie
}

// Gate is one compiled gate: its kind, up to three input nets and its
// output net. Net ids are int32 so a record is 24 bytes, compact for the
// engines' hot loops. Input slots beyond the kind's pin count are 0 and
// unread.
type Gate struct {
	Kind cells.Kind
	In   [3]int32
	Out  int32
}

// Tie is a constant net and its value.
type Tie struct {
	Net NetID
	Val bool
}

// Program returns the compiled netlist, finalizing it first. It panics
// if the netlist fails Finalize; engines call Finalize themselves first
// to turn that failure into an error.
func (n *Netlist) Program() *Program {
	n.mustFinalize()
	return n.prog
}

// piTenths and cellTenths are piDriverCap and the cell table's
// capacitances in tenths, by kind, converted and checked once: a value
// that is not a whole number of tenths leaves tenthsErr set, and every
// Finalize fails with it rather than rounding.
var piTenths, cellTenths, tenthsErr = tenthsTable()

// capTenths is one kind's input and output capacitance in tenths.
type capTenths struct{ in, out int64 }

func tenthsTable() (int64, []capTenths, error) {
	pi, err := tenths(piDriverCap)
	if err != nil {
		return 0, nil, fmt.Errorf("primary input driver capacitance: %w", err)
	}
	kinds := cells.Kinds()
	t := make([]capTenths, len(kinds))
	for _, k := range kinds {
		c := cells.Lookup(k)
		in, err := tenths(c.InputCap)
		if err != nil {
			return 0, nil, fmt.Errorf("cell %s input capacitance: %w", k, err)
		}
		out, err := tenths(c.OutputCap)
		if err != nil {
			return 0, nil, fmt.Errorf("cell %s output capacitance: %w", k, err)
		}
		t[k] = capTenths{in: in, out: out}
	}
	return pi, t, nil
}

// tenths returns x in tenths, failing unless x is the float nearest a
// whole number of tenths below 2^53.
func tenths(x float64) (int64, error) {
	t := math.Round(x * 10)
	if t/10 != x || math.Abs(t) >= 1<<53 {
		return 0, fmt.Errorf("%v is not a whole number of tenths", x)
	}
	return int64(t), nil
}

// compile builds the Program from the topological gate order of a
// netlist that has just verified.
func (n *Netlist) compile(order []GateID) (*Program, error) {
	if tenthsErr != nil {
		return nil, fmt.Errorf("netlist %s: %w", n.Name, tenthsErr)
	}
	p := &Program{
		Gates:     make([]Gate, len(order)),
		Fanout:    make([][]int32, len(n.nets)),
		Delay:     make([]int, len(order)),
		CapTenths: make([]int64, len(n.nets)),
		Inputs:    n.InputNets(),
	}
	pos := make([]int32, len(n.gates))
	for i, g := range order {
		gt := n.gates[g]
		p.Gates[i] = Gate{Kind: gt.kind, Out: int32(gt.out)}
		for k, in := range gt.in {
			p.Gates[i].In[k] = int32(in)
		}
		p.Delay[i] = cells.Lookup(gt.kind).Delay
		pos[g] = int32(i)
	}
	pins := 0
	for _, nt := range n.nets {
		pins += len(nt.fanout)
	}
	flat := make([]int32, 0, pins)
	for id, nt := range n.nets {
		start := len(flat)
		for _, pin := range nt.fanout {
			flat = append(flat, pos[pin.gate])
		}
		p.Fanout[id] = flat[start:len(flat):len(flat)]
		p.CapTenths[id] = n.netCapTenths(NetID(id))
		if nt.drvKind == driverConst {
			p.Ties = append(p.Ties, Tie{Net: NetID(id), Val: nt.constVal})
		}
	}
	return p, nil
}

// netCapTenths is NetCap in tenths: the driver's output capacitance plus
// the input capacitance of every pin the net fans out to.
func (n *Netlist) netCapTenths(id NetID) int64 {
	nt := &n.nets[id]
	c := piTenths
	if nt.drvKind == driverGate {
		c = cellTenths[n.gates[nt.drvGate].kind].out
	}
	for _, pin := range nt.fanout {
		c += cellTenths[n.gates[pin.gate].kind].in
	}
	return c
}
