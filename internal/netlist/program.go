package netlist

import "hdpower/internal/cells"

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
	// Cap is each net's switched capacitance (NetCap), by net id.
	Cap []float64
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

// compile builds the Program from the topological order Finalize has
// just computed.
func (n *Netlist) compile() *Program {
	p := &Program{
		Gates:  make([]Gate, len(n.order)),
		Fanout: make([][]int32, len(n.nets)),
		Delay:  make([]int, len(n.order)),
		Cap:    make([]float64, len(n.nets)),
		Inputs: n.InputNets(),
	}
	pos := make([]int32, len(n.gates))
	for i, g := range n.order {
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
		p.Cap[id] = n.NetCap(NetID(id))
		if nt.drvKind == driverConst {
			p.Ties = append(p.Ties, Tie{Net: NetID(id), Val: nt.constVal})
		}
	}
	return p
}
