package bdd

import (
	"fmt"

	"hdpower/internal/cells"
	"hdpower/internal/netlist"
)

// FromNetlist builds the BDDs of every output bus of a combinational
// netlist. Input variable i of the manager corresponds to bit i of the
// netlist's flattened input vector (nl.InputNets() order), so two
// netlists with identical port layout share a variable space. The
// returned map is keyed by output bus name; each slice is LSB first.
func FromNetlist(m *Manager, nl *netlist.Netlist) (map[string][]Ref, error) {
	if err := nl.Finalize(); err != nil {
		return nil, err
	}
	if nl.NumInputBits() != m.NumVars() {
		return nil, fmt.Errorf("bdd: netlist has %d input bits, manager %d vars",
			nl.NumInputBits(), m.NumVars())
	}
	refs := make([]Ref, nl.NumNets())
	assigned := make([]bool, nl.NumNets())
	for i, id := range nl.InputNets() {
		refs[id] = m.Var(i)
		assigned[id] = true
	}
	for id := 0; id < nl.NumNets(); id++ {
		if v, isC := nl.IsConst(netlist.NetID(id)); isC {
			if v {
				refs[id] = True
			} else {
				refs[id] = False
			}
			assigned[id] = true
		}
	}
	for _, g := range nl.TopoOrder() {
		ins := nl.GateInputs(g)
		for _, in := range ins {
			if !assigned[in] {
				return nil, fmt.Errorf("bdd: gate %d input net %d unassigned", g, in)
			}
		}
		out := nl.GateOutput(g)
		refs[out] = m.gate(nl.GateKind(g), ins, refs)
		assigned[out] = true
	}
	result := make(map[string][]Ref)
	for _, b := range nl.Outputs() {
		row := make([]Ref, b.Width())
		for i, id := range b.Nets {
			if !assigned[id] {
				return nil, fmt.Errorf("bdd: output net %d unassigned", id)
			}
			row[i] = refs[id]
		}
		result[b.Name] = row
	}
	return result, nil
}

// gate builds the BDD of one gate from its input BDDs.
func (m *Manager) gate(kind cells.Kind, ins []netlist.NetID, refs []Ref) Ref {
	a := func(i int) Ref { return refs[ins[i]] }
	switch kind {
	case cells.Buf:
		return a(0)
	case cells.Inv:
		return m.Not(a(0))
	case cells.And2:
		return m.And(a(0), a(1))
	case cells.Or2:
		return m.Or(a(0), a(1))
	case cells.Xor2:
		return m.Xor(a(0), a(1))
	case cells.Xnor2:
		return m.Xnor(a(0), a(1))
	case cells.Mux2:
		return m.Mux(a(0), a(1), a(2))
	}
	panic(fmt.Sprintf("bdd: unhandled gate kind %v", kind))
}

// Counterexample is a distinguishing input found by Equivalent.
type Counterexample struct {
	// Assignment is the input vector (flattened input-bit order).
	Assignment []bool
	// Bus and Bit locate the differing output.
	Bus string
	Bit int
}

// Equivalent formally checks that two netlists with identical port
// structure compute identical functions on every output bus. On
// inequivalence it returns a concrete distinguishing input.
func Equivalent(a, b *netlist.Netlist) (bool, *Counterexample, error) {
	if a.NumInputBits() != b.NumInputBits() {
		return false, nil, fmt.Errorf("bdd: input widths differ: %d vs %d",
			a.NumInputBits(), b.NumInputBits())
	}
	m := New(a.NumInputBits())
	fa, err := FromNetlist(m, a)
	if err != nil {
		return false, nil, err
	}
	fb, err := FromNetlist(m, b)
	if err != nil {
		return false, nil, err
	}
	if len(fa) != len(fb) {
		return false, nil, fmt.Errorf("bdd: output bus counts differ: %d vs %d", len(fa), len(fb))
	}
	for name, rowA := range fa {
		rowB, ok := fb[name]
		if !ok {
			return false, nil, fmt.Errorf("bdd: output bus %q missing in second netlist", name)
		}
		if len(rowA) != len(rowB) {
			return false, nil, fmt.Errorf("bdd: output bus %q widths differ: %d vs %d",
				name, len(rowA), len(rowB))
		}
		for i := range rowA {
			diff := m.Xor(rowA[i], rowB[i])
			if diff == False {
				continue
			}
			assignment, _ := m.AnySat(diff)
			return false, &Counterexample{Assignment: assignment, Bus: name, Bit: i}, nil
		}
	}
	return true, nil, nil
}
