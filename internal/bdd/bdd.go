// Package bdd implements reduced ordered binary decision diagrams
// (ROBDDs) with hash-consing and an ITE-based apply algorithm — the
// classic canonical representation for combinational logic. The
// repository uses it to *prove* functional equivalence of netlists
// (generator vs generator, original vs swept) instead of sampling them;
// see the Equiv helper in this package.
package bdd

import (
	"fmt"
)

// Ref references a BDD node within one Manager. The constants False and
// True are the terminal nodes; all other refs are indices into the
// manager's node table.
type Ref int32

// Terminal nodes.
const (
	False Ref = 0
	True  Ref = 1
)

type node struct {
	level  int32 // variable index; terminals use a sentinel level
	lo, hi Ref
}

const terminalLevel = int32(1) << 30

// Manager owns a node table and computed-table for one variable order.
// Not safe for concurrent use.
type Manager struct {
	numVars int
	nodes   []node
	unique  map[node]Ref
	iteMemo map[[3]Ref]Ref
}

// New creates a manager for the given number of input variables.
// Variable i (0-based) is tested at level i: lower indices are closer to
// the root.
func New(numVars int) *Manager {
	if numVars < 0 {
		panic(fmt.Sprintf("bdd: negative variable count %d", numVars))
	}
	m := &Manager{
		numVars: numVars,
		nodes: []node{
			{level: terminalLevel}, // False
			{level: terminalLevel}, // True
		},
		unique:  make(map[node]Ref),
		iteMemo: make(map[[3]Ref]Ref),
	}
	return m
}

// NumVars returns the number of declared variables.
func (m *Manager) NumVars() int { return m.numVars }

// Var returns the BDD of input variable i.
func (m *Manager) Var(i int) Ref {
	if i < 0 || i >= m.numVars {
		panic(fmt.Sprintf("bdd: variable %d out of range [0,%d)", i, m.numVars))
	}
	return m.mk(int32(i), False, True)
}

// mk returns the canonical node (level, lo, hi), applying the ROBDD
// reduction rules.
func (m *Manager) mk(level int32, lo, hi Ref) Ref {
	if lo == hi {
		return lo
	}
	key := node{level: level, lo: lo, hi: hi}
	if r, ok := m.unique[key]; ok {
		return r
	}
	m.nodes = append(m.nodes, key)
	r := Ref(len(m.nodes) - 1)
	m.unique[key] = r
	return r
}

func (m *Manager) level(r Ref) int32 { return m.nodes[r].level }

// ITE computes if-then-else(f, g, h) — the universal connective all
// boolean operators reduce to.
func (m *Manager) ITE(f, g, h Ref) Ref {
	// Terminal cases.
	switch {
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	case g == True && h == False:
		return f
	}
	key := [3]Ref{f, g, h}
	if r, ok := m.iteMemo[key]; ok {
		return r
	}
	top := m.level(f)
	if l := m.level(g); l < top {
		top = l
	}
	if l := m.level(h); l < top {
		top = l
	}
	f0, f1 := m.cofactors(f, top)
	g0, g1 := m.cofactors(g, top)
	h0, h1 := m.cofactors(h, top)
	lo := m.ITE(f0, g0, h0)
	hi := m.ITE(f1, g1, h1)
	r := m.mk(top, lo, hi)
	m.iteMemo[key] = r
	return r
}

func (m *Manager) cofactors(r Ref, level int32) (lo, hi Ref) {
	n := m.nodes[r]
	if n.level != level {
		return r, r
	}
	return n.lo, n.hi
}

// Not returns ¬f.
func (m *Manager) Not(f Ref) Ref { return m.ITE(f, False, True) }

// And returns f ∧ g.
func (m *Manager) And(f, g Ref) Ref { return m.ITE(f, g, False) }

// Or returns f ∨ g.
func (m *Manager) Or(f, g Ref) Ref { return m.ITE(f, True, g) }

// Xor returns f ⊕ g.
func (m *Manager) Xor(f, g Ref) Ref { return m.ITE(f, m.Not(g), g) }

// Xnor returns ¬(f ⊕ g).
func (m *Manager) Xnor(f, g Ref) Ref { return m.ITE(f, g, m.Not(g)) }

// Mux returns sel ? hi : lo.
func (m *Manager) Mux(lo, hi, sel Ref) Ref { return m.ITE(sel, hi, lo) }

// Eval evaluates f under a complete variable assignment.
func (m *Manager) Eval(f Ref, assignment []bool) bool {
	if len(assignment) != m.numVars {
		panic(fmt.Sprintf("bdd: assignment has %d vars, want %d", len(assignment), m.numVars))
	}
	for f != True && f != False {
		n := m.nodes[f]
		if assignment[n.level] {
			f = n.hi
		} else {
			f = n.lo
		}
	}
	return f == True
}

// AnySat returns one satisfying assignment of f, or ok=false for the
// constant-false function. Unconstrained variables are reported false.
func (m *Manager) AnySat(f Ref) (assignment []bool, ok bool) {
	if f == False {
		return nil, false
	}
	assignment = make([]bool, m.numVars)
	for f != True {
		n := m.nodes[f]
		if n.lo != False {
			f = n.lo
		} else {
			assignment[n.level] = true
			f = n.hi
		}
	}
	return assignment, true
}
