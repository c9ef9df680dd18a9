package bdd

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

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

// NumNodes returns the size of the node table (including terminals).
func (m *Manager) NumNodes() int { return len(m.nodes) }

// SatCount returns the number of satisfying assignments of f over all
// declared variables.
func (m *Manager) SatCount(f Ref) float64 {
	// memo[r] counts assignments over variables [level(r), numVars).
	memo := make(map[Ref]float64)
	pow2 := func(k int32) float64 {
		s := 1.0
		for ; k > 0; k-- {
			s *= 2
		}
		return s
	}
	var count func(r Ref, level int32) float64
	count = func(r Ref, level int32) float64 {
		if r == False {
			return 0
		}
		if r == True {
			return pow2(int32(m.numVars) - level)
		}
		n := m.nodes[r]
		scale := pow2(n.level - level) // variables skipped between levels are free
		if c, ok := memo[r]; ok {
			return scale * c
		}
		c := count(n.lo, n.level+1) + count(n.hi, n.level+1)
		memo[r] = c
		return scale * c
	}
	return count(f, 0)
}

func TestTerminals(t *testing.T) {
	m := New(2)
	if m.Not(True) != False || m.Not(False) != True {
		t.Error("terminal negation broken")
	}
	if m.And(True, False) != False || m.Or(True, False) != True {
		t.Error("terminal connectives broken")
	}
}

func TestVarRange(t *testing.T) {
	m := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("Var(2) accepted")
		}
	}()
	m.Var(2)
}

func TestCanonicityIdenticalFunctions(t *testing.T) {
	// (a ∧ b) built two ways must be the same node.
	m := New(2)
	a, b := m.Var(0), m.Var(1)
	f1 := m.And(a, b)
	f2 := m.Not(m.Or(m.Not(a), m.Not(b))) // De Morgan
	if f1 != f2 {
		t.Errorf("canonical forms differ: %d vs %d", f1, f2)
	}
	// a ⊕ b == (a ∧ ¬b) ∨ (¬a ∧ b)
	x1 := m.Xor(a, b)
	x2 := m.Or(m.And(a, m.Not(b)), m.And(m.Not(a), b))
	if x1 != x2 {
		t.Errorf("xor forms differ")
	}
}

func TestEvalTruthTable(t *testing.T) {
	m := New(3)
	a, b, c := m.Var(0), m.Var(1), m.Var(2)
	maj := m.Or(m.Or(m.And(a, b), m.And(a, c)), m.And(b, c))
	for v := 0; v < 8; v++ {
		in := []bool{v&1 == 1, v&2 == 2, v&4 == 4}
		want := (btoi(in[0]) + btoi(in[1]) + btoi(in[2])) >= 2
		if got := m.Eval(maj, in); got != want {
			t.Errorf("maj(%v) = %v", in, got)
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestSatCount(t *testing.T) {
	m := New(4)
	a, b := m.Var(0), m.Var(1)
	cases := []struct {
		f    Ref
		want float64
	}{
		{True, 16},
		{False, 0},
		{a, 8},
		{m.And(a, b), 4},
		{m.Or(a, b), 12},
		{m.Xor(a, b), 8},
		{m.Var(3), 8},
	}
	for i, c := range cases {
		if got := m.SatCount(c.f); got != c.want {
			t.Errorf("case %d: SatCount = %v, want %v", i, got, c.want)
		}
	}
}

func TestAnySat(t *testing.T) {
	m := New(3)
	f := m.And(m.Var(0), m.Not(m.Var(2)))
	asg, ok := m.AnySat(f)
	if !ok {
		t.Fatal("satisfiable function reported unsat")
	}
	if !m.Eval(f, asg) {
		t.Errorf("AnySat returned non-satisfying %v", asg)
	}
	if _, ok := m.AnySat(False); ok {
		t.Error("False reported satisfiable")
	}
}

func TestMux(t *testing.T) {
	m := New(3)
	lo, hi, sel := m.Var(0), m.Var(1), m.Var(2)
	f := m.Mux(lo, hi, sel)
	for v := 0; v < 8; v++ {
		in := []bool{v&1 == 1, v&2 == 2, v&4 == 4}
		want := in[0]
		if in[2] {
			want = in[1]
		}
		if m.Eval(f, in) != want {
			t.Errorf("mux(%v) wrong", in)
		}
	}
}

// Property: random expression pairs built identically in two managers
// yield structurally identical evaluation behavior; and ITE respects its
// defining identity.
func TestITEDefinition(t *testing.T) {
	m := New(6)
	rng := rand.New(rand.NewSource(5))
	randFunc := func() Ref {
		f := m.Var(rng.Intn(6))
		for i := 0; i < 5; i++ {
			g := m.Var(rng.Intn(6))
			switch rng.Intn(4) {
			case 0:
				f = m.And(f, g)
			case 1:
				f = m.Or(f, g)
			case 2:
				f = m.Xor(f, g)
			case 3:
				f = m.Not(f)
			}
		}
		return f
	}
	check := func(seed int64) bool {
		f, g, h := randFunc(), randFunc(), randFunc()
		ite := m.ITE(f, g, h)
		expect := m.Or(m.And(f, g), m.And(m.Not(f), h))
		return ite == expect
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNodeTableGrowsModestly(t *testing.T) {
	// A 16-variable parity function has a linear-size BDD.
	m := New(16)
	f := m.Var(0)
	for i := 1; i < 16; i++ {
		f = m.Xor(f, m.Var(i))
	}
	// The node table retains intermediate results (no GC); the reachable
	// parity BDD itself is ~2 nodes per level. Bound the total table to
	// catch exponential blowup, not garbage.
	if m.NumNodes() > 1000 {
		t.Errorf("parity BDD table used %d nodes", m.NumNodes())
	}
	if got := m.SatCount(f); got != 32768 {
		t.Errorf("parity SatCount = %v", got)
	}
}
