package cells

import (
	"testing"
	"testing/quick"
)

func TestLookupAllKinds(t *testing.T) {
	for _, k := range Kinds() {
		c := Lookup(k)
		if c.Kind != k {
			t.Errorf("%s: table kind mismatch %v", k, c.Kind)
		}
		if c.NumInputs < 1 || c.NumInputs > 3 {
			t.Errorf("%s: unreasonable pin count %d", k, c.NumInputs)
		}
		if c.InputCap <= 0 || c.OutputCap <= 0 {
			t.Errorf("%s: non-positive capacitance %+v", k, c)
		}
		if c.Delay < 1 {
			t.Errorf("%s: delay %d < 1", k, c.Delay)
		}
	}
}

func TestLookupInvalidPanics(t *testing.T) {
	for _, k := range []Kind{-1, numKinds, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Lookup(%d) did not panic", int(k))
				}
			}()
			Lookup(k)
		}()
	}
}

func TestKindString(t *testing.T) {
	if Xnor2.String() != "XNOR2" {
		t.Errorf("Xnor2.String() = %q", Xnor2)
	}
	if Kind(99).String() != "Kind(99)" {
		t.Errorf("invalid kind string = %q", Kind(99))
	}
}

// exhaustive truth tables for every kind.
func TestEvalTruthTables(t *testing.T) {
	type tt struct {
		kind Kind
		want []bool // indexed by input bits as binary number, in[0] is bit 0
	}
	cases := []tt{
		{Buf, []bool{false, true}},
		{Inv, []bool{true, false}},
		{And2, []bool{false, false, false, true}},
		{Or2, []bool{false, true, true, true}},
		{Xor2, []bool{false, true, true, false}},
		{Xnor2, []bool{true, false, false, true}},
		// Mux2: in = d0, d1, sel
		{Mux2, []bool{false, true, false, true, false, false, true, true}},
	}
	if len(cases) != int(numKinds) {
		t.Fatalf("%d truth tables for %d kinds", len(cases), numKinds)
	}
	for _, c := range cases {
		n := Lookup(c.kind).NumInputs
		if len(c.want) != 1<<uint(n) {
			t.Fatalf("%s: truth table has %d rows, want %d", c.kind, len(c.want), 1<<uint(n))
		}
		for row := 0; row < len(c.want); row++ {
			in := make([]bool, n)
			for b := 0; b < n; b++ {
				in[b] = row>>uint(b)&1 == 1
			}
			if got := Eval(c.kind, in); got != c.want[row] {
				t.Errorf("%s(%v) = %v, want %v", c.kind, in, got, c.want[row])
			}
		}
	}
}

func TestEvalArityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Eval with wrong arity did not panic")
		}
	}()
	Eval(And2, []bool{true})
}

// Property: De Morgan — AND2(a,b) == INV(OR2(INV a, INV b)), and dually;
// XNOR2 is the complement of XOR2.
func TestDeMorgan(t *testing.T) {
	not := func(a bool) bool { return Eval(Inv, []bool{a}) }
	f := func(a, b bool) bool {
		and := Eval(And2, []bool{a, b}) == not(Eval(Or2, []bool{not(a), not(b)}))
		or := Eval(Or2, []bool{a, b}) == not(Eval(And2, []bool{not(a), not(b)}))
		xnor := Eval(Xnor2, []bool{a, b}) == not(Eval(Xor2, []bool{a, b}))
		return and && or && xnor
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestXorCostsMoreThanAnd(t *testing.T) {
	// The charge model depends on XOR being the expensive gate; pin this
	// library property down so a cell-table edit can't silently flatten
	// the power profiles.
	if Lookup(Xor2).InputCap <= Lookup(And2).InputCap {
		t.Error("XOR2 input cap should exceed AND2")
	}
	if Lookup(Xor2).OutputCap <= Lookup(And2).OutputCap {
		t.Error("XOR2 output cap should exceed AND2")
	}
}
