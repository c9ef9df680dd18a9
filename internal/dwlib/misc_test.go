package dwlib

import (
	"math/bits"
	"math/rand"
	"testing"

	"hdpower/internal/logic"
	"hdpower/internal/sim"
)

func TestComparatorExhaustive(t *testing.T) {
	m := 4
	nl := Comparator(m)
	s, _ := sim.New(nl, sim.ZeroDelay)
	for a := uint64(0); a < 16; a++ {
		for b := uint64(0); b < 16; b++ {
			in := logic.FromUint(a, m).Concat(logic.FromUint(b, m))
			eq, _ := s.Eval(in, "eq")
			lt, _ := s.Eval(in, "lt")
			if (eq.Uint() == 1) != (a == b) {
				t.Fatalf("eq(%d,%d) = %d", a, b, eq.Uint())
			}
			if (lt.Uint() == 1) != (a < b) {
				t.Fatalf("lt(%d,%d) = %d", a, b, lt.Uint())
			}
		}
	}
}

func TestParityTreeExhaustive(t *testing.T) {
	for _, m := range []int{2, 3, 8} {
		nl := ParityTree(m)
		s, _ := sim.New(nl, sim.ZeroDelay)
		for a := uint64(0); a < 1<<uint(m); a++ {
			y, _ := s.Eval(logic.FromUint(a, m), "y")
			want := uint64(bits.OnesCount64(a) % 2)
			if y.Uint() != want {
				t.Fatalf("m=%d parity(%b) = %d, want %d", m, a, y.Uint(), want)
			}
		}
	}
}

func TestBarrelShifterExhaustive(t *testing.T) {
	m := 8
	nl := BarrelShifter(m)
	s, _ := sim.New(nl, sim.ZeroDelay)
	shBits := shamtBits(m)
	for a := uint64(0); a < 256; a += 7 {
		for sh := uint64(0); sh < 1<<uint(shBits); sh++ {
			in := logic.FromUint(a, m).Concat(logic.FromUint(sh, shBits))
			y, _ := s.Eval(in, "y")
			want := (a << sh) & 0xff
			if y.Uint() != want {
				t.Fatalf("%d<<%d = %d, want %d", a, sh, y.Uint(), want)
			}
		}
	}
}

func TestBarrelShifterNonPow2(t *testing.T) {
	m := 6
	nl := BarrelShifter(m)
	s, _ := sim.New(nl, sim.ZeroDelay)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		a := rng.Uint64() & 63
		sh := rng.Uint64() & 7
		in := logic.FromUint(a, m).Concat(logic.FromUint(sh, 3))
		y, _ := s.Eval(in, "y")
		want := (a << sh) & 63
		if y.Uint() != want {
			t.Fatalf("%d<<%d = %d, want %d", a, sh, y.Uint(), want)
		}
	}
}

func TestShamtBits(t *testing.T) {
	cases := map[int]int{2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 16: 4, 32: 5}
	for m, want := range cases {
		if got := shamtBits(m); got != want {
			t.Errorf("shamtBits(%d) = %d, want %d", m, got, want)
		}
	}
}

func TestCatalogComplete(t *testing.T) {
	names := Names()
	if len(names) < 10 {
		t.Fatalf("catalog has only %d modules", len(names))
	}
	for _, name := range names {
		mod, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if mod.Name != name {
			t.Errorf("catalog key %q holds module named %q", name, mod.Name)
		}
		if mod.Build == nil || mod.Description == "" {
			t.Errorf("%s: incomplete catalog entry", name)
		}
		// Every generator must produce a valid (finalizable) netlist at a
		// representative width.
		w := mod.MinWidth
		if w < 4 {
			w = 4
		}
		nl := mod.Build(w)
		if err := nl.Finalize(); err != nil {
			t.Errorf("%s(%d): %v", name, w, err)
		}
		if nl.NumGates() == 0 {
			t.Errorf("%s(%d): empty netlist", name, w)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("flux-capacitor"); err == nil {
		t.Fatal("unknown module accepted")
	}
}

func TestPaperModules(t *testing.T) {
	mods := PaperModules()
	if len(mods) != 5 {
		t.Fatalf("paper modules = %d, want 5", len(mods))
	}
	want := []string{"ripple-adder", "cla-adder", "absval", "csa-multiplier",
		"booth-wallace-multiplier"}
	for i, mod := range mods {
		if mod.Name != want[i] {
			t.Errorf("paper module %d = %s, want %s", i, mod.Name, want[i])
		}
	}
}

func TestTotalInputBits(t *testing.T) {
	// At operand width m a two-operand module takes 2m input bits and a
	// one-operand module m.
	for _, c := range []struct {
		name string
		want int
	}{{"ripple-adder", 16}, {"absval", 8}} {
		mod, _ := Lookup(c.name)
		if got := mod.Build(8).NumInputBits(); got != c.want {
			t.Errorf("%s total input bits = %d, want %d", c.name, got, c.want)
		}
	}
}
