package dwlib

import (
	"fmt"
	"math/rand"
	"testing"

	"hdpower/internal/logic"
	"hdpower/internal/sim"
)

func TestCSAMultExhaustive4x4(t *testing.T) {
	nl := CSAMult(4, 4)
	s, err := sim.New(nl, sim.ZeroDelay)
	if err != nil {
		t.Fatal(err)
	}
	for a := uint64(0); a < 16; a++ {
		for b := uint64(0); b < 16; b++ {
			in := logic.FromUint(a, 4).Concat(logic.FromUint(b, 4))
			prod, _ := s.Eval(in, "prod")
			if prod.Uint() != a*b {
				t.Fatalf("%d*%d = %d, want %d", a, b, prod.Uint(), a*b)
			}
		}
	}
}

func TestCSAMultRectangular(t *testing.T) {
	// Non-square arrays exercise the differing complexity terms of
	// eq. (8): 6x4, 3x7, etc.
	cases := [][2]int{{6, 4}, {3, 7}, {2, 5}, {5, 2}}
	rng := rand.New(rand.NewSource(9))
	for _, c := range cases {
		m1, m2 := c[0], c[1]
		nl := CSAMult(m1, m2)
		s, _ := sim.New(nl, sim.ZeroDelay)
		for i := 0; i < 100; i++ {
			a := rng.Uint64() & (1<<uint(m1) - 1)
			b := rng.Uint64() & (1<<uint(m2) - 1)
			in := logic.FromUint(a, m1).Concat(logic.FromUint(b, m2))
			prod, _ := s.Eval(in, "prod")
			if prod.Uint() != a*b {
				t.Fatalf("%dx%d: %d*%d = %d", m1, m2, a, b, prod.Uint())
			}
		}
	}
}

func TestCSAMultRandomLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, m := range []int{8, 12, 16} {
		nl := CSAMult(m, m)
		s, _ := sim.New(nl, sim.ZeroDelay)
		for i := 0; i < 100; i++ {
			a := rng.Uint64() & (1<<uint(m) - 1)
			b := rng.Uint64() & (1<<uint(m) - 1)
			in := logic.FromUint(a, m).Concat(logic.FromUint(b, m))
			prod, _ := s.Eval(in, "prod")
			if prod.Uint() != a*b {
				t.Fatalf("m=%d: %d*%d = %d", m, a, b, prod.Uint())
			}
		}
	}
}

func TestBoothWallaceExhaustive4x4Signed(t *testing.T) {
	nl := BoothWallaceMult(4)
	s, err := sim.New(nl, sim.ZeroDelay)
	if err != nil {
		t.Fatal(err)
	}
	for a := int64(-8); a < 8; a++ {
		for b := int64(-8); b < 8; b++ {
			in := logic.FromInt(a, 4).Concat(logic.FromInt(b, 4))
			prod, _ := s.Eval(in, "prod")
			if prod.Int() != a*b {
				t.Fatalf("%d*%d = %d, want %d", a, b, prod.Int(), a*b)
			}
		}
	}
}

func TestBoothWallaceExhaustive6x6Signed(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive 6x6 in -short mode")
	}
	nl := BoothWallaceMult(6)
	s, _ := sim.New(nl, sim.ZeroDelay)
	for a := int64(-32); a < 32; a++ {
		for b := int64(-32); b < 32; b++ {
			in := logic.FromInt(a, 6).Concat(logic.FromInt(b, 6))
			prod, _ := s.Eval(in, "prod")
			if prod.Int() != a*b {
				t.Fatalf("%d*%d = %d, want %d", a, b, prod.Int(), a*b)
			}
		}
	}
}

func TestBoothWallaceRandomLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, m := range []int{8, 12, 16} {
		nl := BoothWallaceMult(m)
		s, _ := sim.New(nl, sim.ZeroDelay)
		half := int64(1) << uint(m-1)
		for i := 0; i < 100; i++ {
			a := rng.Int63n(2*half) - half
			b := rng.Int63n(2*half) - half
			in := logic.FromInt(a, m).Concat(logic.FromInt(b, m))
			prod, _ := s.Eval(in, "prod")
			if prod.Int() != a*b {
				t.Fatalf("m=%d: %d*%d = %d, want %d", m, a, b, prod.Int(), a*b)
			}
		}
	}
}

func TestBoothWallaceOddWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("odd width accepted")
		}
	}()
	BoothWallaceMult(5)
}

func TestAbsValExhaustive(t *testing.T) {
	for _, m := range []int{2, 4, 8} {
		nl := AbsVal(m)
		s, _ := sim.New(nl, sim.ZeroDelay)
		half := int64(1) << uint(m-1)
		for v := -half; v < half; v++ {
			in := logic.FromInt(v, m)
			y, _ := s.Eval(in, "y")
			want := v
			if want < 0 {
				want = -want
			}
			// The most negative value wraps to itself.
			want &= 1<<uint(m) - 1
			if y.Uint() != uint64(want) {
				t.Fatalf("m=%d: abs(%d) = %d, want %d", m, v, y.Uint(), want)
			}
		}
	}
}

func TestMultiplierComplexityQuadratic(t *testing.T) {
	// The Section 5 regression for the CSA multiplier assumes m^2 array
	// complexity: second differences of gate counts must be constant.
	g := make([]int, 4)
	widths := []int{4, 8, 12, 16}
	for i, m := range widths {
		g[i] = CSAMult(m, m).Stats().Gates
	}
	d1 := []int{g[1] - g[0], g[2] - g[1], g[3] - g[2]}
	d2a := d1[1] - d1[0]
	d2b := d1[2] - d1[1]
	if d2a != d2b {
		t.Errorf("CSA mult gate growth not quadratic: counts %v, second diffs %d vs %d",
			g, d2a, d2b)
	}
}

func TestWallaceShallowerThanArray(t *testing.T) {
	// The Wallace tree must beat the linear CSA array in depth at 16 bits.
	wallace := BoothWallaceMult(16).Depth()
	array := CSAMult(16, 16).Depth()
	if wallace >= array {
		t.Errorf("wallace depth %d !< array depth %d", wallace, array)
	}
}

// BenchmarkBuildFinalize prices the serial start of a char-multipliers
// build: the catalog generator and Finalize, per spec.
func BenchmarkBuildFinalize(b *testing.B) {
	for _, spec := range []struct {
		module string
		width  int
	}{
		{"csa-multiplier", 8}, {"booth-wallace-multiplier", 8},
		{"csa-multiplier", 16}, {"booth-wallace-multiplier", 16},
	} {
		mod, err := Lookup(spec.module)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s:%d", spec.module, spec.width), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := mod.Build(spec.width).Finalize(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
