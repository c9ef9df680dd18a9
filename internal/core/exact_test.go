package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"hdpower/internal/logic"
)

// exactClasses is the exact characterization of a module: every ordered
// pair (u, v), u ≠ v, of its m input bits, priced once. Charges are whole
// tenths on the bit-parallel backend, so the per-class sums are exact
// integers.
type exactClasses struct {
	count, tenths, squares []int64   // per Hd class i, index i-1
	enhanced               [][]int64 // pair count per (Hd i, stable zeros z)
}

// mean and sigma return class i's exact mean charge and population
// standard deviation.
func (e *exactClasses) mean(i int) float64 {
	return float64(e.tenths[i-1]) / float64(e.count[i-1]) / 10
}

func (e *exactClasses) sigma(i int) float64 {
	n := float64(e.count[i-1])
	mu := float64(e.tenths[i-1]) / n
	return math.Sqrt(max(float64(e.squares[i-1])/n-mu*mu, 0)) / 10
}

// enumerateClasses prices all 2^m·(2^m−1) ordered pairs of an m-bit
// backend, a batch of whole 64-lane words at a time.
func enumerateClasses(t *testing.T, b Backend) *exactClasses {
	t.Helper()
	m := b.NumInputBits()
	words := make([]logic.Word, 1<<m)
	for u := range words {
		words[u] = logic.FromUint(uint64(u), m)
	}
	e := &exactClasses{
		count: make([]int64, m), tenths: make([]int64, m), squares: make([]int64, m),
		enhanced: make([][]int64, m),
	}
	for i := 1; i <= m; i++ {
		e.enhanced[i-1] = make([]int64, m-i+1)
	}
	const batch = 64 * 64
	us, vs, q := make([]logic.Word, 0, batch), make([]logic.Word, 0, batch), make([]float64, batch)
	flush := func() {
		b.Charges(us, vs, q[:len(us)])
		for j := range us {
			i := logic.Hd(us[j], vs[j])
			tenths := int64(math.Round(q[j] * 10))
			e.count[i-1]++
			e.tenths[i-1] += tenths
			e.squares[i-1] += tenths * tenths
			e.enhanced[i-1][logic.StableZeros(us[j], vs[j])]++
		}
		us, vs = us[:0], vs[:0]
	}
	for u := range words {
		for v := range words {
			if u == v {
				continue
			}
			us, vs = append(us, words[u]), append(vs, words[v])
			if len(us) == batch {
				flush()
			}
		}
	}
	flush()
	return e
}

// binomial returns C(n, k).
func binomial(n, k int) int64 {
	c := int64(1)
	for j := 1; j <= k; j++ {
		c = c * int64(n-k+j) / int64(j)
	}
	return c
}

// TestExactCoefficients is the oracle of Section 4.1's sampler: for
// m ≤ 12 every ordered pair fits through the bit-parallel engine, which
// gives each class's exact mean charge p_i. The exact class sizes must be
// C(m,i)·2^m per Hd class and C(m,i)·2^i·C(m−i,z) per enhanced class, and
// the default-budget model's p_i (5,000 pairs, seed 1) must lie within
// z·σ_i/√n_i of the exact mean, z Bonferroni-corrected over the m classes
// at a family-wise 99.9%. The m = 12 modules take seconds each to
// enumerate and are skipped under -short.
func TestExactCoefficients(t *testing.T) {
	for _, c := range []struct {
		module string
		width  int
		slow   bool
	}{
		{"ripple-adder", 5, false},
		{"kogge-stone-adder", 5, false},
		{"csa-multiplier", 5, false},
		{"booth-wallace-multiplier", 4, false},
		{"ripple-adder", 6, true},
		{"csa-multiplier", 6, true},
	} {
		t.Run(fmt.Sprintf("%s:%d", c.module, c.width), func(t *testing.T) {
			if c.slow && testing.Short() {
				t.Skip("m = 12 enumeration skipped under -short")
			}
			meter := meterFor(t, c.module, c.width)
			b, err := NewBitParallelBackend(meter.Simulator().Netlist())
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			exact := enumerateClasses(t, b)
			enumerated := time.Since(start)
			m := b.NumInputBits()
			for i := 1; i <= m; i++ {
				if want := binomial(m, i) << m; exact.count[i-1] != want {
					t.Errorf("class %d holds %d pairs, want %d", i, exact.count[i-1], want)
				}
				for z, got := range exact.enhanced[i-1] {
					if want := binomial(m, i) << i * binomial(m-i, z); got != want {
						t.Errorf("class (%d, %d) holds %d pairs, want %d", i, z, got, want)
					}
				}
			}

			model, err := Characterize(meter, c.module, CharacterizeOptions{Seed: 1, Backend: BackendBitParallel})
			if err != nil {
				t.Fatal(err)
			}
			bound := math.Sqrt2 * math.Erfinv(1-0.001/float64(m))
			worst := 0.0
			for i := 1; i <= m; i++ {
				coef := model.Basic[i-1]
				se := exact.sigma(i) / math.Sqrt(float64(coef.Count))
				z := (coef.P - exact.mean(i)) / se
				worst = max(worst, math.Abs(z))
				t.Logf("p_%d: exact %.4f, default budget %.4f (n %d), z %+.2f", i, exact.mean(i), coef.P, coef.Count, z)
				if math.Abs(z) > bound {
					t.Errorf("p_%d = %g is %.2f standard errors from the exact %g (bound %.2f)",
						i, coef.P, z, exact.mean(i), bound)
				}
			}
			t.Logf("m=%d: %d pairs enumerated in %v; worst |z| %.2f, bound %.2f",
				m, int64(1)<<m*(int64(1)<<m-1), enumerated.Round(time.Millisecond), worst, bound)
		})
	}
}
