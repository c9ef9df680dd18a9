package core

import (
	"math"
	"math/rand"
	"testing"
)

// TestSourceMatchesMathRand compares the replica's raw 64-bit draws with
// rand.NewSource's, past two wraps of the 607-word ring, so every seeded
// word and every feedback sum is checked. The listed seeds are where
// math/rand's seed reduction branches: zero (mapped to 89482311),
// negative residues, multiples of 2³¹−1 and the int64 extremes.
func TestSourceMatchesMathRand(t *testing.T) {
	const draws = 1300
	seeds := []int64{
		0, 1, -1, lehmerMod, -lehmerMod, 2 * lehmerMod, zeroSeedX0,
		math.MinInt64, math.MaxInt64,
	}
	gen := rand.New(rand.NewSource(1))
	for range 2000 {
		seeds = append(seeds, int64(gen.Uint64()))
	}
	var s rngSource
	for _, seed := range seeds {
		s.seed(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		tap, feed := s.tap, s.feed
		for k := 0; k < draws; k++ {
			var x uint64
			x, tap, feed = s.step(tap, feed)
			if want := ref.Uint64(); x != want {
				t.Fatalf("seed %d draw %d: replica %#x, math/rand %#x", seed, k, x, want)
			}
		}
	}
}

// TestFracThreshold checks that the integer threshold orders every draw
// exactly as Float64's float compare does, on both sides of the cut and at
// it, and that frac redraws exactly the draws Float64 redraws.
func TestFracThreshold(t *testing.T) {
	if got := fracThreshold(0.5); got != halfThreshold {
		t.Fatalf("fracThreshold(0.5) = %d, halfThreshold %d", got, uint64(halfThreshold))
	}
	densities := []float64{0.05, 0.95, 0.5, 0.25, 0.125, 0.0625,
		math.Nextafter(0.5, 0), math.Nextafter(0.5, 1), math.Nextafter(0.95, 0)}
	gen := rand.New(rand.NewSource(7))
	for range 100000 {
		densities = append(densities, 0.05+0.9*gen.Float64())
	}
	for _, density := range densities {
		thr := fracThreshold(density)
		for x := thr - 2; x <= thr+1; x++ {
			if got, want := x < thr, float64(x)/(1<<63) < density; got != want {
				t.Fatalf("density %v: threshold %d gives %v for x=%d, Float64 compare %v", density, thr, got, x, want)
			}
		}
	}

	// The redraw cut: 2⁶³−513 converts below 1, 2⁶³−512 rounds to 1.
	if f := float64(uint64(fracOne-1)) / (1 << 63); f >= 1 {
		t.Fatalf("draw 2^63-513 gives Float64 %v, want < 1", f)
	}
	if f := float64(uint64(fracOne)) / (1 << 63); f != 1 {
		t.Fatalf("draw 2^63-512 gives Float64 %v, want 1", f)
	}
	// A ring whose next two draws are 2⁶³−512 and 2⁶³−513: frac skips the
	// first and returns the second, with the cursor after both.
	s := rngSource{tap: 1, feed: 2}
	s.vec[1] = fracOne
	s.vec[rngLen-1] = fracOne - 1
	x, tap, feed := s.frac(s.tap, s.feed)
	if x != fracOne-1 || tap != rngLen-1 || feed != 0 {
		t.Fatalf("frac = %d at (%d, %d), want %d at (%d, 0)", x, tap, feed, uint64(fracOne-1), rngLen-1)
	}
}

// TestInt31RejectionCut pins int31's cut at Int31n's: a draw whose Int31
// exceeds max is redrawn, and max itself is kept.
func TestInt31RejectionCut(t *testing.T) {
	d := newIntnDiv(1<<30 + 1) // max = 2³⁰: half of all draws are redrawn
	s := rngSource{tap: 1, feed: 2}
	s.vec[1] = int64(d.max+1) << 32
	s.vec[rngLen-1] = int64(d.max) << 32
	v, tap, feed := s.int31(s.tap, s.feed, d.max)
	if v != d.max || tap != rngLen-1 || feed != 0 {
		t.Fatalf("int31 = %d at (%d, %d), want %d at (%d, 0)", v, tap, feed, d.max, rngLen-1)
	}
}

// TestPairSourceSeedResidue pins that only seed mod (2³¹−1) selects a
// pair stream: congruent seeds, and seeds 0 and 89482311, give the same
// pairs.
func TestPairSourceSeedResidue(t *testing.T) {
	same := func(m int, a, b int64, biased bool) {
		t.Helper()
		pa, pb := newPairSource(m, a, biased), newPairSource(m, b, biased)
		for j := 0; j < 200; j++ {
			ua, va := pa.Next()
			ub, vb := pb.Next()
			if !ua.Equal(ub) || !va.Equal(vb) {
				t.Fatalf("m=%d biased=%v: seeds %d and %d diverge at pair %d", m, biased, a, b, j)
			}
		}
	}
	for _, m := range []int{17, 65} {
		for _, biased := range []bool{false, true} {
			for _, s := range []int64{1, 42, -5, 1 << 40} {
				same(m, s, s+lehmerMod, biased)
			}
			same(m, 0, zeroSeedX0, biased)
		}
	}
}
