package core

import (
	"fmt"
	"math/rand"
	"testing"

	"hdpower/internal/logic"
)

// refPairSource is a frozen copy of the original per-bit pair generator:
// Word.Set/Bit per bit, rand.Intn for the flip count and positions. The
// limb-level PairSource must reproduce it draw for draw.
type refPairSource struct {
	m       int
	rng     *rand.Rand
	idx     []int
	density bool
}

func newRefPairSource(m int, seed int64, density bool) *refPairSource {
	idx := make([]int, m)
	for i := range idx {
		idx[i] = i
	}
	return &refPairSource{m: m, rng: rand.New(rand.NewSource(seed)), idx: idx, density: density}
}

func (ps *refPairSource) Next() (u, v logic.Word) {
	density := 0.5
	if ps.density {
		density = 0.05 + 0.9*ps.rng.Float64()
	}
	u = logic.NewWord(ps.m)
	for b := 0; b < ps.m; b++ {
		if ps.rng.Float64() < density {
			u.Set(b, true)
		}
	}
	i := 1 + ps.rng.Intn(ps.m)
	for k := 0; k < i; k++ {
		j := k + ps.rng.Intn(ps.m-k)
		ps.idx[k], ps.idx[j] = ps.idx[j], ps.idx[k]
	}
	v = u.Clone()
	for k := 0; k < i; k++ {
		v.Set(ps.idx[k], !v.Bit(ps.idx[k]))
	}
	return u, v
}

// checkPairStream compares n pairs of the limb-level source against the
// frozen reference, and the Hd class each pair is filed under (the flip
// count the source drew) against logic.Hd, then checks that every word
// handed out is still intact (slab words must not overlap).
func checkPairStream(t *testing.T, m int, seed int64, biased bool, n int) {
	t.Helper()
	ps := newPairSource(m, seed, biased)
	ref := newRefPairSource(m, seed, biased)
	us, vs := make([]logic.Word, n), make([]logic.Word, n)
	wantU, wantV := make([]logic.Word, n), make([]logic.Word, n)
	for j := 0; j < n; j++ {
		var hd int
		us[j], vs[j], hd = ps.next()
		wantU[j], wantV[j] = ref.Next()
		if !us[j].Equal(wantU[j]) || !vs[j].Equal(wantV[j]) {
			t.Fatalf("m=%d seed=%d biased=%v pair %d: got (%s, %s), want (%s, %s)",
				m, seed, biased, j, us[j], vs[j], wantU[j], wantV[j])
		}
		if want := logic.Hd(us[j], vs[j]); hd != want {
			t.Fatalf("m=%d seed=%d biased=%v pair %d: filed under Hd %d, logic.Hd %d",
				m, seed, biased, j, hd, want)
		}
	}
	for j := range us {
		if !us[j].Equal(wantU[j]) || !vs[j].Equal(wantV[j]) {
			t.Fatalf("m=%d seed=%d biased=%v: pair %d changed after later draws", m, seed, biased, j)
		}
	}
	// A reset source replays the stream of a fresh one, in either mode:
	// workers reset one source across the basic and biased phases.
	ps.reset(seed+1, !biased)
	ref = newRefPairSource(m, seed+1, !biased)
	for j := 0; j < 3; j++ {
		u, v, hd := ps.next()
		ru, rv := ref.Next()
		if !u.Equal(ru) || !v.Equal(rv) || hd != logic.Hd(u, v) {
			t.Fatalf("m=%d seed=%d biased=%v: reset stream diverges at pair %d", m, seed+1, !biased, j)
		}
	}
}

// TestPairSourceMatchesPerBitReference pins the stream and each pair's
// Hd class across limb boundaries and past one slab of pairs.
func TestPairSourceMatchesPerBitReference(t *testing.T) {
	for _, m := range []int{1, 2, 17, 33, 63, 64, 65, 130} {
		for _, biased := range []bool{false, true} {
			checkPairStream(t, m, int64(m)*7919, biased, slabPairs+5)
		}
	}
}

// FuzzPairSource fuzzes the identity claim of the limb-level generator,
// and of the Hd class it files each pair under, over input width, seed
// and mode.
func FuzzPairSource(f *testing.F) {
	f.Add(uint8(32), int64(1), false)
	f.Add(uint8(64), int64(-3), true)
	f.Add(uint8(199), int64(1<<40), false)
	f.Fuzz(func(t *testing.T, m uint8, seed int64, biased bool) {
		checkPairStream(t, 1+int(m)%200, seed, biased, 40)
	})
}

// intn makes one Intn(n) draw from s the way Next does, for the n whose
// intnDiv is d.
func intn(s *rngSource, d *intnDiv) int {
	r, tap, feed := s.int31(s.tap, s.feed, d.max)
	s.tap, s.feed = tap, feed
	return d.mod(r)
}

// int63 makes one Int63 draw from s.
func int63(s *rngSource) int64 {
	x, tap, feed := s.step(s.tap, s.feed)
	s.tap, s.feed = tap, feed
	return int64(x & rngMask)
}

// TestIntnMatchesRandIntn checks the division-free replica against
// rand.Intn for every n in [1, 130], consuming the same draws, through
// the PairSource table and the replica source.
func TestIntnMatchesRandIntn(t *testing.T) {
	const maxN = 130
	for n := 1; n <= maxN; n++ {
		seed := int64(n) * 104729
		ps := newPairSource(maxN, seed, false)
		ref := rand.New(rand.NewSource(seed))
		for k := 0; k < 2000; k++ {
			if got, want := intn(&ps.src, &ps.div[n]), ref.Intn(n); got != want {
				t.Fatalf("n=%d draw %d: intn %d, rand.Intn %d", n, k, got, want)
			}
		}
		if int63(&ps.src) != ref.Int63() {
			t.Fatalf("n=%d: intn consumed a different number of draws", n)
		}
	}
}

// TestIntnDivLargeN extends the replica check to n where rand.Intn
// rejects up to half of its draws and the remainder needs all 31 bits.
func TestIntnDivLargeN(t *testing.T) {
	for _, n := range []int{1<<30 + 1, 3 << 29, 1<<31 - 1, 1 << 30, 1000003} {
		d := newIntnDiv(n)
		var s rngSource
		s.seed(int64(n))
		ref := rand.New(rand.NewSource(int64(n)))
		for k := 0; k < 2000; k++ {
			if got, want := intn(&s, &d), ref.Intn(n); got != want {
				t.Fatalf("n=%d draw %d: %d, rand.Intn %d", n, k, got, want)
			}
		}
		if int63(&s) != ref.Int63() {
			t.Fatalf("n=%d: draw consumed a different number of draws", n)
		}
	}
}

// TestPairSourceNextAllocs pins the amortized allocation cost of Next:
// one slab per slabPairs pairs, nothing per pair.
func TestPairSourceNextAllocs(t *testing.T) {
	for _, biased := range []bool{false, true} {
		ps := newPairSource(33, 1, biased)
		if allocs := testing.AllocsPerRun(4*slabPairs, func() { ps.Next() }); allocs != 0 {
			t.Fatalf("biased=%v: Next allocates %.2f times per pair, want 0", biased, allocs)
		}
	}
}

// BenchmarkPairSourceNext prices one stratified (and one biased) pair at
// the input widths of 8-, 16- and 32-bit two-operand modules.
func BenchmarkPairSourceNext(b *testing.B) {
	for _, biased := range []bool{false, true} {
		for _, m := range []int{17, 33, 65} {
			name := "stratified"
			if biased {
				name = "biased"
			}
			b.Run(fmt.Sprintf("%s/m=%d", name, m), func(b *testing.B) {
				ps := newPairSource(m, 1, biased)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ps.Next()
				}
			})
		}
	}
}

// BenchmarkPairSourceShard prices one shard's pairs as runCharShard makes
// them: a reset to the shard's seed, then shardPatterns pairs. Unlike
// BenchmarkPairSourceNext it includes the per-shard seeding.
func BenchmarkPairSourceShard(b *testing.B) {
	for _, biased := range []bool{false, true} {
		for _, m := range []int{17, 33, 65} {
			name := "stratified"
			if biased {
				name = "biased"
			}
			b.Run(fmt.Sprintf("%s/m=%d", name, m), func(b *testing.B) {
				ps := newPairSource(m, 1, biased)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ps.reset(shardSeed(1, 0, i), biased)
					for j := 0; j < shardPatterns; j++ {
						ps.next()
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*shardPatterns), "ns/pair")
			})
		}
	}
}
