package core

import (
	"fmt"
	"math"
	"math/bits"
	randv2 "math/rand/v2"
	"slices"
	"testing"

	"hdpower/internal/logic"
)

// refDraws is the SplitMix64 counter stream written out independently of
// PairSource, addressed by index: draw k of key is the finalizer of
// key + (k+1)·γ (Steele, Lea and Flood, "Fast splittable pseudorandom
// number generators", 2014).
type refDraws struct {
	key  uint64
	next uint64 // index of the next unconsumed draw
}

func (r *refDraws) at(k uint64) uint64 {
	z := r.key + (k+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *refDraws) Uint64() uint64 {
	x := r.at(r.next)
	r.next++
	return x
}

// intn is Lemire's nearly divisionless reduction to [0, n) ("Fast Random
// Integer Generation in an Interval", 2019), with its rejection loop.
func (r *refDraws) intn(n uint64) uint64 {
	hi, lo := bits.Mul64(r.Uint64(), n)
	for lo < -n%n {
		hi, lo = bits.Mul64(r.Uint64(), n)
	}
	return hi
}

// refPairs is a per-bit reference for PairSource over the same draws:
// words are built with Word.Set one bit at a time, each biased-mode bit
// compares its lane's whole 53-bit number with the threshold, and the
// flip positions are a set of booleans.
type refPairs struct {
	m      int
	biased bool
	d      refDraws
}

func (ps *refPairs) Next() (u, v logic.Word, hd int) {
	m := ps.m
	var t uint64
	if ps.biased {
		t = densityLo + ps.d.intn(densitySpan)
	}
	u = logic.NewWord(m)
	for base := 0; base < m; base += 64 {
		width := min(m-base, 64)
		if !ps.biased {
			x := ps.d.Uint64()
			for l := 0; l < width; l++ {
				u.Set(base+l, x>>l&1 == 1)
			}
			continue
		}
		// Lane l's number takes bit 52−k from draw k of this limb. The
		// limb consumes draws until every lane's prefix differs from t's
		// (or all 53), and later parts of the pair reuse the rest.
		first := ps.d.next
		used := uint64(fracBits)
		for k := uint64(1); k <= fracBits; k++ {
			decided := true
			for l := 0; l < width && decided; l++ {
				var prefix uint64
				for j := uint64(0); j < k; j++ {
					prefix = prefix<<1 | ps.d.at(first+j)>>l&1
				}
				decided = prefix != t>>(fracBits-k)
			}
			if decided {
				used = k
				break
			}
		}
		for l := 0; l < width; l++ {
			var x uint64
			for j := uint64(0); j < fracBits; j++ {
				x = x<<1 | ps.d.at(first+j)>>l&1
			}
			u.Set(base+l, x < t)
		}
		ps.d.next = first + used
	}
	hd = 1 + int(ps.d.intn(uint64(m)))
	drawn, flipDrawn := hd, true
	if hd > m/2 {
		drawn, flipDrawn = m-hd, false
	}
	chosen := make([]bool, m)
	for j := m - drawn; j < m; j++ {
		p := int(ps.d.intn(uint64(j) + 1))
		if chosen[p] {
			p = j
		}
		chosen[p] = true
	}
	v = u.Clone()
	for b := 0; b < m; b++ {
		if chosen[b] == flipDrawn {
			v.Set(b, !v.Bit(b))
		}
	}
	return u, v, hd
}

// checkPairStream compares n pairs of the limb-level source with the
// per-bit reference, and the Hd class each pair is filed under (the flip
// count the source drew) with logic.Hd, then checks that every word handed
// out is still intact (slab words must not overlap) and that the source
// has consumed exactly the reference's draws.
func checkPairStream(t *testing.T, m int, seed int64, biased bool, n int) {
	t.Helper()
	ps := newPairSource(m, seed, biased)
	ref := &refPairs{m: m, biased: biased, d: refDraws{key: uint64(seed)}}
	us, vs := make([]logic.Word, n), make([]logic.Word, n)
	wantU, wantV := make([]logic.Word, n), make([]logic.Word, n)
	for j := 0; j < n; j++ {
		var hd, wantHd int
		us[j], vs[j], hd = ps.next()
		wantU[j], wantV[j], wantHd = ref.Next()
		if !us[j].Equal(wantU[j]) || !vs[j].Equal(wantV[j]) || hd != wantHd {
			t.Fatalf("m=%d seed=%d biased=%v pair %d: got (%s, %s, Hd %d), want (%s, %s, Hd %d)",
				m, seed, biased, j, us[j], vs[j], hd, wantU[j], wantV[j], wantHd)
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
	if want := uint64(seed) + ref.d.next*pairIncrement; ps.state != want {
		t.Fatalf("m=%d seed=%d biased=%v: source state %#x, reference consumed %d draws (%#x)",
			m, seed, biased, ps.state, ref.d.next, want)
	}
	// A reset source replays the stream of a fresh one, in either mode:
	// workers reset one source across the basic and biased phases.
	ps.reset(seed+1, !biased)
	ref = &refPairs{m: m, biased: !biased, d: refDraws{key: uint64(seed + 1)}}
	for j := 0; j < 3; j++ {
		u, v, hd := ps.next()
		ru, rv, rhd := ref.Next()
		if !u.Equal(ru) || !v.Equal(rv) || hd != rhd {
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

// FuzzPairSource fuzzes the limb-level generator, and the Hd class it
// files each pair under, against the per-bit reference over input widths
// 1–200, seeds and modes.
func FuzzPairSource(f *testing.F) {
	f.Add(uint8(32), int64(1), false)
	f.Add(uint8(64), int64(-3), true)
	f.Add(uint8(199), int64(1<<40), false)
	f.Fuzz(func(t *testing.T, m uint8, seed int64, biased bool) {
		checkPairStream(t, 1+int(m)%200, seed, biased, 40)
	})
}

// TestSplitMix64Vectors pins draw to the published SplitMix64 outputs
// (Vigna's reference splitmix64.c) for seeds 1234567 and 0.
func TestSplitMix64Vectors(t *testing.T) {
	for _, c := range []struct {
		seed uint64
		want []uint64
	}{
		{1234567, []uint64{6457827717110365317, 3203168211198807973, 9817491932198370423,
			4593380528125082431, 16408922859458223821}},
		{0, []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}},
	} {
		s := c.seed
		for k, want := range c.want {
			if got := draw(&s); got != want {
				t.Fatalf("seed %d draw %d: %#x, want %#x", c.seed, k, got, want)
			}
		}
	}
}

// TestIntnMatchesRandIntn checks bounded against math/rand/v2's Uint64N
// over the same draws, which it must match draw for draw wherever n is
// not a power of two: every such n in [1, 130], and large n where up to
// half of all draws are rejected. For a power of two n, Uint64N masks the
// low bits instead; bounded keeps the top log2(n) bits and never rejects.
func TestIntnMatchesRandIntn(t *testing.T) {
	ns := []uint64{1<<30 + 1, 3 << 29, 1<<31 - 1, 1000003, densitySpan,
		1<<63 + 1, 3 << 62, math.MaxUint64}
	for n := uint64(1); n <= 130; n++ {
		ns = append(ns, n)
	}
	for _, n := range ns {
		s := n * 104729
		ref := &refDraws{key: s}
		gen := randv2.New(ref)
		pow2 := n&(n-1) == 0
		for k := 0; k < 2000; k++ {
			before := ref.next
			got := bounded(&s, n)
			var want uint64
			if pow2 {
				want = ref.Uint64() >> (64 - bits.TrailingZeros64(n)) & (n - 1)
			} else {
				want = gen.Uint64N(n)
			}
			if got != want {
				t.Fatalf("n=%d draw %d: bounded %d, want %d", n, k, got, want)
			}
			if s != ref.key+ref.next*pairIncrement {
				t.Fatalf("n=%d draw %d: bounded consumed a different number of draws (reference %d)",
					n, k, ref.next-before)
			}
		}
	}
}

// TestFracThreshold checks the bit-sliced compare: below sets exactly the
// lanes of its mask whose whole 53-bit number, bit 52−k taken from draw k,
// is below the threshold, at thresholds on and next to the extremes and
// at random ones, and consumes draws only until every lane is decided.
func TestFracThreshold(t *testing.T) {
	thresholds := []uint64{0, 1, 2, 1 << 52, 1<<52 - 1, 1<<52 + 1, 1<<53 - 2, 1<<53 - 1,
		densityLo, densityLo + densitySpan - 1}
	gen := refDraws{key: 7}
	for range 200 {
		thresholds = append(thresholds, gen.Uint64()>>11)
	}
	masks := []uint64{^uint64(0), 1, 1<<17 - 1, 0x8000000000000001}
	inv := inverseIncrement()
	// Lane 0's own number, and that number with its last bit flipped,
	// keep lane 0 undecided until the 53rd draw.
	for key := uint64(0); key < 4; key++ {
		d := refDraws{key: key}
		var x uint64
		for j := uint64(0); j < fracBits; j++ {
			x = x<<1 | d.at(j)&1
		}
		for _, thr := range []uint64{x, x ^ 1} {
			want := uint64(0)
			if x < thr {
				want = 1
			}
			s := key
			if got := below(&s, thr, 1); got != want {
				t.Fatalf("key %d threshold %d: below %#x, want %#x", key, thr, got, want)
			}
			if used := (s - key) * inv; used != fracBits {
				t.Fatalf("key %d threshold %d: %d draws, want %d", key, thr, used, fracBits)
			}
		}
	}
	for _, thr := range thresholds {
		for _, mask := range masks {
			for trial := uint64(0); trial < 8; trial++ {
				key := gen.Uint64()
				ref := refDraws{key: key}
				var want uint64
				for l := 0; l < 64; l++ {
					var x uint64
					for j := uint64(0); j < fracBits; j++ {
						x = x<<1 | ref.at(j)>>l&1
					}
					if mask>>l&1 == 1 && x < thr {
						want |= 1 << l
					}
				}
				s := key
				if got := below(&s, thr, mask); got != want {
					t.Fatalf("threshold %d mask %#x: below %#x, want %#x", thr, mask, got, want)
				}
				// Every lane of mask must be decided by the draws consumed,
				// and not by one fewer.
				used := (s - key) * inv
				if used == 0 || used > fracBits {
					t.Fatalf("threshold %d mask %#x: %d draws", thr, mask, used)
				}
				undecided := func(k uint64) bool {
					for l := 0; l < 64; l++ {
						if mask>>l&1 == 0 {
							continue
						}
						var prefix uint64
						for j := uint64(0); j < k; j++ {
							prefix = prefix<<1 | ref.at(j)>>l&1
						}
						if prefix == thr>>(fracBits-k) {
							return true
						}
					}
					return false
				}
				if (used < fracBits && undecided(used)) || !undecided(used-1) {
					t.Fatalf("threshold %d mask %#x: stopped after %d draws", thr, mask, used)
				}
			}
		}
	}
}

// inverseIncrement is pairIncrement's multiplicative inverse mod 2⁶⁴
// (Newton's iteration; the increment is odd), so (state − key) times it
// is the number of draws a state has advanced past its key.
func inverseIncrement() uint64 {
	x := uint64(pairIncrement)
	for range 5 {
		x *= 2 - pairIncrement*x
	}
	return x
}

// TestDensityBounds pins the biased-mode threshold range to the integers
// of [0.05·2⁵³, 0.95·2⁵³], in exact integers: 0.05 = 1/20.
func TestDensityBounds(t *testing.T) {
	const one = 1 << fracBits
	lo, hi := uint64(densityLo), uint64(densityLo+densitySpan-1)
	if 20*lo < one || 20*(lo-1) >= one {
		t.Errorf("densityLo %d is not the least threshold at or above 0.05", lo)
	}
	if 20*hi > 19*one || 20*(hi+1) <= 19*one {
		t.Errorf("top threshold %d is not the greatest at or below 0.95", hi)
	}
}

// TestPairSourceSeedsNotFolded checks that the whole 64-bit seed keys the
// stream: seeds congruent mod 2³¹−1, and seeds 0 and 89482311, which the
// math/rand source this generator replaced folded onto one stream, now
// draw different pairs.
func TestPairSourceSeedsNotFolded(t *testing.T) {
	differ := func(m int, a, b int64, biased bool) {
		t.Helper()
		pa, pb := newPairSource(m, a, biased), newPairSource(m, b, biased)
		for j := 0; j < 8; j++ {
			ua, va := pa.Next()
			ub, vb := pb.Next()
			if !ua.Equal(ub) || !va.Equal(vb) {
				return
			}
		}
		t.Errorf("m=%d biased=%v: seeds %d and %d draw the same 8 pairs", m, biased, a, b)
	}
	const lehmerMod = 1<<31 - 1
	for _, m := range []int{17, 65} {
		for _, biased := range []bool{false, true} {
			for _, s := range []int64{1, 42, -5, 1 << 40} {
				differ(m, s, s+lehmerMod, biased)
			}
			differ(m, 0, 89482311, biased)
		}
	}
}

// zBound is the distance, in standard deviations, past which the
// distribution tests below fail a count. Each checked count has an
// expected count and variance of at least 1,000 and is close to normal
// there, so a correct generator fails one check with odds of about
// 2·10⁻⁹, and any of the few thousand checks below with odds under 10⁻⁵.
// The seeds are fixed, so the outcome is the same on every run.
const zBound = 6

// checkBinomial fails when count lies more than zBound standard
// deviations from the mean of Binomial(n, p).
func checkBinomial(t *testing.T, what string, count, n int, p float64) {
	t.Helper()
	mean, sd := float64(n)*p, math.Sqrt(float64(n)*p*(1-p))
	if sd*sd < 1000 {
		t.Fatalf("%s: variance %.0f too small for the normal bound", what, sd*sd)
	}
	if z := (float64(count) - mean) / sd; math.Abs(z) > zBound {
		t.Errorf("%s: count %d, expected %.0f ± %.0f (z = %.1f)", what, count, mean, sd, z)
	}
}

// TestPairSourceHdClassCounts: the flip count is uniform on 1..m, so each
// Hd class holds Binomial(N, 1/m) of N pairs, in both modes.
func TestPairSourceHdClassCounts(t *testing.T) {
	const n = 400000
	for _, m := range []int{17, 65} {
		for _, biased := range []bool{false, true} {
			ps := newPairSource(m, 11, biased)
			counts := make([]int, m+1)
			for range n {
				_, _, hd := ps.next()
				counts[hd]++
			}
			if counts[0] != 0 {
				t.Fatalf("m=%d biased=%v: %d pairs in Hd class 0", m, biased, counts[0])
			}
			for i := 1; i <= m; i++ {
				checkBinomial(t, fmt.Sprintf("m=%d biased=%v Hd %d", m, biased, i), counts[i], n, 1/float64(m))
			}
		}
	}
}

// TestPairSourceFlipPositions: given the flip count i, the flipped
// positions are a uniform i-subset, so each position flips with
// probability E[i]/m = (m+1)/2m, and the base vector's bits are
// Bernoulli(1/2) in the default mode.
func TestPairSourceFlipPositions(t *testing.T) {
	const n = 100000
	for _, m := range []int{17, 65, 130} {
		ps := newPairSource(m, 12, false)
		flips, ones := make([]int, m), make([]int, m)
		for range n {
			u, v, _ := ps.next()
			for b := 0; b < m; b++ {
				if u.Bit(b) != v.Bit(b) {
					flips[b]++
				}
				if u.Bit(b) {
					ones[b]++
				}
			}
		}
		for b := 0; b < m; b++ {
			checkBinomial(t, fmt.Sprintf("m=%d position %d flips", m, b), flips[b], n, float64(m+1)/float64(2*m))
			checkBinomial(t, fmt.Sprintf("m=%d position %d ones", m, b), ones[b], n, 0.5)
		}
	}
}

// TestBelowDensity: below sets each lane with probability exactly T/2⁵³,
// for fixed thresholds from the density range's ends to its middle.
func TestBelowDensity(t *testing.T) {
	const n = 100000
	for _, thr := range []uint64{densityLo, 1 << 51, 3 << 51, densityLo + densitySpan - 1, 0x1234_5678_9abc_d} {
		s := thr
		ones := make([]int, 64)
		for range n {
			x := below(&s, thr, ^uint64(0))
			for l := range ones {
				ones[l] += int(x >> l & 1)
			}
		}
		p := float64(thr) / (1 << fracBits)
		for l, c := range ones {
			checkBinomial(t, fmt.Sprintf("threshold %d lane %d", thr, l), c, n, p)
		}
	}
}

// TestPairSourceStableZeroLaw: in the default mode the m − i unflipped
// bits of a pair in Hd class i are i.i.d. Bernoulli(1/2), so its stable
// zeros follow Binomial(m − i, 1/2). Every (class, count) cell with an
// expected count of at least 1,000 is checked against that law.
func TestPairSourceStableZeroLaw(t *testing.T) {
	const m, n = 17, 600000
	ps := newPairSource(m, 13, false)
	counts := make([][]int, m+1)
	for i := range counts {
		counts[i] = make([]int, m+1)
	}
	classSize := make([]int, m+1)
	for range n {
		u, v, hd := ps.next()
		counts[hd][logic.StableZeros(u, v)]++
		classSize[hd]++
	}
	checked := 0
	for i := 1; i <= m; i++ {
		k := m - i
		for z := 0; z <= m; z++ {
			p := 0.0
			if z <= k {
				p = binomialPMF(k, z)
			}
			if mean := float64(classSize[i]) * p; mean*(1-p) < 1000 {
				if z > k && counts[i][z] != 0 {
					t.Errorf("Hd %d: %d pairs with %d stable zeros, more than the %d unflipped bits",
						i, counts[i][z], z, k)
				}
				continue
			}
			checkBinomial(t, fmt.Sprintf("Hd %d, %d stable zeros", i, z), counts[i][z], classSize[i], p)
			checked++
		}
	}
	if checked < 50 {
		t.Fatalf("only %d cells checked", checked)
	}
}

// binomialPMF is P(Z = z) for Z ~ Binomial(k, 1/2).
func binomialPMF(k, z int) float64 {
	c := 1.0
	for j := 0; j < z; j++ {
		c = c * float64(k-j) / float64(j+1)
	}
	return c / math.Pow(2, float64(k))
}

// maxShardDraws bounds the draws one shard makes: per pair, at most one
// threshold draw, 53 draws per limb, one flip-count draw and m/2 position
// draws, here for inputs up to 256 bits; a rejected bounded draw, which
// happens with odds below 2⁻⁵⁵ per draw at these bounds, adds one more.
const maxShardDraws = shardPatterns * (1 + fracBits*4 + 1 + 128)

// TestShardStreamsDisjoint checks that no two shard streams of a run share
// a draw: the shard keys of the basic and the biased phase of a 10⁶-pair
// run (7,813 shards each), placed on the counter by the increment's
// inverse, lie more than 2²⁰ draws apart — far more than maxShardDraws,
// which the widest shards measured here stay within.
func TestShardStreamsDisjoint(t *testing.T) {
	const patterns = 1000000
	shards := len(shardPlan(patterns))
	if shards != 7813 {
		t.Fatalf("%d shards for %d patterns, want 7813", shards, patterns)
	}
	if maxShardDraws >= 1<<20 {
		t.Fatalf("maxShardDraws %d is not below 2^20", maxShardDraws)
	}
	inv := inverseIncrement()
	if inv*pairIncrement != 1 {
		t.Fatalf("inverse increment %#x is wrong", inv)
	}
	for _, seed := range []int64{0, 1, 42, 1999} {
		pos := make([]uint64, 0, 2*shards)
		for _, stream := range []int{streamBasic, streamBiased} {
			for i := 0; i < shards; i++ {
				pos = append(pos, uint64(shardSeed(seed, stream, i))*inv)
			}
		}
		slices.Sort(pos)
		gap := pos[0] - pos[len(pos)-1] // wraps around the counter
		for i := 1; i < len(pos); i++ {
			gap = min(gap, pos[i]-pos[i-1])
		}
		if gap <= 1<<20 {
			t.Errorf("seed %d: two shard streams start %d draws apart", seed, gap)
		}
	}
	for _, m := range []int{17, 65, 256} {
		for _, biased := range []bool{false, true} {
			ps := newPairSource(m, 0, biased)
			for i := 0; i < 64; i++ {
				key := uint64(shardSeed(1, streamBiased, i))
				ps.reset(int64(key), biased)
				for range shardPatterns {
					ps.next()
				}
				if used := (ps.state - key) * inv; used > maxShardDraws {
					t.Errorf("m=%d biased=%v shard %d: %d draws, bound %d", m, biased, i, used, maxShardDraws)
				}
			}
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
// BenchmarkPairSourceNext it includes the per-shard reset.
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
