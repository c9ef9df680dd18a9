package core

import (
	"fmt"
	"math/bits"

	"hdpower/internal/logic"
)

// PairSource generates characterization vector pairs (u, v) stratified
// over the Hamming-distance axis: the flip count i is drawn uniformly from
// [1, m], so every class E_i receives samples even for wide inputs, where
// a plain uniform stream essentially never produces Hd 1 or Hd m.
//
// In the default (unbiased) mode the base vector is uniform random, which
// makes the per-class conditional distribution identical to that of a
// uniform pattern pair conditioned on its Hamming-distance — so the
// resulting p_i are unbiased for random evaluation streams. The biased
// mode additionally stratifies the ones-density of the base vector to
// populate the extreme stable-zero classes of the enhanced model; it is
// only used for the enhanced coefficient table.
//
// Every draw is one SplitMix64 output: the generator's state starts at the
// 64-bit seed and advances by a fixed odd increment per draw, so a stream
// is a counter run keyed by the whole seed, and no two seeds share one. A
// pair is drawn in this order:
//   - biased mode only: a density threshold T uniform on the integers of
//     [0.05·2⁵³, 0.95·2⁵³], so the density d = T/2⁵³ is uniform on
//     [0.05, 0.95];
//   - u, one limb of up to 64 bits at a time: one draw per limb in the
//     default mode; in biased mode each bit is set where its lane's 53-bit
//     uniform number is below T, compared bit-sliced (see below), which
//     makes every bit an exact, independent Bernoulli(d);
//   - the flip count i = 1 + bounded(m);
//   - the flipped positions, a uniform i-subset drawn by Floyd's
//     algorithm, or the m − i kept positions when i > m/2.
//
// bounded(n) is Lemire's multiply-and-reject reduction of one draw to
// [0, n), so every count and position is exactly uniform.
type PairSource struct {
	m       int
	state   uint64 // SplitMix64 state: the seed plus the draws made times pairIncrement
	density bool   // stratify base-vector ones-density
	buf     []uint64
	slab    []uint64 // unused tail of buf
}

// pairStream names the pair generator in identity hashes, so state built
// from another generator's pairs is refused.
const pairStream = "splitmix64-lemire-floyd"

const (
	// pairIncrement is SplitMix64's state increment, 2⁶⁴ divided by the
	// golden ratio, made odd.
	pairIncrement = 0x9e3779b97f4a7c15
	// fracBits is the precision of a biased-mode lane's uniform number.
	fracBits = 53
	// densityLo and densitySpan bound the biased-mode threshold T to
	// [densityLo, densityLo+densitySpan): ⌈0.05·2⁵³⌉ and ⌊0.95·2⁵³⌋.
	densityLo   = 450359962737050
	densitySpan = 8556839292003942 - densityLo + 1
)

// slabPairs is the number of pairs whose limbs one slab allocation holds.
const slabPairs = shardPatterns

// NewPairSource returns an unbiased stratified characterization pair
// source for m-bit input vectors.
func NewPairSource(m int, seed int64) *PairSource {
	return newPairSource(m, seed, false)
}

// NewBiasedPairSource returns a pair source that additionally stratifies
// the base vector's ones-density over [0.05, 0.95], covering the
// stable-zero axis of the enhanced model.
func NewBiasedPairSource(m int, seed int64) *PairSource {
	return newPairSource(m, seed, true)
}

func newPairSource(m int, seed int64, density bool) *PairSource {
	if m <= 0 {
		panic(fmt.Sprintf("core: non-positive input width %d", m))
	}
	ps := &PairSource{m: m}
	ps.reset(seed, density)
	return ps
}

// reset restarts the stream exactly as newPairSource(m, seed, density)
// would, reusing the source's limb slab. The words Next returned before
// the reset share that slab and are overwritten by later draws, so only
// an owner that has dropped them may reset.
func (ps *PairSource) reset(seed int64, density bool) {
	ps.state = uint64(seed)
	ps.density = density
	ps.slab = ps.buf
}

// draw advances state s by one draw and returns the draw.
func draw(s *uint64) uint64 {
	*s += pairIncrement
	return mix64(*s)
}

// bounded returns a uniform draw from [0, n), n > 0, advancing s by one
// draw and, with probability below n/2⁶⁴, by more.
func bounded(s *uint64, n uint64) uint64 {
	hi, lo := bits.Mul64(draw(s), n)
	if lo < n {
		for thresh := -n % n; lo < thresh; {
			hi, lo = bits.Mul64(draw(s), n)
		}
	}
	return hi
}

// below returns a limb whose bit l is set where lane l's 53-bit uniform
// number is below t, for the lanes in mask; other bits are zero. Draw k
// holds bit 52−k of every lane's number, most significant first, so a
// lane is decided at the first bit where its number and t differ, and
// the draws stop once every lane in mask is decided. A lane equal to t
// in all 53 bits is not below it.
func below(s *uint64, t, mask uint64) uint64 {
	var lt uint64
	open := mask
	for k := fracBits - 1; k >= 0 && open != 0; k-- {
		r := draw(s)
		tk := -(t >> uint(k) & 1) // all ones where t has a 1
		lt |= open &^ r & tk
		open &^= r ^ tk
	}
	return lt
}

// subset sets k distinct positions of [0, n) in the zeroed limbs f, each
// k-subset equally likely, with k bounded draws (Floyd's algorithm).
func subset(s *uint64, f []uint64, n, k int) {
	for j := n - k; j < n; j++ {
		p := bounded(s, uint64(j)+1)
		if f[p/logic.WordLimbBits]>>(p%logic.WordLimbBits)&1 != 0 {
			p = uint64(j)
		}
		f[p/logic.WordLimbBits] |= 1 << (p % logic.WordLimbBits)
	}
}

// Next returns the next characterization pair. The two words are cut
// side by side from a limb slab the source owns; words from earlier
// calls stay valid.
func (ps *PairSource) Next() (u, v logic.Word) {
	u, v, _ = ps.next()
	return u, v
}

// next returns the next pair with its Hd class: the flip count drawn,
// which is logic.Hd(u, v) because the flipped positions are distinct.
func (ps *PairSource) next() (u, v logic.Word, hd int) {
	m := ps.m
	n := logic.NumLimbs(m)
	if len(ps.slab) < 2*n {
		ps.buf = make([]uint64, 2*n*slabPairs)
		ps.slab = ps.buf
	}
	ul, vl := ps.slab[:n], ps.slab[n:2*n]
	ps.slab = ps.slab[2*n:]

	s := ps.state
	var t uint64
	if ps.density {
		t = densityLo + bounded(&s, densitySpan)
	}
	for k := range ul {
		mask := limbMask(m, k)
		if ps.density {
			ul[k] = below(&s, t, mask)
		} else {
			ul[k] = draw(&s) & mask
		}
	}

	// vl first holds the drawn positions: the flipped ones, or for
	// i > m/2 the kept ones, whose complement within the word is flipped.
	hd = 1 + int(bounded(&s, uint64(m)))
	clear(vl)
	if hd <= m/2 {
		subset(&s, vl, m, hd)
		for k := range vl {
			vl[k] ^= ul[k]
		}
	} else {
		subset(&s, vl, m, m-hd)
		for k := range vl {
			vl[k] = (^vl[k] & limbMask(m, k)) ^ ul[k]
		}
	}
	ps.state = s
	return logic.FromLimbs(m, ul), logic.FromLimbs(m, vl), hd
}

// limbMask has the bits of limb k that lie inside an m-bit word.
func limbMask(m, k int) uint64 {
	if w := m - k*logic.WordLimbBits; w < logic.WordLimbBits {
		return 1<<uint(w) - 1
	}
	return ^uint64(0)
}
