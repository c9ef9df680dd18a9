package core

import (
	"math"
	"math/rand"
)

// rngSource is a bit-exact replica of the source rand.NewSource(seed)
// returns: Mitchell and Reeds' additive lagged-Fibonacci generator over a
// ring of 607 words with tap 273, seeded from a Lehmer generator. The Go 1
// compatibility promise freezes that seeded stream, so the replica cannot
// drift from it, and TestSourceMatchesMathRand pins it draw for draw.
//
// Owning the generator lets PairSource make its draws without an
// interface call: step takes the ring cursor (tap, feed) and returns the
// advanced one, so a caller keeps the cursor in registers for a whole run
// of draws and stores it back once.
type rngSource struct {
	tap, feed int
	vec       [rngLen]int64
}

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1

	// Seeding runs the Lehmer generator x ← 48271·x mod (2³¹−1) for 20
	// warm-up steps and then 3 steps per ring word.
	lehmerMod  = 1<<31 - 1
	lehmerMul  = 48271
	seedSteps  = 20 + 3*rngLen
	zeroSeedX0 = 89482311 // the Lehmer state math/rand substitutes for seed ≡ 0

	// fracOne is the smallest 63-bit draw x for which float64(x)/(1<<63)
	// rounds to 1: 2⁶³−512 is the midpoint between 2⁶³−1024 and 2⁶³ and
	// ties to the even 2⁶³. Float64 redraws exactly these.
	fracOne = 1<<63 - 512
)

var (
	// lehmerPow[k] = 48271^k mod (2³¹−1), so the k-th Lehmer state of a
	// seed is lehmerPow[k]·x₀ mod (2³¹−1): seeding computes every ring
	// word straight from x₀ instead of walking one dependent chain of
	// seedSteps multiplications.
	lehmerPow = lehmerPowers()
	// rngCooked holds math/rand's 607 seeding constants (rngCooked in
	// $GOROOT/src/math/rand/rng.go), recovered from the library itself.
	rngCooked = cookedWords()
)

func lehmerPowers() (pow [seedSteps + 1]uint64) {
	pow[0] = 1
	for k := 1; k < len(pow); k++ {
		pow[k] = mulMod(pow[k-1], lehmerMul)
	}
	return pow
}

// cookedWords recovers rngCooked from rand.NewSource(1). After 607 draws
// every ring word has been the feed exactly once, so the draws are the
// whole ring; undoing the additions in reverse order rewinds it to the
// seeded state, which is the seed-1 Lehmer words xor rngCooked.
func cookedWords() (cooked [rngLen]int64) {
	src := rand.NewSource(1).(rand.Source64)
	var s rngSource
	s.tap, s.feed = 0, rngLen-rngTap
	for range rngLen {
		s.tap, s.feed = wrap(s.tap-1), wrap(s.feed-1)
		s.vec[s.feed] = int64(src.Uint64())
	}
	for range rngLen {
		s.vec[s.feed] -= s.vec[s.tap]
		s.tap, s.feed = wrap(s.tap+1), wrap(s.feed+1)
	}
	for i := range cooked {
		cooked[i] = s.vec[i] ^ lehmerWord(1, i)
	}
	return cooked
}

// wrap reduces a ring index that is at most one step outside [0, rngLen).
func wrap(i int) int {
	if i < 0 {
		return i + rngLen
	}
	if i >= rngLen {
		return i - rngLen
	}
	return i
}

// mulMod returns a·b mod (2³¹−1) for a, b < 2³¹−1 without a division:
// 2³¹ ≡ 1, so the high bits of the product fold onto the low ones.
func mulMod(a, b uint64) uint64 {
	p := a * b
	r := p&lehmerMod + p>>31 // < 2·(2³¹−1), since p < (2³¹−1)²
	if r >= lehmerMod {
		r -= lehmerMod
	}
	return r
}

// lehmerWord returns ring word i's Lehmer part for initial state x0: the
// three states after step 20+3i, shifted together as Seed combines them.
func lehmerWord(x0 uint64, i int) int64 {
	p := lehmerPow[21+3*i : 24+3*i]
	return int64(mulMod(p[0], x0))<<40 ^ int64(mulMod(p[1], x0))<<20 ^ int64(mulMod(p[2], x0))
}

// seed restarts the source exactly as rand.NewSource(seed) starts it.
// Only seed mod (2³¹−1) reaches the state, and 0 maps to 89482311.
func (s *rngSource) seed(seed int64) {
	s.tap, s.feed = 0, rngLen-rngTap
	seed %= lehmerMod
	if seed < 0 {
		seed += lehmerMod
	}
	if seed == 0 {
		seed = zeroSeedX0
	}
	x0 := uint64(seed)
	for i := range s.vec {
		s.vec[i] = lehmerWord(x0, i) ^ rngCooked[i]
	}
}

// step makes one draw from cursor (tap, feed) and returns its raw 64 bits,
// the Source64.Uint64 value, with the cursor after it.
func (s *rngSource) step(tap, feed int) (uint64, int, int) {
	tap--
	if tap < 0 {
		tap += rngLen
	}
	feed--
	if feed < 0 {
		feed += rngLen
	}
	x := s.vec[feed] + s.vec[tap]
	s.vec[feed] = x
	return uint64(x), tap, feed
}

// frac makes the Int63 draw behind one (*rand.Rand).Float64 call:
// float64(x)/(1<<63) is the value Float64 returns, and draws that would
// round to 1 are redrawn as Float64 redraws them.
func (s *rngSource) frac(tap, feed int) (uint64, int, int) {
	for {
		var x uint64
		x, tap, feed = s.step(tap, feed)
		if x &= rngMask; x < fracOne {
			return x, tap, feed
		}
	}
}

// limb makes width ≤ 64 Float64 draws from cursor (tap, feed) and returns
// them as one limb, bit b set where draw b is below threshold t, with the
// cursor after them. The borrow of x - t is the bit, with no
// data-dependent branch; it enters at the top of the limb and shifts
// down, so after width draws bit b holds draw b's.
func (s *rngSource) limb(tap, feed, width int, t uint64) (uint64, int, int) {
	var limb uint64
	for b := 0; b < width; b++ {
		var x uint64
		x, tap, feed = s.frac(tap, feed)
		limb = limb>>1 | (x-t)&(1<<63)
	}
	return limb >> (64 - width), tap, feed
}

// int31 makes the Int31 draw behind one (*rand.Rand).Intn(n) call, for
// n < 2³¹ with rejection threshold max: Intn redraws every v > max.
func (s *rngSource) int31(tap, feed int, max uint64) (uint64, int, int) {
	for {
		var x uint64
		x, tap, feed = s.step(tap, feed)
		if v := x << 1 >> 33; v <= max { // bits 32..62, Int63() >> 32
			return v, tap, feed
		}
	}
}

// fracThreshold returns the T for which x < T exactly when
// float64(x)/(1<<63) < density, for every 63-bit draw x and any density
// in [2⁻¹⁰, 1). Scaled by 2⁶³, density is an integer d ≥ 2⁵³. float64
// rounds to nearest, so x converts below d exactly when it lies below the
// midpoint between d and the float under it; the midpoint itself ties to
// whichever of the two has an even mantissa.
func fracThreshold(density float64) uint64 {
	d := density * (1 << 63)
	db := math.Float64bits(d)
	under := math.Float64frombits(db - 1)
	return uint64(d) - (uint64(d)-uint64(under))/2 + db&1
}

// halfThreshold is fracThreshold(0.5): 2⁶² has an even mantissa and floats
// 512 apart below it, so the tie 2⁶²−256 converts up to 2⁶².
const halfThreshold = 1<<62 - 256
