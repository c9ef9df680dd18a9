// Package logic provides fixed-width binary words, two's-complement
// encoding, and the Hamming-distance machinery the Hd power macro-model is
// built on.
//
// A Word is a little-endian bit vector: bit 0 is the LSB. Words are value
// types backed by uint64 limbs so that modules with more than 64 inputs
// (e.g. two 16-bit multiplier ports plus carry inputs) stay cheap to copy
// and compare.
package logic

import (
	"fmt"
	"math/bits"
	"strings"
)

// WordLimbBits is the number of bits stored per limb.
const WordLimbBits = 64

// Word is a fixed-width bit vector. The zero value is a zero-width word.
type Word struct {
	width int
	limbs []uint64
}

// NewWord returns an all-zero word of the given width.
// It panics if width is negative.
func NewWord(width int) Word {
	if width < 0 {
		panic(fmt.Sprintf("logic: negative word width %d", width))
	}
	return Word{width: width, limbs: make([]uint64, NumLimbs(width))}
}

// NumLimbs returns the number of uint64 limbs that back a word of the
// given width.
func NumLimbs(width int) int {
	return (width + WordLimbBits - 1) / WordLimbBits
}

// FromLimbs returns a word of the given width backed by limbs, without
// copying, so code that builds many words can fill their limbs itself:
// bit i of the word is bit i%WordLimbBits of limbs[i/WordLimbBits]. Bits
// at or above width in the last limb are ignored by every Word method.
// The word's limb slice is capped at its length, so words cut side by
// side from one slab never reach into each other. It panics if
// len(limbs) != NumLimbs(width).
func FromLimbs(width int, limbs []uint64) Word {
	if width < 0 || len(limbs) != NumLimbs(width) {
		panic(fmt.Sprintf("logic: %d limbs for a %d-bit word", len(limbs), width))
	}
	return Word{width: width, limbs: limbs[:len(limbs):len(limbs)]}
}

// FromUint returns a word of the given width holding the low `width` bits
// of v.
func FromUint(v uint64, width int) Word {
	w := NewWord(width)
	if width == 0 {
		return w
	}
	if width < WordLimbBits {
		v &= (1 << uint(width)) - 1
	}
	if len(w.limbs) > 0 {
		w.limbs[0] = v
	}
	return w
}

// FromInt encodes v as a two's-complement word of the given width.
// Values outside the representable range wrap modulo 2^width.
func FromInt(v int64, width int) Word {
	return FromUint(uint64(v), width)
}

// ParseWord parses a binary string written MSB-first, e.g. "1010" is the
// value 10 with width 4. Underscores are ignored as digit separators.
func ParseWord(s string) (Word, error) {
	s = strings.ReplaceAll(s, "_", "")
	w := NewWord(len(s))
	for i, c := range s {
		switch c {
		case '0':
		case '1':
			w.Set(len(s)-1-i, true)
		default:
			return Word{}, fmt.Errorf("logic: invalid binary digit %q in %q", c, s)
		}
	}
	return w, nil
}

// MustParseWord is ParseWord that panics on error; for tests and constants.
//
//hdlint:allow deadexport test support: internal/stats tests build words with it
func MustParseWord(s string) Word {
	w, err := ParseWord(s)
	if err != nil {
		panic(err)
	}
	return w
}

// Width returns the number of bits in the word.
func (w Word) Width() int { return w.width }

// Bit reports whether bit i is set. It panics if i is out of range.
func (w Word) Bit(i int) bool {
	w.check(i)
	return w.limbs[i/WordLimbBits]>>(uint(i)%WordLimbBits)&1 == 1
}

// Set sets bit i to v. It panics if i is out of range.
func (w *Word) Set(i int, v bool) {
	w.check(i)
	mask := uint64(1) << (uint(i) % WordLimbBits)
	if v {
		w.limbs[i/WordLimbBits] |= mask
	} else {
		w.limbs[i/WordLimbBits] &^= mask
	}
}

func (w Word) check(i int) {
	if i < 0 || i >= w.width {
		panic(fmt.Sprintf("logic: bit index %d out of range for width %d", i, w.width))
	}
}

// Clone returns an independent copy of w.
func (w Word) Clone() Word {
	c := Word{width: w.width, limbs: make([]uint64, len(w.limbs))}
	copy(c.limbs, w.limbs)
	return c
}

// Uint returns the word interpreted as an unsigned integer.
// It panics if the width exceeds 64 bits.
func (w Word) Uint() uint64 {
	if w.width > WordLimbBits {
		panic(fmt.Sprintf("logic: Uint on %d-bit word", w.width))
	}
	if len(w.limbs) == 0 {
		return 0
	}
	return w.limbs[0] & w.topMask()
}

// Int returns the word interpreted as a two's-complement signed integer.
// It panics if the width exceeds 64 bits or is zero.
func (w Word) Int() int64 {
	if w.width == 0 {
		panic("logic: Int on zero-width word")
	}
	v := w.Uint()
	if w.Bit(w.width - 1) { // sign extend
		if w.width < WordLimbBits {
			v |= ^uint64(0) << uint(w.width)
		}
	}
	return int64(v)
}

func (w Word) topMask() uint64 {
	if w.width == 0 {
		return 0
	}
	r := w.width % WordLimbBits
	if r == 0 {
		return ^uint64(0)
	}
	return (1 << uint(r)) - 1
}

// Equal reports whether two words have identical width and bits.
func (w Word) Equal(o Word) bool {
	if w.width != o.width {
		return false
	}
	for i := range w.limbs {
		if w.masked(i) != o.masked(i) {
			return false
		}
	}
	return true
}

func (w Word) masked(limb int) uint64 {
	v := w.limbs[limb]
	if limb == len(w.limbs)-1 {
		v &= w.topMask()
	}
	return v
}

// String renders the word MSB-first, the conventional way to read a bus.
func (w Word) String() string {
	var b strings.Builder
	for i := w.width - 1; i >= 0; i-- {
		if w.Bit(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// Concat returns the concatenation of w (low part) and hi (high part):
// the result has width w.Width()+hi.Width(), with w occupying the LSBs.
func (w Word) Concat(hi Word) Word {
	out := NewWord(w.width + hi.width)
	out.SetConcat(w, hi)
	return out
}

// SetConcat overwrites w with the concatenation of lo (low part) and hi
// (high part), limb by limb and without allocating. It panics unless
// w.Width() == lo.Width()+hi.Width().
func (w *Word) SetConcat(lo, hi Word) {
	if w.width != lo.width+hi.width {
		panic(fmt.Sprintf("logic: concatenating %d+%d bits into a %d-bit word",
			lo.width, hi.width, w.width))
	}
	for i := range w.limbs {
		w.limbs[i] = 0
	}
	for i := range lo.limbs {
		w.limbs[i] = lo.masked(i)
	}
	base, sh := lo.width/WordLimbBits, uint(lo.width%WordLimbBits)
	for i := range hi.limbs {
		v := hi.masked(i)
		w.limbs[base+i] |= v << sh
		if sh != 0 && base+i+1 < len(w.limbs) {
			w.limbs[base+i+1] |= v >> (WordLimbBits - sh)
		}
	}
}

// Slice returns bits [lo, hi) as a new word of width hi-lo.
func (w Word) Slice(lo, hi int) Word {
	if lo < 0 || hi > w.width || lo > hi {
		panic(fmt.Sprintf("logic: bad slice [%d,%d) of %d-bit word", lo, hi, w.width))
	}
	out := NewWord(hi - lo)
	for i := lo; i < hi; i++ {
		out.Set(i-lo, w.Bit(i))
	}
	return out
}

// Hd returns the Hamming distance between two equal-width words: the
// number of bit positions in which they differ (paper eq. 1).
// It panics on width mismatch.
func Hd(u, v Word) int {
	if u.width != v.width {
		panic(fmt.Sprintf("logic: Hd width mismatch %d vs %d", u.width, v.width))
	}
	d := 0
	for i := range u.limbs {
		d += bits.OnesCount64(u.masked(i) ^ v.masked(i))
	}
	return d
}

// StableZeros returns the number of bit positions that are zero in both u
// and v — the second index of the enhanced model's event classes E_{i,z}.
// It panics on width mismatch.
func StableZeros(u, v Word) int {
	if u.width != v.width {
		panic(fmt.Sprintf("logic: StableZeros width mismatch %d vs %d", u.width, v.width))
	}
	n := 0
	for i := range u.limbs {
		stable0 := ^(u.masked(i) | v.masked(i))
		if i == len(u.limbs)-1 {
			stable0 &= u.topMask()
		}
		n += bits.OnesCount64(stable0)
	}
	return n
}

// PackLanes transposes up to 64 words of equal width into per-bit lane
// masks, the layout of a bit-parallel simulator: bit l of dst[i] is bit i
// of words[l]. Lanes at or above len(words) come out zero. It panics
// unless len(words) <= 64 and every word is len(dst) bits wide.
//
// Each limb column of the batch is one 64×64 bit-matrix transpose, so a
// batch costs a few hundred word operations per limb instead of one
// Word.Bit call per lane and bit.
func PackLanes(dst []uint64, words []Word) {
	if len(words) > WordLimbBits {
		panic(fmt.Sprintf("logic: %d words exceed %d lanes", len(words), WordLimbBits))
	}
	for l := range words {
		if words[l].width != len(dst) {
			panic(fmt.Sprintf("logic: packing a %d-bit word into %d lane masks", words[l].width, len(dst)))
		}
	}
	var m [WordLimbBits]uint64
	for k := 0; k*WordLimbBits < len(dst); k++ {
		for l := range words {
			m[l] = words[l].limbs[k]
		}
		for l := len(words); l < WordLimbBits; l++ {
			m[l] = 0
		}
		transpose64(&m)
		copy(dst[k*WordLimbBits:], m[:])
	}
}

// transpose64 transposes a 64×64 bit matrix in place (row r is a[r], bit
// c of a row is column c) by swapping ever smaller off-diagonal blocks:
// the two 32×32 blocks, then the 16×16 blocks inside each half, down to
// single bits. Row k pairs with row k+j in the stage of block size j.
func transpose64(a *[WordLimbBits]uint64) {
	for k := 0; k < 32; k++ {
		swapBits(&a[k], &a[k+32], 32, 0x00000000ffffffff)
	}
	for k := 0; k < 64; k = (k + 17) &^ 16 {
		swapBits(&a[k&63], &a[(k+16)&63], 16, 0x0000ffff0000ffff)
	}
	for k := 0; k < 64; k = (k + 9) &^ 8 {
		swapBits(&a[k&63], &a[(k+8)&63], 8, 0x00ff00ff00ff00ff)
	}
	for k := 0; k < 64; k = (k + 5) &^ 4 {
		swapBits(&a[k&63], &a[(k+4)&63], 4, 0x0f0f0f0f0f0f0f0f)
	}
	for k := 0; k < 64; k = (k + 3) &^ 2 {
		swapBits(&a[k&63], &a[(k+2)&63], 2, 0x3333333333333333)
	}
	for k := 0; k < 64; k += 2 {
		swapBits(&a[k&63], &a[(k+1)&63], 1, 0x5555555555555555)
	}
}

// swapBits exchanges the mask-selected bits of *y with the bits s places
// higher in *x: one block swap of the transpose.
func swapBits(x, y *uint64, s uint, mask uint64) {
	t := (*x>>s ^ *y) & mask
	*x ^= t << s
	*y ^= t
}
