package logic

import (
	"math/rand"
	"testing"
)

// randomLimbWords returns n words of the given width whose limbs are
// fully random, including the bits above width that every Word method
// must ignore.
func randomLimbWords(rng *rand.Rand, width, n int) []Word {
	out := make([]Word, n)
	for l := range out {
		limbs := make([]uint64, NumLimbs(width))
		for k := range limbs {
			limbs[k] = rng.Uint64()
		}
		out[l] = FromLimbs(width, limbs)
	}
	return out
}

// packLanesRef is the per-bit lane packing PackLanes replaces.
func packLanesRef(width int, words []Word) []uint64 {
	out := make([]uint64, width)
	for l, w := range words {
		for i := 0; i < width; i++ {
			if w.Bit(i) {
				out[i] |= 1 << uint(l)
			}
		}
	}
	return out
}

func checkPackLanes(t *testing.T, seed int64, width, lanes int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	words := randomLimbWords(rng, width, lanes)
	got := make([]uint64, width)
	for i := range got {
		got[i] = rng.Uint64() // PackLanes must overwrite every mask
	}
	PackLanes(got, words)
	want := packLanesRef(width, words)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("width %d, %d lanes: bit %d lane mask %#x, want %#x", width, lanes, i, got[i], want[i])
		}
	}
}

func TestPackLanesMatchesPerBit(t *testing.T) {
	for _, width := range []int{0, 1, 2, 31, 33, 63, 64, 65, 127, 128, 129, 200} {
		for _, lanes := range []int{1, 7, 63, 64} {
			checkPackLanes(t, int64(width*100+lanes), width, lanes)
		}
	}
}

func TestPackLanesValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("over-lanes", func() { PackLanes(make([]uint64, 4), make([]Word, 65)) })
	mustPanic("width", func() { PackLanes(make([]uint64, 4), []Word{NewWord(5)}) })
}

// FuzzPackLanes pins the transpose against the per-bit Word.Bit loop
// over widths 1–200 and 1–64 lanes.
func FuzzPackLanes(f *testing.F) {
	f.Add(int64(1), uint8(62), uint8(63))
	f.Add(int64(2), uint8(63), uint8(0))
	f.Add(int64(3), uint8(64), uint8(31))
	f.Add(int64(4), uint8(199), uint8(40))
	f.Fuzz(func(t *testing.T, seed int64, width, lanes uint8) {
		checkPackLanes(t, seed, 1+int(width)%200, 1+int(lanes)%64)
	})
}

func TestFromLimbs(t *testing.T) {
	w := FromLimbs(70, []uint64{0b1011, 1<<5 | 1<<63})
	if w.Width() != 70 || !w.Bit(0) || w.Bit(2) || !w.Bit(3) || !w.Bit(69) {
		t.Fatalf("FromLimbs bits wrong: %s", w)
	}
	// Bit 127 lies above the width and must be ignored.
	if w.PopCount() != 4 {
		t.Fatalf("PopCount %d, want 4 (bits above the width ignored)", w.PopCount())
	}
	if !w.Equal(MustParseWord("1" + zeros(65) + "1011")) {
		t.Fatalf("FromLimbs word %s", w)
	}
	// Neighbouring words cut from one slab stay independent.
	slab := make([]uint64, 2)
	a, b := FromLimbs(64, slab[0:1]), FromLimbs(64, slab[1:2])
	a.Set(63, true)
	if b.PopCount() != 0 {
		t.Fatal("Set on one slab word touched its neighbour")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FromLimbs accepted a limb count that does not match the width")
		}
	}()
	FromLimbs(65, make([]uint64, 1))
}

func zeros(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '0'
	}
	return string(b)
}

// TestSetConcatMatchesPerBit checks the limb-level concatenation against
// the bit-by-bit definition across limb boundaries, on words whose
// limbs carry garbage above their width.
func TestSetConcatMatchesPerBit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, wa := range []int{0, 1, 13, 63, 64, 65, 100} {
		for _, wb := range []int{0, 1, 31, 64, 70} {
			lo := randomLimbWords(rng, wa, 1)[0]
			hi := randomLimbWords(rng, wb, 1)[0]
			dst := randomLimbWords(rng, wa+wb, 1)[0]
			dst.SetConcat(lo, hi)
			for i := 0; i < wa+wb; i++ {
				want := i < wa && lo.Bit(i) || i >= wa && hi.Bit(i-wa)
				if dst.Bit(i) != want {
					t.Fatalf("%d+%d bits: bit %d is %v", wa, wb, i, dst.Bit(i))
				}
			}
			if !lo.Concat(hi).Equal(dst) {
				t.Fatalf("%d+%d bits: Concat and SetConcat differ", wa, wb)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetConcat accepted mismatched widths")
		}
	}()
	w := NewWord(5)
	w.SetConcat(NewWord(2), NewWord(2))
}

// BenchmarkPackLanes prices one full 64-lane batch of 33-bit words, the
// input width of a 16-bit adder.
func BenchmarkPackLanes(b *testing.B) {
	words := randomLimbWords(rand.New(rand.NewSource(1)), 33, 64)
	dst := make([]uint64, 33)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PackLanes(dst, words)
	}
}
