package stimuli

import (
	"math"
	"testing"
)

func mean(xs []int64) float64 {
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s / float64(len(xs))
}

func stddev(xs []int64) float64 {
	m := mean(xs)
	var s float64
	for _, x := range xs {
		d := float64(x) - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

func lag1(xs []int64) float64 {
	m := mean(xs)
	var num, den float64
	for i := 0; i < len(xs)-1; i++ {
		num += (float64(xs[i]) - m) * (float64(xs[i+1]) - m)
	}
	for _, x := range xs {
		d := float64(x) - m
		den += d * d
	}
	return num / den
}

func TestRandomBitBalance(t *testing.T) {
	src := Random(16, 1)
	const n = 4000
	ones := make([]int, 16)
	for i := 0; i < n; i++ {
		w := src.Next()
		for b := 0; b < 16; b++ {
			if w.Bit(b) {
				ones[b]++
			}
		}
	}
	for b, c := range ones {
		frac := float64(c) / n
		if frac < 0.45 || frac > 0.55 {
			t.Errorf("bit %d signal probability %.3f, want ~0.5", b, frac)
		}
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	a := Take(Random(8, 42), 20)
	b := Take(Random(8, 42), 20)
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatal("same seed produced different streams")
		}
	}
	c := Take(Random(8, 43), 20)
	same := true
	for i := range a {
		if !a[i].Equal(c[i]) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestCounterSequence(t *testing.T) {
	// The type-V counter wraps at 2^(width-1), inside the positive range.
	src := Counter(4, 6)
	want := []uint64{6, 7, 0, 1, 2}
	for i, w := range Take(src, 5) {
		if w.Uint() != want[i] {
			t.Errorf("counter[%d] = %d, want %d", i, w.Uint(), want[i])
		}
	}
}

func TestAR1Statistics(t *testing.T) {
	const n = 50000
	src := AR1(16, 0, 2000, 0.9, 7)
	xs := TakeInts(src, n)
	if m := mean(xs); math.Abs(m) > 100 {
		t.Errorf("AR1 mean = %v, want ~0", m)
	}
	if sd := stddev(xs); math.Abs(sd-2000) > 150 {
		t.Errorf("AR1 std = %v, want ~2000", sd)
	}
	if r := lag1(xs); math.Abs(r-0.9) > 0.03 {
		t.Errorf("AR1 rho = %v, want ~0.9", r)
	}
}

func TestAR1NonzeroMean(t *testing.T) {
	src := AR1(12, 500, 100, 0.5, 3)
	xs := TakeInts(src, 20000)
	if m := mean(xs); math.Abs(m-500) > 20 {
		t.Errorf("AR1 mean = %v, want ~500", m)
	}
}

func TestAR1Clamping(t *testing.T) {
	// A huge std must clamp, never wrap: all values stay in range.
	src := AR1(8, 0, 1e6, 0, 5)
	for _, v := range TakeInts(src, 1000) {
		if v < -128 || v > 127 {
			t.Fatalf("value %d out of 8-bit range", v)
		}
	}
}

func TestAR1BadRhoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("rho=1 accepted")
		}
	}()
	AR1(8, 0, 1, 1.0, 1)
}

func TestQuantizeRounds(t *testing.T) {
	if got := quantize(3.4, 8).Int(); got != 3 {
		t.Errorf("quantize(3.4) = %d", got)
	}
	if got := quantize(-3.6, 8).Int(); got != -4 {
		t.Errorf("quantize(-3.6) = %d", got)
	}
	if got := quantize(1000, 8).Int(); got != 127 {
		t.Errorf("quantize(1000) = %d", got)
	}
	if got := quantize(-1000, 8).Int(); got != -128 {
		t.Errorf("quantize(-1000) = %d", got)
	}
}

func TestConcatLayout(t *testing.T) {
	a := Counter(4, 0x3)
	b := Counter(4, 0x5)
	src := Concat(a, b)
	if src.Width() != 8 {
		t.Fatalf("concat width = %d", src.Width())
	}
	w := src.Next()
	if w.Uint() != 0x53 {
		t.Errorf("concat value = %#x, want 0x53", w.Uint())
	}
}

func TestDataTypeLabels(t *testing.T) {
	want := []string{"I", "II", "III", "IV", "V"}
	for i, dt := range AllDataTypes() {
		if dt.String() != want[i] {
			t.Errorf("data type %d label = %s, want %s", i, dt, want[i])
		}
		if dt.Description() == "" || dt.Description() == "unknown" {
			t.Errorf("data type %s has no description", dt)
		}
	}
}

func TestNewStreamAllTypes(t *testing.T) {
	for _, dt := range AllDataTypes() {
		src := NewStream(dt, 12, 99)
		if src.Width() != 12 {
			t.Errorf("%s: width %d", dt, src.Width())
		}
		words := Take(src, 100)
		if len(words) != 100 {
			t.Errorf("%s: short stream", dt)
		}
	}
}

func TestCounterStreamSignBitsStayZero(t *testing.T) {
	// The paper's type V property: only positive values, sign bit never
	// set — this is what breaks the basic model and what the enhanced
	// model fixes.
	src := NewStream(TypeCounter, 8, 0)
	for i, w := range Take(src, 400) {
		if w.Bit(7) {
			t.Fatalf("sample %d: counter stream set the sign bit (%s)", i, w)
		}
	}
}

func TestSpeechMoreCorrelatedThanMusic(t *testing.T) {
	const n = 30000
	music := TakeInts(NewStream(TypeMusic, 16, 1), n)
	speech := TakeInts(NewStream(TypeSpeech, 16, 1), n)
	rm, rs := lag1(music), lag1(speech)
	if rs <= rm {
		t.Errorf("speech rho %.3f not above music rho %.3f", rs, rm)
	}
	if rs < 0.9 {
		t.Errorf("speech rho %.3f, want strong (>0.9)", rs)
	}
	if rm > 0.8 {
		t.Errorf("music rho %.3f, want weak (<0.8)", rm)
	}
}

func TestVideoPositiveMean(t *testing.T) {
	xs := TakeInts(NewStream(TypeVideo, 12, 2), 20000)
	if m := mean(xs); m < 100 {
		t.Errorf("video mean = %v, want clearly positive", m)
	}
}

func TestConcatNoSourcesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Concat() accepted")
		}
	}()
	Concat()
}
