package hddist

import (
	"math"
	"testing"
	"testing/quick"

	"hdpower/internal/stats"
	"hdpower/internal/stimuli"
)

func TestBinomialKnown(t *testing.T) {
	d := Binomial(2, 0.5)
	want := []float64{0.25, 0.5, 0.25}
	for i := range want {
		if math.Abs(d[i]-want[i]) > 1e-12 {
			t.Errorf("binom(2,.5)[%d] = %v", i, d[i])
		}
	}
	d = Binomial(0, 0.5)
	if len(d) != 1 || d[0] != 1 {
		t.Errorf("binom(0) = %v", d)
	}
	d = Binomial(3, 0)
	if d[0] != 1 || d[1] != 0 {
		t.Errorf("binom(3,0) = %v", d)
	}
}

func TestBinomialSumsToOne(t *testing.T) {
	f := func(n8 uint8, p float64) bool {
		n := int(n8 % 40)
		p = math.Abs(math.Mod(p, 1))
		d := Binomial(n, p)
		return math.Abs(d.Sum()-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBinomialMean(t *testing.T) {
	d := Binomial(20, 0.3)
	if math.Abs(d.Mean()-6) > 1e-9 {
		t.Errorf("mean = %v, want 6", d.Mean())
	}
}

func TestEmpirical(t *testing.T) {
	d, err := Empirical([]int{0, 1, 1, 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := Dist{0.25, 0.5, 0.25, 0, 0}
	for i := range want {
		if math.Abs(d[i]-want[i]) > 1e-12 {
			t.Errorf("empirical[%d] = %v", i, d[i])
		}
	}
	if _, err := Empirical(nil, 4); err == nil {
		t.Error("empty series accepted")
	}
	if _, err := Empirical([]int{5}, 4); err == nil {
		t.Error("out-of-range Hd accepted")
	}
}

func TestFromWordsMatchesManualCount(t *testing.T) {
	words := stimuli.Take(stimuli.Random(8, 3), 500)
	d, err := FromWords(words)
	if err != nil {
		t.Fatal(err)
	}
	if d.WordBits() != 8 {
		t.Fatalf("word bits = %d", d.WordBits())
	}
	if math.Abs(d.Sum()-1) > 1e-9 {
		t.Errorf("sum = %v", d.Sum())
	}
	// Random stream: mean Hd ~ m/2.
	if math.Abs(d.Mean()-4) > 0.3 {
		t.Errorf("mean Hd of random stream = %v, want ~4", d.Mean())
	}
}

func TestFromRegionsMatchesBruteConvolution(t *testing.T) {
	// eq. 18 must equal the explicit convolution of the two region
	// distributions (eq. 13).
	cases := []Regions{
		{NRand: 10, NSign: 6, TSign: 0.2},
		{NRand: 6, NSign: 10, TSign: 0.45}, // n_sign >= n_rand branch
		{NRand: 16, NSign: 0, TSign: 0.3},
		{NRand: 0, NSign: 8, TSign: 0.7},
		{NRand: 5, NSign: 5, TSign: 0},
	}
	for _, r := range cases {
		got := FromRegions(r)
		signDist := make(Dist, r.NSign+1)
		signDist[0] = 1 - r.TSign
		signDist[r.NSign] += r.TSign
		want := Convolve(Binomial(r.NRand, 0.5), signDist)
		if len(got) != len(want) {
			t.Fatalf("%+v: length %d vs %d", r, len(got), len(want))
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Errorf("%+v: [%d] = %v, want %v", r, i, got[i], want[i])
			}
		}
	}
}

func TestFromRegionsSumsToOne(t *testing.T) {
	f := func(nr, ns uint8, ts float64) bool {
		r := Regions{NRand: int(nr % 20), NSign: int(ns % 20),
			TSign: math.Abs(math.Mod(ts, 1))}
		return math.Abs(FromRegions(r).Sum()-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMergeRegionsPreservesBits(t *testing.T) {
	r := stats.RegionActivity{NRand: 5, NCorr: 4, NSign: 7, TSign: 0.3}
	merged := MergeRegions(r, 16)
	if merged.NRand+merged.NSign != 16 {
		t.Errorf("merged regions %+v don't cover the word", merged)
	}
	if merged.NRand != 7 { // 5 + 4/2
		t.Errorf("NRand = %d, want 7", merged.NRand)
	}
}

func TestAnalyticDistributionTracksEmpiricalSpeech(t *testing.T) {
	// Figure 9: the analytic distribution of a strongly correlated
	// (speech-like) stream must track the extracted one, including the
	// two-lobe structure from the sign region.
	const m = 16
	words := stimuli.Take(stimuli.NewStream(stimuli.TypeSpeech, m, 9), 30000)
	empirical, err := FromWords(words)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := stats.FromWords(words)
	if err != nil {
		t.Fatal(err)
	}
	analytic := FromWordStats(ws, m)
	tv, err := empirical.TotalVariation(analytic)
	if err != nil {
		t.Fatal(err)
	}
	if tv > 0.35 {
		t.Errorf("total variation between analytic and empirical = %.3f", tv)
	}
	if math.Abs(analytic.Mean()-empirical.Mean()) > 1.5 {
		t.Errorf("means: analytic %.2f vs empirical %.2f",
			analytic.Mean(), empirical.Mean())
	}
}

func TestAnalyticDistributionSkewedForCorrelatedStream(t *testing.T) {
	// Strong correlation gives an asymmetric distribution (the condition
	// under which the paper's Section 6 claims the distribution approach
	// beats the plain average).
	ws := stats.WordStats{Mean: 0, Std: 6000, Rho: 0.97}
	d := FromWordStats(ws, 16)
	// Mass at 0 (no sign flip, few random flips) should far exceed the
	// mass at the top.
	if d[0] < 1e-6 {
		t.Errorf("p(Hd=0) = %v, want positive", d[0])
	}
	if d.Mean() >= 8 {
		t.Errorf("mean = %v, want below m/2 for a correlated stream", d.Mean())
	}
}

// TestFromWordStatsHugeStd: at σ = math.MaxFloat64 every bit lies below
// BP0 and toggles like a coin, so the mean Hd is m/2. With the breakpoints
// wrapped to bit 0 it read 2.653 at m = 16.
func TestFromWordStatsHugeStd(t *testing.T) {
	const m = 16
	for _, std := range []float64{1e300, 6e307, math.MaxFloat64} {
		d := FromWordStats(stats.WordStats{Mean: 0, Std: std, Rho: 0.9}, m)
		if got := d.Mean(); math.Abs(got-m/2) > 1e-9 {
			t.Errorf("std=%g: mean Hd %v, want %v", std, got, m/2)
		}
	}
}

func TestConvolveTwoPorts(t *testing.T) {
	a := Dist{0.5, 0.5}        // 1-bit port
	b := Dist{0.25, 0.5, 0.25} // 2-bit port
	c := Convolve(a, b)
	if len(c) != 4 {
		t.Fatalf("convolved support = %d", len(c))
	}
	if math.Abs(c.Sum()-1) > 1e-12 {
		t.Errorf("sum = %v", c.Sum())
	}
	if math.Abs(c.Mean()-(a.Mean()+b.Mean())) > 1e-12 {
		t.Errorf("mean = %v, want %v", c.Mean(), a.Mean()+b.Mean())
	}
}

func TestTotalVariationBounds(t *testing.T) {
	a := Dist{1, 0}
	b := Dist{0, 1}
	tv, err := a.TotalVariation(b)
	if err != nil {
		t.Fatal(err)
	}
	if tv != 1 {
		t.Errorf("disjoint TV = %v", tv)
	}
	tv, _ = a.TotalVariation(a)
	if tv != 0 {
		t.Errorf("self TV = %v", tv)
	}
	if _, err := a.TotalVariation(Dist{1}); err == nil {
		t.Error("support mismatch accepted")
	}
}
