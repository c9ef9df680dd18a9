package stats

import (
	"math"
	"testing"

	"hdpower/internal/logic"
	"hdpower/internal/stimuli"
)

func TestFromIntsKnown(t *testing.T) {
	ws, err := FromInts([]int64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if ws.Mean != 3 {
		t.Errorf("mean = %v", ws.Mean)
	}
	if math.Abs(ws.Std-math.Sqrt(2)) > 1e-12 {
		t.Errorf("std = %v, want sqrt(2)", ws.Std)
	}
	if ws.N != 5 {
		t.Errorf("n = %d", ws.N)
	}
}

func TestFromIntsConstantStream(t *testing.T) {
	ws, err := FromInts([]int64{7, 7, 7})
	if err != nil {
		t.Fatal(err)
	}
	if ws.Std != 0 || ws.Rho != 0 {
		t.Errorf("constant stream: std %v rho %v", ws.Std, ws.Rho)
	}
}

func TestFromIntsTooShort(t *testing.T) {
	if _, err := FromInts([]int64{1}); err == nil {
		t.Fatal("single sample accepted")
	}
}

func TestRhoRecoversARParameter(t *testing.T) {
	for _, rho := range []float64{0.0, 0.5, 0.9, -0.4} {
		src := stimuli.AR1(16, 0, 3000, rho, 17)
		ws, err := FromInts(stimuli.TakeInts(src, 40000))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ws.Rho-rho) > 0.04 {
			t.Errorf("rho = %v, want ~%v", ws.Rho, rho)
		}
	}
}

func TestBreakpointsOrdering(t *testing.T) {
	cases := []WordStats{
		{Mean: 0, Std: 100, Rho: 0},
		{Mean: 0, Std: 100, Rho: 0.95},
		{Mean: 500, Std: 100, Rho: 0.5},
		{Mean: -300, Std: 50, Rho: 0.99},
		{Mean: 0, Std: 1, Rho: 0},
	}
	for _, ws := range cases {
		bp := ComputeBreakpoints(ws, 16)
		if bp.BP0 < 0 || bp.BP1 > 15 || bp.BP0 > bp.BP1 {
			t.Errorf("ws %+v: invalid breakpoints %+v", ws, bp)
		}
	}
}

func TestBreakpointsCorrelationShrinksRandomRegion(t *testing.T) {
	weak := ComputeBreakpoints(WordStats{Std: 1000, Rho: 0.1}, 16)
	strong := ComputeBreakpoints(WordStats{Std: 1000, Rho: 0.99}, 16)
	if strong.BP0 >= weak.BP0 {
		t.Errorf("BP0 with strong correlation (%d) not below weak (%d)",
			strong.BP0, weak.BP0)
	}
}

func TestBreakpointsMagnitudeRaisesBP1(t *testing.T) {
	small := ComputeBreakpoints(WordStats{Std: 100, Rho: 0}, 16)
	large := ComputeBreakpoints(WordStats{Std: 4000, Rho: 0}, 16)
	if large.BP1 <= small.BP1 {
		t.Errorf("BP1 for larger signal (%d) not above smaller (%d)",
			large.BP1, small.BP1)
	}
}

// TestBreakpointsHugeStd sweeps σ up to math.MaxFloat64, where |μ| + 3σ
// and the difference deviation overflow to +Inf: both breakpoints must
// keep rising to the top bit, never wrap to bit 0.
func TestBreakpointsHugeStd(t *testing.T) {
	const m = 16
	for _, rho := range []float64{-1, 0, 0.9, 1} {
		var prev Breakpoints
		for std := 1.0; ; std *= 1.7 {
			if math.IsInf(std, 1) {
				std = math.MaxFloat64
			}
			bp := ComputeBreakpoints(WordStats{Mean: 0, Std: std, Rho: rho}, m)
			if bp.BP0 < prev.BP0 || bp.BP1 < prev.BP1 {
				t.Fatalf("rho=%v std=%g: breakpoints %+v fell from %+v", rho, std, bp, prev)
			}
			prev = bp
			if std == math.MaxFloat64 {
				break
			}
		}
		if want := (Breakpoints{BP0: m - 1, BP1: m - 1}); prev != want {
			t.Errorf("rho=%v std=MaxFloat64: breakpoints %+v, want %+v", rho, prev, want)
		}
	}
}

func TestBreakpointsDegenerate(t *testing.T) {
	bp := ComputeBreakpoints(WordStats{Std: 0}, 16)
	if bp.BP0 != 0 || bp.BP1 != 0 {
		t.Errorf("degenerate stream breakpoints %+v", bp)
	}
}

func TestSignActivityOrthant(t *testing.T) {
	// rho = 0, zero mean: sign flips with probability 1/2.
	if got := SignActivity(WordStats{Std: 1, Rho: 0}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("sign activity at rho=0: %v", got)
	}
	// rho -> 1: flips vanish.
	if got := SignActivity(WordStats{Std: 1, Rho: 0.9999}); got > 0.01 {
		t.Errorf("sign activity at rho~1: %v", got)
	}
	// large mean: flips vanish.
	if got := SignActivity(WordStats{Mean: 100, Std: 10, Rho: 0}); got > 1e-6 {
		t.Errorf("sign activity with dominant mean: %v", got)
	}
	// degenerate
	if got := SignActivity(WordStats{}); got != 0 {
		t.Errorf("sign activity of empty stats: %v", got)
	}
}

func TestSignActivityMatchesEmpirical(t *testing.T) {
	for _, rho := range []float64{0, 0.5, 0.9} {
		xs := stimuli.TakeInts(stimuli.AR1(16, 0, 3000, rho, 23), 40000)
		flips := 0
		for i := 1; i < len(xs); i++ {
			if (xs[i] < 0) != (xs[i-1] < 0) {
				flips++
			}
		}
		empirical := float64(flips) / float64(len(xs)-1)
		ws, _ := FromInts(xs)
		model := SignActivity(ws)
		if math.Abs(model-empirical) > 0.03 {
			t.Errorf("rho=%v: model sign activity %v vs empirical %v", rho, model, empirical)
		}
	}
}

func TestRegionsPartitionWord(t *testing.T) {
	cases := []WordStats{
		{Mean: 0, Std: 1000, Rho: 0.9},
		{Mean: 0, Std: 30, Rho: 0.2},
		{Mean: 800, Std: 200, Rho: 0.95},
		{Mean: 0, Std: 30000, Rho: 0.99},
	}
	for _, ws := range cases {
		r := Regions(ws, 16)
		if r.NRand+r.NCorr+r.NSign != 16 {
			t.Errorf("ws %+v: regions %+v don't partition 16 bits", ws, r)
		}
		if r.NRand < 0 || r.NCorr < 0 || r.NSign < 0 {
			t.Errorf("ws %+v: negative region %+v", ws, r)
		}
	}
}

func TestAvgHdModelTracksEmpirical(t *testing.T) {
	// For AR(1) streams, eq. (11) should land within ~1.5 bits of the
	// measured average Hd at 16-bit width.
	type tc struct {
		name string
		rho  float64
		std  float64
	}
	for _, c := range []tc{
		{"weak", 0.3, 4000},
		{"strong", 0.95, 4000},
	} {
		words := stimuli.Take(stimuli.AR1(16, 0, c.std, c.rho, 31), 30000)
		ws, _ := FromWords(words)
		model := Regions(ws, 16).AvgHd()
		empirical, err := EmpiricalAvgHd(words)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(model-empirical) > 1.5 {
			t.Errorf("%s: model avg Hd %.2f vs empirical %.2f", c.name, model, empirical)
		}
	}
}

func TestEmpiricalAvgHdKnown(t *testing.T) {
	words := []logic.Word{
		logic.MustParseWord("0000"),
		logic.MustParseWord("1111"), // Hd 4
		logic.MustParseWord("1110"), // Hd 1
	}
	got, err := EmpiricalAvgHd(words)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2.5 {
		t.Errorf("avg Hd = %v, want 2.5", got)
	}
	if _, err := EmpiricalAvgHd(words[:1]); err == nil {
		t.Error("single word accepted")
	}
}

func TestFromWordsSignedInterpretation(t *testing.T) {
	words := []logic.Word{logic.FromInt(-4, 8), logic.FromInt(4, 8)}
	ws, err := FromWords(words)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Mean != 0 {
		t.Errorf("mean = %v, want 0 (signed interpretation)", ws.Mean)
	}
}
