// Package stats implements the word-level and bit-level signal statistics
// underlying Section 6 of the paper: estimation of mean, variance and
// lag-1 autocorrelation of a data stream; the dual-bit-type breakpoints
// BP0/BP1 that split a data word into an uncorrelated LSB region, a
// correlated middle region and a sign region (Landman's data model, paper
// Fig. 5); and the sign-region transition activity.
package stats

import (
	"fmt"
	"math"

	"hdpower/internal/logic"
)

// WordStats holds word-level statistics of a signed data stream.
type WordStats struct {
	N    int     // number of samples
	Mean float64 // sample mean μ
	Std  float64 // sample standard deviation σ
	Rho  float64 // lag-1 autocorrelation ρ
}

// FromInts estimates word statistics from a signed sample stream.
// It needs at least two samples.
func FromInts(xs []int64) (WordStats, error) {
	if len(xs) < 2 {
		return WordStats{}, fmt.Errorf("stats: need >= 2 samples, got %d", len(xs))
	}
	var mean float64
	for _, x := range xs {
		mean += float64(x)
	}
	mean /= float64(len(xs))
	var varSum, lagSum float64
	for i, x := range xs {
		d := float64(x) - mean
		varSum += d * d
		if i+1 < len(xs) {
			lagSum += d * (float64(xs[i+1]) - mean)
		}
	}
	variance := varSum / float64(len(xs))
	rho := 0.0
	if varSum > 0 {
		rho = lagSum / varSum
	}
	return WordStats{
		N:    len(xs),
		Mean: mean,
		Std:  math.Sqrt(variance),
		Rho:  rho,
	}, nil
}

// FromWords estimates word statistics from a stream of two's-complement
// words (all the same width, at most 64 bits).
func FromWords(words []logic.Word) (WordStats, error) {
	xs := make([]int64, len(words))
	for i, w := range words {
		xs[i] = w.Int()
	}
	return FromInts(xs)
}

// Breakpoints are the bit positions separating the three regions of
// Landman's data model: bits [0, BP0] behave as uncorrelated random bits
// (transition activity 1/2), bits [BP1, m-1] behave as sign bits
// (switching all together), and bits in between interpolate.
type Breakpoints struct {
	BP0 int
	BP1 int
}

// ComputeBreakpoints derives the breakpoints for an m-bit representation
// from word-level statistics:
//
//	BP1 = ⌈log2(|μ| + 3σ)⌉       — magnitude ceiling; bits above carry
//	                               only sign information.
//	BP0 = ⌊log2(σ·√(2(1−ρ)))⌋   — the standard deviation of the lag-1
//	                               difference process governs which LSBs
//	                               toggle like coin flips.
//
// Both are clamped into [0, m-1] with BP0 <= BP1. Degenerate streams
// (σ = 0) collapse both breakpoints to 0.
func ComputeBreakpoints(ws WordStats, m int) Breakpoints {
	if m <= 0 {
		panic(fmt.Sprintf("stats: non-positive width %d", m))
	}
	if ws.Std <= 0 {
		return Breakpoints{}
	}
	bp1 := bitIndex(math.Ceil(math.Log2(math.Abs(ws.Mean)+3*ws.Std)), m)
	rho := clamp(ws.Rho, -0.999999, 0.999999)
	diffStd := ws.Std * math.Sqrt(2*(1-rho))
	bp0 := 0
	if diffStd >= 1 {
		bp0 = bitIndex(math.Floor(math.Log2(diffStd)), m)
	}
	if bp0 > bp1 {
		bp0 = bp1
	}
	return Breakpoints{BP0: bp0, BP1: bp1}
}

// SignActivity estimates the transition probability of the sign region.
// For a zero-mean stationary Gaussian process with lag-1 correlation ρ the
// probability that consecutive samples differ in sign is the Gaussian
// orthant probability arccos(ρ)/π; a nonzero mean suppresses sign changes,
// which is approximated by the Gaussian tail factor exp(−μ²/2σ²).
func SignActivity(ws WordStats) float64 {
	if ws.Std <= 0 {
		return 0
	}
	rho := clamp(ws.Rho, -1, 1)
	base := math.Acos(rho) / math.Pi
	ratio := ws.Mean / ws.Std
	return base * math.Exp(-0.5*ratio*ratio)
}

// RegionActivity summarizes the per-region transition activities and bit
// counts used by eq. (11) of the paper to compute the average
// Hamming-distance of a stream.
type RegionActivity struct {
	NRand, NCorr, NSign int     // bits per region
	TRand, TCorr, TSign float64 // transition activity per region
}

// Regions splits an m-bit word according to the breakpoints and assigns
// the model activities: 1/2 in the random region, t_sign in the sign
// region, and their mean in the linearly interpolated middle region.
func Regions(ws WordStats, m int) RegionActivity {
	bp := ComputeBreakpoints(ws, m)
	tSign := SignActivity(ws)
	nRand := bp.BP0 + 1
	if nRand > m {
		nRand = m
	}
	nSign := m - 1 - bp.BP1 + 1 // bits BP1..m-1
	if nSign < 0 {
		nSign = 0
	}
	nCorr := m - nRand - nSign
	if nCorr < 0 {
		// Regions overlap on narrow words; shrink the sign region, which
		// is the model's softest assumption.
		nSign += nCorr
		nCorr = 0
		if nSign < 0 {
			nSign = 0
		}
	}
	return RegionActivity{
		NRand: nRand,
		NCorr: nCorr,
		NSign: nSign,
		TRand: 0.5,
		TCorr: (0.5 + tSign) / 2,
		TSign: tSign,
	}
}

// AvgHd implements eq. (11): the expected Hamming-distance of consecutive
// words of the stream, from region bit counts and activities.
func (r RegionActivity) AvgHd() float64 {
	return r.TRand*float64(r.NRand) + r.TCorr*float64(r.NCorr) + r.TSign*float64(r.NSign)
}

// EmpiricalAvgHd measures the average Hamming-distance of a word stream
// directly — the reference the analytic model is judged against.
func EmpiricalAvgHd(words []logic.Word) (float64, error) {
	if len(words) < 2 {
		return 0, fmt.Errorf("stats: need >= 2 words, got %d", len(words))
	}
	total := 0
	for j := 1; j < len(words); j++ {
		total += logic.Hd(words[j-1], words[j])
	}
	return float64(total) / float64(len(words)-1), nil
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// bitIndex clamps a breakpoint computed in float space into [0, m-1]
// before converting it to int. The order matters: once σ ≳ 6e307 the
// logarithms are +Inf, and Go leaves the int conversion of an infinite or
// out-of-range float implementation-dependent (amd64 gives MinInt64,
// which a clamp after the conversion would turn into bit 0).
func bitIndex(f float64, m int) int {
	return int(clamp(f, 0, float64(m-1)))
}
