// Package stimuli generates the input pattern streams the paper evaluates
// against (Section 4.2): random patterns, linearly quantized music and
// speech signals, video signals, and binary counter outputs.
//
// The original work used recorded signals; this reproduction synthesizes
// them as seeded Gaussian autoregressive processes whose word-level
// statistics (mean, variance, lag-1 correlation) match each class. The
// paper only consumes the streams through exactly those statistics and
// through the bit patterns they quantize to, so the synthetic equivalents
// exercise the same code paths (see DESIGN.md, substitutions).
package stimuli

import (
	"fmt"
	"math"
	"math/rand"

	"hdpower/internal/logic"
)

// Source produces an endless stream of fixed-width input words.
type Source interface {
	// Width returns the word width in bits.
	Width() int
	// Next returns the next word of the stream.
	Next() logic.Word
}

// Take materializes the next n words of a source.
func Take(src Source, n int) []logic.Word {
	out := make([]logic.Word, n)
	for i := range out {
		out[i] = src.Next()
	}
	return out
}

// TakeInts materializes the next n words interpreted as signed integers.
func TakeInts(src Source, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = src.Next().Int()
	}
	return out
}

// randomSource emits uniformly random bit patterns — the characterization
// stream (data type I).
type randomSource struct {
	width int
	rng   *rand.Rand
}

// Random returns a uniform random pattern source of the given width.
func Random(width int, seed int64) Source {
	mustWidth(width)
	return &randomSource{width: width, rng: rand.New(rand.NewSource(seed))}
}

func (s *randomSource) Width() int { return s.width }

func (s *randomSource) Next() logic.Word {
	w := logic.NewWord(s.width)
	for i := 0; i < s.width; i += 32 {
		chunk := uint64(s.rng.Uint32())
		for b := 0; b < 32 && i+b < s.width; b++ {
			if chunk>>uint(b)&1 == 1 {
				w.Set(i+b, true)
			}
		}
	}
	return w
}

// arSource quantizes a Gaussian AR(1) process into two's-complement words.
// The marginal distribution is N(mean, std²) with lag-1 autocorrelation
// rho; samples are clamped to the representable range.
type arSource struct {
	width int
	rng   *rand.Rand
	mean  float64
	std   float64
	rho   float64
	state float64 // current deviation from mean
}

// AR1 returns a Gaussian first-order autoregressive source:
//
//	x[t] − μ = ρ·(x[t−1] − μ) + √(1−ρ²)·σ·w[t],  w ~ N(0,1)
//
// quantized to signed two's-complement words of the given width.
// rho must lie in (−1, 1).
func AR1(width int, mean, std, rho float64, seed int64) Source {
	mustWidth(width)
	if rho <= -1 || rho >= 1 {
		panic(fmt.Sprintf("stimuli: AR1 rho %v outside (-1,1)", rho))
	}
	if std < 0 {
		panic(fmt.Sprintf("stimuli: AR1 negative std %v", std))
	}
	rng := rand.New(rand.NewSource(seed))
	return &arSource{
		width: width,
		rng:   rng,
		mean:  mean,
		std:   std,
		rho:   rho,
		state: rng.NormFloat64() * std, // start in the stationary distribution
	}
}

func (s *arSource) Width() int { return s.width }

func (s *arSource) Next() logic.Word {
	s.state = s.rho*s.state + math.Sqrt(1-s.rho*s.rho)*s.std*s.rng.NormFloat64()
	return quantize(s.mean+s.state, s.width)
}

// quantize rounds v to the nearest integer and clamps it into the signed
// range of an m-bit two's-complement word. The bounds are float64, so
// they hold at 64 bits; the top one is the largest float64 below
// 2^(width-1), which truncates to the largest word, 2^(width-1)-1 up to
// 53 bits, and never overflows int64.
func quantize(v float64, width int) logic.Word {
	fs := math.Ldexp(1, width-1)
	r := min(max(math.Round(v), -fs), math.Nextafter(fs, 0))
	return logic.FromInt(int64(r), width)
}

// Concat glues several sources into one wide word per sample: the first
// source occupies the LSBs. Used to feed multi-operand modules, whose
// input vector is the concatenation of their input buses.
func Concat(srcs ...Source) Source {
	if len(srcs) == 0 {
		panic("stimuli: Concat with no sources")
	}
	total := 0
	for _, s := range srcs {
		total += s.Width()
	}
	return &concatSource{srcs: srcs, width: total}
}

type concatSource struct {
	srcs  []Source
	width int
}

func (s *concatSource) Width() int { return s.width }

func (s *concatSource) Next() logic.Word {
	w := s.srcs[0].Next()
	for _, src := range s.srcs[1:] {
		w = w.Concat(src.Next())
	}
	return w
}

func mustWidth(width int) {
	if width <= 0 {
		panic(fmt.Sprintf("stimuli: non-positive width %d", width))
	}
}
