package stimuli

import (
	"fmt"
	"math"

	"hdpower/internal/logic"
)

// DataType enumerates the five input-pattern classes of the paper's
// Section 4.2.
type DataType int

const (
	// TypeRandom (I): uniform random patterns; same statistics as the
	// characterization stream.
	TypeRandom DataType = iota
	// TypeMusic (II): linearly quantized music signal, weak correlation.
	TypeMusic
	// TypeSpeech (III): linearly quantized speech signal, strong
	// correlation.
	TypeSpeech
	// TypeVideo (IV): video signal, strong correlation, nonzero mean.
	TypeVideo
	// TypeCounter (V): successive outputs of a binary counter restricted
	// to positive values (sign bit constantly zero), the stream that
	// breaks the basic Hd-model in the paper's Table 1.
	TypeCounter
	numDataTypes
)

// AllDataTypes lists the five paper data types in table order.
func AllDataTypes() []DataType {
	return []DataType{TypeRandom, TypeMusic, TypeSpeech, TypeVideo, TypeCounter}
}

// String returns the paper's roman-numeral label.
func (dt DataType) String() string {
	switch dt {
	case TypeRandom:
		return "I"
	case TypeMusic:
		return "II"
	case TypeSpeech:
		return "III"
	case TypeVideo:
		return "IV"
	case TypeCounter:
		return "V"
	}
	return fmt.Sprintf("DataType(%d)", int(dt))
}

// Description returns the paper's characterization of the data type.
func (dt DataType) Description() string {
	switch dt {
	case TypeRandom:
		return "random patterns (characterization statistics)"
	case TypeMusic:
		return "linear quantized music signal (weak correlation)"
	case TypeSpeech:
		return "linear quantized speech signal (strong correlation)"
	case TypeVideo:
		return "video signal (strong correlation)"
	case TypeCounter:
		return "binary counter outputs"
	}
	return "unknown"
}

// NewStream builds the canonical synthetic stream for a data type at the
// given word width. Streams are deterministic in (dt, width, seed).
//
// The AR(1) parameters are chosen to land each class where the paper
// places it: music weakly correlated at moderate amplitude, speech
// strongly correlated, video strongly correlated with a positive mean
// (luma-like), and the counter confined to non-negative values so its
// sign bits never switch.
func NewStream(dt DataType, width int, seed int64) Source {
	mustWidth(width)
	fs := math.Ldexp(1, width-1) // full scale of the signed range
	switch dt {
	case TypeRandom:
		return Random(width, seed)
	case TypeMusic:
		return AR1(width, 0, 0.25*fs, 0.55, seed)
	case TypeSpeech:
		return AR1(width, 0, 0.20*fs, 0.97, seed)
	case TypeVideo:
		return AR1(width, 0.30*fs, 0.15*fs, 0.95, seed)
	case TypeCounter:
		return Counter(width, 0)
	}
	panic(fmt.Sprintf("stimuli: unknown data type %d", int(dt)))
}

// Counter is the type-V stream from start: it counts by one modulo
// 2^(width-1), so the value stays in the non-negative half of the
// two's-complement range.
func Counter(width int, start uint64) Source {
	mustWidth(width)
	if width > 64 {
		panic(fmt.Sprintf("stimuli: counter width %d > 64", width))
	}
	return &counterModSource{width: width, value: start, mod: uint64(1) << uint(width-1)}
}

type counterModSource struct {
	width      int
	value, mod uint64
}

func (s *counterModSource) Width() int { return s.width }

func (s *counterModSource) Next() logic.Word {
	w := logic.FromUint(s.value%s.mod, s.width)
	s.value++
	return w
}
