package experiments

import (
	"strings"

	"hdpower/internal/textplot"
)

// Figure2Result reproduces Figure 2: basic vs enhanced Hd-model
// coefficients for an 8x8-bit CSA multiplier. The enhanced curves are the
// two extreme stable-zero classes: all non-switching bits zero
// (z = m − i) and none zero (z = 0).
type Figure2Result struct {
	InputBits int
	Basic     []float64 // Basic[i-1] = p_i
	AllZero   []float64 // p_{i, z=m-i}; NaN-free: 0 marks unobserved
	NoneZero  []float64 // p_{i, z=0}
}

// Figure2 characterizes the 8x8 CSA multiplier with the enhanced model
// at full stable-zero resolution and extracts the extreme classes.
func (s *Suite) Figure2() (*Figure2Result, error) {
	model, err := s.Model("csa-multiplier", 8, true)
	if err != nil {
		return nil, err
	}
	m := model.InputBits
	res := &Figure2Result{InputBits: m}
	for i := 1; i <= m; i++ {
		res.Basic = append(res.Basic, model.P(i))
		res.AllZero = append(res.AllZero, model.PEnhanced(i, m-i))
		res.NoneZero = append(res.NoneZero, model.PEnhanced(i, 0))
	}
	return res, nil
}

// Spread returns the relative gap between the none-zero and all-zero
// curves at Hd class i (1-based) — the resolution gain of the enhanced
// model, largest at small i in the paper.
//
//hdlint:allow deadexport test support: the experiments tests and the root package benchmarks read the Figure 2 spread
func (r *Figure2Result) Spread(i int) float64 {
	b := r.Basic[i-1]
	if b == 0 {
		return 0
	}
	return (r.NoneZero[i-1] - r.AllZero[i-1]) / b
}

// String renders the three curves.
func (r *Figure2Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 2: basic vs enhanced Hd-model coefficients, 8x8 csa-multiplier\n\n")
	xs := make([]float64, r.InputBits)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	b.WriteString(textplot.Chart("coefficients vs Hd", "Hd", xs, []textplot.Series{
		{Name: "basic p_i", Y: r.Basic},
		{Name: "enhanced, all stable bits zero", Y: r.AllZero},
		{Name: "enhanced, no stable bit zero", Y: r.NoneZero},
	}, 64, 16))
	return b.String()
}
