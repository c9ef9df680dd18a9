package regress

import (
	"fmt"
	"sort"

	"hdpower/internal/core"
)

// RectPrototype is a characterized multiplier instance with distinct
// operand widths m1 x m0.
type RectPrototype struct {
	W1, W0 int
	Model  *core.Model
}

// RectParamModel parameterizes the Hd model over BOTH operand widths of a
// rectangular multiplier using the eq. (8) basis [m1·m0, m1, 1].
type RectParamModel struct {
	Module string
	// R[i-1] is the regression vector for p_i (nil when unfitted).
	R [][]float64
	// Residual[i-1] is the RMS relative fit residual of class i.
	Residual []float64
}

// FitRect performs the eq. (8)/(10) regression over rectangular
// prototypes. Each prototype must have Model.InputBits == W1 + W0.
func FitRect(module string, protos []RectPrototype) (*RectParamModel, error) {
	const degree = 3 // terms of eq. (8)
	if len(protos) < degree {
		return nil, fmt.Errorf("regress: %d rectangular prototypes cannot determine %d terms",
			len(protos), degree)
	}
	sorted := append([]RectPrototype(nil), protos...)
	sort.Slice(sorted, func(a, b int) bool {
		if sorted[a].W1 != sorted[b].W1 {
			return sorted[a].W1 < sorted[b].W1
		}
		return sorted[a].W0 < sorted[b].W0
	})
	maxBits := 0
	points := make([]point, len(sorted))
	for k, p := range sorted {
		if p.Model == nil {
			return nil, fmt.Errorf("regress: prototype %dx%d has nil model", p.W1, p.W0)
		}
		if p.Model.InputBits != p.W1+p.W0 {
			return nil, fmt.Errorf("regress: prototype %dx%d has %d input bits, want %d",
				p.W1, p.W0, p.Model.InputBits, p.W1+p.W0)
		}
		maxBits = max(maxBits, p.W1+p.W0)
		points[k] = point{terms: TermsRect(p.W1, p.W0), model: p.Model}
	}
	r, residual := fit(points, degree, maxBits)
	return &RectParamModel{Module: module, R: r, Residual: residual}, nil
}

// Coefficient evaluates p_i for operand widths m1 x m0 (eq. 8).
func (pm *RectParamModel) Coefficient(i, m1, m0 int) (float64, bool) {
	return evaluate(pm.R, i, TermsRect(m1, m0))
}
