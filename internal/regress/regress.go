// Package regress implements Section 5 of the paper: making the Hd model
// parameterizable in the input bit-width. Each coefficient p_i is fitted
// as a linear combination of module *complexity terms* — functions of the
// operand width that mirror how the module's structure grows (linear for a
// ripple adder, quadratic plus linear for an array multiplier). The fit
// uses least-squares over a small set of characterized prototype widths
// (eq. 10); the fitted regression vectors R_i then synthesize coefficient
// tables for any width (eq. 9).
package regress

import (
	"fmt"
	"math"
	"sort"

	"hdpower/internal/core"
	"hdpower/internal/linalg"
)

// Basis defines the complexity-parameter vector M(m) of eq. (9) for a
// module family.
type Basis struct {
	// Name identifies the basis, e.g. "linear".
	Name string
	// Terms evaluates the complexity parameters for operand width m. The
	// last term is conventionally the constant 1.
	Terms func(m int) []float64
	// Degree is the number of terms.
	Degree int
}

// Linear is the eq. (6) basis for modules whose structure grows linearly
// with the operand width (ripple adder, absval, subtractor).
var Linear = Basis{
	Name:   "linear",
	Terms:  func(m int) []float64 { return []float64{float64(m), 1} },
	Degree: 2,
}

// Quadratic is the eq. (7) basis for array multipliers: an m² array term,
// an m merge-adder term, and a constant.
var Quadratic = Basis{
	Name: "quadratic",
	Terms: func(m int) []float64 {
		fm := float64(m)
		return []float64{fm * fm, fm, 1}
	},
	Degree: 3,
}

// TermsRect evaluates the rectangular basis for distinct operand widths
// (eq. 8): [m1·m0, m1, 1].
func TermsRect(m1, m0 int) []float64 {
	return []float64{float64(m1) * float64(m0), float64(m1), 1}
}

// BasisFor returns the conventional basis for a catalog module name.
func BasisFor(module string) Basis {
	switch module {
	case "csa-multiplier", "booth-wallace-multiplier":
		return Quadratic
	default:
		return Linear
	}
}

// Prototype pairs an operand width with the model characterized at that
// width — one member of the paper's "prototype set".
type Prototype struct {
	Width int
	Model *core.Model
}

// PrototypeSet names the reduction levels studied in the paper.
type PrototypeSet string

const (
	// SetAll uses every prototype width 4..16 in steps of 2.
	SetAll PrototypeSet = "ALL"
	// SetSec uses every second prototype (4, 8, 12, 16).
	SetSec PrototypeSet = "SEC"
	// SetThi uses every third prototype (4, 10, 16).
	SetThi PrototypeSet = "THI"
)

// Widths returns the operand widths of a prototype set.
func (s PrototypeSet) Widths() []int {
	switch s {
	case SetAll:
		return []int{4, 6, 8, 10, 12, 14, 16}
	case SetSec:
		return []int{4, 8, 12, 16}
	case SetThi:
		return []int{4, 10, 16}
	}
	return nil
}

// AllSets lists the three reduction levels in paper order.
func AllSets() []PrototypeSet { return []PrototypeSet{SetAll, SetSec, SetThi} }

// ParamModel is a width-parameterizable Hd model: one regression vector
// per Hamming-distance class.
type ParamModel struct {
	// Module names the module family.
	Module string
	// Basis is the complexity basis used for the fit.
	Basis Basis
	// WidthFactor maps an operand width to the module's total input bit
	// count: total = WidthFactor·width (2 for two-operand modules, 1 for
	// single-operand ones).
	WidthFactor int
	// R[i-1] is the regression vector for p_i, or nil when class i had
	// too few prototype observations to fit.
	R [][]float64
	// Residual[i-1] is the RMS relative fit residual of class i over the
	// prototype points (diagnostic).
	Residual []float64
}

// Fit performs the per-class least-squares regression of eq. (10) over a
// prototype set. Classes observed in fewer prototypes than the basis
// degree are left unfitted (nil regression vector). The width factor is
// read off the prototypes: every one must have the same number of input
// bits per unit of operand width (2 for two-operand modules).
func Fit(module string, protos []Prototype, basis Basis) (*ParamModel, error) {
	if len(protos) < basis.Degree {
		return nil, fmt.Errorf("regress: %d prototypes cannot determine %d-term basis",
			len(protos), basis.Degree)
	}
	sorted := append([]Prototype(nil), protos...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Width < sorted[b].Width })
	factor := 0
	points := make([]point, len(sorted))
	for k, p := range sorted {
		if p.Model == nil {
			return nil, fmt.Errorf("regress: prototype width %d has nil model", p.Width)
		}
		if k == 0 {
			if p.Width < 1 || p.Model.InputBits < p.Width {
				return nil, fmt.Errorf("regress: prototype width %d has %d input bits",
					p.Width, p.Model.InputBits)
			}
			factor = p.Model.InputBits / p.Width
		}
		if want := factor * p.Width; p.Model.InputBits != want {
			return nil, fmt.Errorf("regress: prototype width %d has %d input bits, want %d",
				p.Width, p.Model.InputBits, want)
		}
		points[k] = point{terms: basis.Terms(p.Width), model: p.Model}
	}
	r, residual := fit(points, basis.Degree, sorted[len(sorted)-1].Model.InputBits)
	return &ParamModel{Module: module, Basis: basis, WidthFactor: factor, R: r, Residual: residual}, nil
}

// point is one prototype of a regression: the complexity terms of its
// operand widths and the model characterized at them.
type point struct {
	terms []float64
	model *core.Model
}

// fit is the per-class weighted least-squares regression of eq. (10)
// behind Fit and FitRect, over points in their given order. Class i is
// fitted from the points that observed it, when there are at least
// degree of them; the others keep a nil vector.
func fit(points []point, degree, maxBits int) (r [][]float64, residual []float64) {
	r = make([][]float64, maxBits)
	residual = make([]float64, maxBits)
	for i := 1; i <= maxBits; i++ {
		var rows, raw [][]float64 // raw: unweighted rows for residual reporting
		var rhs, rawRhs []float64
		for _, p := range points {
			if i > p.model.InputBits || p.model.Basic[i-1].Count == 0 {
				continue
			}
			pi := p.model.Basic[i-1].P
			raw = append(raw, p.terms)
			rawRhs = append(rawRhs, pi)
			// Weight each equation by 1/p_i so the fit minimizes
			// *relative* coefficient error — the paper quotes relative
			// errors, and without the weighting the large prototypes
			// dominate and the smallest width fits poorly.
			w := 1.0
			if pi > 0 {
				w = 1 / pi
			}
			scaled := make([]float64, len(p.terms))
			for k, tv := range p.terms {
				scaled[k] = tv * w
			}
			rows = append(rows, scaled)
			rhs = append(rhs, pi*w)
		}
		if len(rows) < degree {
			continue
		}
		x, err := linalg.LeastSquares(linalg.FromRows(rows), rhs)
		if err != nil {
			continue // collinear prototype points; leave class unfitted
		}
		r[i-1] = x
		// RMS relative residual over the prototype points.
		fitted := linalg.FromRows(raw).MulVec(x)
		var s float64
		n := 0
		for j := range rawRhs {
			if rawRhs[j] != 0 {
				d := (fitted[j] - rawRhs[j]) / rawRhs[j]
				s += d * d
				n++
			}
		}
		if n > 0 {
			residual[i-1] = math.Sqrt(s / float64(n))
		}
	}
	return r, residual
}

// evaluate applies eq. (9): p_i is the regression vector of class i times
// the complexity terms. ok is false when class i was not fitted.
func evaluate(r [][]float64, i int, terms []float64) (p float64, ok bool) {
	if i < 1 || i > len(r) || r[i-1] == nil {
		return 0, false
	}
	var s float64
	for k, v := range r[i-1] {
		s += v * terms[k]
	}
	if s < 0 {
		s = 0 // charge cannot be negative; clamp fit artifacts
	}
	return s, true
}

// Coefficient evaluates eq. (9): p_i at the given operand width.
// ok is false when class i was not fitted.
func (pm *ParamModel) Coefficient(i, width int) (p float64, ok bool) {
	return evaluate(pm.R, i, pm.Basis.Terms(width))
}

// Synthesize builds a ready-to-use Hd model for an arbitrary operand
// width from the regression vectors. Unfitted classes are left
// unobserved, where the core model's neighbor interpolation takes over.
func (pm *ParamModel) Synthesize(width int) *core.Model {
	m := pm.WidthFactor * width
	model := &core.Model{
		Module:    fmt.Sprintf("%s-%d(regression-%s)", pm.Module, width, pm.Basis.Name),
		InputBits: m,
		Basic:     make([]core.Coef, m),
	}
	for i := 1; i <= m; i++ {
		if p, ok := pm.Coefficient(i, width); ok {
			model.Basic[i-1] = core.Coef{P: p, Count: 1}
		}
	}
	return model
}
