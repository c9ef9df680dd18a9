// Package adapt implements online coefficient adaptation for the Hd
// macro-model — the remedy the paper proposes (Section 4.2, citing
// Bogliolo/Benini/De Micheli's adaptive least-mean-square behavioral power
// modeling) for input streams whose statistics differ strongly from the
// characterization patterns, such as the binary-counter stream of data
// type V.
//
// The adapter keeps a working copy of a characterized model and refines
// the coefficient of each observed switching-event class with a
// normalized LMS update:
//
//	p_i ← p_i + μ·(Q_observed − p_i)
//
// so the model tracks the class-conditional mean of the actual stream
// while unobserved classes retain their characterized values.
package adapt

import (
	"fmt"

	"hdpower/internal/core"
)

// Adapter refines a model online. Not safe for concurrent use.
type Adapter struct {
	model *core.Model
	mu    float64
}

// New returns an adapter over a deep copy of the base model; the base is
// never modified. The learning rate mu must lie in (0, 1]; 0.05 is a
// reasonable default for 10³-cycle adaptation windows.
func New(base *core.Model, mu float64) (*Adapter, error) {
	if err := base.Validate(); err != nil {
		return nil, err
	}
	if mu <= 0 || mu > 1 {
		return nil, fmt.Errorf("adapt: learning rate %v outside (0,1]", mu)
	}
	clone := &core.Model{
		Module:    base.Module + "(adapted)",
		InputBits: base.InputBits,
		Basic:     append([]core.Coef(nil), base.Basic...),
		ZClusters: base.ZClusters,
	}
	if base.Enhanced != nil {
		clone.Enhanced = make([][]core.Coef, len(base.Enhanced))
		for i, row := range base.Enhanced {
			clone.Enhanced[i] = append([]core.Coef(nil), row...)
		}
	}
	return &Adapter{model: clone, mu: mu}, nil
}

// Model returns the adapted model. The returned pointer stays live: later
// Observe calls keep refining it.
func (a *Adapter) Model() *core.Model { return a.model }

// Observe feeds one measured cycle (input Hamming-distance and reference
// charge) into the LMS update. Cycles with hd = 0 carry no information
// about any coefficient and are ignored.
func (a *Adapter) Observe(hd int, q float64) {
	if hd == 0 {
		return
	}
	if hd < 0 || hd > a.model.InputBits {
		panic(fmt.Sprintf("adapt: Hd %d out of range [0,%d]", hd, a.model.InputBits))
	}
	c := &a.model.Basic[hd-1]
	if c.Count == 0 {
		// Unobserved during characterization: adopt the measured value.
		c.P = q
		c.Count = 1
	} else {
		c.P += a.mu * (q - c.P)
	}
}
