// Package core implements the paper's contribution: the Hamming-distance
// power macro-model for datapath components.
//
// The basic model (paper eq. 2) assigns one charge coefficient p_i to each
// switching-event class E_i, where i is the Hamming-distance of the two
// consecutive input vectors of a cycle. The enhanced model (eq. 3) refines
// each class by the number of stable-zero input bits z, giving classes
// E_{i,z} and up to (m²+m)/2 coefficients, optionally clustered along the
// z axis. Coefficients come from a characterization run against the
// reference charge simulator (internal/power); estimation then needs only
// the (Hd, stable-zeros) pair of each cycle — never the netlist.
package core

import (
	"encoding/json"
	"fmt"
	"math"
)

// Coef is one characterized coefficient: the average charge of its
// switching-event class and the average absolute deviation within the
// class (paper eq. 4 and 5).
type Coef struct {
	// P is the average charge of the class (eq. 4); 0 if unobserved.
	P float64 `json:"p"`
	// Epsilon is the average absolute relative deviation of class members
	// from P (eq. 5), as a fraction (0.15 = 15%). 0 if unobserved.
	Epsilon float64 `json:"epsilon"`
	// Count is the number of characterization samples in the class.
	Count int `json:"count"`
}

// Model is a characterized Hd power macro-model for one module instance.
type Model struct {
	// Module names the characterized module, e.g. "csa-multiplier-8x8".
	Module string `json:"module"`
	// InputBits is m, the total number of module input bits.
	InputBits int `json:"input_bits"`
	// Basic holds the basic-model coefficients; Basic[i-1] is p_i for
	// Hamming-distance i in 1..m.
	Basic []Coef `json:"basic"`
	// Enhanced, if non-nil, holds the enhanced-model coefficients:
	// Enhanced[i-1][zb] is p_{i,zb} for Hd i and z-bucket zb.
	Enhanced [][]Coef `json:"enhanced,omitempty"`
	// ZClusters is the number of stable-zero buckets per Hd class used by
	// the enhanced model; 0 means full resolution (one bucket per exact
	// stable-zero count, giving the paper's (m²+m)/2 classes).
	ZClusters int `json:"z_clusters,omitempty"`
}

// HasEnhanced reports whether enhanced coefficients are available.
func (m *Model) HasEnhanced() bool { return m.Enhanced != nil }

// NumZBuckets returns the number of stable-zero buckets for Hd class i.
// For Hd = i the stable-zero count ranges over 0..m-i, so full resolution
// needs m-i+1 buckets.
func (m *Model) NumZBuckets(i int) int {
	full := m.InputBits - i + 1
	if m.ZClusters <= 0 || m.ZClusters >= full {
		return full
	}
	return m.ZClusters
}

// ZBucket maps an exact stable-zero count z to its bucket index for Hd
// class i.
func (m *Model) ZBucket(i, z int) int {
	full := m.InputBits - i + 1
	nb := m.NumZBuckets(i)
	if nb == full {
		return z
	}
	b := z * nb / full
	if b >= nb {
		b = nb - 1
	}
	return b
}

// NumCoefficients returns the coefficient counts (basic, enhanced). For
// full z resolution the enhanced count is (m²+m)/2, matching the paper.
func (m *Model) NumCoefficients() (basic, enhanced int) {
	basic = len(m.Basic)
	if m.Enhanced != nil {
		for i := 1; i <= m.InputBits; i++ {
			enhanced += m.NumZBuckets(i)
		}
	}
	return basic, enhanced
}

func (m *Model) checkHd(i int) {
	if i < 0 || i > m.InputBits {
		panic(fmt.Sprintf("core: Hd %d out of range [0,%d]", i, m.InputBits))
	}
}

// P returns the basic coefficient for Hamming-distance i (p_i). For i = 0
// it returns 0 (no input activity, no switching in a combinational
// module). Unobserved classes are filled by linear interpolation between
// the nearest observed neighbors (constant extrapolation at the ends).
func (m *Model) P(i int) float64 {
	m.checkHd(i)
	if i == 0 {
		return 0
	}
	c := m.Basic[i-1]
	if c.Count > 0 {
		return c.P
	}
	// Walk outwards to the nearest observed classes.
	lo, hi := -1, -1
	for j := i - 1; j >= 1; j-- {
		if m.Basic[j-1].Count > 0 {
			lo = j
			break
		}
	}
	for j := i + 1; j <= m.InputBits; j++ {
		if m.Basic[j-1].Count > 0 {
			hi = j
			break
		}
	}
	switch {
	case lo == -1 && hi == -1:
		return 0
	case lo == -1:
		// interpolate towards p_0 = 0
		return m.Basic[hi-1].P * float64(i) / float64(hi)
	case hi == -1:
		return m.Basic[lo-1].P
	default:
		f := float64(i-lo) / float64(hi-lo)
		return m.Basic[lo-1].P*(1-f) + m.Basic[hi-1].P*f
	}
}

// PEnhanced returns the enhanced coefficient for Hd i and exact
// stable-zero count z, falling back to the basic coefficient when the
// class was not observed during characterization or the model has no
// enhanced table.
func (m *Model) PEnhanced(i, z int) float64 {
	m.checkHd(i)
	if i == 0 {
		return 0
	}
	if z < 0 || z > m.InputBits-i {
		panic(fmt.Sprintf("core: stable-zero count %d out of range [0,%d] for Hd %d",
			z, m.InputBits-i, i))
	}
	if m.Enhanced == nil {
		return m.P(i)
	}
	c := m.Enhanced[i-1][m.ZBucket(i, z)]
	if c.Count == 0 {
		return m.P(i)
	}
	return c.P
}

// InterpP evaluates the basic coefficient table at a real-valued
// Hamming-distance by piecewise-linear interpolation through the points
// (0, 0), (1, p_1), …, (m, p_m) — the interpolation Section 6.2 of the
// paper calls for when estimating from the average Hamming-distance.
// Values outside [0, m] are clamped.
func (m *Model) InterpP(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= float64(m.InputBits) {
		return m.P(m.InputBits)
	}
	lo := int(math.Floor(x))
	f := x - float64(lo)
	return m.P(lo)*(1-f) + m.P(lo+1)*f
}

// EstimateBasic predicts the per-cycle charges for a series of cycle
// Hamming-distances using the basic model (eq. 2).
func (m *Model) EstimateBasic(hds []int) []float64 {
	out := make([]float64, len(hds))
	for j, i := range hds {
		out[j] = m.P(i)
	}
	return out
}

// EstimateEnhanced predicts per-cycle charges from (Hd, stable-zeros)
// pairs using the enhanced model (eq. 3), falling back per class to the
// basic model.
func (m *Model) EstimateEnhanced(hds, stableZeros []int) ([]float64, error) {
	if len(hds) != len(stableZeros) {
		return nil, fmt.Errorf("core: series length mismatch %d vs %d", len(hds), len(stableZeros))
	}
	out := make([]float64, len(hds))
	for j := range hds {
		out[j] = m.PEnhanced(hds[j], stableZeros[j])
	}
	return out, nil
}

// AvgFromDist returns the expected per-cycle charge under an Hd
// distribution: Σ_i p(Hd=i)·p_i, the Section 6.3 estimator. dist[i] is
// the probability of Hamming-distance i and must have m+1 entries.
func (m *Model) AvgFromDist(dist []float64) (float64, error) {
	if len(dist) != m.InputBits+1 {
		return 0, fmt.Errorf("core: distribution has %d entries, want %d",
			len(dist), m.InputBits+1)
	}
	var s float64
	for i, p := range dist {
		s += p * m.P(i)
	}
	return s, nil
}

// TotalDeviation returns the paper's aggregate coefficient deviation
// ε = (1/m)·Σ ε_i over the observed basic classes, as a fraction.
func (m *Model) TotalDeviation() float64 {
	var s float64
	n := 0
	for _, c := range m.Basic {
		if c.Count > 0 {
			s += c.Epsilon
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// Validate checks structural invariants of a (possibly deserialized)
// model.
func (m *Model) Validate() error {
	if m.InputBits <= 0 {
		return fmt.Errorf("core: model %q has input bits %d", m.Module, m.InputBits)
	}
	if len(m.Basic) != m.InputBits {
		return fmt.Errorf("core: model %q has %d basic coefficients, want %d",
			m.Module, len(m.Basic), m.InputBits)
	}
	for i, c := range m.Basic {
		if c.Count < 0 || c.P < 0 || math.IsNaN(c.P) || math.IsInf(c.P, 0) {
			return fmt.Errorf("core: model %q basic class %d invalid: %+v", m.Module, i+1, c)
		}
	}
	if m.Enhanced != nil {
		if len(m.Enhanced) != m.InputBits {
			return fmt.Errorf("core: model %q has %d enhanced rows, want %d",
				m.Module, len(m.Enhanced), m.InputBits)
		}
		for i := 1; i <= m.InputBits; i++ {
			if len(m.Enhanced[i-1]) != m.NumZBuckets(i) {
				return fmt.Errorf("core: model %q enhanced row %d has %d buckets, want %d",
					m.Module, i, len(m.Enhanced[i-1]), m.NumZBuckets(i))
			}
		}
	}
	return nil
}

// MarshalJSON includes a format marker for forward compatibility.
//
//hdlint:allow deadexport json.Marshaler: encoding/json calls it when hdpower characterize and modellib write a model
func (m *Model) MarshalJSON() ([]byte, error) {
	type alias Model
	return json.Marshal(struct {
		Format string `json:"format"`
		*alias
	}{Format: "hdpower-model-v1", alias: (*alias)(m)})
}

// LoadModel deserializes and validates a model produced by MarshalJSON
// (or plain JSON with the same shape).
func LoadModel(data []byte) (*Model, error) {
	var m Model
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}
