// Package lut flattens fitted Hd macro-models (core.Model) into
// contiguous coefficient arrays for the serving hot path.
//
// A core.Model answers P(i) by walking the coefficient structs at call
// time — interpolating unobserved classes, falling back from enhanced to
// basic coefficients — which is fine for a characterization CLI but not
// for an endpoint fielding millions of estimates: every call repeats the
// same branches and pointer chases. A lut.Table performs that walk once,
// at model-load time, and stores the fully resolved answers in one flat
// float64 slice: P(i) becomes one bounds check and one indexed load, and
// PEnhanced(i, z) one offset computation plus one load. Results are
// bit-identical to the Model methods by construction — each slot is
// literally filled by calling them.
//
// A table also owns the wire text of its slots. The macro-model answers
// every cycle with one of its m+1 basic or (m²+m)/2 enhanced
// coefficients, so New renders each slot once, exactly as encoding/json
// renders the float64, and the Append estimators build a response's
// estimate array by copying those bytes instead of formatting a float
// per cycle.
//
// Tables are immutable after New, so they can be published behind an
// atomic pointer and read concurrently without locks (the RCU pattern
// internal/serve uses for its model cache).
package lut

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"strconv"

	"hdpower/internal/core"
)

// Table is one fitted model flattened for estimation. All fields are
// read-only after New; a Table is safe for concurrent use.
type Table struct {
	// Module names the characterized module the table was built from.
	Module string
	// InputBits is m, the total number of module input bits.
	InputBits int

	// vals holds every resolved coefficient, one per slot. Slots 0..m are
	// the basic coefficients by Hamming distance, with interpolation of
	// unobserved classes already done. Enhanced rows follow: Hd class i
	// occupies slots enhOff[i-1] .. enhOff[i-1]+enhNB[i-1]-1, one per
	// stable-zero bucket, each already resolved through the
	// enhanced→basic fallback. Lookups never branch on Count.
	vals []float64
	// enhOff and enhNB are nil when the model has no enhanced table.
	enhOff []int32
	enhNB  []int32

	// text is every slot rendered as encoding/json renders its value;
	// slot k's bytes are text[textAt[k]:textAt[k+1]].
	text   []byte
	textAt []int32
}

// New flattens a validated model. It returns an error instead of
// panicking because serve feeds it models deserialized from the durable
// library.
func New(m *core.Model) (*Table, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("lut: %w", err)
	}
	n := m.InputBits
	_, enhanced := m.NumCoefficients()
	t := &Table{
		Module:    m.Module,
		InputBits: n,
		vals:      make([]float64, n+1, n+1+enhanced),
	}
	for i := 0; i <= n; i++ {
		t.vals[i] = m.P(i)
	}
	if m.HasEnhanced() {
		t.enhOff = make([]int32, n)
		t.enhNB = make([]int32, n)
		for i := 1; i <= n; i++ {
			t.enhOff[i-1] = int32(len(t.vals))
			t.enhNB[i-1] = int32(m.NumZBuckets(i))
			for _, c := range m.Enhanced[i-1] {
				if c.Count > 0 {
					t.vals = append(t.vals, c.P)
				} else {
					// Same fallback PEnhanced takes for an unobserved class.
					t.vals = append(t.vals, t.vals[i])
				}
			}
		}
	}
	text := make([]byte, 0, 24*len(t.vals)) // no float64 renders longer
	t.textAt = make([]int32, len(t.vals)+1)
	for k, v := range t.vals {
		text = AppendJSONFloat(text, v)
		t.textAt[k+1] = int32(len(text))
	}
	t.text = bytes.Clone(text)
	return t, nil
}

// HasEnhanced reports whether enhanced coefficients are available.
func (t *Table) HasEnhanced() bool { return t.enhOff != nil }

// checkHd panics on a Hamming distance outside 0..m, like the Model
// methods; serving handlers validate ranges before calling.
func (t *Table) checkHd(i int) {
	if i < 0 || i > t.InputBits {
		panic(fmt.Sprintf("lut: Hd %d out of range [0,%d]", i, t.InputBits))
	}
}

// checkClass is checkHd plus the stable-zero range 0..m-i.
func (t *Table) checkClass(i, z int) {
	t.checkHd(i)
	if z < 0 || z > t.InputBits-i {
		panic(fmt.Sprintf("lut: stable-zero count %d out of range [0,%d] for Hd %d",
			z, t.InputBits-i, i))
	}
}

// slot returns the slot PEnhanced(i, z) reads for an in-range class: the
// basic slot i when i is 0 or the table has no enhanced rows, otherwise
// the slot of z's stable-zero bucket in row i, by the same bucket
// arithmetic as core.Model.ZBucket.
func (t *Table) slot(i, z int) int {
	if i == 0 || t.enhOff == nil {
		return i
	}
	full := t.InputBits - i + 1
	nb := int(t.enhNB[i-1])
	zb := z
	if nb != full {
		zb = z * nb / full
		if zb >= nb {
			zb = nb - 1
		}
	}
	return int(t.enhOff[i-1]) + zb
}

// appendSlot appends slot k's pre-rendered text.
func (t *Table) appendSlot(dst []byte, k int) []byte {
	return append(dst, t.text[t.textAt[k]:t.textAt[k+1]]...)
}

// P returns the basic coefficient for Hamming-distance i, bit-identical
// to core.Model.P. It panics on an out-of-range class, like the Model
// method; serving handlers validate ranges before calling.
func (t *Table) P(i int) float64 {
	t.checkHd(i)
	return t.vals[i]
}

// PEnhanced returns the enhanced coefficient for Hd i and exact
// stable-zero count z, bit-identical to core.Model.PEnhanced (including
// the fallback to the basic coefficient for unobserved classes and
// models without an enhanced table).
func (t *Table) PEnhanced(i, z int) float64 {
	t.checkClass(i, z)
	return t.vals[t.slot(i, z)]
}

// EstimateBasicInto writes the per-cycle charges for hds into dst
// (len(dst) must equal len(hds)) and returns the total. It allocates
// nothing — the zero-allocation counterpart of core.Model.EstimateBasic
// for pooled serving buffers.
func (t *Table) EstimateBasicInto(dst []float64, hds []int) float64 {
	if len(dst) != len(hds) {
		panic(fmt.Sprintf("lut: dst length %d != hds length %d", len(dst), len(hds)))
	}
	var total float64
	for j, i := range hds {
		q := t.P(i)
		dst[j] = q
		total += q
	}
	return total
}

// EstimateEnhancedInto writes the per-cycle charges for (Hd, stable-zero)
// pairs into dst and returns the total, allocation-free.
func (t *Table) EstimateEnhancedInto(dst []float64, hds, stableZeros []int) float64 {
	checkSeries(hds, stableZeros)
	if len(dst) != len(hds) {
		panic(fmt.Sprintf("lut: dst length %d != hds length %d", len(dst), len(hds)))
	}
	var total float64
	for j := range hds {
		q := t.PEnhanced(hds[j], stableZeros[j])
		dst[j] = q
		total += q
	}
	return total
}

func checkSeries(hds, stableZeros []int) {
	if len(hds) != len(stableZeros) {
		panic(fmt.Sprintf("lut: series length mismatch %d vs %d", len(hds), len(stableZeros)))
	}
}

// AppendBasic appends the wire text of P(i) for every class i in hds to
// dst, sep between two cycles, and returns the extended buffer and the
// total charge. The total is summed in cycle order, so it is
// bit-identical to EstimateBasicInto's. It allocates only to grow dst.
func (t *Table) AppendBasic(dst []byte, sep string, hds []int) ([]byte, float64) {
	var total float64
	for j, i := range hds {
		t.checkHd(i)
		if j > 0 {
			dst = append(dst, sep...)
		}
		dst = t.appendSlot(dst, i)
		total += t.vals[i]
	}
	return dst, total
}

// AppendEnhanced is AppendBasic for (Hd, stable-zero) pairs priced by
// PEnhanced; its total is bit-identical to EstimateEnhancedInto's.
func (t *Table) AppendEnhanced(dst []byte, sep string, hds, stableZeros []int) ([]byte, float64) {
	checkSeries(hds, stableZeros)
	var total float64
	for j, i := range hds {
		z := stableZeros[j]
		t.checkClass(i, z)
		if j > 0 {
			dst = append(dst, sep...)
		}
		k := t.slot(i, z)
		dst = t.appendSlot(dst, k)
		total += t.vals[k]
	}
	return dst, total
}

// AppendWords prices a vector stream: cycle j is the transition from
// words[j] to words[j+1], whose Hd and stable-zero count come straight
// from the low InputBits bits of the two words (identical, by
// definition, to logic.Hd and logic.StableZeros for words that fit one
// limb; higher bits are ignored). Enhanced tables price a cycle with
// PEnhanced, others with P. It appends like AppendBasic, one entry per
// cycle, and panics on a table wider than 64 input bits.
func (t *Table) AppendWords(dst []byte, sep string, words []uint64) ([]byte, float64) {
	if t.InputBits > 64 {
		panic(fmt.Sprintf("lut: words need at most 64 input bits, table has %d", t.InputBits))
	}
	mask := uint64(math.MaxUint64) >> uint(64-t.InputBits)
	var total float64
	for j := 1; j < len(words); j++ {
		prev, cur := words[j-1]&mask, words[j]&mask
		k := t.slot(bits.OnesCount64(prev^cur), bits.OnesCount64(^(prev|cur)&mask))
		if j > 1 {
			dst = append(dst, sep...)
		}
		dst = t.appendSlot(dst, k)
		total += t.vals[k]
	}
	return dst, total
}

// AvgFromDist returns the expected per-cycle charge under an Hd
// distribution, bit-identical to core.Model.AvgFromDist.
func (t *Table) AvgFromDist(dist []float64) (float64, error) {
	if len(dist) != t.InputBits+1 {
		return 0, fmt.Errorf("lut: distribution has %d entries, want %d",
			len(dist), t.InputBits+1)
	}
	var s float64
	for i, p := range dist {
		s += p * t.vals[i]
	}
	return s, nil
}

// AppendJSONFloat appends f exactly as encoding/json renders a float64:
// the shortest representation, 'e' form only for magnitudes below 1e-6
// or from 1e21 up, exponent digits unpadded. f must be finite
// (encoding/json refuses NaN and infinities).
func AppendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
