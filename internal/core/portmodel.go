package core

import (
	"encoding/json"
	"fmt"

	"hdpower/internal/logic"
	"hdpower/internal/power"
)

// PortModel is a port-resolved refinement of the Hd macro-model for
// two-operand modules: instead of one class per total Hamming-distance it
// keeps one coefficient per (Hd_A, Hd_B) pair of per-port distances. The
// paper notes that the basic model can be "enhanced by increasing the
// number of switching event classes … considering word level statistics
// or additional bit level information"; port resolution is exactly such
// an enhancement, and it captures modules whose two operands drive
// asymmetric logic (e.g. the multiplicand vs multiplier ports of an
// array multiplier, or a datapath port against a near-constant
// coefficient port).
type PortModel struct {
	// Module names the characterized module.
	Module string `json:"module"`
	// WidthA and WidthB are the two port widths; port A occupies the low
	// bits of the packed input vector.
	WidthA int `json:"width_a"`
	WidthB int `json:"width_b"`
	// Coeffs[ia][ib] is the coefficient for Hd_A = ia, Hd_B = ib.
	Coeffs [][]Coef `json:"coeffs"`
}

// NumCoefficients returns the size of the class table, excluding the
// trivial (0,0) class.
func (pm *PortModel) NumCoefficients() int {
	return (pm.WidthA+1)*(pm.WidthB+1) - 1
}

// Validate checks structural invariants.
func (pm *PortModel) Validate() error {
	if pm.WidthA <= 0 || pm.WidthB <= 0 {
		return fmt.Errorf("core: port model %q widths %dx%d", pm.Module, pm.WidthA, pm.WidthB)
	}
	if len(pm.Coeffs) != pm.WidthA+1 {
		return fmt.Errorf("core: port model %q has %d rows, want %d",
			pm.Module, len(pm.Coeffs), pm.WidthA+1)
	}
	for ia, row := range pm.Coeffs {
		if len(row) != pm.WidthB+1 {
			return fmt.Errorf("core: port model %q row %d has %d cols, want %d",
				pm.Module, ia, len(row), pm.WidthB+1)
		}
	}
	return nil
}

// P returns the coefficient for per-port distances (ia, ib). The (0,0)
// class is 0 by definition. Unobserved classes fall back to the nearest
// observed class by expanding Manhattan-ring search (deterministic scan
// order), which keeps estimates defined everywhere.
func (pm *PortModel) P(ia, ib int) float64 {
	if ia < 0 || ia > pm.WidthA || ib < 0 || ib > pm.WidthB {
		panic(fmt.Sprintf("core: port Hd (%d,%d) out of range %dx%d", ia, ib, pm.WidthA, pm.WidthB))
	}
	if ia == 0 && ib == 0 {
		return 0
	}
	if c := pm.Coeffs[ia][ib]; c.Count > 0 {
		return c.P
	}
	maxR := pm.WidthA + pm.WidthB
	for r := 1; r <= maxR; r++ {
		var sum float64
		n := 0
		for da := -r; da <= r; da++ {
			db := r - abs(da)
			for _, d := range [2]int{db, -db} {
				ja, jb := ia+da, ib+d
				if ja < 0 || ja > pm.WidthA || jb < 0 || jb > pm.WidthB {
					continue
				}
				if ja == 0 && jb == 0 {
					continue
				}
				if c := pm.Coeffs[ja][jb]; c.Count > 0 {
					sum += c.P
					n++
				}
				if db == 0 {
					break // avoid double-counting the db == -db point
				}
			}
		}
		if n > 0 {
			return sum / float64(n)
		}
	}
	return 0
}

// Estimate predicts per-cycle charges from per-port Hamming-distance
// series.
func (pm *PortModel) Estimate(hdA, hdB []int) ([]float64, error) {
	if len(hdA) != len(hdB) {
		return nil, fmt.Errorf("core: port series length mismatch %d vs %d", len(hdA), len(hdB))
	}
	out := make([]float64, len(hdA))
	for j := range hdA {
		out[j] = pm.P(hdA[j], hdB[j])
	}
	return out, nil
}

// MarshalJSON includes a format marker.
//
//hdlint:allow deadexport json.Marshaler: its format marker is part of the port-model encoding TestGoldenModelDigests pins
func (pm *PortModel) MarshalJSON() ([]byte, error) {
	type alias PortModel
	return json.Marshal(struct {
		Format string `json:"format"`
		*alias
	}{Format: "hdpower-portmodel-v1", alias: (*alias)(pm)})
}

// newPortPartial allocates an empty (Hd_A, Hd_B) accumulator grid.
func newPortPartial(widthA, widthB int) [][]AccState {
	acc := make([][]AccState, widthA+1)
	for ia := range acc {
		acc[ia] = make([]AccState, widthB+1)
	}
	return acc
}

// runPortShard simulates one shard of the port-characterization stream on
// the worker's backend and returns its partial (Hd_A, Hd_B) grid, taken
// from parts.
func (w *shardWorker) runPortShard(parts *recycler[[][]AccState], widthA, widthB int, sh shard, seed int64) [][]AccState {
	acc := parts.get()
	for _, row := range acc {
		resetAccs(row)
	}
	w.ps = restart(w.ps, widthA, shardSeed(seed, streamPortA, sh.index), false)
	w.psB = restart(w.psB, widthB, shardSeed(seed, streamPortB, sh.index), false)
	if len(w.us) == 0 {
		// Port shards price concatenated words the worker owns, unlike
		// runCharShard's words straight from the source.
		size := max(sh.patterns, shardPatterns)
		w.us, w.vs = make([]logic.Word, size), make([]logic.Word, size)
		for k := range w.us {
			w.us[k], w.vs[k] = logic.NewWord(widthA+widthB), logic.NewWord(widthA+widthB)
		}
		w.q = make([]float64, size)
		w.ias, w.ibs = make([]int, size), make([]int, size)
	}
	us, vs, q := w.us[:sh.patterns], w.vs[:sh.patterns], w.q[:sh.patterns]
	ias, ibs := w.ias[:sh.patterns], w.ibs[:sh.patterns]
	for k := range us {
		uA, vA := w.ps.Next()
		uB, vB := w.psB.Next()
		// The per-port sources always flip at least one bit; to cover the
		// (ia, 0) and (0, ib) edges, alternately freeze one port. The
		// freeze schedule follows the absolute pattern index so shard
		// boundaries do not disturb it.
		switch (sh.offset + k) % 4 {
		case 1:
			vB = uB
		case 3:
			vA = uA
		}
		us[k].SetConcat(uA, uB)
		vs[k].SetConcat(vA, vB)
		ias[k] = logic.Hd(uA, vA)
		ibs[k] = logic.Hd(uB, vB)
	}
	w.b.Charges(us, vs, q)
	for k := range us {
		if ias[k] == 0 && ibs[k] == 0 {
			continue
		}
		acc[ias[k]][ibs[k]].add(q[k])
	}
	return acc
}

// CharacterizePorts fits a port-resolved model for a module whose packed
// input vector is port A (low widthA bits) followed by port B. Pairs are
// stratified over the (Hd_A, Hd_B) grid so every class receives samples.
// Like Characterize, the pattern stream is sharded deterministically and
// fanned out over Workers meter clones; the fitted model is bit-identical
// for every worker count.
func CharacterizePorts(meter *power.Meter, moduleName string, widthA, widthB int,
	opt CharacterizeOptions) (*PortModel, error) {
	opt.setDefaults()
	plan := shardPlan(opt.Patterns)
	pool, err := prepare(meter, moduleName, &opt, len(plan))
	if err != nil {
		return nil, err
	}
	if m := meter.NumInputBits(); widthA <= 0 || widthB <= 0 || widthA+widthB != m {
		return nil, fmt.Errorf("core: port widths %d+%d do not match %d input bits",
			widthA, widthB, m)
	}
	acc := newPortPartial(widthA, widthB)
	parts := newRecycler(len(pool), func() [][]AccState { return newPortPartial(widthA, widthB) })
	runShardsOrdered(len(plan), len(pool),
		func(w, idx int) [][]AccState {
			return pool[w].runPortShard(parts, widthA, widthB, plan[idx], opt.Seed)
		},
		func(_ int, part [][]AccState) bool {
			mergeRows(acc, part)
			parts.put(part)
			return true
		})

	pm := &PortModel{Module: moduleName, WidthA: widthA, WidthB: widthB, Coeffs: make([][]Coef, widthA+1)}
	for ia, row := range acc {
		pm.Coeffs[ia] = coefs(row)
	}
	return pm, pm.Validate()
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
