package telemetry

import "sort"

// RecommendBudgets apportions a total characterization-pattern budget
// across Hd classes in proportion to traffic[i] * eps[i]: classes that
// live traffic actually hits AND whose coefficient still shows deviation
// (the AccState epsilon reservoirs) deserve the patterns. It is the
// telemetry hotset's allocation rule — the online-refinement counterpart
// of experiments.BudgetStudy's offline convergence sweep.
//
// The apportionment is by largest remainder (Hamilton's method) so the
// result sums exactly to total and is deterministic for a given input:
// remainder ties break toward the lower class index. Classes with zero
// weight get nothing. When every weight is zero (no traffic yet, or a
// fully converged model) the budget is spread uniformly, matching the
// offline default.
func RecommendBudgets(total int, traffic []uint64, eps []float64) []int {
	n := len(traffic)
	if len(eps) != n {
		panic("telemetry: RecommendBudgets needs len(traffic) == len(eps)")
	}
	out := make([]int, n)
	if total <= 0 || n == 0 {
		return out
	}
	weights := make([]float64, n)
	sum := 0.0
	for i := range weights {
		e := eps[i]
		if e < 0 {
			e = 0
		}
		weights[i] = float64(traffic[i]) * e
		sum += weights[i]
	}
	if sum <= 0 {
		// Uniform fallback, largest-remainder over equal weights: the
		// first total%n classes get the extra pattern.
		base, extra := total/n, total%n
		for i := range out {
			out[i] = base
			if i < extra {
				out[i]++
			}
		}
		return out
	}
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, n)
	assigned := 0
	for i, w := range weights {
		share := float64(total) * w / sum
		fl := int(share)
		out[i] = fl
		assigned += fl
		rems[i] = rem{idx: i, frac: share - float64(fl)}
	}
	sort.Slice(rems, func(a, b int) bool {
		if rems[a].frac != rems[b].frac {
			return rems[a].frac > rems[b].frac
		}
		return rems[a].idx < rems[b].idx
	})
	for k := 0; assigned < total; k++ {
		out[rems[k%n].idx]++
		assigned++
	}
	return out
}
