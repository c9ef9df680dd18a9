package experiments

import (
	"fmt"
	"sort"
	"strings"

	"hdpower/internal/core"
	"hdpower/internal/power"
	"hdpower/internal/stimuli"
)

// BudgetRow is one characterization-budget level.
type BudgetRow struct {
	Patterns int
	// TotalEps is the model's aggregate coefficient deviation (fraction).
	TotalEps float64
	// AvgErrRandom is the avg estimation error (%) on the random stream.
	AvgErrRandom float64
	// MaxCoefDrift is the largest relative difference of any p_i against
	// the largest-budget reference model (fraction).
	MaxCoefDrift float64
}

// BudgetStudyResult quantifies Section 4.1's "characterization can be
// finished after the coefficient values have converged": how coefficient
// stability and estimation accuracy improve with the characterization
// pattern budget.
type BudgetStudyResult struct {
	Module string
	Width  int
	Rows   []BudgetRow
}

// BudgetStudy sweeps the characterization budget on the 8x8 CSA
// multiplier.
func (s *Suite) BudgetStudy() (*BudgetStudyResult, error) {
	const name = "csa-multiplier"
	const width = 8
	budgets := []int{250, 500, 1000, 2000, 4000, 8000}

	models := make([]*core.Model, len(budgets))
	for k, n := range budgets {
		meter, _, err := s.meter(name, width)
		if err != nil {
			return nil, err
		}
		// Same seed: smaller budgets are prefixes of the same stream, so
		// drift isolates convergence rather than stream differences.
		models[k], err = core.Characterize(meter, name, core.CharacterizeOptions{
			Patterns: n, Seed: s.cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
	}
	ref := models[len(models)-1]
	tr, err := s.runEval(name, width, stimuli.TypeRandom)
	if err != nil {
		return nil, err
	}
	res := &BudgetStudyResult{Module: name, Width: width}
	for k, n := range budgets {
		row := BudgetRow{Patterns: n, TotalEps: models[k].TotalDeviation()}
		est := models[k].EstimateBasic(tr.Hd)
		if row.AvgErrRandom, err = power.AvgError(est, tr.Q); err != nil {
			return nil, err
		}
		for i := 1; i <= ref.InputBits; i++ {
			if rp := ref.P(i); rp > 0 {
				d := abs(models[k].P(i)-rp) / rp
				if d > row.MaxCoefDrift {
					row.MaxCoefDrift = d
				}
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// RecommendBudgets apportions a total characterization-pattern budget
// across Hd classes in proportion to traffic[i] * eps[i]: classes that
// live traffic actually hits AND whose coefficient still shows deviation
// (the AccState epsilon reservoirs) deserve the patterns. It is the
// telemetry hotset's allocation rule — the online-refinement counterpart
// of BudgetStudy's offline convergence sweep.
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
		panic("experiments: RecommendBudgets needs len(traffic) == len(eps)")
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

// String renders the sweep.
func (r *BudgetStudyResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Characterization budget study, %s %dx%d:\n\n", r.Module, r.Width, r.Width)
	fmt.Fprintf(&b, "%10s %14s %16s %18s\n", "patterns", "total eps %", "avg err (I) %",
		"max coef drift %")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%10d %14.1f %16.1f %18.1f\n",
			row.Patterns, row.TotalEps*100, abs(row.AvgErrRandom), row.MaxCoefDrift*100)
	}
	b.WriteString("\n(drift is measured against the largest-budget model; the paper ends\n")
	b.WriteString(" characterization once coefficients converge)\n")
	return b.String()
}
