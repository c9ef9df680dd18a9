package experiments

import (
	"fmt"
	"strings"

	"hdpower/internal/adapt"
	"hdpower/internal/core"
	"hdpower/internal/dbt"
	"hdpower/internal/dwlib"
	"hdpower/internal/hddist"
	"hdpower/internal/power"
	"hdpower/internal/sim"
	"hdpower/internal/stats"
	"hdpower/internal/stimuli"
)

// ---------------------------------------------------------------------------
// Estimator comparison (extension: operationalizes Section 6 beyond Fig. 6)

// EstimatorRow compares all average-power estimators of the repository on
// one (module, data type) pair. All errors are signed percent vs the
// event-driven simulation reference.
type EstimatorRow struct {
	Module   string
	Width    int
	DataType stimuli.DataType
	// SimAvg is the reference average charge.
	SimAvg float64
	// ErrCycle uses the per-cycle basic Hd model (needs bit-level Hd).
	ErrCycle float64
	// ErrDist uses the analytic Hd distribution from word stats (eq. 18).
	ErrDist float64
	// ErrAvgHd interpolates the coefficients at the average Hd (Sec. 6.2).
	ErrAvgHd float64
	// ErrDBT uses the dual-bit-type baseline macro-model.
	ErrDBT float64
}

// EstimatorStudyResult is the estimator comparison table.
type EstimatorStudyResult struct {
	Rows []EstimatorRow
}

// EstimatorStudy compares the per-cycle Hd model, the distribution-based
// estimator, the average-Hd estimator and the DBT baseline across data
// types on the 8-bit paper instances.
func (s *Suite) EstimatorStudy() (*EstimatorStudyResult, error) {
	res := &EstimatorStudyResult{}
	for _, name := range []string{"csa-multiplier", "ripple-adder"} {
		const width = 8
		mod, err := dwlib.Lookup(name)
		if err != nil {
			return nil, err
		}
		model, err := s.Model(name, width, false)
		if err != nil {
			return nil, err
		}
		meter, _, err := s.meter(name, width)
		if err != nil {
			return nil, err
		}
		dbtModel, err := dbt.Characterize(meter, name, s.cfg.CharPatterns/2, s.cfg.Seed+55)
		if err != nil {
			return nil, err
		}
		for _, dt := range stimuli.AllDataTypes() {
			row, err := s.estimatorRow(mod, model, dbtModel, width, dt)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

func (s *Suite) estimatorRow(mod dwlib.Module, model *core.Model, dbtModel *dbt.Model,
	width int, dt stimuli.DataType) (EstimatorRow, error) {
	tr, err := s.runEval(mod.Name, width, dt)
	if err != nil {
		return EstimatorRow{}, err
	}
	row := EstimatorRow{Module: mod.Name, Width: width, DataType: dt, SimAvg: tr.Mean()}

	// (a) per-cycle basic model
	est := model.EstimateBasic(tr.Hd)
	if row.ErrCycle, err = power.AvgError(est, tr.Q); err != nil {
		return EstimatorRow{}, err
	}

	// (b)+(c): word-stats route. Per-port statistics from the same
	// canonical streams the trace used.
	ports := 1
	if mod.TwoOperand {
		ports = 2
	}
	var dist hddist.Dist
	var regions []stats.RegionActivity
	for p := 0; p < ports; p++ {
		words := stimuli.Take(s.Stream(dwlib.Module{Name: mod.Name, TwoOperand: false}, width, dt),
			s.cfg.EvalPatterns)
		ws, err := stats.FromWords(words)
		if err != nil {
			return EstimatorRow{}, err
		}
		pd := hddist.FromWordStats(ws, width)
		if dist == nil {
			dist = pd
		} else {
			dist = hddist.Convolve(dist, pd)
		}
		regions = append(regions, stats.Regions(ws, width))
	}
	pDist, err := model.AvgFromDist(dist)
	if err != nil {
		return EstimatorRow{}, err
	}
	row.ErrDist = (pDist - tr.Mean()) / tr.Mean() * 100
	pAvgHd := model.InterpP(dist.Mean())
	row.ErrAvgHd = (pAvgHd - tr.Mean()) / tr.Mean() * 100

	// (d) DBT baseline
	pDBT, err := dbtModel.EstimateAvg(regions)
	if err != nil {
		return EstimatorRow{}, err
	}
	row.ErrDBT = (pDBT - tr.Mean()) / tr.Mean() * 100
	return row, nil
}

// String renders the comparison table.
func (r *EstimatorStudyResult) String() string {
	var b strings.Builder
	b.WriteString("Estimator study: signed avg-power errors (%) vs event-driven simulation\n")
	b.WriteString("(cycle = per-cycle Hd model; dist = eq.18 distribution; avgHd = interp at\n")
	b.WriteString(" mean Hd; DBT = dual-bit-type baseline. Word-stats estimators assume\n")
	b.WriteString(" Gaussian AR(1) streams and are expected to break on the counter type V.)\n\n")
	fmt.Fprintf(&b, "%-16s %5s %4s | %10s | %7s %7s %7s %7s\n",
		"module", "width", "dt", "sim avg", "cycle", "dist", "avgHd", "DBT")
	b.WriteString(strings.Repeat("-", 78) + "\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-16s %5d %4s | %10.1f | %+7.1f %+7.1f %+7.1f %+7.1f\n",
			row.Module, row.Width, row.DataType, row.SimAvg,
			row.ErrCycle, row.ErrDist, row.ErrAvgHd, row.ErrDBT)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Engine ablation: what glitch modeling contributes

// EngineAblationResult quantifies the glitch contribution of the
// event-driven reference: the zero-delay simulator misses hazard power,
// so a model characterized on it systematically underestimates.
type EngineAblationResult struct {
	Module string
	Width  int
	// GlitchShare is the fraction of event-driven charge that zero-delay
	// simulation misses on a random stream.
	GlitchShare float64
	// FilterableShare is the fraction of event-driven charge removed by
	// inertial pulse filtering — glitch power a real gate would swallow.
	FilterableShare float64
	// ErrZeroDelayModel is the avg error (%) of a zero-delay-characterized
	// model against the event-driven reference on a random stream.
	ErrZeroDelayModel float64
	// ErrEventModel is the same for the event-driven-characterized model.
	ErrEventModel float64
}

// EngineAblation runs the study on the 8x8 CSA multiplier.
func (s *Suite) EngineAblation() (*EngineAblationResult, error) {
	const name = "csa-multiplier"
	const width = 8
	mod, err := dwlib.Lookup(name)
	if err != nil {
		return nil, err
	}
	res := &EngineAblationResult{Module: name, Width: width}

	// Reference trace (event-driven) and zero-delay trace on the same
	// stream.
	edMeter, err := power.NewMeter(mod.Build(width), sim.EventDriven)
	if err != nil {
		return nil, err
	}
	zdMeter, err := power.NewMeter(mod.Build(width), sim.ZeroDelay)
	if err != nil {
		return nil, err
	}
	inMeter, err := power.NewMeter(mod.Build(width), sim.Inertial)
	if err != nil {
		return nil, err
	}
	vecs := stimuli.Take(s.Stream(mod, width, stimuli.TypeRandom), s.cfg.EvalPatterns+1)
	edTrace, err := edMeter.Run(vecs)
	if err != nil {
		return nil, err
	}
	zdTrace, err := zdMeter.Run(vecs)
	if err != nil {
		return nil, err
	}
	inTrace, err := inMeter.Run(vecs)
	if err != nil {
		return nil, err
	}
	res.GlitchShare = (edTrace.Total() - zdTrace.Total()) / edTrace.Total()
	res.FilterableShare = (edTrace.Total() - inTrace.Total()) / edTrace.Total()

	charAndScore := func(engine sim.Engine) (float64, error) {
		meter, err := power.NewMeter(mod.Build(width), engine)
		if err != nil {
			return 0, err
		}
		model, err := core.Characterize(meter, name, core.CharacterizeOptions{
			Patterns: s.cfg.CharPatterns, Seed: s.cfg.Seed + 5,
		})
		if err != nil {
			return 0, err
		}
		est := model.EstimateBasic(edTrace.Hd)
		return power.AvgError(est, edTrace.Q)
	}
	if res.ErrZeroDelayModel, err = charAndScore(sim.ZeroDelay); err != nil {
		return nil, err
	}
	if res.ErrEventModel, err = charAndScore(sim.EventDriven); err != nil {
		return nil, err
	}
	return res, nil
}

// String renders the ablation.
func (r *EngineAblationResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Engine ablation, %s %dx%d:\n", r.Module, r.Width, r.Width)
	fmt.Fprintf(&b, "  glitch share of reference charge     : %6.1f%%\n", r.GlitchShare*100)
	fmt.Fprintf(&b, "  inertially filterable share          : %6.1f%%\n", r.FilterableShare*100)
	fmt.Fprintf(&b, "  avg err, zero-delay-characterized    : %+6.1f%%\n", r.ErrZeroDelayModel)
	fmt.Fprintf(&b, "  avg err, event-driven-characterized  : %+6.1f%%\n", r.ErrEventModel)
	return b.String()
}

// ---------------------------------------------------------------------------
// Z-cluster ablation: enhanced-model size/accuracy trade-off

// ZClusterRow is one clustering level of the ablation.
type ZClusterRow struct {
	ZClusters    int // 0 = full resolution
	Coefficients int // enhanced coefficient count
	// AvgErrCounter is the enhanced model's avg error (%) on the counter
	// stream (type V, the case the enhancement exists for).
	AvgErrCounter   float64
	CycleErrCounter float64
}

// ZClusterAblationResult is the clustering study (paper Section 3's
// "cluster event classes within a certain range of the number of zeros").
type ZClusterAblationResult struct {
	Module string
	Width  int
	Rows   []ZClusterRow
}

// ZClusterAblation sweeps the stable-zero clustering granularity on the
// 8x8 CSA multiplier and scores each model on the counter stream.
func (s *Suite) ZClusterAblation() (*ZClusterAblationResult, error) {
	const name = "csa-multiplier"
	const width = 8
	mod, err := dwlib.Lookup(name)
	if err != nil {
		return nil, err
	}
	tr, err := s.runEval(name, width, stimuli.TypeCounter)
	if err != nil {
		return nil, err
	}
	res := &ZClusterAblationResult{Module: name, Width: width}
	for _, zc := range []int{0, 8, 4, 2} {
		meter, err := power.NewMeter(mod.Build(width), sim.EventDriven)
		if err != nil {
			return nil, err
		}
		model, err := core.Characterize(meter, name, core.CharacterizeOptions{
			Patterns: s.cfg.CharPatterns, Enhanced: true, ZClusters: zc,
			Seed: s.cfg.Seed + int64(width),
		})
		if err != nil {
			return nil, err
		}
		est, err := model.EstimateEnhanced(tr.Hd, tr.StableZeros)
		if err != nil {
			return nil, err
		}
		avgErr, err := power.AvgError(est, tr.Q)
		if err != nil {
			return nil, err
		}
		cycErr, err := power.AvgAbsCycleError(est, tr.Q)
		if err != nil {
			return nil, err
		}
		_, enhCount := model.NumCoefficients()
		res.Rows = append(res.Rows, ZClusterRow{
			ZClusters:       zc,
			Coefficients:    enhCount,
			AvgErrCounter:   avgErr,
			CycleErrCounter: cycErr,
		})
	}
	return res, nil
}

// String renders the ablation table.
func (r *ZClusterAblationResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Z-cluster ablation, %s %dx%d, counter stream (type V):\n\n",
		r.Module, r.Width, r.Width)
	fmt.Fprintf(&b, "%10s %14s %14s %14s\n", "z-clusters", "coefficients",
		"avg err %", "cycle err %")
	for _, row := range r.Rows {
		label := fmt.Sprint(row.ZClusters)
		if row.ZClusters == 0 {
			label = "full"
		}
		fmt.Fprintf(&b, "%10s %14d %14.1f %14.1f\n",
			label, row.Coefficients, abs(row.AvgErrCounter), row.CycleErrCounter)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Adaptation study (paper ref. [4])

// AdaptationResult quantifies online LMS adaptation on the counter stream.
type AdaptationResult struct {
	Module string
	Width  int
	// AdaptCycles is the number of observed cycles before evaluation.
	AdaptCycles int
	// ErrBefore/ErrAfter are avg errors (%) on held-out cycles.
	ErrBefore float64
	ErrAfter  float64
}

// AdaptationStudy adapts a randomly characterized model of the 8x8 CSA
// multiplier to the counter stream and evaluates on held-out cycles.
func (s *Suite) AdaptationStudy() (*AdaptationResult, error) {
	const name = "csa-multiplier"
	const width = 8
	model, err := s.Model(name, width, false)
	if err != nil {
		return nil, err
	}
	tr, err := s.runEval(name, width, stimuli.TypeCounter)
	if err != nil {
		return nil, err
	}
	split := tr.Len() / 3
	a, err := adapt.New(model, 0.05)
	if err != nil {
		return nil, err
	}
	for j := 0; j < split; j++ {
		a.Observe(tr.Hd[j], tr.Q[j])
	}
	before := model.EstimateBasic(tr.Hd[split:])
	after := a.Model().EstimateBasic(tr.Hd[split:])
	res := &AdaptationResult{Module: name, Width: width, AdaptCycles: split}
	if res.ErrBefore, err = power.AvgError(before, tr.Q[split:]); err != nil {
		return nil, err
	}
	if res.ErrAfter, err = power.AvgError(after, tr.Q[split:]); err != nil {
		return nil, err
	}
	return res, nil
}

// String renders the study.
func (r *AdaptationResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "LMS adaptation (ref. [4]), %s %dx%d, counter stream:\n",
		r.Module, r.Width, r.Width)
	fmt.Fprintf(&b, "  adaptation window : %d cycles\n", r.AdaptCycles)
	fmt.Fprintf(&b, "  avg err before    : %+6.1f%%\n", r.ErrBefore)
	fmt.Fprintf(&b, "  avg err after     : %+6.1f%%\n", r.ErrAfter)
	return b.String()
}
