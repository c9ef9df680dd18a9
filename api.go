package hdpower

import (
	"fmt"
	"strings"

	"hdpower/internal/core"
	"hdpower/internal/dwlib"
	"hdpower/internal/experiments"
	"hdpower/internal/hddist"
	"hdpower/internal/logic"
	"hdpower/internal/netlist"
	"hdpower/internal/power"
	"hdpower/internal/sim"
	"hdpower/internal/stats"
	"hdpower/internal/stimuli"
)

// Re-exported types. Aliases keep the full method sets of the internal
// implementations available through the public package.
type (
	// Word is a fixed-width little-endian bit vector.
	Word = logic.Word
	// Netlist is a combinational gate-level circuit.
	Netlist = netlist.Netlist
	// Model is a characterized Hd power macro-model.
	Model = core.Model
	// Coef is one coefficient of a model.
	Coef = core.Coef
	// CharacterizeOptions configures Characterize.
	CharacterizeOptions = core.CharacterizeOptions
	// BackendKind selects the simulation engine behind characterization.
	BackendKind = core.BackendKind
	// Meter measures per-cycle charge of a netlist.
	Meter = power.Meter
	// Trace is a sequence of measured cycles.
	Trace = power.Trace
	// Source produces an input word stream.
	Source = stimuli.Source
	// DataType enumerates the paper's five stimulus classes.
	DataType = stimuli.DataType
	// WordStats holds word-level stream statistics.
	WordStats = stats.WordStats
	// Dist is a Hamming-distance probability distribution.
	Dist = hddist.Dist
	// Suite runs the paper's experiments.
	Suite = experiments.Suite
	// ExperimentConfig scales the experiment suite.
	ExperimentConfig = experiments.Config
)

// The five stimulus classes of the paper's Section 4.2.
const (
	TypeRandom  = stimuli.TypeRandom
	TypeMusic   = stimuli.TypeMusic
	TypeSpeech  = stimuli.TypeSpeech
	TypeVideo   = stimuli.TypeVideo
	TypeCounter = stimuli.TypeCounter
)

// Characterization backends. BackendAuto keeps the caller's meter (the
// event-driven golden reference); BackendBitParallel prices 64 pattern
// pairs per netlist pass.
const (
	BackendAuto        = core.BackendAuto
	BackendEvent       = core.BackendEvent
	BackendBitParallel = core.BackendBitParallel
)

// Modules lists the available datapath generator names.
func Modules() []string { return dwlib.Names() }

// Build generates the gate-level netlist of a catalog module at the given
// operand width, refusing a width the catalog does not build.
func Build(module string, width int) (*Netlist, error) {
	mod, err := dwlib.LookupWidth(module, width)
	if err != nil {
		return nil, err
	}
	nl := mod.Build(width)
	if err := nl.Finalize(); err != nil {
		return nil, err
	}
	return nl, nil
}

// NewMeter wraps a netlist in an event-driven (glitch-aware) charge meter.
func NewMeter(nl *Netlist) (*Meter, error) {
	return power.NewMeter(nl, sim.EventDriven)
}

// Characterize fits an Hd macro-model for the netlist by stimulating it
// with stratified characterization pairs (paper Section 4.1).
func Characterize(nl *Netlist, name string, opts CharacterizeOptions) (*Model, error) {
	meter, err := NewMeter(nl)
	if err != nil {
		return nil, err
	}
	return core.Characterize(meter, name, opts)
}

// OperandStream builds the canonical synthetic stream of a data type for a
// module with `ports` equal-width operand ports; the ports receive
// independently seeded streams, except counters, which count together
// from phase-shifted starts: port p's from p·2^(width-2).
func OperandStream(dt DataType, width, ports int, seed int64) Source {
	if ports <= 1 {
		return stimuli.NewStream(dt, width, seed)
	}
	srcs := make([]Source, ports)
	for p := range srcs {
		if dt == TypeCounter {
			srcs[p] = stimuli.Counter(width, uint64(p)<<uint(width-2))
		} else {
			srcs[p] = stimuli.NewStream(dt, width, seed+int64(p)*7919)
		}
	}
	return stimuli.Concat(srcs...)
}

// TakeWords materializes n words from a stream.
func TakeWords(src Source, n int) []Word { return stimuli.Take(src, n) }

// WordFromUint encodes the low `width` bits of v as a word.
func WordFromUint(v uint64, width int) Word { return logic.FromUint(v, width) }

// WordFromInt encodes v as a two's-complement word of the given width.
func WordFromInt(v int64, width int) Word { return logic.FromInt(v, width) }

// Report summarizes an estimation run against the reference simulation.
type Report struct {
	Module string
	Cycles int
	// SimulatedAvg is the reference mean per-cycle charge.
	SimulatedAvg float64
	// EstimatedAvg is the model's mean per-cycle charge.
	EstimatedAvg float64
	// AvgErr is the signed average-charge error in percent (paper ε).
	AvgErr float64
	// CycleErr is the mean absolute per-cycle error in percent (paper ε_a).
	CycleErr float64
	// Enhanced reports whether the enhanced model was used.
	Enhanced bool
}

// String renders the report for humans.
func (r Report) String() string {
	var b strings.Builder
	model := "basic"
	if r.Enhanced {
		model = "enhanced"
	}
	fmt.Fprintf(&b, "%s: %d cycles, %s Hd-model\n", r.Module, r.Cycles, model)
	fmt.Fprintf(&b, "  simulated avg charge: %10.3f\n", r.SimulatedAvg)
	fmt.Fprintf(&b, "  estimated avg charge: %10.3f  (eps %+.1f%%)\n", r.EstimatedAvg, r.AvgErr)
	fmt.Fprintf(&b, "  cycle avg abs error : %9.1f%%\n", r.CycleErr)
	return b.String()
}

// Estimate plays a word stream through the netlist for reference charges
// and through the model for estimates, returning both error metrics. The
// enhanced model is used when the model carries an enhanced table.
func Estimate(model *Model, nl *Netlist, words []Word) (Report, error) {
	meter, err := NewMeter(nl)
	if err != nil {
		return Report{}, err
	}
	tr, err := meter.Run(words)
	if err != nil {
		return Report{}, err
	}
	var est []float64
	if model.HasEnhanced() {
		est, err = model.EstimateEnhanced(tr.Hd, tr.StableZeros)
		if err != nil {
			return Report{}, err
		}
	} else {
		est = model.EstimateBasic(tr.Hd)
	}
	avgErr, err := power.AvgError(est, tr.Q)
	if err != nil {
		return Report{}, err
	}
	cycErr, err := power.AvgAbsCycleError(est, tr.Q)
	if err != nil {
		return Report{}, err
	}
	var estAvg float64
	for _, q := range est {
		estAvg += q
	}
	estAvg /= float64(len(est))
	return Report{
		Module:       model.Module,
		Cycles:       tr.Len(),
		SimulatedAvg: tr.Mean(),
		EstimatedAvg: estAvg,
		AvgErr:       avgErr,
		CycleErr:     cycErr,
		Enhanced:     model.HasEnhanced(),
	}, nil
}

// StreamStats measures the word-level statistics of a stream prefix.
func StreamStats(words []Word) (WordStats, error) { return stats.FromWords(words) }

// AnalyticHdDist computes the Section 6 analytic Hamming-distance
// distribution of an m-bit stream from its word-level statistics.
func AnalyticHdDist(ws WordStats, m int) Dist { return hddist.FromWordStats(ws, m) }

// NewSuite creates an experiment suite; see internal/experiments for the
// per-table drivers.
func NewSuite(cfg ExperimentConfig) *Suite { return experiments.New(cfg) }

// DefaultExperimentConfig is the full-scale experiment configuration.
func DefaultExperimentConfig() ExperimentConfig { return experiments.Default() }

// QuickExperimentConfig is the reduced configuration used by the benches.
func QuickExperimentConfig() ExperimentConfig { return experiments.Quick() }
