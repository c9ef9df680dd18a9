// Package experiments contains one driver per table and figure of the
// paper's evaluation, wired to the reproduction's own substrates: the
// dwlib module generators stand in for DesignWare, the event-driven
// charge simulator for PowerMill, and seeded synthetic streams for the
// recorded signals. Absolute charge units differ from the paper's; every
// reported metric is relative, so the drivers reproduce the paper's
// qualitative shape (see DESIGN.md for the per-experiment criteria).
package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"hdpower/internal/atomicio"
	"hdpower/internal/core"
	"hdpower/internal/dwlib"
	"hdpower/internal/power"
	"hdpower/internal/sim"
	"hdpower/internal/stimuli"
)

// Config scales the experiments. The defaults reproduce the paper's
// stream lengths; Quick shrinks everything for tests and smoke runs.
type Config struct {
	// CharPatterns is the number of characterization pairs per module
	// instance.
	CharPatterns int
	// EvalPatterns is the length of each evaluation stream (the paper
	// uses 5000–10000).
	EvalPatterns int
	// Widths are the operand widths of Table 1 (paper: 8, 12, 16).
	Widths []int
	// Seed anchors all pseudo-random streams.
	Seed int64
	// Workers bounds the goroutines used at both parallelism levels: the
	// suite characterizes distinct module instances concurrently, and each
	// characterization fans its sharded pattern stream out over the same
	// number of meter clones. 0 means runtime.NumCPU(). Results are
	// independent of the value (see core.Characterize).
	Workers int
	// ManifestDir, when set, persists one flight-recorder manifest per
	// characterized instance as <dir>/<module>-w<width>[-enh].manifest.json,
	// making reproduction runs auditable (seed, patterns, convergence,
	// coefficients).
	ManifestDir string
}

// Default returns the full-scale configuration used for EXPERIMENTS.md.
func Default() Config {
	return Config{
		CharPatterns: 8000,
		EvalPatterns: 5000,
		Widths:       []int{8, 12, 16},
		Seed:         1999, // DATE 1999
	}
}

// Quick returns a reduced configuration for unit tests and -short runs.
func Quick() Config {
	return Config{
		CharPatterns: 1500,
		EvalPatterns: 800,
		Widths:       []int{8},
		Seed:         1999,
	}
}

// Suite runs experiments and caches characterized models so that tables
// sharing instances (Table 1/2, Figure 1/2) characterize each only once.
// All methods are safe for concurrent use; the cache is singleflight, so
// concurrent requests for the same instance block on one characterization
// instead of duplicating it.
type Suite struct {
	cfg Config

	mu     sync.Mutex
	models map[string]*modelEntry
}

// modelEntry is one singleflight cache slot.
type modelEntry struct {
	once  sync.Once
	model *core.Model
	err   error
}

// New creates a Suite for a configuration.
func New(cfg Config) *Suite {
	if cfg.CharPatterns <= 0 || cfg.EvalPatterns <= 0 || len(cfg.Widths) == 0 {
		panic("experiments: incomplete config")
	}
	return &Suite{cfg: cfg, models: make(map[string]*modelEntry)}
}

// Config returns the suite configuration.
func (s *Suite) Config() Config { return s.cfg }

// meter builds a fresh charge meter for a module instance.
func (s *Suite) meter(name string, width int) (*power.Meter, dwlib.Module, error) {
	mod, err := dwlib.Lookup(name)
	if err != nil {
		return nil, dwlib.Module{}, err
	}
	meter, err := power.NewMeter(mod.Build(width), sim.EventDriven)
	if err != nil {
		return nil, dwlib.Module{}, err
	}
	return meter, mod, nil
}

// Model characterizes (or returns the cached) Hd model for a module
// instance. Enhanced models always embed the basic table too.
func (s *Suite) Model(name string, width int, enhanced bool) (*core.Model, error) {
	key := fmt.Sprintf("%s/%d/%v", name, width, enhanced)
	s.mu.Lock()
	e, ok := s.models[key]
	if !ok {
		e = &modelEntry{}
		s.models[key] = e
	}
	s.mu.Unlock()

	e.once.Do(func() {
		meter, _, err := s.meter(name, width)
		if err != nil {
			e.err = err
			return
		}
		opt := core.CharacterizeOptions{
			Patterns: s.cfg.CharPatterns,
			Enhanced: enhanced,
			Seed:     s.cfg.Seed + int64(width),
			Workers:  s.cfg.Workers,
		}
		var rec *core.RunRecorder
		if s.cfg.ManifestDir != "" {
			rec = core.NewRunRecorder(fmt.Sprintf("%s-%d", name, width), opt)
			opt.Hooks = rec.Hooks()
		}
		e.model, e.err = core.Characterize(meter, fmt.Sprintf("%s-%d", name, width), opt)
		if rec != nil {
			man := rec.Finish(e.model, e.err)
			man.Width = width
			s.writeManifest(name, width, enhanced, man)
		}
	})
	return e.model, e.err
}

// writeManifest persists one characterization manifest; failures are
// reported on stderr but never fail the experiment.
func (s *Suite) writeManifest(name string, width int, enhanced bool, man *core.RunManifest) {
	file := fmt.Sprintf("%s-w%d.manifest.json", name, width)
	if enhanced {
		file = fmt.Sprintf("%s-w%d-enh.manifest.json", name, width)
	}
	if err := atomicio.WriteJSON(filepath.Join(s.cfg.ManifestDir, file), man); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: manifest %s: %v\n", file, err)
	}
}

// Stream builds the canonical input stream for a module instance and data
// type: two-operand modules get two independently seeded operand streams
// concatenated (paper Section 6.3 treats multi-input streams as
// uncorrelated); the counter streams use phase-shifted starts so the two
// ports are not identical.
func (s *Suite) Stream(mod dwlib.Module, width int, dt stimuli.DataType) stimuli.Source {
	base := s.cfg.Seed*1000 + int64(dt)*100 + int64(width)
	if !mod.TwoOperand {
		return stimuli.NewStream(dt, width, base)
	}
	a := stimuli.NewStream(dt, width, base)
	b := stimuli.NewStream(dt, width, base+7)
	if dt == stimuli.TypeCounter {
		// Both counters advance together but from different phases.
		b = stimuli.Counter(width, 1<<uint(width-2))
	}
	return stimuli.Concat(a, b)
}

// runEval plays the canonical stream for (module, width, dt) through a
// fresh meter and returns the reference trace.
func (s *Suite) runEval(name string, width int, dt stimuli.DataType) (power.Trace, error) {
	meter, mod, err := s.meter(name, width)
	if err != nil {
		return power.Trace{}, err
	}
	src := s.Stream(mod, width, dt)
	vecs := stimuli.Take(src, s.cfg.EvalPatterns+1)
	return meter.Run(vecs)
}
