package core

// manifest.go is the characterization flight recorder: a RunRecorder
// listens to the Hooks stream of one Characterize run and assembles a
// RunManifest — the auditable record of what the run actually did (seed,
// worker count, patterns per phase and per Hd class, convergence
// trajectory, final coefficients, wall/CPU time). Serving layers persist
// manifests next to their models; the CLI writes them with -trace. The
// paper's prototype-set studies (ALL/SEC/THI) are only reproducible when
// exactly this information survives the run.

import (
	"math"
	"slices"
	"sync"
	"time"
)

// ConvergencePoint is one convergence checkpoint of a run.
type ConvergencePoint struct {
	// Patterns is the merged pattern count at the checkpoint.
	Patterns int `json:"patterns"`
	// WorstChange is the largest relative change of any populated basic
	// coefficient since the previous checkpoint. -1 encodes "no usable
	// baseline yet" (a class first turned nonzero), which the tracker
	// reports as +Inf — JSON cannot carry infinities.
	WorstChange float64 `json:"worst_change"`
}

// RunManifest is the JSON flight-recorder record of one characterization
// run.
type RunManifest struct {
	// Module is the characterized module name as passed to Characterize.
	Module string `json:"module"`
	// Width is the operand width per port; 0 when the caller did not
	// provide one (core only knows InputBits).
	Width int `json:"width,omitempty"`
	// InputBits is the module's total input vector width.
	InputBits int `json:"input_bits,omitempty"`
	// Seed anchors the deterministic sharded pattern stream.
	Seed int64 `json:"seed"`
	// Workers is the resolved worker count (informational only: the
	// fitted model is identical for every value).
	Workers int `json:"workers"`
	// Backend is the resolved simulation backend ("event",
	// "bitparallel") that priced the pattern pairs. Unlike Workers it is
	// not informational-only: coefficients from different backends differ
	// by the glitch-approximation drift, so the manifest records which
	// engine produced them.
	Backend string `json:"backend,omitempty"`
	// Enhanced and ZClusters mirror the options that shape the fit.
	Enhanced  bool `json:"enhanced,omitempty"`
	ZClusters int  `json:"z_clusters,omitempty"`
	// PatternsBudget is the requested pattern budget after defaulting.
	PatternsBudget int `json:"patterns_budget"`
	// PatternsBasic / PatternsBiased are the patterns actually simulated
	// per phase (less than the budget only when the run failed).
	PatternsBasic  int `json:"patterns_basic"`
	PatternsBiased int `json:"patterns_biased,omitempty"`
	// ShardsPlanned / ShardsMerged count deterministic stream shards.
	ShardsPlanned int `json:"shards_planned"`
	ShardsMerged  int `json:"shards_merged"`
	// Resumed records that the run restored state from a checkpoint of an
	// earlier process, or of an earlier session of the same recording (a
	// retry, or a local run taking over a fleet job); ResumedFromPhase is
	// the phase it continued in. The pattern and shard totals include the
	// restored portion, but WallSeconds/CPUSeconds cover only this
	// recording.
	Resumed          bool   `json:"resumed,omitempty"`
	ResumedFromPhase string `json:"resumed_from_phase,omitempty"`
	// Convergence is the basic phase's checkpoint trajectory, one point
	// per check boundary the recorder saw.
	Convergence []ConvergencePoint `json:"convergence,omitempty"`
	// Coefficients is the final basic table: per Hd class the mean charge
	// (p), intra-class deviation (epsilon) and sample count — "patterns
	// per Hd class" in one place. Empty when the run failed.
	Coefficients []Coef `json:"coefficients,omitempty"`
	// EnhancedCoefficients counts the enhanced table entries (the table
	// itself lives in the model).
	EnhancedCoefficients int `json:"enhanced_coefficients,omitempty"`
	// StartedAt is the wall-clock start of the run.
	StartedAt time.Time `json:"started_at"`
	// WallSeconds is the monotonic run duration.
	WallSeconds float64 `json:"wall_seconds"`
	// CPUSeconds is the process CPU time (user+system) consumed during
	// the run. It is a process-wide delta, so concurrent builds overlap;
	// 0 on platforms without rusage support.
	CPUSeconds float64 `json:"cpu_seconds,omitempty"`
	// Error is the run's failure, if any (interrupt, validation).
	Error string `json:"error,omitempty"`
}

// RunRecorder assembles a RunManifest from the hook stream of one
// Characterize call, or of the sessions of one build. Create one per run,
// join Hooks() into the run's hook set, and call Finish once the run
// settles:
//
//	rec := core.NewRunRecorder(module, opt)
//	opt.Hooks = core.JoinHooks(opt.Hooks, rec.Hooks())
//	model, err := core.Characterize(meter, module, opt)
//	manifest := rec.Finish(model, err)
//
// A build that runs again after a failure, or moves from a fleet to a
// local run, is a new session of the same recording. Every session opens
// with PhaseStart of the basic phase, preceded by Resumed when it restores
// a checkpoint, and the counts restart there from what the session
// restored, so the manifest describes the session that settled the build.
//
// The recorder is safe for use with the concurrent engine: hooks arrive
// on the merging goroutine, Progress and Finish may be called from any
// goroutine.
type RunRecorder struct {
	mu          sync.Mutex
	man         RunManifest
	phase       string
	shardsTotal int // shard plan of every phase the session has started
	start       time.Time
	cpu0        float64
	done        bool
}

// RunProgress is the live progress of a recording: the session in flight
// counts, with what it restored, the shards it merged and the pairs it
// simulated, toward the shard plan of every phase it has started.
type RunProgress struct {
	ShardsTotal  int
	ShardsMerged int
	Patterns     int
}

// Progress reads the recording's live progress, as the manifest would
// count it now.
func (r *RunRecorder) Progress() RunProgress {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RunProgress{
		ShardsTotal:  r.shardsTotal,
		ShardsMerged: r.man.ShardsMerged,
		Patterns:     r.man.PatternsBasic + r.man.PatternsBiased,
	}
}

// NewRunRecorder starts recording a run configured by opt (defaults are
// applied to a copy, so the manifest reflects the effective budget).
func NewRunRecorder(module string, opt CharacterizeOptions) *RunRecorder {
	eff := opt
	eff.setDefaults()
	return &RunRecorder{
		man: RunManifest{
			Module:         module,
			Seed:           eff.Seed,
			Workers:        eff.workerCount(),
			Backend:        eff.Backend.Name(),
			Enhanced:       eff.Enhanced,
			ZClusters:      eff.ZClusters,
			PatternsBudget: eff.Patterns,
			//hdlint:allow nondeterminism manifest timestamps are observability-only, never model inputs
			StartedAt: time.Now(),
		},
		//hdlint:allow nondeterminism wall-time span feeds the manifest, not the model
		start: time.Now(),
		cpu0:  processCPUSeconds(),
	}
}

// Hooks returns the recorder's hook set; join it with any other observers
// via JoinHooks.
func (r *RunRecorder) Hooks() *Hooks {
	// restored holds what the session's Resumed restored until its basic
	// PhaseStart starts the counts from it; a fresh session starts them
	// from zero. Convergence points past the restored basic patterns go,
	// since the session records them again.
	var restored RunManifest
	return &Hooks{
		PhaseStart: func(phase string, shards, patterns int) {
			r.mu.Lock()
			defer r.mu.Unlock()
			r.phase = phase
			if phase == PhaseBasic {
				r.man.Resumed, r.man.ResumedFromPhase = restored.Resumed, restored.ResumedFromPhase
				r.man.ShardsMerged = restored.ShardsMerged
				r.man.PatternsBasic, r.man.PatternsBiased = restored.PatternsBasic, restored.PatternsBiased
				r.man.Convergence = slices.DeleteFunc(r.man.Convergence, func(p ConvergencePoint) bool {
					return p.Patterns > restored.PatternsBasic
				})
				restored = RunManifest{}
				r.man.ShardsPlanned = shards
				r.shardsTotal = 0
			}
			r.shardsTotal += shards
		},
		PhaseEnd: func(phase string) {
			r.mu.Lock()
			defer r.mu.Unlock()
			r.phase = ""
		},
		PatternsSimulated: func(n int) {
			r.mu.Lock()
			defer r.mu.Unlock()
			if r.phase == PhaseBiased {
				r.man.PatternsBiased += n
			} else {
				r.man.PatternsBasic += n
			}
		},
		ShardMerged: func() {
			r.mu.Lock()
			defer r.mu.Unlock()
			r.man.ShardsMerged++
		},
		Convergence: func(patterns int, worst float64) {
			if math.IsInf(worst, 1) {
				worst = -1
			}
			r.mu.Lock()
			defer r.mu.Unlock()
			r.man.Convergence = append(r.man.Convergence,
				ConvergencePoint{Patterns: patterns, WorstChange: worst})
		},
		Resumed: func(phase string, shards, patternsBasic, patternsBiased int) {
			r.mu.Lock()
			defer r.mu.Unlock()
			// The restored progress counts, so the manifest totals describe
			// the whole run, not just the resumed segment.
			restored = RunManifest{Resumed: true, ResumedFromPhase: phase, ShardsMerged: shards,
				PatternsBasic: patternsBasic, PatternsBiased: patternsBiased}
		},
	}
}

// Finish stamps timings and the fitted model's final state (nil on
// failure) and returns the completed manifest. Finish is idempotent:
// later calls return the manifest from the first.
func (r *RunRecorder) Finish(model *Model, err error) *RunManifest {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		man := r.man
		return &man
	}
	r.done = true
	//hdlint:allow nondeterminism wall-time span feeds the manifest, not the model
	r.man.WallSeconds = time.Since(r.start).Seconds()
	if cpu := processCPUSeconds(); cpu > 0 {
		r.man.CPUSeconds = cpu - r.cpu0
	}
	if err != nil {
		r.man.Error = err.Error()
	}
	if model != nil {
		r.man.InputBits = model.InputBits
		r.man.Coefficients = append([]Coef(nil), model.Basic...)
		_, r.man.EnhancedCoefficients = model.NumCoefficients()
	}
	man := r.man
	return &man
}
