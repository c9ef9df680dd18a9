package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"

	"hdpower/internal/faultpoint"
	"hdpower/internal/logic"
	"hdpower/internal/power"
)

// CharacterizeOptions configures a characterization run.
type CharacterizeOptions struct {
	// Patterns is the number of transition pairs to simulate.
	// Defaults to 5000 (the lower end of the paper's 5000–10000 range).
	Patterns int
	// Enhanced additionally characterizes the stable-zero refined classes
	// of the enhanced model.
	Enhanced bool
	// ZClusters clusters the stable-zero axis of the enhanced model into
	// this many buckets per Hd class; 0 keeps full resolution.
	ZClusters int
	// Seed makes the characterization stream deterministic.
	Seed int64
	// Workers is the number of concurrent characterization workers
	// sharing the pattern budget; 0 defaults to runtime.NumCPU(), 1
	// forces the fully sequential path. The pattern stream is sharded
	// deterministically by (Seed, shard index) and each shard's charges
	// are folded into the class totals in shard order, so the fitted model
	// is bit-identical for every worker count.
	Workers int
	// Backend selects the simulation engine that prices the pattern
	// pairs. The zero value (BackendAuto) and BackendEvent use the
	// caller's meter — the scalar event-driven reference;
	// BackendBitParallel builds a 64-lane bit-parallel
	// engine over the same netlist (see internal/bitsim), roughly an
	// order of magnitude faster with unit-delay glitch approximation.
	// The backend changes the reference charges (and so the fitted
	// coefficients), never the determinism or resume guarantees; a
	// checkpoint records its backend and refuses to resume under another.
	Backend BackendKind
	// Hooks receives progress callbacks during the run; nil disables
	// them. Callbacks never affect the fitted model.
	Hooks *Hooks
	// Interrupt, if non-nil, is polled at every merged shard boundary;
	// the first non-nil error aborts the run and Characterize returns it.
	// Serving layers use this to cancel an in-flight characterization
	// when its request context expires or the process drains. When
	// checkpointing is configured, the merged state is snapshotted before
	// the abort, so a later Resume continues where the interrupt landed.
	Interrupt func() error
	// Checkpoint configures crash-safe snapshots of the merged state and
	// resuming from them; the zero value disables both.
	Checkpoint CheckpointOptions
}

// Hooks observes characterization progress. All fields are optional.
// Callbacks run on the merging goroutine in deterministic shard order, so
// implementations need no internal ordering, only thread-safety against
// other runs.
type Hooks struct {
	// PatternsSimulated fires after each shard is merged with the
	// shard's pattern count.
	PatternsSimulated func(n int)
	// ShardMerged fires once per merged shard.
	ShardMerged func()
	// PhaseStart fires when a characterization phase begins, with the
	// phase name ("basic" or "biased"), the number of shards the phase
	// will merge at most, and its pattern budget. Serving layers use it to
	// size progress bars and open trace spans.
	PhaseStart func(phase string, shards, patterns int)
	// PhaseEnd fires exactly once per started phase, even when the phase
	// is cut short by an Interrupt, so span-style observers can rely on
	// balanced start/end pairs.
	PhaseEnd func(phase string)
	// Convergence fires at every convergence checkpoint of the basic
	// phase with the merged pattern count and the worst relative
	// coefficient change since the previous checkpoint (math.Inf(1) when
	// a class first turned nonzero). It only observes the trajectory:
	// every run spends its whole pattern budget.
	Convergence func(patterns int, worstChange float64)
	// Resumed fires once, before any phase starts, when the run restores
	// state from a checkpoint: the phase being resumed, plus the shard and
	// per-phase pattern totals already merged by earlier processes (which
	// the run's own Patterns/ShardMerged hooks will not replay).
	Resumed func(phase string, shardsMerged, patternsBasic, patternsBiased int)
	// CheckpointSaved fires after every checkpoint snapshot attempt with
	// its write error (nil on success). Snapshot failures never fail the
	// run — this hook is where they become observable.
	CheckpointSaved func(err error)
}

func (h *Hooks) patterns(n int) {
	if h != nil && h.PatternsSimulated != nil {
		h.PatternsSimulated(n)
	}
}

func (h *Hooks) shardMerged() {
	if h != nil && h.ShardMerged != nil {
		h.ShardMerged()
	}
}

func (h *Hooks) phaseStart(phase string, shards, patterns int) {
	if h != nil && h.PhaseStart != nil {
		h.PhaseStart(phase, shards, patterns)
	}
}

func (h *Hooks) phaseEnd(phase string) {
	if h != nil && h.PhaseEnd != nil {
		h.PhaseEnd(phase)
	}
}

func (h *Hooks) convergence(patterns int, worst float64) {
	if h != nil && h.Convergence != nil {
		h.Convergence(patterns, worst)
	}
}

func (h *Hooks) resumed(phase string, shards, patternsBasic, patternsBiased int) {
	if h != nil && h.Resumed != nil {
		h.Resumed(phase, shards, patternsBasic, patternsBiased)
	}
}

func (h *Hooks) checkpointSaved(err error) {
	if h != nil && h.CheckpointSaved != nil {
		h.CheckpointSaved(err)
	}
}

// JoinHooks fans every callback out to all non-nil hook sets in order, so
// independent observers (metrics, tracing, a flight recorder, progress
// tracking) compose without knowing about each other.
func JoinHooks(hs ...*Hooks) *Hooks {
	var live []*Hooks
	for _, h := range hs {
		if h != nil {
			live = append(live, h)
		}
	}
	if len(live) == 0 {
		return nil
	}
	if len(live) == 1 {
		return live[0]
	}
	j := &Hooks{}
	j.PatternsSimulated = func(n int) {
		for _, h := range live {
			h.patterns(n)
		}
	}
	j.ShardMerged = func() {
		for _, h := range live {
			h.shardMerged()
		}
	}
	j.PhaseStart = func(phase string, shards, patterns int) {
		for _, h := range live {
			h.phaseStart(phase, shards, patterns)
		}
	}
	j.PhaseEnd = func(phase string) {
		for _, h := range live {
			h.phaseEnd(phase)
		}
	}
	j.Resumed = func(phase string, shards, patternsBasic, patternsBiased int) {
		for _, h := range live {
			h.resumed(phase, shards, patternsBasic, patternsBiased)
		}
	}
	j.CheckpointSaved = func(err error) {
		for _, h := range live {
			h.checkpointSaved(err)
		}
	}
	j.Convergence = func(patterns int, worst float64) {
		for _, h := range live {
			h.convergence(patterns, worst)
		}
	}
	return j
}

func (o *CharacterizeOptions) setDefaults() {
	if o.Patterns <= 0 {
		o.Patterns = 5000
	}
}

// workerCount resolves the Workers option against the host.
func (o *CharacterizeOptions) workerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.NumCPU()
}

// epsilonReservoir bounds the per-class deviation sample kept by AccState.
// Classes keep their first epsilonReservoir charge samples in merged
// stream order: within a class the stream is i.i.d., so the prefix is an
// unbiased deviation sample, and — unlike a randomized reservoir — it
// stays byte-identical under ordered shard merging for any worker count.
const epsilonReservoir = 512

// AccState accumulates the charge samples of one switching-event class as
// a streaming (count, sum) pair plus the bounded deviation reservoir, so
// memory per class is O(1) no matter how long the run is. It is a
// MergeSession's per-class total in memory and in a Checkpoint on disk.
// Sums and deviation samples are float64 and survive the JSON round trip
// bit-exactly (Go encodes the shortest representation that parses back
// to the same value), which the bit-identical resume guarantee rests on.
type AccState struct {
	Count int64     `json:"count"`
	Sum   float64   `json:"sum"`
	Dev   []float64 `json:"dev,omitempty"` // first epsilonReservoir samples, for ε_i
}

func (a *AccState) coef() Coef {
	if a.Count == 0 {
		return Coef{}
	}
	p := a.Sum / float64(a.Count)
	var dev float64
	if p > 0 {
		for _, q := range a.Dev {
			dev += math.Abs((q - p) / p)
		}
		dev /= float64(len(a.Dev))
	}
	return Coef{P: p, Epsilon: dev, Count: int(a.Count)}
}

// classFold folds one shard's classified charges into per-class totals.
// Per class it sums the shard's charges in stream order and adds that sum
// to the total once, and it appends each charge to its class's reservoir
// while the reservoir has room. Folding the shards of a run in shard
// order therefore makes the same float additions and reservoirs for every
// worker count. sum and count are scratch, zero between folds.
type classFold struct {
	sum   []float64
	count []int64
}

func newClassFold(classes int) *classFold {
	return &classFold{sum: make([]float64, classes), count: make([]int64, classes)}
}

// fold adds charge q[j] to class cls[j] of totals, for every j. At a
// class's first sample in the shard it also grows the reservoir by the
// class's share of the shard at once: appending one charge at a time
// would double a reservoir's capacity past its samples and grow it more
// often.
func (f *classFold) fold(totals []AccState, cls []int, q []float64) {
	for j, c := range cls {
		f.sum[c] += q[j]
		f.count[c]++
	}
	for j, c := range cls {
		a := &totals[c]
		if n := f.count[c]; n != 0 {
			a.Count += n
			a.Sum += f.sum[c]
			f.sum[c], f.count[c] = 0, 0
			if room := epsilonReservoir - len(a.Dev); room > 0 {
				a.Dev = slices.Grow(a.Dev, min(int(n), room))
			}
		}
		if len(a.Dev) < epsilonReservoir {
			a.Dev = append(a.Dev, q[j])
		}
	}
}

// coefs fits the coefficients of a row of accumulators.
func coefs(accs []AccState) []Coef {
	out := make([]Coef, len(accs))
	for k := range accs {
		out[k] = accs[k].coef()
	}
	return out
}

// checkEvery is the convergence check interval in patterns: checks run at
// the first merged shard boundary at or past each multiple of it.
const checkEvery = 500

// convTracker records the convergence trajectory of Section 4.1 on merged
// shard checkpoints: the first merged shard boundary at or past each
// multiple of checkEvery patterns. The trajectory is observability only;
// it never ends a run.
type convTracker struct {
	nextCheck int
	prev      []float64 // per-class mean at the previous checkpoint
	prevCount []int64   // per-class sample count at the previous checkpoint
}

func newConvTracker(m int) *convTracker {
	return &convTracker{
		nextCheck: checkEvery,
		prev:      make([]float64, m),
		prevCount: make([]int64, m),
	}
}

// check evaluates a convergence checkpoint at the current merged state of
// `patterns` characterization pairs. checked reports whether a checkpoint
// was due (and worst is meaningful).
func (c *convTracker) check(basic []AccState, patterns int) (worst float64, checked bool) {
	if patterns < c.nextCheck {
		return 0, false
	}
	c.nextCheck = patterns - patterns%checkEvery + checkEvery
	return convergenceWorst(basic, c.prev, c.prevCount), true
}

// convergenceWorst returns the largest relative change of any populated
// basic coefficient against the previous checkpoint, updating prev and
// prevCount in place. A class whose running mean is zero contributes
// nothing as long as no samples contradict it: a legitimately zero-mean
// class (or one with zero samples-delta since the last checkpoint) counts
// as settled instead of pinning the worst change at +Inf forever. Only a
// class that first turns nonzero — new samples with no usable baseline —
// reports +Inf.
func convergenceWorst(basic []AccState, prev []float64, prevCount []int64) float64 {
	worst := 0.0
	for k := range basic {
		n := basic[k].Count
		if n == 0 {
			continue
		}
		cur := basic[k].Sum / float64(n)
		switch {
		case prev[k] > 0:
			if change := math.Abs(cur-prev[k]) / prev[k]; change > worst {
				worst = change
			}
		case cur > 0 && n > prevCount[k]:
			worst = math.Inf(1)
		}
		prev[k] = cur
		prevCount[k] = n
	}
	return worst
}

// Phase names reported through Hooks.PhaseStart/PhaseEnd.
const (
	// PhaseBasic is the unbiased stratified phase that fills the basic
	// Hd classes.
	PhaseBasic = "basic"
	// PhaseBiased is the density-stratified phase that populates the
	// extreme stable-zero classes of the enhanced table.
	PhaseBiased = "biased"
)

// Stream discriminators for shardSeed.
const (
	streamBasic  = 0 // phase 1: unbiased stratified pairs
	streamBiased = 1 // phase 2: density-stratified pairs (enhanced table)
	streamPortA  = 2 // CharacterizePorts, port A
	streamPortB  = 3 // CharacterizePorts, port B
)

// runCharShard simulates one shard of the characterization stream on the
// worker's backend into r, whose arrays have room for the shard: each
// pair's Hd class (the flip count its source drew), its stable-zero count
// when r has a StableZeros array (enhanced runs), and its charge, priced
// straight into r.Charges. The shard's pairs are generated up front and
// priced as one batch: the event backend walks them one at a time in
// stream order, while the bit-parallel backend prices 64 at a time.
func (w *shardWorker) runCharShard(r *ShardResult, m int, sh shard, seed int64, biased bool) {
	faultpoint.Delay("core.shard") // chaos: stragglers must not change the model
	stream := streamBasic
	if biased {
		stream = streamBiased
	}
	w.ps = restart(w.ps, m, shardSeed(seed, stream, sh.index), biased)
	n := sh.patterns
	r.Index, r.Patterns = sh.index, n
	r.Hd, r.Charges = r.Hd[:n], r.Charges[:n]
	us, vs := w.buffers(n)
	for j := range us {
		us[j], vs[j], r.Hd[j] = w.ps.next()
	}
	w.b.Charges(us, vs, r.Charges)
	if r.StableZeros != nil {
		r.StableZeros = r.StableZeros[:n]
		for j := range us {
			r.StableZeros[j] = logic.StableZeros(us[j], vs[j])
		}
	}
}

// prepare is the set-up every characterization entry point shares: check
// the netlist and that the module has inputs, resolve the backend, and
// build a pool of at most shards workers. Building the meter finalized,
// and so verified, the netlist; surgery after that definalizes it, and
// Finalize verifies it again, so a broken netlist fails with the typed,
// net-naming *netlist.VerifyError before any pattern is simulated. On an
// unchanged netlist Finalize returns at once.
func prepare(meter *power.Meter, moduleName string, opt *CharacterizeOptions, shards int) ([]*shardWorker, error) {
	if err := meter.Simulator().Netlist().Finalize(); err != nil {
		return nil, fmt.Errorf("core: refusing to characterize %s: %w", moduleName, err)
	}
	if meter.NumInputBits() <= 0 {
		return nil, fmt.Errorf("core: module %s has no inputs", moduleName)
	}
	backend, err := opt.resolveBackend(meter)
	if err != nil {
		return nil, err
	}
	return workerPool(backend, min(opt.workerCount(), shards)), nil
}

// Characterize runs the characterization process of Section 4.1 against
// the reference charge meter and returns the fitted model. The meter's
// module must have at least one input bit. With Workers > 1 (or the
// runtime.NumCPU default on multi-core hosts) the pattern stream is
// characterized by a worker pool over clones of the meter; see
// CharacterizeOptions.Workers for the determinism contract.
//
// Characterize is a fleet with one in-process worker: it simulates the
// shards of each phase itself and feeds every result, in shard order,
// through the same MergeSession state machine a fleet coordinator drives,
// so folding, the convergence trajectory, phase hooks, the coefficient
// fit and the checkpoint file exist once. What Characterize adds is the
// work at each merged-shard boundary: polling Interrupt and the
// core.merge fault point.
func Characterize(meter *power.Meter, moduleName string, opt CharacterizeOptions) (*Model, error) {
	opt.setDefaults()
	// The run is checked before its session opens the checkpoint file, so
	// a run refused here leaves the file as it found it.
	pool, err := prepare(meter, moduleName, &opt, len(shardPlan(opt.Patterns)))
	if err != nil {
		return nil, err
	}
	// Crash safety: because the accumulators at a merged-shard boundary
	// are a pure function of the shard prefix, a resumed run that replays
	// the remaining shards lands on exactly the accumulators — and
	// therefore the model — of an uninterrupted run.
	s, err := NewMergeSession(moduleName, meter.NumInputBits(), opt)
	if err != nil {
		return nil, err
	}

	// Phase 1 fills the basic classes with unbiased stratified pairs (and,
	// for the enhanced table, its unbiased share of the E_{i,z} classes);
	// phase 2 populates the extreme stable-zero classes uniform vectors
	// almost never produce with density-stratified pairs, over the same
	// shard plan.
	plan, m, seed := s.plan, s.model.InputBits, s.opt.Seed
	parts := newRecycler(len(pool), func() *ShardResult { return newShardBuffer(shardPatterns, s.opt.Enhanced) })
	var interrupted error
	for !s.done && interrupted == nil {
		biased, start := s.phase == PhaseBiased, s.merged
		runShardsOrdered(len(plan)-start, len(pool),
			func(w, idx int) *ShardResult {
				r := parts.get()
				pool[w].runCharShard(r, m, plan[start+idx], seed, biased)
				return r
			},
			func(_ int, r *ShardResult) bool {
				s.fold(r)
				parts.put(r)
				interrupted = s.boundary()
				return interrupted == nil
			})
		if interrupted == nil {
			s.complete()
		}
	}
	if interrupted != nil {
		// Close snapshots the merged state, so a resume continues where
		// the interrupt landed.
		s.Close()
		return nil, fmt.Errorf("core: characterization of %s interrupted: %w", moduleName, interrupted)
	}
	return s.Finish()
}

// boundary polls Interrupt and the core.merge fault point at a local
// run's merged-shard boundary, while the phase is still open.
func (s *MergeSession) boundary() error {
	if s.opt.Interrupt != nil {
		if err := s.opt.Interrupt(); err != nil {
			return err
		}
	}
	return faultpoint.Hit("core.merge")
}
