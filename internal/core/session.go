package core

// session.go exports the characterization merge state machine for
// distributed builds (internal/fleet). A single-node Characterize owns
// three jobs at once: simulating shards, merging their partial
// accumulators in shard order, and deciding convergence. A fleet splits
// the first job across worker processes — CharacterizeShardRange computes
// any contiguous range of the deterministic shard plan — while the
// coordinator replays the other two through a MergeSession, one
// ShardResult at a time, exactly as Characterize would have: same
// accumulator arithmetic, same per-shard convergence-check cadence, same
// early-stop boundary, same hook order. That is what makes a fleet build
// bit-identical to a single-node run of the same options (pinned by
// TestFleetBitIdentical in internal/fleet).
//
// Sessions snapshot to and resume from the same Checkpoint encoding the
// crash-safe single-node path uses, so a coordinator's lease ledger
// inherits the checkpoint's bit-exact float64 round-trip guarantees for
// free.

import (
	"fmt"

	"hdpower/internal/power"
)

// ShardResult is the wire form of one shard's partial accumulators: what
// runCharShard computes, serialized with the checkpoint's AccState
// encoding. Index is phase-relative (the shard's position in the phase's
// plan, which for both phases equals its shard-plan index), so a
// MergeSession can check arrival order without knowing which worker
// computed it.
type ShardResult struct {
	Index    int `json:"index"`
	Patterns int `json:"patterns"`
	// Basic holds the basic-class partials; present only for basic-phase
	// shards.
	Basic []AccState `json:"basic,omitempty"`
	// Enhanced holds the stable-zero-refined partials; present only when
	// the run fits the enhanced table.
	Enhanced [][]AccState `json:"enhanced,omitempty"`
}

// result converts a computed shard partial to its wire form. The result
// owns its memory — one backing array for the deviation samples, one
// for the enhanced rows — so the partial can be recycled afterwards.
func (p *charPartial) result(index int) ShardResult {
	r := ShardResult{Index: index, Patterns: p.patterns}
	nDev, nEnh := 0, 0
	for i := range p.basic {
		nDev += len(p.basic[i].dev)
	}
	for _, row := range p.enhanced {
		nEnh += len(row)
		for z := range row {
			nDev += len(row[z].dev)
		}
	}
	devs := make([]float64, 0, nDev)
	state := func(a *classAcc) AccState {
		s := AccState{Count: a.count, Sum: a.sum}
		if len(a.dev) > 0 {
			start := len(devs)
			devs = append(devs, a.dev...)
			s.Dev = devs[start:len(devs):len(devs)]
		}
		return s
	}
	if p.basic != nil {
		r.Basic = make([]AccState, len(p.basic))
		for i := range p.basic {
			r.Basic[i] = state(&p.basic[i])
		}
	}
	if p.enhanced != nil {
		r.Enhanced = make([][]AccState, len(p.enhanced))
		flat := make([]AccState, nEnh)
		for i, row := range p.enhanced {
			out := flat[:len(row):len(row)]
			flat = flat[len(row):]
			for z := range row {
				out[z] = state(&row[z])
			}
			r.Enhanced[i] = out
		}
	}
	return r
}

// Fingerprint pins the full identity of a characterization stream —
// module, geometry, every option that shapes the pattern stream, the
// backend, and the package's structural constants — as a short hex
// string. A fleet worker recomputes it from the job spec it was handed
// and refuses work whose fingerprint differs from the coordinator's, so
// two builds of this package with different internals (or two mismatched
// specs) can never mix shards.
func Fingerprint(module string, inputBits int, opt CharacterizeOptions) string {
	opt.setDefaults()
	return charTopoHash(module, inputBits, &opt)
}

// NumShards returns the number of shards a pattern budget decomposes
// into — the index space CharacterizeShardRange and MergeSession operate
// on. A non-positive budget means the Characterize default.
func NumShards(patterns int) int {
	opt := CharacterizeOptions{Patterns: patterns}
	opt.setDefaults()
	return len(shardPlan(opt.Patterns))
}

// CharacterizeShardRange simulates the contiguous phase-relative shard
// range [start, end) of phase on the caller's meter and returns one
// ShardResult per shard, in index order. It is the worker half of a
// distributed characterization: the shard plan, seeds and accumulator
// arithmetic are identical to the ones Characterize uses internally, so
// merging the results through a MergeSession reproduces a single-node run
// bit-exactly. opt.Interrupt is polled between shards; opt's convergence
// and checkpoint options are ignored here (both are coordinator
// concerns).
func CharacterizeShardRange(meter *power.Meter, moduleName string, opt CharacterizeOptions,
	phase string, start, end int) ([]ShardResult, error) {
	opt.setDefaults()
	if err := verifyNetlist(meter, moduleName); err != nil {
		return nil, err
	}
	m := meter.NumInputBits()
	if m <= 0 {
		return nil, fmt.Errorf("core: module %s has no inputs", moduleName)
	}
	plan := shardPlan(opt.Patterns)
	if start < 0 || end > len(plan) || start >= end {
		return nil, fmt.Errorf("core: shard range [%d,%d) outside the %d-shard plan of %s",
			start, end, len(plan), moduleName)
	}
	var biased, enhanced bool
	switch phase {
	case PhaseBasic:
		enhanced = opt.Enhanced
	case PhaseBiased:
		if !opt.Enhanced {
			return nil, fmt.Errorf("core: biased-phase shards requested for the non-enhanced run of %s", moduleName)
		}
		biased, enhanced = true, true
	default:
		return nil, fmt.Errorf("core: unknown characterization phase %q", phase)
	}
	// Only the bucket geometry of the model is read during simulation.
	model := &Model{Module: moduleName, InputBits: m, Basic: make([]Coef, m), ZClusters: opt.ZClusters}

	n := end - start
	workers := opt.workerCount()
	if workers > n {
		workers = n
	}
	backend, err := opt.resolveBackend(meter)
	if err != nil {
		return nil, err
	}
	pool := workerPool(backend, workers)
	parts := charPartials(model, workers, biased, enhanced)

	results := make([]ShardResult, 0, n)
	var interrupted error
	runShardsOrdered(n, workers,
		func(w, idx int) *charPartial {
			return pool[w].runCharShard(parts, model, plan[start+idx], opt.Seed, biased)
		},
		func(idx int, part *charPartial) bool {
			if opt.Interrupt != nil {
				if err := opt.Interrupt(); err != nil {
					interrupted = err
					return false
				}
			}
			results = append(results, part.result(start+idx))
			parts.put(part)
			return true
		})
	if interrupted != nil {
		return nil, fmt.Errorf("core: shard range [%d,%d) of %s interrupted: %w",
			start, end, moduleName, interrupted)
	}
	return results, nil
}

// MergeSession replays the merge/convergence/early-stop state machine of
// Characterize one ShardResult at a time, for callers that obtain shard
// partials from elsewhere (a worker fleet) instead of computing them
// inline. Feeding it every shard of the plan in order yields the same
// model, the same early-stop decision, and the same hook sequence as
// Characterize with the same options — the bit-identity contract
// distributed builds rest on.
//
// A session is not safe for concurrent use; the fleet coordinator drives
// it under its own lock.
type MergeSession struct {
	module string
	opt    CharacterizeOptions
	model  *Model
	plan   []shard

	basic    []classAcc
	enhanced [][]classAcc
	conv     *convTracker
	checks   bool

	phase          string
	merged         int // shards merged within the current phase
	usedShards     int // basic phase's final shard count (biased budget)
	patternsBasic  int
	patternsBiased int
	stopped        bool
	earlyStopAt    int
	phaseOpen      bool
	done           bool
}

// newSession builds the session skeleton without opening a phase.
func newSession(module string, inputBits int, opt CharacterizeOptions) (*MergeSession, error) {
	opt.setDefaults()
	if inputBits <= 0 {
		return nil, fmt.Errorf("core: module %s has no inputs", module)
	}
	model := &Model{
		Module:    module,
		InputBits: inputBits,
		Basic:     make([]Coef, inputBits),
		ZClusters: opt.ZClusters,
	}
	s := &MergeSession{
		module: module,
		opt:    opt,
		model:  model,
		plan:   shardPlan(opt.Patterns),
		basic:  make([]classAcc, inputBits),
		conv:   newConvTracker(inputBits, opt.ConvergeTol, opt.CheckEvery),
		checks: opt.ConvergeTol > 0 || opt.Hooks.wantsConvergence(),
		phase:  PhaseBasic,
	}
	if opt.Enhanced {
		s.enhanced = make([][]classAcc, inputBits)
		for i := 1; i <= inputBits; i++ {
			s.enhanced[i-1] = make([]classAcc, model.NumZBuckets(i))
		}
	}
	return s, nil
}

// NewMergeSession starts a fresh merge session for a run of the given
// module geometry and options, firing the PhaseStart hook for the basic
// phase. The caller must either drive the session to completion (Merge
// until Done, then Finish) or Close it, so phase hooks stay balanced.
func NewMergeSession(module string, inputBits int, opt CharacterizeOptions) (*MergeSession, error) {
	s, err := newSession(module, inputBits, opt)
	if err != nil {
		return nil, err
	}
	s.openPhase(len(s.plan), s.opt.Patterns)
	return s, nil
}

// ResumeMergeSession restores a session from a Checkpoint snapshot (its
// own Snapshot, or a file checkpoint of the same run). The checkpoint's
// identity must match the requested run — a mismatch returns a
// *CheckpointMismatchError, exactly like a single-node resume — and its
// structure is sanity-checked before anything is trusted. Hook replay
// mirrors Characterize: Resumed fires first, then the phase hooks of any
// already-finished phases, so observers see balanced pairs.
func ResumeMergeSession(module string, inputBits int, opt CharacterizeOptions, cp *Checkpoint) (*MergeSession, error) {
	s, err := newSession(module, inputBits, opt)
	if err != nil {
		return nil, err
	}
	if cp == nil {
		return nil, fmt.Errorf("core: resume of %s without a checkpoint snapshot", module)
	}
	if err := cp.matches("(snapshot)", module, inputBits, &s.opt); err != nil {
		return nil, err
	}
	if err := cp.sanity(s.model, len(s.plan)); err != nil {
		return nil, fmt.Errorf("core: snapshot of %s fails sanity: %w", module, err)
	}
	cp.restore(s.basic, s.enhanced, s.conv)
	s.patternsBasic = cp.PatternsBasic
	s.patternsBiased = cp.PatternsBiased
	s.stopped = cp.EarlyStopped
	s.earlyStopAt = cp.EarlyStopAt
	s.opt.Hooks.resumed(cp.Phase, cp.totalShardsMerged(), cp.PatternsBasic, cp.PatternsBiased)
	s.openPhase(len(s.plan), s.opt.Patterns)
	if cp.Phase == PhaseBiased {
		s.merged = cp.UsedShards
		s.completeBasic()
		s.merged = cp.ShardsMerged
		if !s.done && s.merged == s.usedShards {
			s.completeBiased()
		}
	} else {
		s.merged = cp.ShardsMerged
		if s.merged == len(s.plan) {
			s.completeBasic()
		}
	}
	return s, nil
}

// openPhase fires the PhaseStart hook for the session's current phase and
// records it as open; closePhase is its balance, reached from Merge on
// phase completion or from Close on abandonment.
func (s *MergeSession) openPhase(shards, patterns int) {
	s.phaseOpen = true
	//hdlint:allow hookbalance session phases span Merge calls; closePhase fires the balancing end on completion and Close covers abandonment
	s.opt.Hooks.phaseStart(s.phase, shards, patterns)
}

func (s *MergeSession) closePhase() {
	if !s.phaseOpen {
		return
	}
	s.phaseOpen = false
	s.opt.Hooks.phaseEnd(s.phase)
}

// completeBasic closes the basic phase at the current merge point and
// either finishes the session (basic-only run) or opens the biased phase
// over the shards the basic phase actually consumed — the same budget
// rule Characterize applies after an early stop.
func (s *MergeSession) completeBasic() {
	s.usedShards = s.merged
	s.closePhase()
	if !s.opt.Enhanced {
		s.done = true
		return
	}
	s.phase = PhaseBiased
	s.merged = 0
	s.openPhase(s.usedShards, s.patternsBasic)
	if s.usedShards == 0 {
		s.completeBiased()
	}
}

func (s *MergeSession) completeBiased() {
	s.closePhase()
	s.done = true
}

// Phase returns the phase the session is currently merging (PhaseBasic or
// PhaseBiased).
func (s *MergeSession) Phase() string { return s.phase }

// MergedShards returns the number of shards merged within the current
// phase — equivalently, the phase-relative index the next ShardResult
// must carry.
func (s *MergeSession) MergedShards() int { return s.merged }

// PhaseShards returns the number of shards the current phase will merge
// at most: the full plan for the basic phase, the basic phase's consumed
// shard count for the biased phase.
func (s *MergeSession) PhaseShards() int {
	if s.phase == PhaseBiased {
		return s.usedShards
	}
	return len(s.plan)
}

// Done reports whether every phase has completed and Finish may be
// called.
func (s *MergeSession) Done() bool { return s.done }

// EarlyStopped reports whether the basic phase converged before its full
// pattern budget, and at how many patterns.
func (s *MergeSession) EarlyStopped() (bool, int) { return s.stopped, s.earlyStopAt }

// validate rejects a ShardResult that cannot be merged at the session's
// current position, before any state is touched — a rejected result
// leaves the session unchanged, so the caller can discard the payload and
// have the shard recomputed.
func (s *MergeSession) validate(r ShardResult) error {
	if s.done {
		return fmt.Errorf("core: merge session for %s is already complete", s.module)
	}
	if r.Index != s.merged {
		return fmt.Errorf("core: shard %d out of order in the %s phase of %s (next is %d)",
			r.Index, s.phase, s.module, s.merged)
	}
	if want := s.plan[s.merged].patterns; r.Patterns != want {
		return fmt.Errorf("core: shard %d of %s carries %d patterns, plan says %d",
			r.Index, s.module, r.Patterns, want)
	}
	m := s.model.InputBits
	if s.phase == PhaseBasic {
		if len(r.Basic) != m {
			return fmt.Errorf("core: basic-phase shard %d of %s has %d basic accumulators, want %d",
				r.Index, s.module, len(r.Basic), m)
		}
	} else if len(r.Basic) != 0 {
		return fmt.Errorf("core: biased-phase shard %d of %s carries basic accumulators", r.Index, s.module)
	}
	if s.opt.Enhanced {
		if len(r.Enhanced) != m {
			return fmt.Errorf("core: shard %d of %s has %d enhanced rows, want %d",
				r.Index, s.module, len(r.Enhanced), m)
		}
		for i := 1; i <= m; i++ {
			if len(r.Enhanced[i-1]) != s.model.NumZBuckets(i) {
				return fmt.Errorf("core: shard %d of %s: enhanced row %d has %d buckets, want %d",
					r.Index, s.module, i, len(r.Enhanced[i-1]), s.model.NumZBuckets(i))
			}
		}
	} else if len(r.Enhanced) != 0 {
		return fmt.Errorf("core: shard %d of %s carries enhanced accumulators in a basic-only run",
			r.Index, s.module)
	}
	return nil
}

// Merge folds the next shard's partial accumulators into the session.
// Results must arrive in phase-relative index order (r.Index ==
// MergedShards()); anything else is rejected without mutating the
// session. Merging the shard that completes a phase advances the session
// — possibly to Done — and merging the shard that satisfies the
// convergence tolerance truncates the basic phase exactly where
// Characterize would have stopped.
func (s *MergeSession) Merge(r ShardResult) error {
	if err := s.validate(r); err != nil {
		return err
	}
	switch s.phase {
	case PhaseBasic:
		for k := range s.basic {
			acc := r.Basic[k].acc()
			s.basic[k].merge(&acc)
		}
		if s.opt.Enhanced {
			s.mergeEnhanced(r.Enhanced)
		}
		s.patternsBasic += r.Patterns
		s.merged++
		s.opt.Hooks.patterns(r.Patterns)
		s.opt.Hooks.shardMerged()
		if s.checks {
			if worst, checked, stop := s.conv.check(s.basic, s.patternsBasic); checked {
				s.opt.Hooks.convergence(s.patternsBasic, worst)
				if stop {
					s.stopped = true
					s.earlyStopAt = s.patternsBasic
					s.opt.Hooks.earlyStop(s.patternsBasic)
					s.completeBasic()
					return nil
				}
			}
		}
		if s.merged == len(s.plan) {
			s.completeBasic()
		}
	case PhaseBiased:
		s.mergeEnhanced(r.Enhanced)
		s.patternsBiased += r.Patterns
		s.merged++
		s.opt.Hooks.patterns(r.Patterns)
		s.opt.Hooks.shardMerged()
		if s.merged == s.usedShards {
			s.completeBiased()
		}
	}
	return nil
}

func (s *MergeSession) mergeEnhanced(rows [][]AccState) {
	for i := range rows {
		for z := range rows[i] {
			acc := rows[i][z].acc()
			s.enhanced[i][z].merge(&acc)
		}
	}
}

// Snapshot captures the session as a Checkpoint — the same encoding the
// single-node crash-safety path writes — suitable for embedding in a
// coordinator's lease ledger and for ResumeMergeSession. The snapshot
// owns its slices; later Merges do not mutate it.
func (s *MergeSession) Snapshot() *Checkpoint {
	cp := baseCheckpoint(s.module, s.model.InputBits, &s.opt)
	cp.Phase = s.phase
	cp.ShardsMerged = s.merged
	cp.UsedShards = s.usedShards
	cp.PatternsBasic = s.patternsBasic
	cp.PatternsBiased = s.patternsBiased
	cp.EarlyStopped = s.stopped
	cp.EarlyStopAt = s.earlyStopAt
	cp.Basic = make([]AccState, len(s.basic))
	for i := range s.basic {
		cp.Basic[i] = s.basic[i].state()
	}
	if s.enhanced != nil {
		cp.EnhancedAcc = make([][]AccState, len(s.enhanced))
		for i := range s.enhanced {
			row := make([]AccState, len(s.enhanced[i]))
			for z := range s.enhanced[i] {
				row[z] = s.enhanced[i][z].state()
			}
			cp.EnhancedAcc[i] = row
		}
	}
	// The tracker mutates prev/prevCount in place at every check; the
	// snapshot must keep its own copies.
	cp.ConvNext = s.conv.nextCheck
	cp.ConvPrev = append([]float64(nil), s.conv.prev...)
	cp.ConvPrevCount = append([]int64(nil), s.conv.prevCount...)
	return &cp
}

// Finish extracts the fitted model from a completed session, exactly as
// Characterize does after its final merge.
func (s *MergeSession) Finish() (*Model, error) {
	if !s.done {
		return nil, fmt.Errorf("core: merge session for %s is not complete (%s phase, %d/%d shards)",
			s.module, s.phase, s.merged, s.PhaseShards())
	}
	m := s.model.InputBits
	for k := range s.basic {
		s.model.Basic[k] = s.basic[k].coef()
	}
	if s.opt.Enhanced {
		s.model.Enhanced = make([][]Coef, m)
		for i := 1; i <= m; i++ {
			row := make([]Coef, len(s.enhanced[i-1]))
			for zb := range row {
				row[zb] = s.enhanced[i-1][zb].coef()
			}
			s.model.Enhanced[i-1] = row
		}
	}
	return s.model, s.model.Validate()
}

// Close fires the balancing PhaseEnd for a phase the session still holds
// open, so abandoning an unfinished session (coordinator shutdown, job
// cancellation) does not leak a span in observers. Closing a finished
// session is a no-op; a closed session must not be merged into again.
func (s *MergeSession) Close() { s.closePhase() }
