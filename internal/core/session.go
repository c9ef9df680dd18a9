package core

// session.go holds the characterization merge state machine. Every build
// runs it: a MergeSession merges shard partials in shard order, records
// the convergence trajectory, fires the phase hooks and fits the model.
// Characterize drives it with shards it simulates in-process; a fleet
// (internal/fleet) drives the same session with ShardResults its workers
// computed through CharacterizeShardRange. One state machine fed the same
// shards in the same order is what makes a fleet build bit-identical to a
// single-node run of the same options (pinned by TestFleetBitIdentical in
// internal/fleet).
//
// A session snapshots to and resumes from a Checkpoint: Characterize
// writes its snapshots to the checkpoint file, and a fleet coordinator
// embeds them in its lease ledger, so both inherit the checkpoint's
// bit-exact float64 round trip.

import (
	"fmt"
	"slices"

	"hdpower/internal/power"
)

// ShardResult is one shard's partial accumulators: what a worker fills
// while it simulates the shard, what the fleet sends over the wire, and
// what a MergeSession merges. Index is phase-relative (the shard's
// position in the phase's plan, which for both phases equals its
// shard-plan index), so a MergeSession can check arrival order without
// knowing which worker computed it.
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

// clone returns a copy of a recycled partial that owns its memory — one
// backing array for the deviation samples, one for the accumulators — so
// the partial can be recycled afterwards.
func (r *ShardResult) clone() ShardResult {
	nAcc, nDev := 0, 0
	count := func(row []AccState) {
		nAcc += len(row)
		for k := range row {
			nDev += len(row[k].Dev)
		}
	}
	count(r.Basic)
	for _, row := range r.Enhanced {
		count(row)
	}
	accs, devs := make([]AccState, 0, nAcc), make([]float64, 0, nDev)
	own := func(row []AccState) []AccState {
		start := len(accs)
		for _, a := range row {
			if len(a.Dev) > 0 {
				d := len(devs)
				devs = append(devs, a.Dev...)
				a.Dev = devs[d:len(devs):len(devs)]
			} else {
				a.Dev = nil
			}
			accs = append(accs, a)
		}
		return accs[start:len(accs):len(accs)]
	}
	c := ShardResult{Index: r.Index, Patterns: r.Patterns}
	if r.Basic != nil {
		c.Basic = own(r.Basic)
	}
	if r.Enhanced != nil {
		c.Enhanced = make([][]AccState, len(r.Enhanced))
		for i, row := range r.Enhanced {
			c.Enhanced[i] = own(row)
		}
	}
	return c
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
// arithmetic are the ones Characterize runs, so merging the results
// through a MergeSession reproduces a single-node run bit-exactly.
// opt.Interrupt is polled between shards; opt's checkpoint options are
// ignored here (checkpoints are a coordinator concern).
func CharacterizeShardRange(meter *power.Meter, moduleName string, opt CharacterizeOptions,
	phase string, start, end int) ([]ShardResult, error) {
	opt.setDefaults()
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
	n := end - start
	pool, err := prepare(meter, moduleName, &opt, n)
	if err != nil {
		return nil, err
	}
	// Only the bucket geometry of the model is read during simulation.
	model := &Model{Module: moduleName, InputBits: meter.NumInputBits(), ZClusters: opt.ZClusters}
	parts := shardPartials(model, len(pool), biased, enhanced)

	results := make([]ShardResult, 0, n)
	var interrupted error
	runShardsOrdered(n, len(pool),
		func(w, idx int) *ShardResult {
			return pool[w].runCharShard(parts, model, plan[start+idx], opt.Seed, biased)
		},
		func(_ int, part *ShardResult) bool {
			if opt.Interrupt != nil {
				if interrupted = opt.Interrupt(); interrupted != nil {
					return false
				}
			}
			results = append(results, part.clone())
			parts.put(part)
			return true
		})
	if interrupted != nil {
		return nil, fmt.Errorf("core: shard range [%d,%d) of %s interrupted: %w",
			start, end, moduleName, interrupted)
	}
	return results, nil
}

// MergeSession is the merge/convergence state machine of a
// characterization run, fed one shard partial at a time in shard order —
// by Characterize from its own workers, or through Merge by a caller that
// obtains ShardResults from elsewhere (a worker fleet). Feeding it every
// shard of the plan in order yields the model and the hook sequence of
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

	basic    []AccState
	enhanced [][]AccState
	conv     *convTracker

	phase          string
	merged         int // shards merged within the current phase
	patternsBasic  int
	patternsBiased int
	phaseOpen      bool
	done           bool

	// file is the checkpoint file Characterize snapshots into; nil for
	// sessions a caller drives through Merge.
	file *checkpointFile
}

// newSession builds the session skeleton without opening a phase.
func newSession(module string, inputBits int, opt CharacterizeOptions) (*MergeSession, error) {
	opt.setDefaults()
	if inputBits <= 0 {
		return nil, fmt.Errorf("core: module %s has no inputs", module)
	}
	model := &Model{Module: module, InputBits: inputBits, ZClusters: opt.ZClusters}
	totals := newShardResult(model, false, opt.Enhanced)
	return &MergeSession{
		module:   module,
		opt:      opt,
		model:    model,
		plan:     shardPlan(opt.Patterns),
		basic:    totals.Basic,
		enhanced: totals.Enhanced,
		conv:     newConvTracker(inputBits),
		phase:    PhaseBasic,
	}, nil
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
	s.start(nil)
	return s, nil
}

// ResumeMergeSession restores a session from a Checkpoint snapshot (its
// own Snapshot, or a file checkpoint of the same run). The checkpoint's
// identity must match the requested run — a mismatch returns a
// *CheckpointMismatchError, exactly like a file resume — and its
// structure is sanity-checked before anything is trusted. Resumed fires
// first, then the phase hooks of any already-finished phases, so
// observers see balanced pairs.
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
	s.start(cp)
	return s, nil
}

// start opens the basic phase, first restoring the merged state of cp —
// already checked against the run — when resuming. A checkpoint from the
// biased phase replays the basic phase's end without snapshotting: the
// run that finished the basic phase took that snapshot.
func (s *MergeSession) start(cp *Checkpoint) {
	if cp == nil {
		s.openPhase()
		return
	}
	copy(s.basic, cp.Basic)
	for i := range s.enhanced {
		copy(s.enhanced[i], cp.EnhancedAcc[i])
	}
	s.conv.nextCheck = cp.ConvNext
	copy(s.conv.prev, cp.ConvPrev)
	copy(s.conv.prevCount, cp.ConvPrevCount)
	s.patternsBasic, s.patternsBiased = cp.PatternsBasic, cp.PatternsBiased
	shards := cp.ShardsMerged
	if cp.Phase == PhaseBiased {
		shards += len(s.plan)
	}
	s.opt.Hooks.resumed(cp.Phase, shards, cp.PatternsBasic, cp.PatternsBiased)
	s.openPhase()
	if cp.Phase == PhaseBiased {
		s.closePhase()
		s.phase = PhaseBiased
		s.openPhase()
	}
	s.merged = cp.ShardsMerged
	if s.merged == len(s.plan) {
		s.complete()
	}
}

// openPhase fires the PhaseStart hook for the session's current phase —
// every phase merges the whole shard plan — and records it as open;
// closePhase is its balance, reached from complete or from Close on
// abandonment.
func (s *MergeSession) openPhase() {
	s.phaseOpen = true
	//hdlint:allow hookbalance session phases span Merge calls; closePhase fires the balancing end on completion and Close covers abandonment
	s.opt.Hooks.phaseStart(s.phase, len(s.plan), s.opt.Patterns)
}

func (s *MergeSession) closePhase() {
	if !s.phaseOpen {
		return
	}
	s.phaseOpen = false
	s.opt.Hooks.phaseEnd(s.phase)
}

// complete closes the current phase once it has merged the whole plan.
// The basic phase of an enhanced run hands over to the biased phase; a
// file-checkpointed run snapshots in between, so a crash early in the
// biased phase never replays basic shards. Any other completed phase ends
// the session.
func (s *MergeSession) complete() {
	s.closePhase()
	if s.phase == PhaseBiased || !s.opt.Enhanced {
		s.done = true
		return
	}
	s.phase, s.merged = PhaseBiased, 0
	s.save()
	s.openPhase()
}

// Phase returns the phase the session is currently merging (PhaseBasic or
// PhaseBiased).
func (s *MergeSession) Phase() string { return s.phase }

// MergedShards returns the number of shards merged within the current
// phase — equivalently, the phase-relative index the next ShardResult
// must carry.
func (s *MergeSession) MergedShards() int { return s.merged }

// PhaseShards returns the number of shards every phase merges: the whole
// shard plan.
func (s *MergeSession) PhaseShards() int { return len(s.plan) }

// Done reports whether every phase has completed and Finish may be
// called.
func (s *MergeSession) Done() bool { return s.done }

// validate rejects a ShardResult that cannot be merged at the session's
// current position, before any state is touched — a rejected result
// leaves the session unchanged, so the caller can discard the payload and
// have the shard recomputed.
func (s *MergeSession) validate(r *ShardResult) error {
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
// session. Merging the shard that completes a phase advances the session,
// possibly to Done.
func (s *MergeSession) Merge(r ShardResult) error {
	if err := s.validate(&r); err != nil {
		return err
	}
	s.fold(&r)
	if s.merged == len(s.plan) {
		s.complete()
	}
	return nil
}

// fold is the merge step Merge and Characterize share: it folds a valid
// shard partial into the totals, fires the per-shard hooks and, in the
// basic phase, records the convergence trajectory whether or not a hook
// listens, so a checkpoint carries the same tracker state for every
// observer. The phase stays open, so Characterize can do its boundary
// work before complete closes it.
func (s *MergeSession) fold(r *ShardResult) {
	mergeAccs(s.basic, r.Basic)
	mergeRows(s.enhanced, r.Enhanced)
	s.merged++
	s.opt.Hooks.patterns(r.Patterns)
	s.opt.Hooks.shardMerged()
	if s.phase == PhaseBiased {
		s.patternsBiased += r.Patterns
		return
	}
	s.patternsBasic += r.Patterns
	if worst, checked := s.conv.check(s.basic, s.patternsBasic); checked {
		s.opt.Hooks.convergence(s.patternsBasic, worst)
	}
}

// Snapshot captures the session as a Checkpoint, for a lease ledger, a
// checkpoint file and ResumeMergeSession alike. The snapshot owns its
// slices except the deviation reservoirs, which later merges only append
// to, so later Merges do not change it.
func (s *MergeSession) Snapshot() *Checkpoint {
	cp := baseCheckpoint(s.module, s.model.InputBits, &s.opt)
	cp.Phase = s.phase
	cp.ShardsMerged = s.merged
	cp.PatternsBasic = s.patternsBasic
	cp.PatternsBiased = s.patternsBiased
	cp.Basic = slices.Clone(s.basic)
	if s.enhanced != nil {
		cp.EnhancedAcc = make([][]AccState, len(s.enhanced))
		for i, row := range s.enhanced {
			cp.EnhancedAcc[i] = slices.Clone(row)
		}
	}
	// The tracker mutates prev/prevCount in place at every check.
	cp.ConvNext = s.conv.nextCheck
	cp.ConvPrev = slices.Clone(s.conv.prev)
	cp.ConvPrevCount = slices.Clone(s.conv.prevCount)
	return &cp
}

// Finish fits the model of a completed session.
func (s *MergeSession) Finish() (*Model, error) {
	if !s.done {
		return nil, fmt.Errorf("core: merge session for %s is not complete (%s phase, %d/%d shards)",
			s.module, s.phase, s.merged, len(s.plan))
	}
	s.model.Basic = coefs(s.basic)
	if s.enhanced != nil {
		s.model.Enhanced = make([][]Coef, len(s.enhanced))
		for i, row := range s.enhanced {
			s.model.Enhanced[i] = coefs(row)
		}
	}
	return s.model, s.model.Validate()
}

// Close fires the balancing PhaseEnd for a phase the session still holds
// open, so abandoning an unfinished session (an interrupted run,
// coordinator shutdown, job cancellation) does not leak a span in
// observers. Closing a finished session is a no-op; a closed session must
// not be merged into again.
func (s *MergeSession) Close() { s.closePhase() }
