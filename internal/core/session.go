package core

// session.go holds the characterization merge state machine. Every build
// runs it: a MergeSession folds shard results in shard order, records
// the convergence trajectory, fires the phase hooks and fits the model.
// Characterize drives it with shards it simulates in-process; a fleet
// (internal/fleet) drives the same session with ShardResults its workers
// computed through CharacterizeShardRange. One state machine fed the same
// shards in the same order is what makes a fleet build bit-identical to a
// single-node run of the same options (pinned by TestFleetBitIdentical in
// internal/fleet).
//
// A session snapshots to and resumes from a Checkpoint, and it owns its
// run's checkpoint file: it loads, checks, writes and removes the file
// itself. Characterize and a fleet coordinator open their sessions over
// the same file, so either resumes what the other saved, with the
// checkpoint's bit-exact float64 round trip, under one quarantine rule.

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"slices"

	"hdpower/internal/atomicio"
	"hdpower/internal/power"
)

// ShardResult is one shard's classified samples in stream order: what a
// worker records while it simulates the shard, what the fleet sends over
// the wire, and what a MergeSession folds. Pair j of the shard has Hd
// class Hd[j], StableZeros[j] stable zeros (enhanced runs only) and
// charge Charges[j]; each array is Patterns long. Index is
// phase-relative (the shard's position in the phase's plan, which for
// both phases equals its shard-plan index), so a MergeSession can check
// arrival order without knowing which worker computed it.
type ShardResult struct {
	Index       int       `json:"index"`
	Patterns    int       `json:"patterns"`
	Hd          []int     `json:"hd"`
	StableZeros []int     `json:"stable_zeros,omitempty"`
	Charges     []float64 `json:"charges"`
}

// newShardBuffer returns a ShardResult with room for the samples of an
// n-pair shard, stable-zero counts included when the run is enhanced.
func newShardBuffer(n int, enhanced bool) *ShardResult {
	r := &ShardResult{Hd: make([]int, n), Charges: make([]float64, n)}
	if enhanced {
		r.StableZeros = make([]int, n)
	}
	return r
}

// shardFormat names the ShardResult encoding workers upload.
const shardFormat = "hdpower-shard-samples-v2"

// Fingerprint pins the full identity of a characterization stream —
// module, geometry, every option that shapes the pattern stream, the
// backend, the package's structural constants and the shard format — as
// a short hex string. A fleet worker recomputes it from the job spec it
// was handed and refuses work whose fingerprint differs from the
// coordinator's, so two builds of this package with different internals
// or shard formats (or two mismatched specs) can never mix shards. Only
// the fleet reads it; checkpoints carry the topology hash alone.
func Fingerprint(module string, inputBits int, opt CharacterizeOptions) string {
	opt.setDefaults()
	h := sha256.Sum256([]byte(charTopoHash(module, inputBits, &opt) + "|" + shardFormat))
	return hex.EncodeToString(h[:12])
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
// distributed characterization: the shard plan, seeds and samples are the
// ones Characterize folds, so merging the results through a MergeSession
// reproduces a single-node run bit-exactly.
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
	var biased bool
	switch phase {
	case PhaseBasic:
	case PhaseBiased:
		if !opt.Enhanced {
			return nil, fmt.Errorf("core: biased-phase shards requested for the non-enhanced run of %s", moduleName)
		}
		biased = true
	default:
		return nil, fmt.Errorf("core: unknown characterization phase %q", phase)
	}
	n := end - start
	pool, err := prepare(meter, moduleName, &opt, n)
	if err != nil {
		return nil, err
	}
	m := meter.NumInputBits()
	results := make([]ShardResult, 0, n)
	var interrupted error
	runShardsOrdered(n, len(pool),
		func(w, idx int) *ShardResult {
			sh := plan[start+idx]
			r := newShardBuffer(sh.patterns, opt.Enhanced)
			pool[w].runCharShard(r, m, sh, opt.Seed, biased)
			return r
		},
		func(_ int, r *ShardResult) bool {
			if opt.Interrupt != nil {
				if interrupted = opt.Interrupt(); interrupted != nil {
					return false
				}
			}
			results = append(results, *r)
			return true
		})
	if interrupted != nil {
		return nil, fmt.Errorf("core: shard range [%d,%d) of %s interrupted: %w",
			start, end, moduleName, interrupted)
	}
	return results, nil
}

// MergeSession is the merge/convergence state machine of a
// characterization run, fed one shard's samples at a time in shard order —
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

	// basic holds the per-class totals of Hd classes 1..m. enhanced holds
	// the enhanced table's buckets flat, Hd class i's row at
	// [rows[i-1], rows[i]); it is nil in basic-only runs.
	basic    []AccState
	enhanced []AccState
	rows     []int
	acc      *classFold
	cls      []int // per-sample class of the shard being folded
	conv     *convTracker

	phase          string
	merged         int // shards merged within the current phase
	patternsBasic  int
	patternsBiased int
	phaseOpen      bool
	done           bool

	// file is the checkpoint file the session owns (opt.Checkpoint.Path);
	// nil when checkpointing is off or the file is gone with the run.
	file *checkpointFile
	// leaseEpoch is the lease-fencing floor: the checkpoint's the session
	// resumed, raised by every NextLeaseEpoch and carried into every
	// Snapshot.
	leaseEpoch int64
}

// newSession builds the session skeleton without opening a phase.
func newSession(module string, inputBits int, opt CharacterizeOptions) (*MergeSession, error) {
	opt.setDefaults()
	if inputBits <= 0 {
		return nil, fmt.Errorf("core: module %s has no inputs", module)
	}
	model := &Model{Module: module, InputBits: inputBits, ZClusters: opt.ZClusters}
	s := &MergeSession{
		module: module,
		opt:    opt,
		model:  model,
		plan:   shardPlan(opt.Patterns),
		basic:  make([]AccState, inputBits),
		cls:    make([]int, shardPatterns),
		conv:   newConvTracker(inputBits),
		phase:  PhaseBasic,
	}
	if co := opt.Checkpoint; co.Path != "" {
		s.file = &checkpointFile{path: co.Path, every: co.every()}
	}
	classes := inputBits
	if opt.Enhanced {
		s.rows = make([]int, inputBits+1)
		for i := 1; i <= inputBits; i++ {
			s.rows[i] = s.rows[i-1] + model.NumZBuckets(i)
		}
		s.enhanced = make([]AccState, s.rows[inputBits])
		classes = max(classes, len(s.enhanced))
	}
	s.acc = newClassFold(classes)
	return s, nil
}

// row returns the enhanced totals of Hd class i.
func (s *MergeSession) row(i int) []AccState {
	return s.enhanced[s.rows[i-1]:s.rows[i]]
}

// NewMergeSession starts a merge session for a run of the given module
// geometry and options, firing the phase hooks of the point it starts
// from. With opt.Checkpoint.Path set, the session owns that checkpoint
// file. With Resume it first continues from the checkpoint there through
// ResumeMergeSession: a missing or corrupt file starts fresh, one that
// fails the sanity check is quarantined to <path>.corrupt and starts
// fresh, and one of another run returns a *CheckpointMismatchError and is
// left in place. The session then snapshots to the file every EveryShards
// merged shards short of a phase's end, at the handover from the basic to
// the biased phase and when Close abandons it unfinished, and removes the
// file once its last phase completes. The caller must either drive the
// session to completion (Merge until Done, then Finish) or Close it, so
// phase hooks stay balanced.
func NewMergeSession(module string, inputBits int, opt CharacterizeOptions) (*MergeSession, error) {
	cp, err := loadResume(opt.Checkpoint)
	if err != nil {
		return nil, err
	}
	if cp != nil {
		s, err := ResumeMergeSession(module, inputBits, opt, cp)
		if !errors.Is(err, errCheckpointInsane) {
			return s, err
		}
		// Checksum and identity passed but the structure is impossible:
		// quarantine and start fresh rather than resuming into garbage. A
		// file the rename leaves behind is overwritten by the first
		// snapshot.
		_ = atomicio.MarkCorrupt(opt.Checkpoint.Path, err.Error())
	}
	s, err := newSession(module, inputBits, opt)
	if err != nil {
		return nil, err
	}
	s.start(nil)
	return s, nil
}

// errCheckpointInsane marks a checkpoint that passed the identity check
// but whose structure the run cannot hold.
var errCheckpointInsane = errors.New("fails sanity")

// ResumeMergeSession restores a session from a Checkpoint snapshot: its
// own Snapshot, or the checkpoint file NewMergeSession loaded. The
// checkpoint's identity must match the requested run — a mismatch returns
// a *CheckpointMismatchError naming opt.Checkpoint.Path, or "(snapshot)"
// without one — and its structure is sanity-checked before anything is
// trusted. Resumed fires first, then the phase hooks of any
// already-finished phases, so observers see balanced pairs. The session
// owns opt.Checkpoint.Path as NewMergeSession's does.
func ResumeMergeSession(module string, inputBits int, opt CharacterizeOptions, cp *Checkpoint) (*MergeSession, error) {
	s, err := newSession(module, inputBits, opt)
	if err != nil {
		return nil, err
	}
	if cp == nil {
		return nil, fmt.Errorf("core: resume of %s without a checkpoint snapshot", module)
	}
	if err := cp.matches(cmp.Or(opt.Checkpoint.Path, "(snapshot)"), module, inputBits, &s.opt); err != nil {
		return nil, err
	}
	if err := cp.sanity(s.model, len(s.plan)); err != nil {
		return nil, fmt.Errorf("core: snapshot of %s %w: %v", module, errCheckpointInsane, err)
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
	if s.enhanced != nil {
		for i, row := range cp.EnhancedAcc {
			copy(s.row(i+1), row)
		}
	}
	s.conv.nextCheck = cp.ConvNext
	copy(s.conv.prev, cp.ConvPrev)
	copy(s.conv.prevCount, cp.ConvPrevCount)
	s.patternsBasic, s.patternsBiased = cp.PatternsBasic, cp.PatternsBiased
	s.leaseEpoch = cp.LeaseEpoch
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
// the session and removes its checkpoint file: a leftover checkpoint
// would make the next run of this spec resume into a finished state.
func (s *MergeSession) complete() {
	s.closePhase()
	if s.phase == PhaseBiased || !s.opt.Enhanced {
		s.done = true
		s.remove()
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

// validate rejects a ShardResult that cannot be merged k shards past
// the session's current position, before any state is touched — a
// rejected result leaves the session unchanged, so the caller can discard
// the payload and have the shard recomputed.
func (s *MergeSession) validate(r *ShardResult, k int) error {
	if s.done {
		return fmt.Errorf("core: merge session for %s is already complete", s.module)
	}
	at := s.merged + k
	if at >= len(s.plan) {
		return fmt.Errorf("core: shard %d lies past the %d-shard %s phase of %s",
			r.Index, len(s.plan), s.phase, s.module)
	}
	if r.Index != at {
		return fmt.Errorf("core: shard %d out of order in the %s phase of %s (next is %d)",
			r.Index, s.phase, s.module, at)
	}
	if want := s.plan[at].patterns; r.Patterns != want {
		return fmt.Errorf("core: shard %d of %s carries %d patterns, plan says %d",
			r.Index, s.module, r.Patterns, want)
	}
	if len(r.Hd) != r.Patterns || len(r.Charges) != r.Patterns {
		return fmt.Errorf("core: shard %d of %s carries %d Hd classes and %d charges for %d patterns",
			r.Index, s.module, len(r.Hd), len(r.Charges), r.Patterns)
	}
	if s.opt.Enhanced && len(r.StableZeros) != r.Patterns {
		return fmt.Errorf("core: shard %d of %s carries %d stable-zero counts for %d patterns",
			r.Index, s.module, len(r.StableZeros), r.Patterns)
	}
	if !s.opt.Enhanced && len(r.StableZeros) != 0 {
		return fmt.Errorf("core: shard %d of %s carries stable-zero counts in a basic-only run",
			r.Index, s.module)
	}
	m := s.model.InputBits
	for j, hd := range r.Hd {
		if hd < 1 || hd > m {
			return fmt.Errorf("core: shard %d of %s: pair %d has Hd %d outside [1, %d]",
				r.Index, s.module, j, hd, m)
		}
		if s.opt.Enhanced {
			if z := r.StableZeros[j]; z < 0 || z > m-hd {
				return fmt.Errorf("core: shard %d of %s: pair %d has %d stable zeros outside [0, %d]",
					r.Index, s.module, j, z, m-hd)
			}
		}
		if q := r.Charges[j]; !(q >= 0 && q <= math.MaxFloat64) {
			return fmt.Errorf("core: shard %d of %s: pair %d has charge %v, want finite and non-negative",
				r.Index, s.module, j, q)
		}
	}
	return nil
}

// Merge folds the next shard's samples into the session.
// Results must arrive in phase-relative index order (r.Index ==
// MergedShards()); anything else is rejected without mutating the
// session. Merging the shard that completes a phase advances the session,
// possibly to Done.
func (s *MergeSession) Merge(r ShardResult) error {
	return s.MergeRange([]ShardResult{r})
}

// MergeRange folds a contiguous range of shard results all or nothing:
// the k-th result must carry index MergedShards()+k of the current phase,
// and every sample of every result is validated before any is folded, so
// a rejected range leaves the session unchanged. A range may end its
// phase but not cross into the next one.
func (s *MergeSession) MergeRange(rs []ShardResult) error {
	for k := range rs {
		if err := s.validate(&rs[k], k); err != nil {
			return err
		}
	}
	for k := range rs {
		s.fold(&rs[k])
	}
	if s.merged == len(s.plan) {
		s.complete()
	}
	return nil
}

// fold is the merge step Merge and Characterize share: it folds a valid
// shard's charges into the totals of each class space — the basic classes
// in the basic phase, the enhanced buckets in both phases of an enhanced
// run — fires the per-shard hooks, in the basic phase records the
// convergence trajectory whether or not a hook listens, so a checkpoint
// carries the same tracker state for every observer, and counts the shard
// toward the periodic snapshot. The phase stays open, so Characterize can
// do its boundary work before complete closes it.
func (s *MergeSession) fold(r *ShardResult) {
	cls := s.cls[:len(r.Hd)]
	if s.phase == PhaseBasic {
		for j, hd := range r.Hd {
			cls[j] = hd - 1
		}
		s.acc.fold(s.basic, cls, r.Charges)
	}
	if s.enhanced != nil {
		for j, hd := range r.Hd {
			cls[j] = s.rows[hd-1] + s.model.ZBucket(hd, r.StableZeros[j])
		}
		s.acc.fold(s.enhanced, cls, r.Charges)
	}
	s.merged++
	s.opt.Hooks.patterns(r.Patterns)
	s.opt.Hooks.shardMerged()
	if s.phase == PhaseBiased {
		s.patternsBiased += r.Patterns
	} else {
		s.patternsBasic += r.Patterns
		if worst, checked := s.conv.check(s.basic, s.patternsBasic); checked {
			s.opt.Hooks.convergence(s.patternsBasic, worst)
		}
	}
	s.tick()
}

// Snapshot captures the session as a Checkpoint, for a checkpoint file
// and ResumeMergeSession alike. The snapshot owns its slices except the
// deviation reservoirs, which later merges only append to, so later
// Merges do not change it.
func (s *MergeSession) Snapshot() *Checkpoint {
	cp := baseCheckpoint(s.module, s.model.InputBits, &s.opt)
	cp.Phase = s.phase
	cp.ShardsMerged = s.merged
	cp.PatternsBasic = s.patternsBasic
	cp.PatternsBiased = s.patternsBiased
	cp.Basic = slices.Clone(s.basic)
	if s.enhanced != nil {
		cp.EnhancedAcc = make([][]AccState, s.model.InputBits)
		for i := range cp.EnhancedAcc {
			cp.EnhancedAcc[i] = slices.Clone(s.row(i + 1))
		}
	}
	// The tracker mutates prev/prevCount in place at every check.
	cp.ConvNext = s.conv.nextCheck
	cp.ConvPrev = slices.Clone(s.conv.prev)
	cp.ConvPrevCount = slices.Clone(s.conv.prevCount)
	cp.LeaseEpoch = s.leaseEpoch
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
		s.model.Enhanced = make([][]Coef, s.model.InputBits)
		for i := range s.model.Enhanced {
			s.model.Enhanced[i] = coefs(s.row(i + 1))
		}
	}
	return s.model, s.model.Validate()
}

// NextLeaseEpoch raises the session's lease-fencing floor by one and
// returns it, the epoch of a lease a fleet coordinator grants. The floor
// rides in every Snapshot, and Close saves one raised since the last, so
// a coordinator that resumes the checkpoint grants above every epoch
// granted before it and fences off the uploads of those leases.
func (s *MergeSession) NextLeaseEpoch() int64 {
	s.leaseEpoch++
	if s.file != nil {
		s.file.stale = true
	}
	return s.leaseEpoch
}

// Close abandons an unfinished session (an interrupted run, coordinator
// shutdown, job cancellation): it snapshots to the checkpoint file what
// the session merged or granted since its last snapshot, so a later run
// resumes where this one stopped, and fires the balancing PhaseEnd for a
// phase it still holds open, so observers do not leak a span. Closing a
// finished session is a no-op; a closed session must not be merged into
// again.
func (s *MergeSession) Close() {
	if s.file != nil && s.file.stale {
		s.save()
	}
	s.closePhase()
}
