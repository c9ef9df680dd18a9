package core

// checkpoint.go makes characterization crash-safe. The expensive phase of
// the paper's flow is simulating millions of pattern pairs; a crash, OOM
// kill, or SIGTERM used to throw every merged shard away. A Checkpoint is
// a MergeSession's Snapshot of the merged state — the per-class
// totals, the convergence tracker, and the shard cursor — which the
// session writes to the file it owns, versioned and checksummed,
// atomically (internal/atomicio) at merged-shard boundaries. Because the
// pattern stream is sharded deterministically by (Seed, stream, shard
// index), no RNG state needs saving: the shard cursor alone pins the
// stream, and a resumed run replays the remaining shards into the
// restored accumulators, producing bit-identical coefficients to an
// uninterrupted run.

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"strings"

	"hdpower/internal/atomicio"
	"hdpower/internal/bitsim"
	"hdpower/internal/power"
	"hdpower/internal/sim"
)

// checkpointFormat versions the checkpoint schema; bump on layout change.
const checkpointFormat = "hdpower-checkpoint-v1"

// defaultCheckpointEvery is the periodic snapshot interval in merged
// shards (16 shards = 2048 patterns at the fixed shard size).
const defaultCheckpointEvery = 16

// CheckpointOptions configures crash-safe snapshots of a characterization
// run; the zero value disables them. The run's MergeSession owns the file
// (see NewMergeSession).
type CheckpointOptions struct {
	// Path is the checkpoint file; empty disables checkpointing.
	Path string
	// EveryShards is the snapshot interval in merged shards (default 16).
	// Snapshots are also written when the run is interrupted, so resuming
	// loses at most the work since the last merged shard boundary.
	EveryShards int
	// Resume loads an existing checkpoint at Path and continues from its
	// shard cursor. A checkpoint whose identity (module, seed, budget,
	// topology hash) does not match returns a *CheckpointMismatchError; a
	// corrupted or structurally impossible checkpoint is quarantined to
	// <path>.corrupt and the run starts fresh. The resumed run's model is
	// bit-identical to an uninterrupted run.
	Resume bool
}

func (c *CheckpointOptions) every() int {
	if c.EveryShards > 0 {
		return c.EveryShards
	}
	return defaultCheckpointEvery
}

// Checkpoint is one crash-safe snapshot of a characterization run at a
// merged-shard boundary.
type Checkpoint struct {
	// Format is checkpointFormat; other values are rejected on resume.
	Format string `json:"format"`

	// Identity: a resume must match all of these (see matches).
	Module    string `json:"module"`
	InputBits int    `json:"input_bits"`
	Seed      int64  `json:"seed"`
	Patterns  int    `json:"patterns"`
	Enhanced  bool   `json:"enhanced"`
	ZClusters int    `json:"z_clusters"`
	// Backend is the resolved simulation backend name ("event",
	// "bitparallel"). Charges accumulated under one backend must never be
	// merged with charges from another, so a resume under a different
	// backend is an identity mismatch.
	Backend string `json:"backend"`
	// TopoHash additionally pins the structural constants the stream
	// depends on (shard size, reservoir bound, seed mixing), so a build
	// of this package with different internals refuses the checkpoint
	// instead of resuming into a subtly different stream.
	TopoHash string `json:"topo_hash"`

	// Cursor: where the run stood when the snapshot was taken.
	Phase          string `json:"phase"`         // PhaseBasic or PhaseBiased
	ShardsMerged   int    `json:"shards_merged"` // merged shards within Phase
	PatternsBasic  int    `json:"patterns_basic"`
	PatternsBiased int    `json:"patterns_biased"`

	// Merged accumulator state.
	Basic       []AccState   `json:"basic"`
	EnhancedAcc [][]AccState `json:"enhanced_acc,omitempty"`

	// Convergence tracker state.
	ConvNext      int       `json:"conv_next"`
	ConvPrev      []float64 `json:"conv_prev"`
	ConvPrevCount []int64   `json:"conv_prev_count"`

	// LeaseEpoch is a fleet coordinator's lease-fencing floor: no lease
	// it granted for this build carried a higher epoch, so a coordinator
	// resuming the checkpoint grants above it and fences off every upload
	// of an earlier lease. A session resumed from the checkpoint carries
	// it into each Snapshot, so a local run in between never lowers it.
	// Local runs that never met a coordinator leave it 0 (omitted).
	LeaseEpoch int64 `json:"lease_epoch,omitempty"`
}

// CheckpointMismatchError reports a checkpoint that cannot resume the
// requested run because its identity differs.
type CheckpointMismatchError struct {
	// Path is the checkpoint file.
	Path string
	// Diffs lists the mismatched fields, "field: checkpoint has X, run wants Y".
	Diffs []string
}

func (e *CheckpointMismatchError) Error() string {
	return fmt.Sprintf("core: checkpoint %s does not match the requested run (%s); "+
		"characterize with matching options or delete the checkpoint",
		e.Path, strings.Join(e.Diffs, "; "))
}

// IsCheckpointMismatch reports whether err wraps a CheckpointMismatchError.
func IsCheckpointMismatch(err error) bool {
	var me *CheckpointMismatchError
	return errors.As(err, &me)
}

// charTopoHash pins the structural constants of the deterministic stream,
// the pair generator (pairStream) among them. Each backend's entry also
// names the semantics its charges depend on — the bit-parallel engine's
// charge arithmetic (bitsim.Arithmetic), the event engine's step order
// (sim.Semantics) and its meter's arithmetic (power.Arithmetic) — so
// state priced under other semantics, such as float charge sums or
// one-at-a-time event steps, is refused.
func charTopoHash(module string, inputBits int, opt *CharacterizeOptions) string {
	backend := opt.Backend.Name()
	if opt.Backend == BackendBitParallel {
		backend += "|charge=" + bitsim.Arithmetic
	} else {
		backend += "|steps=" + sim.Semantics + "|charge=" + power.Arithmetic
	}
	h := sha256.Sum256([]byte(fmt.Sprintf("%s|%s|%d|%d|%d|%v|%d|backend=%s|pairs=%s|shard=%d|res=%d",
		checkpointFormat, module, inputBits, opt.Seed, opt.Patterns, opt.Enhanced,
		opt.ZClusters, backend, pairStream, shardPatterns, epsilonReservoir)))
	return hex.EncodeToString(h[:12])
}

// matches validates a loaded checkpoint against the requested run.
func (c *Checkpoint) matches(path, module string, inputBits int, opt *CharacterizeOptions) error {
	var diffs []string
	add := func(field string, got, want any) {
		diffs = append(diffs, fmt.Sprintf("%s: checkpoint has %v, run wants %v", field, got, want))
	}
	if c.Format != checkpointFormat {
		add("format", c.Format, checkpointFormat)
	}
	if c.Module != module {
		add("module", c.Module, module)
	}
	if c.InputBits != inputBits {
		add("input bits", c.InputBits, inputBits)
	}
	if c.Seed != opt.Seed {
		add("seed", c.Seed, opt.Seed)
	}
	if c.Patterns != opt.Patterns {
		add("patterns", c.Patterns, opt.Patterns)
	}
	if c.Enhanced != opt.Enhanced {
		add("enhanced", c.Enhanced, opt.Enhanced)
	}
	if c.ZClusters != opt.ZClusters {
		add("z_clusters", c.ZClusters, opt.ZClusters)
	}
	if c.Backend != opt.Backend.Name() {
		add("backend", c.Backend, opt.Backend.Name())
	}
	if want := charTopoHash(module, inputBits, opt); len(diffs) == 0 && c.TopoHash != want {
		add("topology hash", c.TopoHash, want)
	}
	if len(diffs) == 0 {
		return nil
	}
	return &CheckpointMismatchError{Path: path, Diffs: diffs}
}

// sanity checks the structural integrity of a checkpoint that already
// passed the checksum and identity checks; a violation means the file was
// produced by a buggy or foreign writer and must not be trusted.
func (c *Checkpoint) sanity(model *Model, shards int) error {
	switch c.Phase {
	case PhaseBasic:
	case PhaseBiased:
		if !c.Enhanced {
			return fmt.Errorf("biased phase in a non-enhanced run")
		}
	default:
		return fmt.Errorf("unknown phase %q", c.Phase)
	}
	if c.ShardsMerged < 0 || c.ShardsMerged > shards {
		return fmt.Errorf("%s shard cursor %d outside [0, %d]", c.Phase, c.ShardsMerged, shards)
	}
	if len(c.Basic) != model.InputBits {
		return fmt.Errorf("%d basic accumulators, want %d", len(c.Basic), model.InputBits)
	}
	if c.Enhanced {
		if len(c.EnhancedAcc) != model.InputBits {
			return fmt.Errorf("%d enhanced rows, want %d", len(c.EnhancedAcc), model.InputBits)
		}
		for i := 1; i <= model.InputBits; i++ {
			if len(c.EnhancedAcc[i-1]) != model.NumZBuckets(i) {
				return fmt.Errorf("enhanced row %d has %d buckets, want %d",
					i, len(c.EnhancedAcc[i-1]), model.NumZBuckets(i))
			}
		}
	}
	if len(c.ConvPrev) != model.InputBits || len(c.ConvPrevCount) != model.InputBits {
		return fmt.Errorf("convergence state sized %d/%d, want %d",
			len(c.ConvPrev), len(c.ConvPrevCount), model.InputBits)
	}
	if c.LeaseEpoch < 0 {
		return fmt.Errorf("lease epoch %d is negative", c.LeaseEpoch)
	}
	return nil
}

// LoadCheckpoint reads and checksum-verifies a checkpoint file. Corrupted
// files (bad checksum, missing trailer, invalid JSON) are quarantined to
// <path>.corrupt and reported via *atomicio.CorruptError; a missing file
// returns an error satisfying os.IsNotExist.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	cp := new(Checkpoint)
	err := atomicio.ReadJSON(path, cp)
	switch {
	case err == nil:
		return cp, nil
	case errors.Is(err, atomicio.ErrNoChecksum):
		// Checkpoints are always written with a trailer; a file without
		// one was truncated before the trailer landed, or hand-edited.
		return nil, atomicio.MarkCorrupt(path, "missing checksum trailer")
	default:
		return nil, err
	}
}

// baseCheckpoint fills the identity fields shared by every snapshot of a
// run, whether Characterize or a fleet coordinator writes it.
func baseCheckpoint(module string, inputBits int, opt *CharacterizeOptions) Checkpoint {
	return Checkpoint{
		Format:    checkpointFormat,
		Module:    module,
		InputBits: inputBits,
		Seed:      opt.Seed,
		Patterns:  opt.Patterns,
		Enhanced:  opt.Enhanced,
		ZClusters: opt.ZClusters,
		Backend:   opt.Backend.Name(),
		TopoHash:  charTopoHash(module, inputBits, opt),
	}
}

// checkpointFile is the checkpoint file a MergeSession owns.
type checkpointFile struct {
	path  string
	every int
	since int  // shards merged since the last snapshot
	stale bool // merged shards or lease epochs the file does not hold yet
}

// save writes the session's Snapshot to its checkpoint file, if it has
// one. Failures are reported through the CheckpointSaved hook and never
// fail the run: a characterization with a broken checkpoint disk still
// produces a model.
func (s *MergeSession) save() {
	if s.file == nil {
		return
	}
	err := atomicio.WriteJSON(s.file.path, s.Snapshot())
	s.file.since, s.file.stale = 0, false
	s.opt.Hooks.checkpointSaved(err)
}

// tick counts a merged shard and snapshots at the periodic interval,
// except on a phase's last shard: complete takes the handover snapshot or
// removes the file right after, so no resume could read that one. The
// state stays stale, so Close still saves a run interrupted there.
func (s *MergeSession) tick() {
	if s.file == nil {
		return
	}
	s.file.since++
	s.file.stale = true
	if s.file.since >= s.file.every && s.merged < len(s.plan) {
		s.save()
	}
}

// remove deletes the checkpoint file of a finished session and lets go of
// it, so nothing writes it again. A file left by a failed removal is
// harmless: a run that resumes it completes at once.
func (s *MergeSession) remove() {
	if s.file == nil {
		return
	}
	_ = os.Remove(s.file.path)
	s.file = nil
}

// loadResume resolves the Resume option: it returns the checkpoint to
// continue from, nil for a fresh start (checkpointing or Resume off, no
// file, or a quarantined corrupt file), or an error for an unreadable
// file.
func loadResume(co CheckpointOptions) (*Checkpoint, error) {
	if co.Path == "" || !co.Resume {
		return nil, nil
	}
	cp, err := LoadCheckpoint(co.Path)
	switch {
	case err == nil:
		return cp, nil
	case os.IsNotExist(err):
		return nil, nil
	case atomicio.IsCorrupt(err):
		// Quarantined by the loader; the checkpoint was an optimization,
		// so degrade to a fresh (slower, still correct) run.
		return nil, nil
	default:
		return nil, fmt.Errorf("core: checkpoint %s: %w", co.Path, err)
	}
}
