package core

// checkpoint.go makes characterization crash-safe. The expensive phase of
// the paper's flow is simulating millions of pattern pairs; a crash, OOM
// kill, or SIGTERM used to throw every merged shard away. A Checkpoint is
// a MergeSession's Snapshot of the merged state — the per-class
// accumulators, the convergence tracker, and the shard cursor — which a
// Characterize run writes, versioned and checksummed, atomically
// (internal/atomicio) at merged-shard boundaries. Because the
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
)

// checkpointFormat versions the checkpoint schema; bump on layout change.
const checkpointFormat = "hdpower-checkpoint-v1"

// defaultCheckpointEvery is the periodic snapshot interval in merged
// shards (16 shards = 2048 patterns at the fixed shard size).
const defaultCheckpointEvery = 16

// CheckpointOptions configures crash-safe snapshots of a characterization
// run; the zero value disables them.
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
	// corrupted checkpoint is quarantined and the run starts fresh. The
	// resumed run's model is bit-identical to an uninterrupted run.
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
	Module      string  `json:"module"`
	InputBits   int     `json:"input_bits"`
	Seed        int64   `json:"seed"`
	Patterns    int     `json:"patterns"`
	Enhanced    bool    `json:"enhanced"`
	ZClusters   int     `json:"z_clusters"`
	CheckEvery  int     `json:"check_every"`
	ConvergeTol float64 `json:"converge_tol"`
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
	Phase        string `json:"phase"`         // PhaseBasic or PhaseBiased
	ShardsMerged int    `json:"shards_merged"` // merged shards within Phase
	// UsedShards is the basic phase's final shard count (== the biased
	// phase's shard budget); meaningful once Phase == PhaseBiased.
	UsedShards     int  `json:"used_shards"`
	PatternsBasic  int  `json:"patterns_basic"`
	PatternsBiased int  `json:"patterns_biased"`
	EarlyStopped   bool `json:"early_stopped,omitempty"`
	EarlyStopAt    int  `json:"early_stop_at,omitempty"`

	// Merged accumulator state.
	Basic       []AccState   `json:"basic"`
	EnhancedAcc [][]AccState `json:"enhanced_acc,omitempty"`

	// Convergence tracker state.
	ConvNext      int       `json:"conv_next"`
	ConvPrev      []float64 `json:"conv_prev"`
	ConvPrevCount []int64   `json:"conv_prev_count"`
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

// charTopoHash pins the structural constants of the deterministic stream.
func charTopoHash(module string, inputBits int, opt *CharacterizeOptions) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%s|%s|%d|%d|%d|%v|%d|%d|%g|backend=%s|shard=%d|res=%d",
		checkpointFormat, module, inputBits, opt.Seed, opt.Patterns, opt.Enhanced,
		opt.ZClusters, opt.CheckEvery, opt.ConvergeTol, opt.Backend.Name(),
		shardPatterns, epsilonReservoir)))
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
	if c.CheckEvery != opt.CheckEvery {
		add("check_every", c.CheckEvery, opt.CheckEvery)
	}
	if c.ConvergeTol != opt.ConvergeTol {
		add("converge_tol", c.ConvergeTol, opt.ConvergeTol)
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
		if c.ShardsMerged < 0 || c.ShardsMerged > shards {
			return fmt.Errorf("basic shard cursor %d outside [0, %d]", c.ShardsMerged, shards)
		}
	case PhaseBiased:
		if !c.Enhanced {
			return fmt.Errorf("biased phase in a non-enhanced run")
		}
		if c.UsedShards < 0 || c.UsedShards > shards {
			return fmt.Errorf("used shards %d outside [0, %d]", c.UsedShards, shards)
		}
		if c.ShardsMerged < 0 || c.ShardsMerged > c.UsedShards {
			return fmt.Errorf("biased shard cursor %d outside [0, %d]", c.ShardsMerged, c.UsedShards)
		}
	default:
		return fmt.Errorf("unknown phase %q", c.Phase)
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
// run — file checkpoints and fleet ledger snapshots alike.
func baseCheckpoint(module string, inputBits int, opt *CharacterizeOptions) Checkpoint {
	return Checkpoint{
		Format:      checkpointFormat,
		Module:      module,
		InputBits:   inputBits,
		Seed:        opt.Seed,
		Patterns:    opt.Patterns,
		Enhanced:    opt.Enhanced,
		ZClusters:   opt.ZClusters,
		CheckEvery:  opt.CheckEvery,
		ConvergeTol: opt.ConvergeTol,
		Backend:     opt.Backend.Name(),
		TopoHash:    charTopoHash(module, inputBits, opt),
	}
}

// checkpointFile is the file a Characterize run writes its session's
// snapshots to.
type checkpointFile struct {
	path  string
	every int
	since int // shards merged since the last snapshot
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
	s.file.since = 0
	s.opt.Hooks.checkpointSaved(err)
}

// tick counts a merged shard and snapshots at the periodic interval.
func (s *MergeSession) tick() {
	if s.file == nil {
		return
	}
	s.file.since++
	if s.file.since >= s.file.every {
		s.save()
	}
}

// totalShardsMerged is the checkpoint's merged-shard total across phases.
func (c *Checkpoint) totalShardsMerged() int {
	if c.Phase == PhaseBiased {
		return c.UsedShards + c.ShardsMerged
	}
	return c.ShardsMerged
}

// loadResume resolves the Resume option: it returns the checkpoint to
// continue from, nil for a fresh start (no file, or a quarantined corrupt
// file), or an error for an identity mismatch or unreadable file.
func loadResume(opt *CharacterizeOptions, module string, model *Model, shards int) (*Checkpoint, error) {
	co := opt.Checkpoint
	if co.Path == "" || !co.Resume {
		return nil, nil
	}
	cp, err := LoadCheckpoint(co.Path)
	switch {
	case err == nil:
	case os.IsNotExist(err):
		return nil, nil
	case atomicio.IsCorrupt(err):
		// Quarantined by the loader; the checkpoint was an optimization,
		// so degrade to a fresh (slower, still correct) run.
		return nil, nil
	default:
		return nil, fmt.Errorf("core: checkpoint %s: %w", co.Path, err)
	}
	if err := cp.matches(co.Path, module, model.InputBits, opt); err != nil {
		return nil, err
	}
	if err := cp.sanity(model, shards); err != nil {
		// Checksum and identity passed but the structure is impossible:
		// quarantine and start fresh rather than resuming into garbage.
		_ = atomicio.MarkCorrupt(co.Path, err.Error())
		return nil, nil
	}
	return cp, nil
}
