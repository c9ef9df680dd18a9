// Package fleet distributes characterization builds over a pool of
// worker processes while preserving the single-node bit-identity
// contract.
//
// The unit of work is a contiguous shard-range lease: the coordinator
// (see Coordinator) decomposes a build's deterministic shard plan into
// ranges, leases each range to exactly one worker at a time (lease =
// range + fencing epoch + deadline), and folds the returned shard
// samples strictly in shard order through a core.MergeSession —
// so the fitted model is bit-identical to core.Characterize with the
// same options, no matter how many workers computed it, in what order
// ranges arrived, or how many leases died along the way.
//
// Robustness model, in one place:
//
//   - Workers heartbeat their active lease; a lease whose deadline
//     passes without one is expired and re-leased to a live worker.
//   - Every lease grant carries a fresh monotonic epoch. An upload must
//     quote the epoch of a currently-leased range; a zombie worker
//     finishing a range that was re-leased after its lease expired is
//     rejected (HTTP 409) and its bytes discarded.
//   - Upload bodies carry the atomicio checksum trailer (Seal/Unseal);
//     a torn or bit-flipped body is rejected (HTTP 400) and the range
//     stays leased for the worker to retry, or expires and is re-leased.
//   - Worker RPCs retry transient failures with capped-jitter backoff.
//   - The coordinator opens its core.MergeSession over the file a
//     core.Characterize of the same job checkpoints to, and the session
//     owns that file as it does for Characterize: it resumes a checkpoint
//     there, snapshots after every merged range with the lease-fencing
//     epoch floor it grants from in LeaseEpoch, and removes the file when
//     the build finishes, so a restarted coordinator or a local build
//     resumes the build mid-plan.
//   - The coordinator never computes shards. A job that finds no live
//     worker at its start, or outlives its last one, returns ErrNoWorkers
//     (mid-build after saving that checkpoint), and the caller builds it
//     locally; internal/serve resumes the checkpoint on its one local
//     path.
//
// Chaos coverage arms the fleet.lease / fleet.upload / fleet.heartbeat /
// fleet.merge fault points (see internal/faultpoint) and asserts the
// converged model is still bit-identical to single-node.
package fleet

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"hdpower/internal/core"
	"hdpower/internal/power"
	"hdpower/internal/sim"

	"hdpower/internal/dwlib"
)

// JobSpec is the self-contained description of one distributed build: a
// worker that receives it can reconstruct the exact characterization
// stream the coordinator is merging. Fingerprint pins the identity
// (core.Fingerprint over the derived options); workers refuse leases
// whose fingerprint does not match what they recompute locally, so a
// version-skewed worker can never contribute shards.
type JobSpec struct {
	ID          string `json:"id"`
	Module      string `json:"module"`
	Width       int    `json:"width"`
	InputBits   int    `json:"input_bits"`
	Seed        int64  `json:"seed"`
	Patterns    int    `json:"patterns"`
	Enhanced    bool   `json:"enhanced,omitempty"`
	ZClusters   int    `json:"z_clusters,omitempty"`
	Backend     string `json:"backend,omitempty"`
	Fingerprint string `json:"fingerprint"`
}

// Name is the characterization run name of a job. It feeds the
// fingerprint, so the coordinator, every worker, internal/serve's local
// builds and the hdpower CLI all take it from here.
func (j *JobSpec) Name() string {
	return fmt.Sprintf("%s-w%d", j.Module, j.Width)
}

// BuildID names the build of a module at a width and seed,
// "<module>-w<width>-s<seed>": internal/serve's build and manifest IDs,
// the job ID it hands the coordinator, and the checkpoint file's name.
func BuildID(module string, width int, seed int64) string {
	return fmt.Sprintf("%s-w%d-s%d", module, width, seed)
}

// CheckpointPath is the one file in dir a build of the job checkpoints to,
// whichever tool or path runs it, so each resumes the others' checkpoint;
// empty, which turns checkpointing off, when dir is.
func (j *JobSpec) CheckpointPath(dir string) string {
	if dir == "" {
		return ""
	}
	return filepath.Join(dir, BuildID(j.Module, j.Width, j.Seed)+".ckpt.json")
}

// Options derives the characterization options a job implies. Workers
// and Hooks are deliberately absent: parallelism is a per-process choice
// and hooks are a coordinator concern, and neither shapes the pattern
// stream (nor, therefore, the fingerprint).
func (j *JobSpec) Options() core.CharacterizeOptions {
	return core.CharacterizeOptions{
		Patterns:  j.Patterns,
		Seed:      j.Seed,
		Enhanced:  j.Enhanced,
		ZClusters: j.ZClusters,
		Backend:   core.BackendKind(j.Backend),
	}
}

// Meter reconstructs the job's netlist and reference meter from the
// catalog, refusing a width the catalog does not build.
func (j *JobSpec) Meter() (*power.Meter, error) {
	mod, err := dwlib.LookupWidth(j.Module, j.Width)
	if err != nil {
		return nil, err
	}
	return power.NewMeter(mod.Build(j.Width), sim.EventDriven)
}

// Characterize builds the job on this process: core.Characterize over the
// job's meter under its run name. opt is j.Options() with the process's
// own workers, hooks, interrupt and checkpoint set. internal/serve's local
// path and the hdpower CLI build every catalog model through it.
func (j *JobSpec) Characterize(opt core.CharacterizeOptions) (*core.Model, error) {
	meter, err := j.Meter()
	if err != nil {
		return nil, err
	}
	return core.Characterize(meter, j.Name(), opt)
}

// resolve rebuilds the job's meter and options for the coordinator or a
// worker. It refuses an unknown backend up front, as core.Characterize
// does: shard ranges computed under one would each fail and be leased
// again until the build's deadline.
func (j *JobSpec) resolve() (*power.Meter, core.CharacterizeOptions, error) {
	if _, err := core.ParseBackendKind(j.Backend); err != nil {
		return nil, core.CharacterizeOptions{}, err
	}
	meter, err := j.Meter()
	if err != nil {
		return nil, core.CharacterizeOptions{}, err
	}
	return meter, j.Options(), nil
}

// Lease is one granted work unit: the phase-relative shard range
// [Start, End) of Phase, fenced by Epoch, expiring TTLMs milliseconds
// after the grant unless heartbeated.
type Lease struct {
	JobID string `json:"job_id"`
	Phase string `json:"phase"`
	Start int    `json:"start"`
	End   int    `json:"end"`
	Epoch int64  `json:"epoch"`
	TTLMs int64  `json:"ttl_ms"`
}

// Lease RPC statuses.
const (
	statusLease    = "lease"    // a lease was granted
	statusWait     = "wait"     // job active, nothing pending right now
	statusIdle     = "idle"     // no job active
	statusOK       = "ok"       // heartbeat extended the lease
	statusRevoked  = "revoked"  // lease no longer held; stop computing
	statusAccepted = "accepted" // upload staged for merging
	statusStale    = "stale"    // upload fenced off by epoch or re-lease
	statusGone     = "gone"     // job no longer active
)

type leaseRequest struct {
	Worker string `json:"worker"`
}

type leaseResponse struct {
	Status  string   `json:"status"`
	RetryMs int64    `json:"retry_ms,omitempty"`
	Job     *JobSpec `json:"job,omitempty"`
	Lease   *Lease   `json:"lease,omitempty"`
}

type heartbeatRequest struct {
	Worker string `json:"worker"`
	JobID  string `json:"job_id"`
	Phase  string `json:"phase"`
	Start  int    `json:"start"`
	Epoch  int64  `json:"epoch"`
}

type statusResponse struct {
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
}

// uploadPayload is the JSON body of an upload, wrapped in the atomicio
// checksum trailer by the sender (atomicio.Seal) and verified by the
// coordinator (atomicio.Unseal) before it is even parsed.
type uploadPayload struct {
	Worker  string             `json:"worker"`
	JobID   string             `json:"job_id"`
	Phase   string             `json:"phase"`
	Start   int                `json:"start"`
	End     int                `json:"end"`
	Epoch   int64              `json:"epoch"`
	Results []core.ShardResult `json:"results"`
}

// Fleet endpoints, mounted by internal/serve (coordinator mode) and
// dialed by Worker.
const (
	PathLease     = "/fleet/v1/lease"
	PathHeartbeat = "/fleet/v1/heartbeat"
	PathUpload    = "/fleet/v1/upload"
)

// Backoff returns the capped full-jitter delay for the given retry
// attempt (0-based): uniform over (0, min(base<<attempt, max)], plus one
// millisecond. A zero base or max takes 100ms or 3s. Worker RPCs and
// internal/serve's build retries both wait by it. The limit doubles only
// while below max, so no attempt count can overflow it.
func Backoff(base, max time.Duration, attempt int) time.Duration {
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if max <= 0 {
		max = 3 * time.Second
	}
	limit := base
	for i := 0; i < attempt && limit < max; i++ {
		limit *= 2
	}
	if limit > max {
		limit = max
	}
	return time.Duration(rand.Int63n(int64(limit))) + time.Millisecond
}
