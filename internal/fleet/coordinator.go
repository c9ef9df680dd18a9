package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"hdpower/internal/atomicio"
	"hdpower/internal/core"
	"hdpower/internal/faultpoint"
	"hdpower/internal/obs"
)

// Coordinator defaults.
const (
	defaultLeaseShards = 8
	defaultLeaseTTL    = 10 * time.Second
	defaultTick        = 50 * time.Millisecond
	maxUploadBytes     = 64 << 20
)

// Config shapes a Coordinator. The zero value is usable: every field has
// a serving-grade default.
type Config struct {
	// LeaseShards is the number of plan shards per lease (default 8).
	// Smaller leases re-lease faster after a worker death; larger ones
	// amortize RPC overhead.
	LeaseShards int
	// LeaseTTL is how long a lease lives without a heartbeat (default
	// 10s). Heartbeats extend the deadline by one TTL.
	LeaseTTL time.Duration
	// WorkerTTL is how long after its last RPC a worker counts as alive
	// (default 2×LeaseTTL). A job that finds no live worker, at its start
	// or once every worker has been silent this long mid-build, returns
	// ErrNoWorkers.
	WorkerTTL time.Duration
	// Tick is the driver poll interval for expiry, merge progress and
	// liveness (default 50ms); uploads kick the driver immediately.
	Tick time.Duration
	// Logger receives lease lifecycle events (default: discard).
	Logger *slog.Logger
}

func (c *Config) setDefaults() {
	if c.LeaseShards <= 0 {
		c.LeaseShards = defaultLeaseShards
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = defaultLeaseTTL
	}
	if c.WorkerTTL <= 0 {
		c.WorkerTTL = 2 * c.LeaseTTL
	}
	if c.Tick <= 0 {
		c.Tick = defaultTick
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
}

// metrics is the coordinator's observability bundle (hdfleet_* families).
type metrics struct {
	leasesGranted  *obs.Counter
	leasesExpired  *obs.Counter
	zombieRejected *obs.Counter
	tornUploads    *obs.Counter
	uploadsOK      *obs.Counter
	heartbeats     *obs.Counter
	rangesMerged   *obs.Counter
	workersAlive   *obs.Gauge
}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		leasesGranted:  reg.Counter("hdfleet_leases_granted_total", "Shard-range leases granted to workers."),
		leasesExpired:  reg.Counter("hdfleet_leases_expired_total", "Leases expired without an upload and re-leased."),
		zombieRejected: reg.Counter("hdfleet_zombie_uploads_rejected_total", "Uploads rejected by epoch fencing."),
		tornUploads:    reg.Counter("hdfleet_torn_uploads_total", "Uploads rejected by checksum verification."),
		uploadsOK:      reg.Counter("hdfleet_uploads_accepted_total", "Uploads accepted for merging."),
		heartbeats:     reg.Counter("hdfleet_heartbeats_total", "Lease heartbeats accepted."),
		rangesMerged:   reg.Counter("hdfleet_ranges_merged_total", "Uploaded ranges merged into the model."),
		workersAlive:   reg.Gauge("hdfleet_workers_alive", "Workers seen within the liveness window."),
	}
}

// Lease lifecycle states.
const (
	rangePending  = iota // waiting for a worker
	rangeLeased          // held by one worker under an epoch + deadline
	rangeUploaded        // results received and verified, awaiting merge
	rangeMerged          // folded into the merge session
)

// rangeLease is one work unit of the active job.
type rangeLease struct {
	phase      string
	start, end int
	state      int
	epoch      int64
	worker     string
	deadline   time.Time
}

// jobState is the coordinator's view of the active build.
type jobState struct {
	spec        JobSpec
	sess        *core.MergeSession
	leaseShards int
	ranges      []*rangeLease
	// uploads holds verified results keyed by range start, awaiting
	// in-order merge.
	uploads map[int][]core.ShardResult
}

// Coordinator owns the leases of at most one distributed build at a time
// and serves the fleet HTTP API. Create with NewCoordinator, mount
// the Handle* methods, then RunJob per build (concurrent RunJob calls
// queue).
type Coordinator struct {
	cfg    Config
	log    *slog.Logger
	met    *metrics
	tracer *obs.Tracer

	jobSem chan struct{} // capacity 1: serializes RunJob
	kick   chan struct{} // nudges the driver on upload/lease events

	mu      sync.Mutex
	workers map[string]time.Time // worker name -> last RPC
	job     *jobState
}

// NewCoordinator returns a coordinator with private observability;
// RegisterObs rebinds it to a shared registry/tracer.
func NewCoordinator(cfg Config) *Coordinator {
	cfg.setDefaults()
	return &Coordinator{
		cfg:     cfg,
		log:     cfg.Logger,
		met:     newMetrics(obs.NewRegistry()),
		jobSem:  make(chan struct{}, 1),
		kick:    make(chan struct{}, 1),
		workers: make(map[string]time.Time),
	}
}

// RegisterObs publishes the coordinator's metrics into reg (hdfleet_*
// families) and emits fleet spans through tracer. Call before the first
// RunJob; either argument may be nil to keep the current sink.
func (c *Coordinator) RegisterObs(reg *obs.Registry, tracer *obs.Tracer) {
	if reg != nil {
		c.met = newMetrics(reg)
	}
	if tracer != nil {
		c.tracer = tracer
	}
}

// pruneWorkersLocked drops workers outside the liveness window and
// returns (and publishes) the live count.
func (c *Coordinator) pruneWorkersLocked(now time.Time) int {
	for name, seen := range c.workers {
		if now.Sub(seen) > c.cfg.WorkerTTL {
			delete(c.workers, name)
		}
	}
	c.met.workersAlive.Set(int64(len(c.workers)))
	return len(c.workers)
}

func (c *Coordinator) touchWorkerLocked(name string, now time.Time) {
	if name == "" {
		return
	}
	c.workers[name] = now
	c.met.workersAlive.Set(int64(len(c.workers)))
}

func (c *Coordinator) nudge() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// RunOptions shape one RunJob call.
type RunOptions struct {
	// Hooks observe the merge exactly as a single-node Characterize
	// would: same callbacks, same order.
	Hooks *core.Hooks
	// CheckpointPath, when set, is the build's checkpoint file, the one a
	// core.Characterize of the same job checkpoints to. The job's merge
	// session owns it: a checkpoint there resumes the build mid-plan (one
	// the session cannot resume is rebuilt from scratch over the same
	// path), the merge snapshot is saved there after every merged range
	// and when RunJob stops early, and the file is removed once the build
	// finishes.
	CheckpointPath string
}

// ErrNoWorkers is RunJob's answer when no worker is live: at once when
// a job starts without one, and mid-build once every worker has been
// silent for WorkerTTL, after the ranges uploaded by then are merged and
// the session has saved its checkpoint. The coordinator never computes
// shards itself; its caller builds the job locally instead, resuming that
// checkpoint.
var ErrNoWorkers = errors.New("fleet: no live workers")

// RunJob executes one distributed build to completion and returns the
// fitted model, bit-identical to core.Characterize with the job's
// options. It blocks until the build converges, ctx is cancelled or the
// workers are gone (the merge session then saves its checkpoint, so a
// later run of the job, on the fleet or locally, continues where this one
// stopped).
func (c *Coordinator) RunJob(ctx context.Context, spec JobSpec, opts RunOptions) (*core.Model, error) {
	select {
	case c.jobSem <- struct{}{}:
		defer func() { <-c.jobSem }()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	c.mu.Lock()
	live := c.pruneWorkersLocked(time.Now())
	c.mu.Unlock()
	if live == 0 {
		return nil, ErrNoWorkers
	}

	js, err := c.prepareJob(spec, opts)
	if err != nil {
		return nil, err
	}
	if c.tracer != nil {
		var span *obs.Span
		ctx, span = c.tracer.Start(ctx, "fleet.build")
		span.SetAttr("job", js.spec.ID)
		span.SetAttr("fingerprint", js.spec.Fingerprint)
		defer span.End()
	}

	c.mu.Lock()
	c.job = js
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.job = nil
		c.mu.Unlock()
		js.sess.Close()
	}()

	c.log.Info("fleet build started", "job", js.spec.ID, "module", js.spec.Module,
		"width", js.spec.Width, "phase", js.sess.Phase(), "shards_merged", js.sess.MergedShards(),
		"ranges", len(js.ranges))

	ticker := time.NewTicker(c.cfg.Tick)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-c.kick:
		case <-ticker.C:
		}

		c.mu.Lock()
		now := time.Now()
		live = c.pruneWorkersLocked(now)
		c.expireLocked(js, now)
		c.mergeReadyLocked(js)
		if js.sess.Done() {
			c.mu.Unlock()
			model, err := js.sess.Finish()
			c.log.Info("fleet build finished", "job", js.spec.ID, "err", err)
			return model, err
		}
		if live == 0 {
			c.mu.Unlock()
			c.log.Warn("fleet build handed back: no live workers", "job", js.spec.ID,
				"phase", js.sess.Phase(), "shards_merged", js.sess.MergedShards())
			return nil, ErrNoWorkers
		}
		c.mu.Unlock()
	}
}

// prepareJob opens the merge session for a run over its checkpoint file,
// resuming the checkpoint there when it can. Resuming is an optimization,
// never a correctness requirement: a checkpoint of other options, or one
// the session cannot read, degrades to a fresh build over the same path.
func (c *Coordinator) prepareJob(spec JobSpec, opts RunOptions) (*jobState, error) {
	meter, opt, err := spec.resolve()
	if err != nil {
		return nil, err
	}
	spec.InputBits = meter.NumInputBits()
	spec.Fingerprint = core.Fingerprint(spec.Name(), spec.InputBits, opt)
	if spec.ID == "" {
		spec.ID = spec.Fingerprint
	}
	opt.Hooks = opts.Hooks
	// A snapshot every lease's worth of shards is one after every merged
	// range: ranges start at the merge cursor and end a lease later or at
	// the phase end, where the session snapshots or finishes anyway.
	opt.Checkpoint = core.CheckpointOptions{Path: opts.CheckpointPath, EveryShards: c.cfg.LeaseShards, Resume: true}
	sess, err := core.NewMergeSession(spec.Name(), spec.InputBits, opt)
	if err != nil && opts.CheckpointPath != "" {
		c.log.Warn("fleet checkpoint does not resume this job; building fresh",
			"path", opts.CheckpointPath, "err", err)
		opt.Checkpoint.Resume = false
		sess, err = core.NewMergeSession(spec.Name(), spec.InputBits, opt)
	}
	if err != nil {
		return nil, err
	}
	js := &jobState{spec: spec, sess: sess, leaseShards: c.cfg.LeaseShards}
	js.rebuildRanges()
	return js, nil
}

// rebuildRanges regenerates the lease table for the session's current
// phase, from the merge cursor to the end of the phase. Called at job
// start and at every phase transition; anything previously leased is
// fenced off because its (phase, start) no longer resolves to a range.
func (js *jobState) rebuildRanges() {
	js.ranges = js.ranges[:0]
	for start := js.sess.MergedShards(); start < js.sess.PhaseShards(); start += js.leaseShards {
		end := start + js.leaseShards
		if end > js.sess.PhaseShards() {
			end = js.sess.PhaseShards()
		}
		js.ranges = append(js.ranges, &rangeLease{
			phase: js.sess.Phase(), start: start, end: end, state: rangePending,
		})
	}
	js.uploads = make(map[int][]core.ShardResult)
}

// expireLocked returns timed-out leases to the pending pool.
func (c *Coordinator) expireLocked(js *jobState, now time.Time) {
	for _, r := range js.ranges {
		if r.state == rangeLeased && now.After(r.deadline) {
			c.met.leasesExpired.Inc()
			c.log.Warn("lease expired; re-leasing", "job", js.spec.ID, "phase", r.phase,
				"start", r.start, "end", r.end, "worker", r.worker, "epoch", r.epoch)
			r.state = rangePending
			r.worker = ""
		}
	}
}

// mergeReadyLocked folds every uploaded range that has reached the merge
// cursor into the session, strictly in shard order and each range all or
// nothing, so a range that fails validation leaves the cursor at its
// start. Ranges never cross a phase end; merging the range that ends a
// phase rebuilds the lease table for the next one.
func (c *Coordinator) mergeReadyLocked(js *jobState) {
	for !js.sess.Done() {
		r := js.rangeAtCursorLocked()
		if r == nil || r.state != rangeUploaded {
			return
		}
		if err := faultpoint.Hit("fleet.merge"); err != nil {
			// Injected merge stall: leave the range uploaded and retry on
			// the next driver tick. Nothing is lost — merging is
			// idempotent-by-order, not time-sensitive.
			c.log.Warn("merge deferred by fault injection", "job", js.spec.ID, "start", r.start)
			return
		}
		phase := js.sess.Phase()
		if err := js.sess.MergeRange(js.uploads[r.start]); err != nil {
			// A checksum-valid but semantically wrong payload (foreign
			// build, wrong geometry, a result out of place). No result of
			// it was folded: discard it and recompute the range.
			c.met.zombieRejected.Inc()
			c.log.Warn("upload failed merge validation; re-leasing range",
				"job", js.spec.ID, "start", r.start, "err", err)
			delete(js.uploads, r.start)
			r.state = rangePending
			r.worker = ""
			return
		}
		delete(js.uploads, r.start)
		r.state = rangeMerged
		c.met.rangesMerged.Inc()
		if js.sess.Phase() != phase && !js.sess.Done() {
			js.rebuildRanges()
		}
	}
}

// rangeAtCursorLocked returns the range whose start sits at the merge
// cursor of the current phase, or nil.
func (js *jobState) rangeAtCursorLocked() *rangeLease {
	cursor := js.sess.MergedShards()
	phase := js.sess.Phase()
	for _, r := range js.ranges {
		if r.phase == phase && r.start == cursor {
			return r
		}
	}
	return nil
}

// --- HTTP API ------------------------------------------------------

// HandleLease serves POST /fleet/v1/lease: grant the first pending range
// of the active job, or tell the worker to poll again.
func (c *Coordinator) HandleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil || req.Worker == "" {
		writeJSON(w, http.StatusBadRequest, statusResponse{Status: "error", Error: "bad lease request"})
		return
	}
	if err := faultpoint.Hit("fleet.lease"); err != nil {
		writeJSON(w, http.StatusServiceUnavailable, statusResponse{Status: "error", Error: err.Error()})
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	c.touchWorkerLocked(req.Worker, now)
	js := c.job
	if js == nil {
		writeJSON(w, http.StatusOK, leaseResponse{Status: statusIdle, RetryMs: c.cfg.Tick.Milliseconds() * 4})
		return
	}
	for _, rg := range js.ranges {
		if rg.state != rangePending {
			continue
		}
		rg.state = rangeLeased
		rg.epoch = js.sess.NextLeaseEpoch()
		rg.worker = req.Worker
		rg.deadline = now.Add(c.cfg.LeaseTTL)
		c.met.leasesGranted.Inc()
		c.log.Debug("lease granted", "job", js.spec.ID, "worker", req.Worker,
			"phase", rg.phase, "start", rg.start, "end", rg.end, "epoch", rg.epoch)
		spec := js.spec
		writeJSON(w, http.StatusOK, leaseResponse{
			Status: statusLease,
			Job:    &spec,
			Lease: &Lease{
				JobID: js.spec.ID, Phase: rg.phase, Start: rg.start, End: rg.end,
				Epoch: rg.epoch, TTLMs: c.cfg.LeaseTTL.Milliseconds(),
			},
		})
		return
	}
	writeJSON(w, http.StatusOK, leaseResponse{Status: statusWait, RetryMs: c.cfg.Tick.Milliseconds() * 4})
}

// HandleHeartbeat serves POST /fleet/v1/heartbeat: extend a live lease's
// deadline, or tell a fenced-off worker to stop computing.
func (c *Coordinator) HandleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, statusResponse{Status: "error", Error: "bad heartbeat"})
		return
	}
	if err := faultpoint.Hit("fleet.heartbeat"); err != nil {
		// A dropped heartbeat is exactly the failure the lease TTL
		// tolerates: the worker retries on its next tick, and only a
		// sustained drop expires the lease.
		writeJSON(w, http.StatusServiceUnavailable, statusResponse{Status: "error", Error: err.Error()})
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	c.touchWorkerLocked(req.Worker, now)
	js := c.job
	if js == nil || js.spec.ID != req.JobID {
		writeJSON(w, http.StatusOK, statusResponse{Status: statusRevoked})
		return
	}
	for _, rg := range js.ranges {
		if rg.phase == req.Phase && rg.start == req.Start &&
			rg.state == rangeLeased && rg.epoch == req.Epoch {
			rg.deadline = now.Add(c.cfg.LeaseTTL)
			c.met.heartbeats.Inc()
			writeJSON(w, http.StatusOK, statusResponse{Status: statusOK})
			return
		}
	}
	writeJSON(w, http.StatusOK, statusResponse{Status: statusRevoked})
}

// HandleUpload serves POST /fleet/v1/upload: verify the checksum trailer,
// check the epoch fence, and stage the results for in-order merge.
func (c *Coordinator) HandleUpload(w http.ResponseWriter, r *http.Request) {
	raw, err := io.ReadAll(io.LimitReader(r.Body, maxUploadBytes))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, statusResponse{Status: "error", Error: "short read"})
		return
	}
	body, err := atomicio.Unseal(raw)
	if err != nil {
		c.met.tornUploads.Inc()
		c.log.Warn("torn upload rejected", "bytes", len(raw), "err", err)
		writeJSON(w, http.StatusBadRequest, statusResponse{Status: "error", Error: "payload failed checksum verification"})
		return
	}
	var up uploadPayload
	if err := json.Unmarshal(body, &up); err != nil {
		c.met.tornUploads.Inc()
		writeJSON(w, http.StatusBadRequest, statusResponse{Status: "error", Error: "bad upload payload"})
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	c.touchWorkerLocked(up.Worker, now)
	js := c.job
	if js == nil || js.spec.ID != up.JobID {
		writeJSON(w, http.StatusGone, statusResponse{Status: statusGone})
		return
	}
	for _, rg := range js.ranges {
		if rg.phase != up.Phase || rg.start != up.Start || rg.end != up.End {
			continue
		}
		if rg.state != rangeLeased || rg.epoch != up.Epoch {
			break // fenced: expired and re-leased, or already uploaded
		}
		if len(up.Results) != rg.end-rg.start {
			c.met.tornUploads.Inc()
			writeJSON(w, http.StatusBadRequest, statusResponse{Status: "error",
				Error: fmt.Sprintf("%d results for a %d-shard range", len(up.Results), rg.end-rg.start)})
			return
		}
		rg.state = rangeUploaded
		js.uploads[rg.start] = up.Results
		c.met.uploadsOK.Inc()
		c.nudge()
		writeJSON(w, http.StatusOK, statusResponse{Status: statusAccepted})
		return
	}
	c.met.zombieRejected.Inc()
	c.log.Warn("zombie upload rejected", "job", up.JobID, "worker", up.Worker,
		"phase", up.Phase, "start", up.Start, "epoch", up.Epoch)
	writeJSON(w, http.StatusConflict, statusResponse{Status: statusStale})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
