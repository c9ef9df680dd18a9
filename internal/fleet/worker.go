package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"time"

	"hdpower/internal/atomicio"
	"hdpower/internal/core"
	"hdpower/internal/faultpoint"
	"hdpower/internal/obs"
	"hdpower/internal/power"
)

// Worker defaults.
const (
	defaultRetryBase    = 100 * time.Millisecond
	defaultRetryCap     = 3 * time.Second
	defaultPollInterval = 250 * time.Millisecond
	maxUploadAttempts   = 6
)

// WorkerConfig shapes a fleet worker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL, e.g. "http://host:8080".
	Coordinator string
	// Name identifies this worker in leases and logs; it must be unique
	// within the fleet (two workers sharing a name can fence each other's
	// leases).
	Name string
	// Workers is the local shard parallelism per range (default: core's
	// worker default).
	Workers int
	// RetryBase/RetryCap bound the capped-jitter backoff on failed RPCs
	// (defaults 100ms / 3s).
	RetryBase time.Duration
	RetryCap  time.Duration
	// PollInterval is the idle re-poll cadence when the coordinator has
	// nothing to lease (default 250ms).
	PollInterval time.Duration
	// Logger receives lease lifecycle events (default: discard).
	Logger *slog.Logger
}

func (c *WorkerConfig) setDefaults() error {
	if c.Coordinator == "" {
		return fmt.Errorf("fleet: worker needs a coordinator URL")
	}
	if c.Name == "" {
		return fmt.Errorf("fleet: worker needs a name")
	}
	if c.RetryBase <= 0 {
		c.RetryBase = defaultRetryBase
	}
	if c.RetryCap <= 0 {
		c.RetryCap = defaultRetryCap
	}
	if c.PollInterval <= 0 {
		c.PollInterval = defaultPollInterval
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	return nil
}

// jobRuntime is the rebuilt simulation engine of one job, kept so every
// lease of the same build reuses the netlist.
type jobRuntime struct {
	fingerprint string
	name        string
	meter       *power.Meter
	opt         core.CharacterizeOptions
}

// Worker pulls shard-range leases from a coordinator, computes them with
// core.CharacterizeShardRange, and uploads the shards' checksummed
// samples. It is crash-only by design: killing a worker at any
// point loses at most the ranges it held, which the coordinator
// re-leases after their TTL.
type Worker struct {
	cfg WorkerConfig
	log *slog.Logger
	// client carries the coordinator RPCs, each bounded at 30s.
	client *http.Client
	// job is the runtime of the job last leased; a lease of another job
	// replaces it, so a long-lived worker holds one netlist, not one per
	// build it ever served.
	job *jobRuntime
}

// NewWorker validates the config and returns a worker ready to Run.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	return &Worker{cfg: cfg, log: cfg.Logger, client: &http.Client{Timeout: 30 * time.Second}}, nil
}

// Run is the worker's main loop: lease, compute, upload, repeat, until
// ctx is cancelled. Transient coordinator failures (refused dials, 5xx,
// torn responses) are retried with capped-jitter backoff; Run only
// returns ctx.Err().
func (w *Worker) Run(ctx context.Context) error {
	attempt := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		resp, err := w.lease(ctx)
		if err != nil {
			w.log.Debug("lease RPC failed; backing off", "err", err, "attempt", attempt)
			if !sleepCtx(ctx, Backoff(w.cfg.RetryBase, w.cfg.RetryCap, attempt)) {
				return ctx.Err()
			}
			attempt++
			continue
		}
		attempt = 0
		switch resp.Status {
		case statusLease:
			if resp.Job == nil || resp.Lease == nil {
				w.log.Warn("malformed lease response; ignoring")
				continue
			}
			w.execute(ctx, *resp.Job, *resp.Lease)
		default: // wait, idle
			d := time.Duration(resp.RetryMs) * time.Millisecond
			if d <= 0 {
				d = w.cfg.PollInterval
			}
			// Jitter the poll so a fleet of workers doesn't thundering-herd
			// the coordinator.
			if !sleepCtx(ctx, d/2+time.Duration(rand.Int63n(int64(d)))) {
				return ctx.Err()
			}
		}
	}
}

// execute computes one lease and uploads the results. Failures are
// absorbed: a revoked or expired lease is simply abandoned (the
// coordinator has already re-leased it), and an unuploadable one expires
// on its own.
func (w *Worker) execute(ctx context.Context, job JobSpec, ls Lease) {
	rt, err := w.runtime(job)
	if err != nil {
		w.log.Error("lease refused: cannot reconstruct job", "job", job.ID, "err", err)
		sleepCtx(ctx, w.cfg.PollInterval)
		return
	}
	w.log.Debug("lease accepted", "job", job.ID, "phase", ls.Phase,
		"start", ls.Start, "end", ls.End, "epoch", ls.Epoch)

	// Heartbeat for the duration of the compute; a revocation (the
	// coordinator re-leased this range) cancels the compute so the worker
	// moves on instead of burning CPU on fenced-off work.
	computeCtx, cancel := context.WithCancel(ctx)
	hbDone := make(chan struct{})
	go w.heartbeatLoop(computeCtx, cancel, ls, hbDone)

	opt := rt.opt
	opt.Interrupt = computeCtx.Err
	results, err := core.CharacterizeShardRange(rt.meter, rt.name, opt, ls.Phase, ls.Start, ls.End)
	cancel()
	<-hbDone
	if err != nil {
		w.log.Debug("lease abandoned mid-compute", "job", job.ID, "start", ls.Start, "err", err)
		return
	}
	w.upload(ctx, ls, results)
}

// heartbeatLoop extends the lease every TTL/3 until the compute ends or
// the coordinator revokes the lease. RPC errors are tolerated — the TTL
// absorbs a few dropped beats — and only an explicit revocation cancels.
func (w *Worker) heartbeatLoop(ctx context.Context, cancel context.CancelFunc, ls Lease, done chan<- struct{}) {
	defer close(done)
	interval := time.Duration(ls.TTLMs) * time.Millisecond / 3
	if interval <= 0 {
		interval = time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		var resp statusResponse
		err := w.post(ctx, PathHeartbeat, mustJSON(heartbeatRequest{
			Worker: w.cfg.Name, JobID: ls.JobID, Phase: ls.Phase, Start: ls.Start, Epoch: ls.Epoch,
		}), &resp)
		if err != nil {
			w.log.Debug("heartbeat dropped", "job", ls.JobID, "start", ls.Start, "err", err)
			continue
		}
		if resp.Status == statusRevoked {
			w.log.Debug("lease revoked; abandoning compute", "job", ls.JobID, "start", ls.Start)
			cancel()
			return
		}
	}
}

// upload sends the sealed results, retrying transient failures with
// backoff. A fencing rejection (409/410) abandons the lease — the work
// now belongs to someone else. The fleet.upload fault point tears the
// sealed payload in half before the POST, mirroring the torn-write idiom
// of atomicio.WriteFile, so chaos runs exercise the coordinator's
// checksum rejection and the retry path here.
func (w *Worker) upload(ctx context.Context, ls Lease, results []core.ShardResult) {
	body := mustJSON(uploadPayload{
		Worker: w.cfg.Name, JobID: ls.JobID, Phase: ls.Phase,
		Start: ls.Start, End: ls.End, Epoch: ls.Epoch, Results: results,
	})
	for attempt := 0; attempt < maxUploadAttempts; attempt++ {
		sealed := atomicio.Seal(body)
		if err := faultpoint.Hit("fleet.upload"); err != nil {
			w.log.Warn("upload torn by fault injection", "job", ls.JobID, "start", ls.Start)
			sealed = sealed[:len(sealed)/2]
		}
		code, err := w.postRaw(ctx, PathUpload, sealed)
		switch {
		case err == nil && code == http.StatusOK:
			w.log.Debug("upload accepted", "job", ls.JobID, "start", ls.Start, "end", ls.End)
			return
		case err == nil && (code == http.StatusConflict || code == http.StatusGone):
			w.log.Debug("upload fenced off; abandoning", "job", ls.JobID, "start", ls.Start, "code", code)
			return
		}
		w.log.Debug("upload failed; retrying", "job", ls.JobID, "start", ls.Start,
			"code", code, "err", err, "attempt", attempt)
		if !sleepCtx(ctx, Backoff(w.cfg.RetryBase, w.cfg.RetryCap, attempt)) {
			return
		}
	}
	w.log.Warn("upload abandoned after retries; lease will expire and re-lease",
		"job", ls.JobID, "start", ls.Start)
}

// runtime reconstructs (or recalls) the simulation engine for a job and
// verifies its fingerprint: the worker recomputes the run identity from
// first principles and refuses to contribute shards to a build it would
// not reproduce bit-exactly.
func (w *Worker) runtime(job JobSpec) (*jobRuntime, error) {
	if w.job != nil && w.job.fingerprint == job.Fingerprint {
		return w.job, nil
	}
	meter, opt, err := job.resolve()
	if err != nil {
		return nil, err
	}
	if got := meter.NumInputBits(); got != job.InputBits {
		return nil, fmt.Errorf("fleet: %s rebuilds to %d input bits, job says %d",
			job.Name(), got, job.InputBits)
	}
	opt.Workers = w.cfg.Workers
	if fp := core.Fingerprint(job.Name(), job.InputBits, opt); fp != job.Fingerprint {
		return nil, fmt.Errorf("fleet: fingerprint mismatch for %s: coordinator %s, local %s (version skew?)",
			job.Name(), job.Fingerprint, fp)
	}
	w.job = &jobRuntime{fingerprint: job.Fingerprint, name: job.Name(), meter: meter, opt: opt}
	return w.job, nil
}

// --- RPC plumbing --------------------------------------------------

func (w *Worker) lease(ctx context.Context) (*leaseResponse, error) {
	var resp leaseResponse
	if err := w.post(ctx, PathLease, mustJSON(leaseRequest{Worker: w.cfg.Name}), &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// post sends a JSON request and decodes a JSON response, treating any
// non-2xx status as an error (the retry loops above own the policy).
func (w *Worker) post(ctx context.Context, path string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("fleet: %s returned %s", path, resp.Status)
	}
	return json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(out)
}

// postRaw sends an opaque (sealed) body and returns the status code;
// 4xx fencing responses are data, not errors.
func (w *Worker) postRaw(ctx context.Context, path string, body []byte) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	return resp.StatusCode, nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // all payload types marshal by construction
	}
	return b
}

// sleepCtx sleeps for d or until ctx is cancelled; it reports whether
// the full sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
