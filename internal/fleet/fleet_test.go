package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hdpower/internal/atomicio"
	"hdpower/internal/core"
	"hdpower/internal/power"
)

// testFleet is a coordinator behind a real HTTP server whose handlers
// dereference an atomic pointer, so chaos tests can swap in a restarted
// coordinator without moving the URL workers dial.
type testFleet struct {
	cur atomic.Pointer[Coordinator]
	ts  *httptest.Server
}

func newTestFleet(t *testing.T, cfg Config) *testFleet {
	t.Helper()
	f := &testFleet{}
	f.cur.Store(NewCoordinator(cfg))
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathLease, func(w http.ResponseWriter, r *http.Request) {
		f.cur.Load().HandleLease(w, r)
	})
	mux.HandleFunc("POST "+PathHeartbeat, func(w http.ResponseWriter, r *http.Request) {
		f.cur.Load().HandleHeartbeat(w, r)
	})
	mux.HandleFunc("POST "+PathUpload, func(w http.ResponseWriter, r *http.Request) {
		f.cur.Load().HandleUpload(w, r)
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

func (f *testFleet) coordinator() *Coordinator { return f.cur.Load() }

// startWorkers launches n workers against the fleet URL and returns
// their cancel funcs (for mid-build kills).
func startWorkers(t *testing.T, ctx context.Context, url string, n int) []context.CancelFunc {
	t.Helper()
	cancels := make([]context.CancelFunc, n)
	for i := range cancels {
		wctx, cancel := context.WithCancel(ctx)
		cancels[i] = cancel
		w, err := NewWorker(WorkerConfig{
			Coordinator:  url,
			Name:         fmt.Sprintf("w%d", i),
			Workers:      2,
			RetryBase:    5 * time.Millisecond,
			RetryCap:     100 * time.Millisecond,
			PollInterval: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		go w.Run(wctx)
	}
	t.Cleanup(func() {
		for _, c := range cancels {
			c()
		}
	})
	return cancels
}

// waitWorkers waits until at least n workers have registered with c: a
// job started before then finds fewer workers, or none and hands back.
func waitWorkers(t *testing.T, c *Coordinator, n int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); c.met.workersAlive.Value() < n; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d workers registered", c.met.workersAlive.Value(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func singleNode(t testing.TB, spec JobSpec) *core.Model {
	t.Helper()
	meter, err := spec.Meter()
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Characterize(meter, spec.Name(), spec.Options())
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func assertSameModel(t testing.TB, got, want *core.Model, label string) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		t.Fatalf("%s diverges from single-node:\n got %s\nwant %s", label, gj, wj)
	}
}

func TestFleetBitIdentical(t *testing.T) {
	specs := []JobSpec{
		{Module: "ripple-adder", Width: 4, Seed: 7, Patterns: 3000},
		{Module: "ripple-adder", Width: 4, Seed: 7, Patterns: 3000, Enhanced: true, ZClusters: 3},
	}
	for i, spec := range specs {
		t.Run(fmt.Sprintf("spec%d", i), func(t *testing.T) {
			want := singleNode(t, spec)
			f := newTestFleet(t, Config{
				LeaseShards: 4,
				LeaseTTL:    2 * time.Second,
				Tick:        5 * time.Millisecond,
			})
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			startWorkers(t, ctx, f.ts.URL, 3)
			waitWorkers(t, f.coordinator(), 3)
			got, err := f.coordinator().RunJob(ctx, spec, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			assertSameModel(t, got, want, "fleet model")
		})
	}
}

// leaseByHand drives the HTTP API directly, so fencing semantics are
// pinned deterministically rather than via worker timing.
func leaseByHand(t *testing.T, url, worker string) leaseResponse {
	t.Helper()
	body, _ := json.Marshal(leaseRequest{Worker: worker})
	resp, err := http.Post(url+PathLease, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lr leaseResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	return lr
}

func uploadByHand(t *testing.T, url string, payload uploadPayload, seal bool) int {
	t.Helper()
	body, _ := json.Marshal(payload)
	if seal {
		body = atomicio.Seal(body)
	}
	return postUpload(t, url, body)
}

// postUpload POSTs raw bytes as an upload and returns the status code.
func postUpload(t *testing.T, url string, body []byte) int {
	t.Helper()
	resp, err := http.Post(url+PathUpload, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// jobResult is what a RunJob call returned.
type jobResult struct {
	model *core.Model
	err   error
}

// drainByHand leases every range the coordinator at url grants worker,
// computes it honestly on meter and uploads it, until RunJob reports on
// done.
func drainByHand(t *testing.T, url, worker string, job JobSpec, meter *power.Meter, done <-chan jobResult) jobResult {
	t.Helper()
	for {
		select {
		case res := <-done:
			return res
		default:
		}
		lr := leaseByHand(t, url, worker)
		if lr.Status != statusLease {
			time.Sleep(time.Millisecond)
			continue
		}
		ls := *lr.Lease
		rs, err := core.CharacterizeShardRange(meter, job.Name(), job.Options(), ls.Phase, ls.Start, ls.End)
		if err != nil {
			t.Fatal(err)
		}
		if code := uploadByHand(t, url, uploadPayload{
			Worker: worker, JobID: ls.JobID, Phase: ls.Phase,
			Start: ls.Start, End: ls.End, Epoch: ls.Epoch, Results: rs,
		}, true); code != http.StatusOK {
			t.Fatalf("drain upload got %d, want 200", code)
		}
	}
}

// runByHand runs spec on a coordinator of cfg behind a test server, with
// the hand-driven worker "hand" registered before the job starts and
// computing every range it is granted, and returns what RunJob returned.
// cfg's WorkerTTL must outlast the build, or the job hands back.
func runByHand(t *testing.T, cfg Config, spec JobSpec, opts RunOptions) jobResult {
	t.Helper()
	f := newTestFleet(t, cfg)
	leaseByHand(t, f.ts.URL, "hand")
	meter, err := spec.Meter()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan jobResult, 1)
	go func() {
		m, err := f.coordinator().RunJob(ctx, spec, opts)
		done <- jobResult{m, err}
	}()
	return drainByHand(t, f.ts.URL, "hand", spec, meter, done)
}

func TestFleetEpochFencingAndTornUploads(t *testing.T) {
	spec := JobSpec{Module: "ripple-adder", Width: 4, Seed: 5, Patterns: 3000}
	want := singleNode(t, spec)

	const leaseTTL = 120 * time.Millisecond
	f := newTestFleet(t, Config{
		LeaseShards: 8,
		LeaseTTL:    leaseTTL,
		WorkerTTL:   time.Hour, // keep the hand-driven workers "alive" so the job is not handed back
		Tick:        5 * time.Millisecond,
	})
	c := f.coordinator()

	// The zombie registers before the job starts: a job that finds no
	// worker hands back at once.
	leaseByHand(t, f.ts.URL, "zombie")
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	done := make(chan jobResult, 1)
	go func() {
		m, err := c.RunJob(ctx, spec, RunOptions{})
		done <- jobResult{m, err}
	}()

	// Take the first lease and sit on it past its TTL.
	var first leaseResponse
	for deadline := time.Now().Add(10 * time.Second); ; {
		first = leaseByHand(t, f.ts.URL, "zombie")
		if first.Status == statusLease {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("never got a lease")
		}
		time.Sleep(5 * time.Millisecond)
	}
	job, ls := *first.Job, *first.Lease
	meter, err := job.Meter()
	if err != nil {
		t.Fatal(err)
	}
	results, err := core.CharacterizeShardRange(meter, job.Name(), job.Options(),
		ls.Phase, ls.Start, ls.End)
	if err != nil {
		t.Fatal(err)
	}

	// A torn upload (no checksum trailer survives truncation) is rejected
	// outright and never staged.
	sealed := atomicio.Seal(mustJSON(uploadPayload{
		Worker: "zombie", JobID: ls.JobID, Phase: ls.Phase,
		Start: ls.Start, End: ls.End, Epoch: ls.Epoch, Results: results,
	}))
	if code := postUpload(t, f.ts.URL, sealed[:len(sealed)/2]); code != http.StatusBadRequest {
		t.Fatalf("torn upload got %d, want 400", code)
	}
	if c.met.tornUploads.Value() == 0 {
		t.Fatal("torn upload not counted")
	}

	// Let the lease expire, then have a second worker re-lease the range.
	time.Sleep(leaseTTL + 50*time.Millisecond)
	var second leaseResponse
	for deadline := time.Now().Add(10 * time.Second); ; {
		second = leaseByHand(t, f.ts.URL, "fresh")
		if second.Status == statusLease && second.Lease.Start == ls.Start {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("range %d never re-leased (last: %+v)", ls.Start, second)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if second.Lease.Epoch <= ls.Epoch {
		t.Fatalf("re-lease epoch %d not above expired epoch %d", second.Lease.Epoch, ls.Epoch)
	}

	// The zombie's late (intact) upload quotes the dead epoch: fenced.
	if code := uploadByHand(t, f.ts.URL, uploadPayload{
		Worker: "zombie", JobID: ls.JobID, Phase: ls.Phase,
		Start: ls.Start, End: ls.End, Epoch: ls.Epoch, Results: results,
	}, true); code != http.StatusConflict {
		t.Fatalf("zombie upload got %d, want 409", code)
	}
	if c.met.zombieRejected.Value() == 0 {
		t.Fatal("zombie upload not counted")
	}

	// The fresh holder's upload lands, and the build completes: drain the
	// remaining leases by hand with the fresh worker.
	if code := uploadByHand(t, f.ts.URL, uploadPayload{
		Worker: "fresh", JobID: ls.JobID, Phase: ls.Phase,
		Start: ls.Start, End: ls.End, Epoch: second.Lease.Epoch, Results: results,
	}, true); code != http.StatusOK {
		t.Fatalf("fresh upload got %d, want 200", code)
	}
	res := drainByHand(t, f.ts.URL, "fresh", job, meter, done)
	if res.err != nil {
		t.Fatal(res.err)
	}
	assertSameModel(t, res.model, want, "fenced fleet model")
}

func TestFleetCheckpointResume(t *testing.T) {
	// Cancel a fleet build mid-plan, then resume it on a brand-new
	// coordinator from the saved checkpoint: the final model must still be
	// bit-identical, and the resumed session must not restart from shard 0.
	spec := JobSpec{Module: "ripple-adder", Width: 4, Seed: 9, Patterns: 4000, Enhanced: true}
	want := singleNode(t, spec)
	path := filepath.Join(t.TempDir(), "job.ckpt.json")
	cfg := Config{LeaseShards: 2, Tick: time.Millisecond}
	f := newTestFleet(t, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	startWorkers(t, ctx, f.ts.URL, 2)
	waitWorkers(t, f.coordinator(), 2)

	// The build is cancelled from its own merge hook once 4 shards are
	// merged, so the workers cannot finish it first.
	ctx1, cancel1 := context.WithCancel(ctx)
	merged := 0
	hooks := &core.Hooks{ShardMerged: func() {
		if merged++; merged == 4 {
			cancel1()
		}
	}}
	if _, err := f.coordinator().RunJob(ctx1, spec, RunOptions{Hooks: hooks, CheckpointPath: path}); err == nil {
		t.Fatal("cancelled build returned nil error")
	}
	if merged < 4 {
		t.Fatal("build made no progress")
	}

	var resumed atomic.Bool
	c2 := NewCoordinator(cfg)
	f.cur.Store(c2)
	waitWorkers(t, c2, 2)
	got, err := c2.RunJob(ctx, spec, RunOptions{
		Hooks: &core.Hooks{
			Resumed: func(phase string, shards, pb, pbia int) {
				if shards > 0 {
					resumed.Store(true)
				}
			},
		},
		CheckpointPath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Load() {
		t.Fatal("restarted coordinator did not resume from the checkpoint")
	}
	assertSameModel(t, got, want, "resumed fleet model")
}

// TestFleetRefusesUnknownBackend holds the coordinator and the workers to
// what core.Characterize does with an unknown backend: refuse it at once.
// Otherwise every shard range fails inside CharacterizeShardRange and is
// leased again until the build's deadline, and a worker accepts the job
// because the fingerprint hashes whatever backend string it is given.
func TestFleetRefusesUnknownBackend(t *testing.T) {
	spec := JobSpec{Module: "ripple-adder", Width: 4, Seed: 1, Patterns: 512, Backend: "bogus"}
	f := newTestFleet(t, Config{LeaseShards: 4, Tick: time.Millisecond})
	c := f.coordinator()
	// A live worker takes the job past the worker check to its recipe.
	leaseByHand(t, f.ts.URL, "hand")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	_, err := c.RunJob(ctx, spec, RunOptions{})
	if err == nil || ctx.Err() != nil || time.Since(start) > time.Second {
		t.Fatalf("RunJob = %v after %v, want a refusal well before the 2s deadline",
			err, time.Since(start))
	}
	if !strings.Contains(err.Error(), "unknown backend") {
		t.Errorf("RunJob error %q does not name the backend", err)
	}

	w, err := NewWorker(WorkerConfig{Coordinator: "http://unused", Name: "w0"})
	if err != nil {
		t.Fatal(err)
	}
	job := spec
	job.InputBits = 8
	job.Fingerprint = core.Fingerprint(job.Name(), job.InputBits, job.Options())
	if _, err := w.runtime(job); err == nil {
		t.Fatal("worker accepted a job with an unknown backend")
	}
	if w.job != nil {
		t.Fatal("worker kept a runtime for a refused job")
	}
}

func TestFleetRefusesFingerprintSkew(t *testing.T) {
	spec := JobSpec{Module: "ripple-adder", Width: 4, Seed: 1, Patterns: 2000}
	w, err := NewWorker(WorkerConfig{Coordinator: "http://unused", Name: "w0"})
	if err != nil {
		t.Fatal(err)
	}
	good := spec
	good.InputBits = 8
	good.Fingerprint = core.Fingerprint(good.Name(), good.InputBits, good.Options())
	if _, err := w.runtime(good); err != nil {
		t.Fatalf("matching fingerprint refused: %v", err)
	}
	bad := good
	bad.Fingerprint = "deadbeefdeadbeefdeadbeef"
	bad.Seed = 2 // runtime cache is keyed by fingerprint; change identity too
	if _, err := w.runtime(bad); err == nil {
		t.Fatal("fingerprint skew accepted")
	}
	// A self-consistent fingerprint over a lie about the geometry: the
	// rebuilt meter's input width exposes it.
	short := good
	short.InputBits = 4
	short.Fingerprint = core.Fingerprint(short.Name(), short.InputBits, short.Options())
	if _, err := w.runtime(short); err == nil {
		t.Fatal("geometry skew accepted")
	}
}

// TestFleetWorkerHoldsOneRuntime: a worker keeps the runtime of the job
// it last leased only, so one that has served two jobs holds the second
// job's netlist and not the first's.
func TestFleetWorkerHoldsOneRuntime(t *testing.T) {
	f := newTestFleet(t, Config{LeaseShards: 4, Tick: time.Millisecond})
	w, err := NewWorker(WorkerConfig{
		Coordinator: f.ts.URL, Name: "w0", Workers: 2,
		RetryBase: 5 * time.Millisecond, RetryCap: 100 * time.Millisecond, PollInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	wctx, stop := context.WithCancel(ctx)
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		w.Run(wctx)
	}()
	waitWorkers(t, f.coordinator(), 1)
	var last JobSpec
	for _, seed := range []int64{1, 2} {
		last = JobSpec{Module: "ripple-adder", Width: 4, Seed: seed, Patterns: 1024}
		got, err := f.coordinator().RunJob(ctx, last, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		assertSameModel(t, got, singleNode(t, last), fmt.Sprintf("fleet model of seed %d", seed))
	}
	stop()
	<-exited
	if fp := core.Fingerprint(last.Name(), 8, last.Options()); w.job == nil || w.job.fingerprint != fp {
		t.Fatalf("worker holds %+v after two jobs, want only the runtime of the second (%s)", w.job, fp)
	}
}

// TestJobMeterRefusesUnbuildableWidth: a job naming a width the catalog
// does not build gets an error from Meter, not a panic in the worker or
// the coordinator that reconstructs it.
func TestJobMeterRefusesUnbuildableWidth(t *testing.T) {
	for _, w := range []int{5, 2} {
		job := JobSpec{Module: "booth-wallace-multiplier", Width: w, Seed: 1, Patterns: 512}
		if _, err := job.Meter(); err == nil {
			t.Errorf("width %d: meter built", w)
		}
	}
	job := JobSpec{Module: "booth-wallace-multiplier", Width: 6, Seed: 1, Patterns: 512}
	if _, err := job.Meter(); err != nil {
		t.Errorf("width 6: %v", err)
	}
}

// TestCheckpointPath: a job checkpoints to <module>-w<width>-s<seed>.ckpt.json
// in the directory it is given, and nowhere without one.
func TestCheckpointPath(t *testing.T) {
	job := JobSpec{Module: "ripple-adder", Width: 8, Seed: 3}
	if got, want := job.CheckpointPath("ckpt"), filepath.Join("ckpt", "ripple-adder-w8-s3.ckpt.json"); got != want {
		t.Errorf("CheckpointPath = %q, want %q", got, want)
	}
	if got := job.CheckpointPath(""); got != "" {
		t.Errorf("CheckpointPath without a directory = %q, want empty", got)
	}
}
