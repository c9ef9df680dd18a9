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

func singleNode(t testing.TB, spec JobSpec) *core.Model {
	t.Helper()
	meter, err := spec.buildMeter()
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Characterize(meter, spec.moduleName(), spec.options())
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
			got, err := f.coordinator().RunJob(ctx, spec, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			assertSameModel(t, got, want, "fleet model")
		})
	}
}

func TestFleetLocalDegradation(t *testing.T) {
	// No workers ever register: the coordinator must compute every range
	// itself and still match single-node bit-exactly.
	spec := JobSpec{Module: "ripple-adder", Width: 4, Seed: 11, Patterns: 2000, Enhanced: true}
	want := singleNode(t, spec)
	c := NewCoordinator(Config{LeaseShards: 4, Tick: time.Millisecond, LocalWorkers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	got, err := c.RunJob(ctx, spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameModel(t, got, want, "worker-less fleet model")
	if c.met.localRanges.Value() == 0 {
		t.Fatal("no ranges were computed locally")
	}
	if c.met.leasesGranted.Value() != 0 {
		t.Fatal("leases granted with no workers registered")
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
		rs, err := core.CharacterizeShardRange(meter, job.moduleName(), job.options(), ls.Phase, ls.Start, ls.End)
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

func TestFleetEpochFencingAndTornUploads(t *testing.T) {
	spec := JobSpec{Module: "ripple-adder", Width: 4, Seed: 5, Patterns: 3000}
	want := singleNode(t, spec)

	const leaseTTL = 120 * time.Millisecond
	f := newTestFleet(t, Config{
		LeaseShards: 8,
		LeaseTTL:    leaseTTL,
		WorkerTTL:   time.Hour, // keep the hand-driven worker "alive" so no local fallback
		Tick:        5 * time.Millisecond,
	})
	c := f.coordinator()

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
	meter, err := job.buildMeter()
	if err != nil {
		t.Fatal(err)
	}
	results, err := core.CharacterizeShardRange(meter, job.moduleName(), job.options(),
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

func TestFleetLedgerResume(t *testing.T) {
	// Cancel a fleet build mid-plan, then resume it on a brand-new
	// coordinator from the persisted ledger: the final model must still be
	// bit-identical, and the resumed session must not restart from shard 0.
	spec := JobSpec{Module: "ripple-adder", Width: 4, Seed: 9, Patterns: 4000, Enhanced: true}
	want := singleNode(t, spec)
	ledgerPath := filepath.Join(t.TempDir(), "job.fleet.json")

	var merged atomic.Int64
	hooks := &core.Hooks{ShardMerged: func() { merged.Add(1) }}

	c1 := NewCoordinator(Config{LeaseShards: 2, Tick: time.Millisecond, LocalWorkers: 2})
	ctx1, cancel1 := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c1.RunJob(ctx1, spec, RunOptions{Hooks: hooks, LedgerPath: ledgerPath})
		done <- err
	}()
	for deadline := time.Now().Add(30 * time.Second); merged.Load() < 4; {
		if time.Now().After(deadline) {
			t.Fatal("build made no progress")
		}
		time.Sleep(time.Millisecond)
	}
	cancel1()
	if err := <-done; err == nil {
		t.Fatal("cancelled build returned nil error")
	}

	var resumed atomic.Bool
	c2 := NewCoordinator(Config{LeaseShards: 2, Tick: time.Millisecond, LocalWorkers: 2})
	got, err := c2.RunJob(context.Background(), spec, RunOptions{
		Hooks: &core.Hooks{
			Resumed: func(phase string, shards, pb, pbia int) {
				if shards > 0 {
					resumed.Store(true)
				}
			},
		},
		LedgerPath: ledgerPath,
		Resume:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Load() {
		t.Fatal("restarted coordinator did not resume from the ledger")
	}
	assertSameModel(t, got, want, "resumed fleet model")
}

func TestFleetRefusesFingerprintSkew(t *testing.T) {
	spec := JobSpec{Module: "ripple-adder", Width: 4, Seed: 1, Patterns: 2000}
	w, err := NewWorker(WorkerConfig{Coordinator: "http://unused", Name: "w0"})
	if err != nil {
		t.Fatal(err)
	}
	good := spec
	good.InputBits = 8
	good.Fingerprint = core.Fingerprint(good.moduleName(), good.InputBits, good.options())
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
	short.Fingerprint = core.Fingerprint(short.moduleName(), short.InputBits, short.options())
	if _, err := w.runtime(short); err == nil {
		t.Fatal("geometry skew accepted")
	}
}
