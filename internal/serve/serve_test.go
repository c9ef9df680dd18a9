package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"hdpower/internal/core"
	"hdpower/internal/dwlib"
	"hdpower/internal/fleet"
	"hdpower/internal/hddist"
	"hdpower/internal/power"
	"hdpower/internal/sim"
	"hdpower/internal/stats"
)

// newTestServer builds a server plus an httptest front-end and tears both
// down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// postRaw posts a body verbatim (for malformed-JSON cases).
func postRaw(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func decode[T any](t *testing.T, data []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("decode %q: %v", data, err)
	}
	return v
}

// fakeModel builds a minimal valid model for injected-build tests.
func fakeModel(m int) *core.Model {
	model := &core.Model{Module: "fake", InputBits: m, Basic: make([]core.Coef, m)}
	for i := range model.Basic {
		model.Basic[i] = core.Coef{P: float64(i + 1), Count: 10}
	}
	return model
}

// instantBuilds injects a build backend that returns fakeModel at once.
func instantBuilds(m int) func(context.Context, BuildSpec, *core.Hooks) (*core.Model, error) {
	return func(context.Context, BuildSpec, *core.Hooks) (*core.Model, error) {
		return fakeModel(m), nil
	}
}

// gatedBuilds injects a build backend that blocks until released; entered
// receives one tick per build invocation.
func gatedBuilds(m int) (build func(context.Context, BuildSpec, *core.Hooks) (*core.Model, error), entered chan string, release chan struct{}) {
	entered = make(chan string, 64)
	release = make(chan struct{})
	build = func(ctx context.Context, spec BuildSpec, _ *core.Hooks) (*core.Model, error) {
		entered <- spec.Key()
		select {
		case <-release:
			return fakeModel(m), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return build, entered, release
}

const tinySpecJSON = `{"module":"ripple-adder","width":2,"seed":7,"patterns":512}`

func tinySpec() BuildSpec {
	return BuildSpec{Module: "ripple-adder", Width: 2, Seed: 7, Patterns: 512}
}

// TestEndToEndEstimate runs the real pipeline: build a small model through
// the characterization engine, then check the served estimates against a
// direct core.Characterize run (deterministic => identical coefficients),
// in both hd and words modes.
func TestEndToEndEstimate(t *testing.T) {
	_, ts := newTestServer(t, Config{CharWorkers: 2})

	resp, data := postJSON(t, ts.URL+"/v1/models/build",
		map[string]any{"module": "ripple-adder", "width": 2, "seed": 7, "patterns": 512, "wait": true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("build: %d %s", resp.StatusCode, data)
	}
	if br := decode[buildResponse](t, data); br.Status != statusReady {
		t.Fatalf("build status %q", br.Status)
	}

	// Reference model, fitted directly.
	mod, err := dwlib.Lookup("ripple-adder")
	if err != nil {
		t.Fatal(err)
	}
	nl := mod.Build(2)
	if err := nl.Finalize(); err != nil {
		t.Fatal(err)
	}
	meter, err := power.NewMeter(nl, sim.EventDriven)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.Characterize(meter, "ref", core.CharacterizeOptions{Patterns: 512, Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	hds := []int{0, 1, 2, 3, 4, 4, 1}
	resp, data = postJSON(t, ts.URL+"/v1/estimate",
		map[string]any{"model": tinySpec(), "hd": hds})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate: %d %s", resp.StatusCode, data)
	}
	er := decode[estimateResponse](t, data)
	if er.Cycles != len(hds) {
		t.Fatalf("cycles = %d, want %d", er.Cycles, len(hds))
	}
	for i, hd := range hds {
		if want := ref.P(hd); math.Abs(er.Estimates[i]-want) > 1e-12 {
			t.Errorf("estimate[%d] (hd %d) = %v, want %v", i, hd, er.Estimates[i], want)
		}
	}

	// Words mode: consecutive 4-bit input vectors.
	resp, data = postJSON(t, ts.URL+"/v1/estimate",
		map[string]any{"model": tinySpec(), "words": []uint64{0b0000, 0b1111, 0b1110}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("words estimate: %d %s", resp.StatusCode, data)
	}
	er = decode[estimateResponse](t, data)
	if er.Cycles != 2 {
		t.Fatalf("words cycles = %d, want 2", er.Cycles)
	}
	for i, hd := range []int{4, 1} {
		if want := ref.P(hd); math.Abs(er.Estimates[i]-want) > 1e-12 {
			t.Errorf("words estimate[%d] = %v, want p_%d = %v", i, er.Estimates[i], hd, want)
		}
	}

	// The model inventory reports it ready.
	listResp, listData := postGet(t, ts.URL+"/v1/models")
	if listResp.StatusCode != http.StatusOK {
		t.Fatalf("models: %d", listResp.StatusCode)
	}
	lr := decode[modelsResponse](t, listData)
	if len(lr.Models) != 1 || lr.Models[0].Status != statusReady || lr.Models[0].BasicCoefs != 4 {
		t.Fatalf("models = %+v", lr.Models)
	}
}

func postGet(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestEstimateStats checks the closed-form endpoint against a direct
// evaluation of the same pipeline.
func TestEstimateStats(t *testing.T) {
	s, ts := newTestServer(t, Config{BuildFunc: instantBuilds(4)})
	resp, data := postJSON(t, ts.URL+"/v1/models/build",
		map[string]any{"module": "ripple-adder", "width": 2, "seed": 7, "wait": true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("build: %d %s", resp.StatusCode, data)
	}

	req := map[string]any{
		"model": BuildSpec{Module: "ripple-adder", Width: 2, Seed: 7},
		"mean":  0.5, "std": 1.25, "rho": 0.3, "width": 2, "n": 2000,
	}
	resp, data = postJSON(t, ts.URL+"/v1/estimate/stats", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d %s", resp.StatusCode, data)
	}
	sr := decode[statsResponse](t, data)

	ws := stats.WordStats{N: 2000, Mean: 0.5, Std: 1.25, Rho: 0.3}
	port := hddist.FromWordStats(ws, 2)
	dist := hddist.Convolve(port, port) // 2 ports of 2 bits = 4 input bits
	want, err := fakeModel(4).AvgFromDist(dist)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sr.AvgCharge-want) > 1e-12 {
		t.Fatalf("avg charge = %v, want %v", sr.AvgCharge, want)
	}
	if math.Abs(sr.AvgHd-dist.Mean()) > 1e-12 {
		t.Fatalf("avg hd = %v, want %v", sr.AvgHd, dist.Mean())
	}

	// The sample count does not affect the answer, so a query that
	// differs only in n is answered from the memoized distribution.
	_, misses, _ := s.distMemo.Stats()
	req["n"] = 64
	resp, again := postJSON(t, ts.URL+"/v1/estimate/stats", req)
	if resp.StatusCode != http.StatusOK || string(again) != string(data) {
		t.Fatalf("stats with n=64: %d %s, want the n=2000 answer %s", resp.StatusCode, again, data)
	}
	if hits, missesAfter, _ := s.distMemo.Stats(); hits != 1 || missesAfter != misses {
		t.Fatalf("memo hits/misses %d/%d after a query differing only in n, want 1/%d",
			hits, missesAfter, misses)
	}
}

// TestSingleflight fires concurrent duplicate build requests and verifies
// exactly one build executes, with the rest observable as dedups in the
// metrics.
func TestSingleflight(t *testing.T) {
	build, entered, release := gatedBuilds(4)
	s, ts := newTestServer(t, Config{BuildFunc: build, BuildWorkers: 1, BuildQueue: 8})

	const dup = 6
	var wg sync.WaitGroup
	codes := make([]int, dup)
	for i := 0; i < dup; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			raw := []byte(tinySpecJSON)
			resp, err := http.Post(ts.URL+"/v1/models/build", "application/json", bytes.NewReader(raw))
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	close(release)

	// Exactly one build entered the backend.
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("no build started")
	}
	select {
	case key := <-entered:
		t.Fatalf("second build started for %s", key)
	case <-time.After(50 * time.Millisecond):
	}

	accepted := 0
	for _, c := range codes {
		if c == http.StatusAccepted {
			accepted++
		} else {
			t.Errorf("unexpected status %d", c)
		}
	}
	if accepted != dup {
		t.Fatalf("accepted %d of %d", accepted, dup)
	}
	if got := s.met.buildsRun.Value(); got != 1 {
		t.Errorf("builds run = %d, want 1", got)
	}
	if got := s.met.buildsDeduped.Value(); got != dup-1 {
		t.Errorf("dedups = %d, want %d", got, dup-1)
	}

	// The singleflight is observable on /metrics.
	_, metData := postGet(t, ts.URL+"/metrics")
	out := string(metData)
	for _, want := range []string{
		"hdserve_model_builds_total 1",
		fmt.Sprintf("hdserve_model_build_dedup_total %d", dup-1),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestBackpressure429 saturates the single-worker, depth-1 queue and
// expects the third distinct build to bounce with 429.
func TestBackpressure429(t *testing.T) {
	build, entered, release := gatedBuilds(4)
	defer close(release)
	s, ts := newTestServer(t, Config{BuildFunc: build, BuildWorkers: 1, BuildQueue: 1})

	specs := []string{
		`{"module":"ripple-adder","width":2,"seed":1}`,
		`{"module":"ripple-adder","width":2,"seed":2}`,
		`{"module":"ripple-adder","width":2,"seed":3}`,
	}
	// First build occupies the worker...
	resp, data := postJSON(t, ts.URL+"/v1/models/build", json.RawMessage(specs[0]))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first build: %d %s", resp.StatusCode, data)
	}
	<-entered
	// ...second fills the queue...
	resp, data = postJSON(t, ts.URL+"/v1/models/build", json.RawMessage(specs[1]))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second build: %d %s", resp.StatusCode, data)
	}
	// ...third has nowhere to go.
	resp, data = postJSON(t, ts.URL+"/v1/models/build", json.RawMessage(specs[2]))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third build: %d %s, want 429", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if got := s.met.queueRejected.Value(); got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
	// The rejected spec can retry once capacity frees up; abandon() must
	// not have left a phantom in-flight entry behind.
	if _, ok := s.cache.builds[(BuildSpec{Module: "ripple-adder", Width: 2, Seed: 3}).modelKey()]; ok {
		t.Error("rejected build left a cache entry")
	}
}

// TestRequestTimeout bounds a wait=true build poll by the request
// timeout: the response must be 504 while the build keeps running.
func TestRequestTimeout(t *testing.T) {
	build, _, release := gatedBuilds(4)
	defer close(release)
	_, ts := newTestServer(t, Config{BuildFunc: build, RequestTimeout: 60 * time.Millisecond})

	start := time.Now()
	resp, data := postJSON(t, ts.URL+"/v1/models/build",
		map[string]any{"module": "ripple-adder", "width": 2, "seed": 1, "wait": true})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("wait timeout: %d %s, want 504", resp.StatusCode, data)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
}

// TestGracefulDrain verifies Drain blocks on the in-flight build, refuses
// new work, flips readiness, and completes once the build lands.
func TestGracefulDrain(t *testing.T) {
	build, entered, release := gatedBuilds(4)
	s, ts := newTestServer(t, Config{BuildFunc: build})

	resp, data := postJSON(t, ts.URL+"/v1/models/build", json.RawMessage(tinySpecJSON))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("build: %d %s", resp.StatusCode, data)
	}
	<-entered // the build is now in-flight

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()

	// Drain must not return while the build runs.
	select {
	case err := <-drained:
		t.Fatalf("drain returned early: %v", err)
	case <-time.After(60 * time.Millisecond):
	}

	// Readiness is down; new builds are refused; estimates still work
	// against cached models (none here, so 404 — but not 503).
	if resp, _ := postGet(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain = %d, want 503", resp.StatusCode)
	}
	if resp, _ := postGet(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz during drain = %d, want 200", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/models/build",
		map[string]any{"module": "ripple-adder", "width": 2, "seed": 99})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("build during drain = %d, want 503", resp.StatusCode)
	}

	close(release)
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain never completed")
	}
	// The drained build's model landed in the cache.
	if _, _, ok := s.cache.readyEntrySpec(tinySpec().modelKey()); !ok {
		t.Error("in-flight build was dropped instead of drained")
	}
}

// TestDrainDeadline pins that a drain bounded by an expired context
// reports the deadline instead of hanging.
func TestDrainDeadline(t *testing.T) {
	build, entered, release := gatedBuilds(4)
	defer close(release)
	s, ts := newTestServer(t, Config{BuildFunc: build})
	postJSON(t, ts.URL+"/v1/models/build", json.RawMessage(tinySpecJSON))
	<-entered
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Fatal("drain with blocked build and expired deadline returned nil")
	}
}

// TestLRUEviction fills the model cache beyond capacity and checks the
// oldest model is evicted and re-buildable.
func TestLRUEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{BuildFunc: instantBuilds(4), ModelCache: 2})
	for seed := 1; seed <= 3; seed++ {
		resp, data := postJSON(t, ts.URL+"/v1/models/build",
			map[string]any{"module": "ripple-adder", "width": 2, "seed": seed, "wait": true})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("build seed %d: %d %s", seed, resp.StatusCode, data)
		}
	}
	if got := s.met.cacheEvicted.Value(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	// Seed 1 was the LRU victim: estimating against it no longer gets the
	// exact model — the cached siblings answer, marked degraded.
	resp, data := postJSON(t, ts.URL+"/v1/estimate",
		map[string]any{"model": map[string]any{"module": "ripple-adder", "width": 2, "seed": 1}, "hd": []int{1}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evicted estimate: %d %s", resp.StatusCode, data)
	}
	if er := decode[estimateResponse](t, data); !er.Degraded {
		t.Fatalf("evicted estimate served non-degraded: %+v", er)
	}
	// Seeds 2 and 3 still serve exactly.
	resp, data = postJSON(t, ts.URL+"/v1/estimate",
		map[string]any{"model": map[string]any{"module": "ripple-adder", "width": 2, "seed": 3}, "hd": []int{1}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached estimate: %d", resp.StatusCode)
	}
	if er := decode[estimateResponse](t, data); er.Degraded {
		t.Fatalf("cached estimate marked degraded: %+v", er)
	}
}

// TestLRURecency pins the model cache's recency rule: a build request for
// a ready key refreshes it, a rebuild settles in the place of the model it
// replaces, estimates refresh nothing, and GET /v1/models lists the ready
// models newest first.
func TestLRURecency(t *testing.T) {
	eps := []float64{0.5, 0.02, 0.10, 0.10}
	s, ts := newTestServer(t, Config{
		BuildFunc:          epsBuilds(4, eps),
		ModelCache:         2,
		RefineMinEstimates: 1,
	})
	build := func(seed int64) {
		t.Helper()
		buildReady(t, ts.URL, map[string]any{"module": "ripple-adder", "width": 2, "seed": seed})
	}
	// estimate prices a batch against seed 1, exact or degraded.
	estimate := func() {
		t.Helper()
		resp, data := postJSON(t, ts.URL+"/v1/estimate", map[string]any{
			"model": map[string]any{"module": "ripple-adder", "width": 2, "seed": 1}, "hd": []int{1, 3}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("estimate against seed 1: %d %s", resp.StatusCode, data)
		}
	}
	// listing renders GET /v1/models as key, status and pattern budget.
	listing := func() []string {
		t.Helper()
		_, data := httpGet(t, ts.URL+"/v1/models")
		var got []string
		for _, m := range decode[modelsResponse](t, data).Models {
			got = append(got, fmt.Sprintf("%s %s %d", m.Key, m.Status, m.Spec.Patterns))
		}
		return got
	}
	expect := func(want ...string) {
		t.Helper()
		if got := listing(); !slices.Equal(got, want) {
			t.Fatalf("GET /v1/models lists %q, want %q", got, want)
		}
	}

	// A build request for ready seed 1 moves it ahead of seed 2.
	build(1)
	estimate()
	build(2)
	estimate()
	build(1)
	estimate()
	build(3)
	estimate()
	if got := s.met.cacheEvicted.Value(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	expect("ripple-adder/w2/s3 ready 5000", "ripple-adder/w2/s1 ready 5000")

	// A rebuild of seed 1 settles behind seed 3, where the model it
	// replaces stood, so the next build evicts seed 1.
	heatModel(s, 1)
	s.refineOnce()
	if n := s.met.refineBuilds.Value(); n != 1 {
		t.Fatalf("refine builds = %d, want 1", n)
	}
	rebuilt := []string{"ripple-adder/w2/s3 ready 5000", "ripple-adder/w2/s1 ready 10000"}
	for deadline := time.Now().Add(5 * time.Second); !slices.Equal(listing(), rebuilt); {
		if time.Now().After(deadline) {
			t.Fatalf("GET /v1/models lists %q, want %q once the rebuild settles", listing(), rebuilt)
		}
		time.Sleep(5 * time.Millisecond)
	}
	estimate()
	build(4)
	estimate()
	if got := s.met.cacheEvicted.Value(); got != 2 {
		t.Fatalf("evictions = %d, want 2", got)
	}
	expect("ripple-adder/w2/s4 ready 5000", "ripple-adder/w2/s3 ready 5000")
}

// TestFailedBuildsBounded: the cache keeps at most ModelCache failed
// builds, forgetting the one that settled first, so builds of distinct
// keys that keep failing do not grow GET /v1/models; a forgotten build's
// progress endpoint answers 404 like any unknown id.
func TestFailedBuildsBounded(t *testing.T) {
	_, ts := newTestServer(t, Config{
		ModelCache:   2,
		BuildWorkers: 4,
		BuildRetries: -1,
		BuildFunc: func(context.Context, BuildSpec, *core.Hooks) (*core.Model, error) {
			return nil, fmt.Errorf("synthetic failure")
		},
	})
	const builds = 20
	for seed := 1; seed <= builds; seed++ {
		spec := BuildSpec{Module: "ripple-adder", Width: 2, Seed: int64(seed)}
		if resp, data := buildWait(t, ts.URL, spec); resp.StatusCode == http.StatusOK {
			t.Fatalf("build seed %d succeeded: %s", seed, data)
		}
	}
	_, data := httpGet(t, ts.URL+"/v1/models")
	var keys []string
	for _, m := range decode[modelsResponse](t, data).Models {
		if m.Status != statusFailed {
			t.Errorf("model %s listed %q, want failed", m.Key, m.Status)
		}
		keys = append(keys, m.Key)
	}
	last := BuildSpec{Module: "ripple-adder", Width: 2, Seed: builds}.Key()
	if len(keys) > 2 || !slices.Contains(keys, last) {
		t.Fatalf("GET /v1/models lists %q, want at most 2 failed builds, %s among them", keys, last)
	}
	first := fleet.BuildID("ripple-adder", 2, 1)
	if resp, data := httpGet(t, ts.URL+"/v1/models/build/"+first); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("progress of a forgotten build: %d %s, want 404", resp.StatusCode, data)
	}

	// Failures that settle on several build workers at once are bounded
	// the same way.
	var wg sync.WaitGroup
	for seed := builds + 1; seed <= 2*builds; seed++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := fmt.Sprintf(`{"module":"ripple-adder","width":2,"seed":%d,"wait":true}`, seed)
			resp, err := http.Post(ts.URL+"/v1/models/build", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
		}()
	}
	wg.Wait()
	_, data = httpGet(t, ts.URL+"/v1/models")
	if n := len(decode[modelsResponse](t, data).Models); n > 2 {
		t.Fatalf("GET /v1/models lists %d failed builds after concurrent failures, want at most 2", n)
	}
}

// TestFailedBuildRetries verifies a failed build reports its error on
// wait, shows up as failed in the inventory, and does not poison the key.
func TestFailedBuildRetries(t *testing.T) {
	calls := 0
	var mu sync.Mutex
	s, ts := newTestServer(t, Config{
		BuildRetries: -1, // client-visible failure semantics, not auto-retry
		BuildFunc: func(ctx context.Context, spec BuildSpec, _ *core.Hooks) (*core.Model, error) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			if calls == 1 {
				return nil, fmt.Errorf("synthetic failure")
			}
			return fakeModel(4), nil
		},
	})
	resp, data := postJSON(t, ts.URL+"/v1/models/build",
		map[string]any{"module": "ripple-adder", "width": 2, "seed": 1, "wait": true})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failed build: %d %s", resp.StatusCode, data)
	}
	if br := decode[buildResponse](t, data); !strings.Contains(br.Error, "synthetic failure") {
		t.Fatalf("error not surfaced: %+v", br)
	}
	if got := s.met.buildsFailed.Value(); got != 1 {
		t.Errorf("failed builds = %d, want 1", got)
	}
	// Retry succeeds: failed entries are replaced, not cached.
	resp, data = postJSON(t, ts.URL+"/v1/models/build",
		map[string]any{"module": "ripple-adder", "width": 2, "seed": 1, "wait": true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry: %d %s", resp.StatusCode, data)
	}
}

// TestValidation sweeps the 4xx surface.
func TestValidation(t *testing.T) {
	s, ts := newTestServer(t, Config{BuildFunc: instantBuilds(4), MaxBodyBytes: 256})

	// Ready model for the estimate cases.
	postJSON(t, ts.URL+"/v1/models/build",
		map[string]any{"module": "ripple-adder", "width": 2, "seed": 7, "wait": true})

	cases := []struct {
		name string
		url  string
		body string
		want int
	}{
		{"unknown module", "/v1/models/build", `{"module":"warp-core","width":8}`, 400},
		{"width too small", "/v1/models/build", `{"module":"ripple-adder","width":0}`, 400},
		{"width too large", "/v1/models/build", `{"module":"ripple-adder","width":99}`, 400},
		{"negative patterns", "/v1/models/build", `{"module":"ripple-adder","width":2,"patterns":-5}`, 400},
		{"malformed json", "/v1/models/build", `{"module":`, 400},
		{"unknown field", "/v1/models/build", `{"module":"ripple-adder","width":2,"frobnicate":1}`, 400},
		{"estimate no model", "/v1/estimate", `{"model":{"module":"cla-adder","width":4,"seed":1},"hd":[1]}`, 404},
		{"estimate no input", "/v1/estimate", `{"model":` + tinySpecJSON + `}`, 400},
		{"estimate both inputs", "/v1/estimate", `{"model":` + tinySpecJSON + `,"hd":[1],"words":[1,2]}`, 400},
		{"hd out of range", "/v1/estimate", `{"model":` + tinySpecJSON + `,"hd":[5]}`, 400},
		{"stable zeros out of range", "/v1/estimate", `{"model":` + tinySpecJSON + `,"hd":[3],"stable_zeros":[2]}`, 400},
		{"word too wide", "/v1/estimate", `{"model":` + tinySpecJSON + `,"words":[16,1]}`, 400},
		{"one word", "/v1/estimate", `{"model":` + tinySpecJSON + `,"words":[3]}`, 400},
		{"stats zero std", "/v1/estimate/stats", `{"model":` + tinySpecJSON + `,"mean":1,"std":0,"rho":0,"width":2}`, 400},
		{"stats bad rho", "/v1/estimate/stats", `{"model":` + tinySpecJSON + `,"mean":1,"std":1,"rho":2,"width":2}`, 400},
		{"stats bad width", "/v1/estimate/stats", `{"model":` + tinySpecJSON + `,"mean":1,"std":1,"rho":0,"width":3}`, 400},
		// 4·(2⁶²+1) wraps to 4: the product check alone would start 2⁶²+1
		// convolutions no request timeout can stop.
		{"stats ports overflow", "/v1/estimate/stats", `{"model":` + tinySpecJSON + `,"mean":1,"std":1,"rho":0,"width":4,"ports":4611686018427387905}`, 400},
	}
	for _, tc := range cases {
		resp, data := postRaw(t, ts.URL+tc.url, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: %d %s, want %d", tc.name, resp.StatusCode, data, tc.want)
		}
	}

	// Oversized body => 413.
	big := fmt.Sprintf(`{"module":"ripple-adder","width":2,"seed":1,"patterns":%s1}`,
		strings.Repeat(" ", 300))
	resp, data := postRaw(t, ts.URL+"/v1/models/build", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: %d %s, want 413", resp.StatusCode, data)
	}
	if s.met.panics.Value() != 0 {
		t.Errorf("validation sweep tripped %d panics", s.met.panics.Value())
	}
}

// TestPanicRecovery drives a panicking handler through the middleware
// stack and expects a 500 plus a panic metric, not a dead connection.
func TestPanicRecovery(t *testing.T) {
	s, _ := newTestServer(t, Config{BuildFunc: instantBuilds(4)})
	h := s.wrap("GET /boom", func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler returned %d, want 500", rec.Code)
	}
	if got := s.met.panics.Value(); got != 1 {
		t.Fatalf("panics metric = %d, want 1", got)
	}
}

// TestHealthMetricsEndpoints smoke-tests the operational endpoints.
func TestHealthMetricsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{BuildFunc: instantBuilds(4)})
	if resp, data := postGet(t, ts.URL+"/healthz"); resp.StatusCode != 200 || !strings.Contains(string(data), "ok") {
		t.Errorf("healthz: %d %s", resp.StatusCode, data)
	}
	if resp, _ := postGet(t, ts.URL+"/readyz"); resp.StatusCode != 200 {
		t.Errorf("readyz: %d", resp.StatusCode)
	}
	resp, data := postGet(t, ts.URL+"/metrics")
	if resp.StatusCode != 200 {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	out := string(data)
	for _, want := range []string{
		"# TYPE hdserve_requests_total counter",
		"# TYPE hdserve_request_seconds histogram",
		"hdserve_inflight_requests",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestCharHooksMetrics runs one real build and checks the
// characterization counters moved.
func TestCharHooksMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{CharWorkers: 1})
	resp, data := postJSON(t, ts.URL+"/v1/models/build",
		map[string]any{"module": "ripple-adder", "width": 2, "seed": 1, "patterns": 384, "wait": true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("build: %d %s", resp.StatusCode, data)
	}
	if got := s.met.charPatterns.Value(); got != 384 {
		t.Errorf("char patterns = %d, want 384", got)
	}
	if got := s.met.charShards.Value(); got != 3 {
		t.Errorf("char shards = %d, want 3", got)
	}
}
