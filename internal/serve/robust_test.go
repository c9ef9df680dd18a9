package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hdpower/internal/atomicio"
	"hdpower/internal/core"
	"hdpower/internal/faultpoint"
	"hdpower/internal/fleet"
	"hdpower/internal/modellib"
	"hdpower/internal/regress"
)

// buildWait POSTs a synchronous build of the whole spec and returns the
// response.
func buildWait(t *testing.T, url string, spec BuildSpec) (*http.Response, []byte) {
	t.Helper()
	return postJSON(t, url+"/v1/models/build", buildRequest{BuildSpec: spec, Wait: true})
}

// TestBuildRetryTransient: a backend that fails twice transiently still
// settles ready, with the retries counted.
func TestBuildRetryTransient(t *testing.T) {
	calls := 0
	var mu sync.Mutex
	s, ts := newTestServer(t, Config{
		BuildRetries:      2,
		BuildRetryBackoff: time.Millisecond,
		BuildFunc: func(ctx context.Context, spec BuildSpec, _ *core.Hooks) (*core.Model, error) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			if calls <= 2 {
				return nil, fmt.Errorf("transient failure %d", calls)
			}
			return fakeModel(4), nil
		},
	})
	resp, data := buildWait(t, ts.URL, tinySpec())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("build after transient failures: %d %s", resp.StatusCode, data)
	}
	if got := s.met.buildRetries.Value(); got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}
	if got := s.met.buildsFailed.Value(); got != 0 {
		t.Errorf("failed builds = %d, want 0", got)
	}
}

// TestBuildNoRetryOnCancel: context errors are permanent; the backend runs
// exactly once.
func TestBuildNoRetryOnCancel(t *testing.T) {
	calls := 0
	var mu sync.Mutex
	s, ts := newTestServer(t, Config{
		BuildRetries:      3,
		BuildRetryBackoff: time.Millisecond,
		BuildFunc: func(ctx context.Context, spec BuildSpec, _ *core.Hooks) (*core.Model, error) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			return nil, context.Canceled
		},
	})
	resp, data := buildWait(t, ts.URL, tinySpec())
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("canceled build: %d %s", resp.StatusCode, data)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 1 {
		t.Errorf("backend ran %d times, want 1 (no retry on cancel)", calls)
	}
	if got := s.met.buildRetries.Value(); got != 0 {
		t.Errorf("retries = %d, want 0", got)
	}
}

// TestBuildNoRetryOnUnknownBackend: an unknown backend fails the build at
// once; no retry can make the name valid.
func TestBuildNoRetryOnUnknownBackend(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Backend:           "bogus",
		BuildRetries:      2,
		BuildRetryBackoff: time.Millisecond,
	})
	resp, data := buildWait(t, ts.URL, tinySpec())
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(data), "unknown backend") {
		t.Fatalf("build with an unknown backend: %d %s", resp.StatusCode, data)
	}
	if got := s.met.buildRetries.Value(); got != 0 {
		t.Errorf("retries = %d, want 0", got)
	}
}

// TestDegradedSiblingFallback: with the exact seed not cached, an
// estimate is answered by the cached same-module/width sibling, marked
// degraded, and counted in the metric.
func TestDegradedSiblingFallback(t *testing.T) {
	_, ts := newTestServer(t, Config{BuildFunc: instantBuilds(4)})
	if resp, data := buildWait(t, ts.URL, tinySpec()); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed build: %d %s", resp.StatusCode, data)
	}

	resp, data := postJSON(t, ts.URL+"/v1/estimate", map[string]any{
		"model": map[string]any{"module": "ripple-adder", "width": 2, "seed": 99},
		"hd":    []int{1, 2},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded estimate: %d %s", resp.StatusCode, data)
	}
	er := decode[estimateResponse](t, data)
	if !er.Degraded || er.Fallback != fallbackSeed {
		t.Errorf("degraded=%v fallback=%q, want true/%q", er.Degraded, er.Fallback, fallbackSeed)
	}

	respM, metricsText := postGet(t, ts.URL+"/metrics")
	if respM.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", respM.StatusCode)
	}
	if !strings.Contains(string(metricsText),
		`hdserve_estimate_degraded_total{fallback="seed"} 1`) {
		t.Errorf("degraded metric missing:\n%s", metricsText)
	}
}

// TestDegradedLibraryFallback: a fresh server with an empty cache answers
// from the durable library left by a previous process.
func TestDegradedLibraryFallback(t *testing.T) {
	dir := t.TempDir()
	lib, err := modellib.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := lib.PutModel("ripple-adder", 2, fakeModel(4)); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{BuildFunc: instantBuilds(4), LibraryDir: dir})
	resp, data := postJSON(t, ts.URL+"/v1/estimate", map[string]any{
		"model": map[string]any{"module": "ripple-adder", "width": 2, "seed": 7},
		"hd":    []int{1, 2, 3},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("library fallback: %d %s", resp.StatusCode, data)
	}
	er := decode[estimateResponse](t, data)
	if !er.Degraded || er.Fallback != fallbackLibrary {
		t.Errorf("degraded=%v fallback=%q, want true/%q", er.Degraded, er.Fallback, fallbackLibrary)
	}
}

// TestDegradedRegressionFallback: no instance model anywhere, but the
// library holds a fitted width regression — the last rung synthesizes one.
func TestDegradedRegressionFallback(t *testing.T) {
	dir := t.TempDir()
	lib, err := modellib.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	law := func(i, w int) float64 { return float64(i) * (2*float64(w) + 1) }
	var protos []regress.Prototype
	for _, w := range regress.SetThi.Widths() {
		m := 2 * w
		model := &core.Model{Module: "ripple-adder", InputBits: m, Basic: make([]core.Coef, m)}
		for i := 1; i <= m; i++ {
			model.Basic[i-1] = core.Coef{P: law(i, w), Count: 5}
		}
		protos = append(protos, regress.Prototype{Width: w, Model: model})
	}
	pm, err := regress.Fit("ripple-adder", protos, regress.Linear)
	if err != nil {
		t.Fatal(err)
	}
	if err := lib.PutParam(pm); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{BuildFunc: instantBuilds(4), LibraryDir: dir})
	resp, data := postJSON(t, ts.URL+"/v1/estimate/stats", map[string]any{
		"model": map[string]any{"module": "ripple-adder", "width": 3, "seed": 1},
		"mean":  3.0, "std": 1.5, "rho": 0.2, "width": 3,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("regression fallback: %d %s", resp.StatusCode, data)
	}
	sr := decode[statsResponse](t, data)
	if !sr.Degraded || sr.Fallback != fallbackRegression {
		t.Errorf("degraded=%v fallback=%q, want true/%q", sr.Degraded, sr.Fallback, fallbackRegression)
	}
	if sr.AvgCharge <= 0 {
		t.Errorf("synthesized estimate %v, want > 0", sr.AvgCharge)
	}
}

// TestNoFallbackStill404: with no cache, no siblings and no library the
// estimate still answers 404.
func TestNoFallbackStill404(t *testing.T) {
	_, ts := newTestServer(t, Config{BuildFunc: instantBuilds(4)})
	resp, _ := postJSON(t, ts.URL+"/v1/estimate", map[string]any{
		"model": map[string]any{"module": "ripple-adder", "width": 2, "seed": 7},
		"hd":    []int{1},
	})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("no-fallback estimate: %d, want 404", resp.StatusCode)
	}
}

// TestModelPersistedToLibrary: every successful build lands in the
// configured library directory.
func TestModelPersistedToLibrary(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{BuildFunc: instantBuilds(4), LibraryDir: dir})
	if resp, data := buildWait(t, ts.URL, tinySpec()); resp.StatusCode != http.StatusOK {
		t.Fatalf("build: %d %s", resp.StatusCode, data)
	}
	lib, err := modellib.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lib.GetModel("ripple-adder", 2, false); err != nil {
		t.Errorf("built model not in library: %v", err)
	}
}

// TestRecoverBuilds: a spec sidecar left by a killed process is
// re-enqueued and built on the next start, then cleaned up.
func TestRecoverBuilds(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec()
	sidecar := filepath.Join(dir, fleet.BuildID(spec.Module, spec.Width, spec.Seed)+".spec.json")
	if err := atomicio.WriteJSON(sidecar, spec); err != nil {
		t.Fatal(err)
	}
	// A corrupt sidecar next to it must be skipped, not crash recovery.
	if err := os.WriteFile(filepath.Join(dir, "bogus.spec.json"),
		[]byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, _ := newTestServer(t, Config{BuildFunc: instantBuilds(4), CheckpointDir: dir})
	ent, ok := s.cache.lookupID(fleet.BuildID(spec.Module, spec.Width, spec.Seed))
	if !ok {
		t.Fatal("recovered build not in cache")
	}
	select {
	case <-ent.done:
	case <-time.After(10 * time.Second):
		t.Fatal("recovered build did not settle")
	}
	if status := s.entryStatus(ent); status != statusReady {
		t.Fatalf("recovered build status %q", status)
	}
	if got := s.met.buildsRecovered.Value(); got != 1 {
		t.Errorf("recovered = %d, want 1", got)
	}
	if _, err := os.Stat(sidecar); !os.IsNotExist(err) {
		t.Errorf("sidecar not cleaned up after settle: %v", err)
	}
}

// TestUnbuildableWidthRefused: the radix-4 Booth multiplier builds at
// even widths only, and serve refuses width 5 the way it refuses a width
// below the module's minimum, so no build goroutine reaches the
// generator's panic. The build request and an estimate naming that model
// get a 400 and the server stays ready, and a restart record holding the
// spec is dropped instead of re-enqueued at every start.
func TestUnbuildableWidthRefused(t *testing.T) {
	dir := t.TempDir()
	spec := BuildSpec{Module: "booth-wallace-multiplier", Width: 5, Seed: 1}
	sidecar := filepath.Join(dir, fleet.BuildID(spec.Module, spec.Width, spec.Seed)+".spec.json")
	if err := atomicio.WriteJSON(sidecar, spec); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{CheckpointDir: dir})
	if _, err := os.Stat(sidecar); !os.IsNotExist(err) {
		t.Errorf("restart record of an unbuildable spec kept: %v", err)
	}
	if _, ok := s.cache.lookupID(fleet.BuildID(spec.Module, spec.Width, spec.Seed)); ok {
		t.Error("restart record of an unbuildable spec re-enqueued")
	}

	body := `{"module":"booth-wallace-multiplier","width":5,"seed":1}`
	if resp, data := postRaw(t, ts.URL+"/v1/models/build", body); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("build: %d %s, want 400", resp.StatusCode, data)
	}
	if resp, data := postRaw(t, ts.URL+"/v1/estimate", `{"model":`+body+`,"hd":[1]}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("estimate: %d %s, want 400", resp.StatusCode, data)
	}
	if resp, data := postGet(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Errorf("readyz after the refusals: %d %s", resp.StatusCode, data)
	}
	if got := s.met.buildsRun.Value(); got != 0 {
		t.Errorf("%d builds ran, want none", got)
	}
}

// TestSettledBuildsLeaveNoSidecar: a build's spec sidecar is written
// before a worker can take the build, so the worker that settles it
// always removes it, however fast the build. A sidecar left behind would
// rebuild a settled model on the next start.
func TestSettledBuildsLeaveNoSidecar(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{BuildFunc: instantBuilds(4), CheckpointDir: dir})
	for seed := 1; seed <= 20; seed++ {
		spec := BuildSpec{Module: "ripple-adder", Width: 2, Seed: int64(seed)}
		if resp, data := buildWait(t, ts.URL, spec); resp.StatusCode != http.StatusOK {
			t.Fatalf("build seed %d: %d %s", seed, resp.StatusCode, data)
		}
	}
	left, err := filepath.Glob(filepath.Join(dir, "*.spec.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("%d of 20 settled builds left their sidecar: %v", len(left), left)
	}
}

// TestResumeAcrossRestart is the end-to-end crash story: a real build dies
// mid-characterization (injected fault), the process "dies" before
// clearing its sidecar, and a new server over the same checkpoint
// directory recovers the build, resumes it from the checkpoint, and
// produces a model bit-identical to one built with no crash at all.
func TestResumeAcrossRestart(t *testing.T) {
	spec := BuildSpec{Module: "ripple-adder", Width: 2, Seed: 7, Patterns: 1280}
	cfg := func() Config { return Config{CharWorkers: 2, BuildRetries: -1} }

	// Clean baseline through the real engine, no checkpointing.
	clean, tsClean := newTestServer(t, cfg())
	if resp, data := buildWait(t, tsClean.URL, spec); resp.StatusCode != http.StatusOK {
		t.Fatalf("baseline build: %d %s", resp.StatusCode, data)
	}
	baseModel, _, ok := clean.cache.readyEntrySpec(spec.modelKey())
	if !ok {
		t.Fatal("baseline model not cached")
	}
	want, err := json.Marshal(baseModel)
	if err != nil {
		t.Fatal(err)
	}

	// "Crash": the first server's build dies at the 3rd merged shard.
	dir := t.TempDir()
	faultpoint.Disarm()
	if err := faultpoint.Arm("core.merge=error:after=3"); err != nil {
		t.Fatal(err)
	}
	crashCfg := cfg()
	crashCfg.CheckpointDir = dir
	crashCfg.CheckpointEvery = 2
	_, tsCrash := newTestServer(t, crashCfg)
	if resp, data := buildWait(t, tsCrash.URL, spec); resp.StatusCode != http.StatusInternalServerError {
		faultpoint.Disarm()
		t.Fatalf("crashed build: %d %s", resp.StatusCode, data)
	}
	faultpoint.Disarm()
	ckpt := filepath.Join(dir, fleet.BuildID(spec.Module, spec.Width, spec.Seed)+".ckpt.json")
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint after crash: %v", err)
	}
	// A settled failure clears its sidecar; a SIGKILL would not have. Put
	// it back to simulate the kill happening before the build settled.
	if err := atomicio.WriteJSON(filepath.Join(dir, fleet.BuildID(spec.Module, spec.Width, spec.Seed)+".spec.json"), spec); err != nil {
		t.Fatal(err)
	}

	// Restart over the same directory: recover, resume, finish.
	restartCfg := cfg()
	restartCfg.CheckpointDir = dir
	restartCfg.CheckpointEvery = 2
	restarted, _ := newTestServer(t, restartCfg)
	ent, ok := restarted.cache.lookupID(fleet.BuildID(spec.Module, spec.Width, spec.Seed))
	if !ok {
		t.Fatal("interrupted build not recovered")
	}
	select {
	case <-ent.done:
	case <-time.After(60 * time.Second):
		t.Fatal("recovered build did not settle")
	}
	if status, err := restarted.entryResult(ent); status != statusReady {
		t.Fatalf("recovered build %q: %v", status, err)
	}
	if got := restarted.met.buildsResumed.Value(); got != 1 {
		t.Errorf("resumed = %d, want 1", got)
	}
	gotModel, _, _ := restarted.cache.readyEntrySpec(spec.modelKey())
	got, err := json.Marshal(gotModel)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("resumed model differs from uninterrupted build")
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("checkpoint not removed after successful resume: %v", err)
	}
}

// TestRetriedBuildCountsOnce: a build whose first attempt fails at its
// sixth merged shard, past its first convergence check, and is retried
// reads, once ready, the progress and
// manifest counts and the convergence trajectory of an uninterrupted
// build, whether the retry resumes the first attempt's checkpoint or
// starts over.
func TestRetriedBuildCountsOnce(t *testing.T) {
	spec := BuildSpec{Module: "ripple-adder", Width: 2, Seed: 7, Patterns: 1280}
	_, cleanURL := baseline(t, spec)
	want, wantMan := settledCounts(t, cleanURL, spec)
	for _, c := range []struct {
		name    string
		dir     string
		resumed bool
	}{
		{"checkpoint", t.TempDir(), true},
		{"no checkpoint", "", false},
	} {
		t.Run(c.name, func(t *testing.T) {
			faultpoint.Disarm()
			if err := faultpoint.Arm("core.merge=error:after=6"); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(faultpoint.Disarm)
			s, ts := newTestServer(t, Config{
				CharWorkers: 2, BuildRetries: 1, BuildRetryBackoff: time.Millisecond, CheckpointDir: c.dir,
			})
			if resp, data := buildWait(t, ts.URL, spec); resp.StatusCode != http.StatusOK {
				t.Fatalf("retried build: %d %s", resp.StatusCode, data)
			}
			if got := s.met.buildRetries.Value(); got != 1 {
				t.Fatalf("retries = %d, want 1", got)
			}
			got, man := settledCounts(t, ts.URL, spec)
			if got != want {
				t.Errorf("retried build counts %+v, want an uninterrupted build's %+v", got, want)
			}
			if man.Resumed != c.resumed {
				t.Errorf("manifest resumed = %v, want %v", man.Resumed, c.resumed)
			}
			if !reflect.DeepEqual(man.Convergence, wantMan.Convergence) {
				t.Errorf("retried build's convergence %v, want an uninterrupted build's %v",
					man.Convergence, wantMan.Convergence)
			}
		})
	}
}

// TestStaleCheckpointMismatchRestartsFresh: a checkpoint from different
// build options is dropped and the build still succeeds.
func TestStaleCheckpointMismatchRestartsFresh(t *testing.T) {
	dir := t.TempDir()
	spec := BuildSpec{Module: "ripple-adder", Width: 2, Seed: 7, Patterns: 1280}

	// Leave a checkpoint behind with a different pattern budget.
	faultpoint.Disarm()
	if err := faultpoint.Arm("core.merge=error:after=3"); err != nil {
		t.Fatal(err)
	}
	crashCfg := Config{CharWorkers: 2, BuildRetries: -1, CheckpointDir: dir, CheckpointEvery: 2}
	_, tsCrash := newTestServer(t, crashCfg)
	if resp, data := buildWait(t, tsCrash.URL, spec); resp.StatusCode != http.StatusInternalServerError {
		faultpoint.Disarm()
		t.Fatalf("crashed build: %d %s", resp.StatusCode, data)
	}
	faultpoint.Disarm()

	// Same key, different budget: the stale checkpoint must not poison it.
	spec.Patterns = 2560
	_, ts := newTestServer(t, Config{CharWorkers: 2, BuildRetries: -1, CheckpointDir: dir, CheckpointEvery: 2})
	if resp, data := buildWait(t, ts.URL, spec); resp.StatusCode != http.StatusOK {
		t.Fatalf("build over stale checkpoint: %d %s", resp.StatusCode, data)
	}
}

// TestRetryDelayBounded pins the build-retry backoff for any attempt
// count: every delay lies in (0, 5s+1ms], including the attempts from 36
// on, where the default 250ms base shifted left overflowed int64 and
// rand.Int63n panicked.
func TestRetryDelayBounded(t *testing.T) {
	s := &Server{cfg: Config{BuildRetryBackoff: 250 * time.Millisecond}}
	for attempt := 0; attempt <= 100; attempt++ {
		if d := s.retryDelay(attempt); d <= 0 || d > 5*time.Second+time.Millisecond {
			t.Fatalf("attempt %d: delay %v outside (0, 5.001s]", attempt, d)
		}
	}
}
