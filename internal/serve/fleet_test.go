package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdpower/internal/atomicio"
	"hdpower/internal/core"
	"hdpower/internal/fleet"
)

// TestFleetDispatchBitIdentical is the serve-layer half of the fleet
// story: a coordinator-mode server with three workers registered builds
// through the fleet, over its own public listener, and the cached model
// is bit-identical to a plain single-node server's build of the same
// spec.
func TestFleetDispatchBitIdentical(t *testing.T) {
	spec := BuildSpec{Module: "ripple-adder", Width: 2, Seed: 7, Patterns: 1280, Enhanced: true}

	// Baseline: the ordinary local path.
	clean, tsClean := newTestServer(t, Config{CharWorkers: 2})
	if resp, data := buildWait(t, tsClean.URL, spec); resp.StatusCode != http.StatusOK {
		t.Fatalf("baseline build: %d %s", resp.StatusCode, data)
	}
	baseModel, _, ok := clean.cache.readyEntrySpec(spec.modelKey())
	if !ok {
		t.Fatal("baseline model not cached")
	}
	if len(baseModel.Enhanced) == 0 {
		t.Fatal("baseline model of an enhanced spec has no enhanced table")
	}
	want, err := json.Marshal(baseModel)
	if err != nil {
		t.Fatal(err)
	}

	coord := fleet.NewCoordinator(fleet.Config{
		LeaseShards: 2,
		LeaseTTL:    2 * time.Second,
		Tick:        5 * time.Millisecond,
	})
	s, ts := newTestServer(t, Config{
		CharWorkers:   2,
		Fleet:         coord,
		CheckpointDir: t.TempDir(),
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 3; i++ {
		w, err := fleet.NewWorker(fleet.WorkerConfig{
			Coordinator:  ts.URL,
			Name:         fmt.Sprintf("w%d", i),
			Workers:      2,
			RetryBase:    5 * time.Millisecond,
			PollInterval: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		go w.Run(ctx)
	}
	alive := s.Registry().Gauge("hdfleet_workers_alive", "")
	for deadline := time.Now().Add(10 * time.Second); alive.Value() < 3; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d workers registered", alive.Value())
		}
		time.Sleep(5 * time.Millisecond)
	}

	if resp, data := buildWait(t, ts.URL, spec); resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet build: %d %s", resp.StatusCode, data)
	}
	fleetModel, _, ok := s.cache.readyEntrySpec(spec.modelKey())
	if !ok {
		t.Fatal("fleet model not cached")
	}
	got, err := json.Marshal(fleetModel)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("fleet build diverges from local build:\n got %s\nwant %s", got, want)
	}

	// The build really went through the fleet, and the metrics surfaced
	// on the server registry say so.
	resp, metricsText := postGet(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	for _, metric := range []string{"hdfleet_leases_granted_total", "hdfleet_uploads_accepted_total"} {
		if !metricHasPositiveValue(string(metricsText), metric) {
			t.Errorf("metric %s not positive after a fleet build:\n%s", metric, metricsText)
		}
	}
}

// readyModel is the JSON of the ready model s holds for spec.
func readyModel(t *testing.T, s *Server, spec BuildSpec) string {
	t.Helper()
	model, _, ok := s.cache.readyEntrySpec(spec.modelKey())
	if !ok {
		t.Fatalf("no ready model for %s", spec.Key())
	}
	raw, err := json.Marshal(model)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// baseline builds spec on a plain local server and returns its model's
// JSON and the server's URL.
func baseline(t *testing.T, spec BuildSpec) (string, string) {
	t.Helper()
	clean, ts := newTestServer(t, Config{CharWorkers: 2})
	if resp, data := buildWait(t, ts.URL, spec); resp.StatusCode != http.StatusOK {
		t.Fatalf("baseline build: %d %s", resp.StatusCode, data)
	}
	return readyModel(t, clean, spec), ts.URL
}

// fleetWorker runs one fleet worker against a listener serving h and
// returns once h has answered its first lease request, which registers it
// with the coordinator. The worker stops once the listener has answered
// stopAfter uploads, before the last answer leaves, so it never leases
// again.
func fleetWorker(t *testing.T, h http.Handler, stopAfter int64) {
	t.Helper()
	ctx, stop := context.WithCancel(context.Background())
	var uploads atomic.Int64
	registered := make(chan struct{})
	var once sync.Once
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		switch r.URL.Path {
		case fleet.PathLease:
			once.Do(func() { close(registered) })
		case fleet.PathUpload:
			if uploads.Add(1) == stopAfter {
				stop()
			}
		}
	}))
	t.Cleanup(ts.Close)
	w, err := fleet.NewWorker(fleet.WorkerConfig{
		Coordinator:  ts.URL,
		Name:         "w0",
		Workers:      2,
		RetryBase:    5 * time.Millisecond,
		PollInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		w.Run(ctx)
	}()
	t.Cleanup(func() {
		stop()
		<-exited
	})
	select {
	case <-registered:
	case <-time.After(10 * time.Second):
		t.Fatal("fleet worker never registered")
	}
}

// buildCounts is what a settled build's progress and manifest say it
// merged and simulated.
type buildCounts struct {
	progressMerged, progressTotal, progressPatterns int64
	manifestMerged, manifestPlanned                 int
	manifestBasic, manifestBiased                   int
}

func settledCounts(t *testing.T, url string, spec BuildSpec) (buildCounts, core.RunManifest) {
	t.Helper()
	id := fleet.BuildID(spec.Module, spec.Width, spec.Seed)
	resp, data := postGet(t, url+"/v1/models/build/"+id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("progress: %d %s", resp.StatusCode, data)
	}
	p := decode[buildProgressResponse](t, data)
	resp, data = postGet(t, url+"/v1/models/"+id+"/manifest")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("manifest: %d %s", resp.StatusCode, data)
	}
	m := decode[core.RunManifest](t, data)
	return buildCounts{
		p.ShardsMerged, p.ShardsTotal, p.PatternsSimulated,
		m.ShardsMerged, m.ShardsPlanned, m.PatternsBasic, m.PatternsBiased,
	}, m
}

// TestFleetServerResumesCoordinatorCheckpoint: a -fleet server restarted
// with no live worker recovers a build whose coordinator checkpoint holds
// 10 merged shards and resumes it on the local path, since both paths
// checkpoint to the build's one file. The model is bit-identical to an
// uninterrupted build, and the settled build leaves no file behind.
func TestFleetServerResumesCoordinatorCheckpoint(t *testing.T) {
	spec := BuildSpec{Module: "ripple-adder", Width: 4, Seed: 7, Patterns: 2560}
	want, _ := baseline(t, spec)

	// The coordinator of the earlier process: its one worker uploads two
	// 5-shard ranges and stops, and the coordinator is stopped once the 10
	// shards are merged, saving its checkpoint; the process then dies
	// before the build settles, leaving the spec sidecar.
	dir := t.TempDir()
	coord := fleet.NewCoordinator(fleet.Config{LeaseShards: 5, Tick: time.Millisecond})
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+fleet.PathLease, coord.HandleLease)
	mux.HandleFunc("POST "+fleet.PathHeartbeat, coord.HandleHeartbeat)
	mux.HandleFunc("POST "+fleet.PathUpload, coord.HandleUpload)
	fleetWorker(t, mux, 2)
	cfg := Config{CharWorkers: 2, Fleet: coord, CheckpointDir: dir}
	job := (&Server{cfg: cfg}).job(spec)
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	merged := 0
	_, err := coord.RunJob(ctx, job, fleet.RunOptions{
		Hooks: &core.Hooks{ShardMerged: func() {
			if merged++; merged == 10 {
				stop()
			}
		}},
		CheckpointPath: filepath.Join(dir, job.ID+".ckpt.json"),
	})
	if err == nil {
		t.Fatal("stopped coordinator returned a nil error")
	}
	cp, err := core.LoadCheckpoint(filepath.Join(dir, job.ID+".ckpt.json"))
	if err != nil || cp.ShardsMerged != 10 || cp.LeaseEpoch == 0 {
		t.Fatalf("coordinator checkpoint: %+v, %v; want 10 merged shards and a lease epoch", cp, err)
	}
	if err := atomicio.WriteJSON(filepath.Join(dir, job.ID+".spec.json"), spec); err != nil {
		t.Fatal(err)
	}

	cfg.Fleet = fleet.NewCoordinator(fleet.Config{LeaseShards: 5, Tick: time.Millisecond})
	s, ts := newTestServer(t, cfg)
	ent, ok := s.cache.lookupID(job.ID)
	if !ok {
		t.Fatal("interrupted build not recovered")
	}
	select {
	case <-ent.done:
	case <-time.After(60 * time.Second):
		t.Fatal("recovered build did not settle")
	}
	if status, err := s.entryResult(ent); status != statusReady {
		t.Fatalf("recovered build %q: %v", status, err)
	}
	if got := s.met.buildsResumed.Value(); got != 1 {
		t.Errorf("resumed = %d, want 1", got)
	}
	resp, data := postGet(t, ts.URL+"/v1/models/"+job.ID+"/manifest")
	if man := decode[core.RunManifest](t, data); resp.StatusCode != http.StatusOK || !man.Resumed {
		t.Errorf("manifest: %d %s, want resumed", resp.StatusCode, data)
	}
	if got := readyModel(t, s, spec); got != want {
		t.Errorf("resumed model differs from an uninterrupted build:\n got %s\nwant %s", got, want)
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range left {
		t.Errorf("settled build left %s behind", f.Name())
	}
}

// TestFleetServerHandsBackToLocal: a -fleet server whose only worker
// stops mid-build hands the build to its local path once WorkerTTL has
// passed, and the local path resumes the coordinator's checkpoint. The
// build settles ready, bit-identical to a local build, with one resumed
// characterization, a manifest marked resumed, the progress and manifest
// counts of an uninterrupted build, and no checkpoint or spec file left.
func TestFleetServerHandsBackToLocal(t *testing.T) {
	spec := BuildSpec{Module: "ripple-adder", Width: 4, Seed: 7, Patterns: 2560}
	want, cleanURL := baseline(t, spec)
	wantCounts, _ := settledCounts(t, cleanURL, spec)

	dir := t.TempDir()
	// The worker heartbeats every LeaseTTL/3 while it computes, so even a
	// slow range keeps it inside WorkerTTL.
	coord := fleet.NewCoordinator(fleet.Config{
		LeaseShards: 5,
		LeaseTTL:    150 * time.Millisecond,
		WorkerTTL:   300 * time.Millisecond,
		Tick:        5 * time.Millisecond,
	})
	s, ts := newTestServer(t, Config{CharWorkers: 2, Fleet: coord, CheckpointDir: dir})
	// The worker uploads two of the four 5-shard ranges and stops.
	fleetWorker(t, s.Handler(), 2)
	if resp, data := buildWait(t, ts.URL, spec); resp.StatusCode != http.StatusOK {
		t.Fatalf("handed-back build: %d %s", resp.StatusCode, data)
	}
	if got := readyModel(t, s, spec); got != want {
		t.Errorf("handed-back model differs from a local build:\n got %s\nwant %s", got, want)
	}
	_, metricsText := postGet(t, ts.URL+"/metrics")
	if !metricHasPositiveValue(string(metricsText), "hdfleet_ranges_merged_total") {
		t.Error("the fleet merged no range before the hand-back")
	}
	if got := s.met.buildsResumed.Value(); got != 1 {
		t.Errorf("hdserve_builds_resumed_total = %d, want 1", got)
	}
	counts, man := settledCounts(t, ts.URL, spec)
	if !man.Resumed {
		t.Error("manifest of the handed-back build is not marked resumed")
	}
	if counts != wantCounts || counts.progressMerged != counts.progressTotal {
		t.Errorf("handed-back build counts %+v, want an uninterrupted build's %+v", counts, wantCounts)
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range left {
		if strings.HasSuffix(f.Name(), ".ckpt.json") || strings.HasSuffix(f.Name(), ".spec.json") {
			t.Errorf("settled build left %s behind", f.Name())
		}
	}
}

func metricHasPositiveValue(text, name string) bool {
	for _, line := range splitLines(text) {
		var v float64
		if n, _ := fmt.Sscanf(line, name+" %g", &v); n == 1 && v > 0 {
			return true
		}
	}
	return false
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return append(out, s[start:])
}

// TestBuildProgressRetryState pins the retry diagnostics of
// GET /v1/models/build/{id}: attempt count, last transient error, and the
// backoff that preceded the final (successful) attempt.
func TestBuildProgressRetryState(t *testing.T) {
	calls := 0
	var mu sync.Mutex
	_, ts := newTestServer(t, Config{
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
	spec := tinySpec()
	if resp, data := buildWait(t, ts.URL, spec); resp.StatusCode != http.StatusOK {
		t.Fatalf("build: %d %s", resp.StatusCode, data)
	}
	resp, data := postGet(t, ts.URL+"/v1/models/build/"+fleet.BuildID(spec.Module, spec.Width, spec.Seed))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("progress: %d %s", resp.StatusCode, data)
	}
	pr := decode[buildProgressResponse](t, data)
	if pr.Status != statusReady {
		t.Fatalf("status %q, want ready", pr.Status)
	}
	if pr.Attempts != 3 {
		t.Errorf("attempts = %d, want 3", pr.Attempts)
	}
	if pr.LastAttemptError != "transient failure 2" {
		t.Errorf("last_attempt_error = %q, want the second failure", pr.LastAttemptError)
	}
	if pr.RetryBackoffMs <= 0 {
		t.Errorf("retry_backoff_ms = %d, want positive", pr.RetryBackoffMs)
	}
}

// TestBuildProgressNoRetryFieldsOnCleanBuild: a first-try success keeps
// the retry diagnostics out of the payload entirely.
func TestBuildProgressNoRetryFieldsOnCleanBuild(t *testing.T) {
	_, ts := newTestServer(t, Config{BuildFunc: instantBuilds(4)})
	spec := tinySpec()
	if resp, data := buildWait(t, ts.URL, spec); resp.StatusCode != http.StatusOK {
		t.Fatalf("build: %d %s", resp.StatusCode, data)
	}
	resp, data := postGet(t, ts.URL+"/v1/models/build/"+fleet.BuildID(spec.Module, spec.Width, spec.Seed))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("progress: %d %s", resp.StatusCode, data)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if v, ok := raw["attempts"]; !ok || v.(float64) != 1 {
		t.Errorf("attempts = %v, want 1", v)
	}
	for _, field := range []string{"last_attempt_error", "retry_backoff_ms"} {
		if _, ok := raw[field]; ok {
			t.Errorf("clean build leaked retry field %q: %s", field, data)
		}
	}
}

// TestQuarantinedCheckpointRecovery: a torn checkpoint file left by a
// crash is quarantined to *.corrupt on restart and the recovered build
// falls back to a clean from-scratch run — settling ready, never failed.
func TestQuarantinedCheckpointRecovery(t *testing.T) {
	spec := BuildSpec{Module: "ripple-adder", Width: 2, Seed: 7, Patterns: 1280}
	dir := t.TempDir()
	id := fleet.BuildID(spec.Module, spec.Width, spec.Seed)
	ckpt := filepath.Join(dir, id+".ckpt.json")

	// A torn checkpoint: real-looking JSON cut mid-payload, no checksum
	// trailer — exactly what a crash mid-write leaves behind.
	if err := os.WriteFile(ckpt, []byte(`{"format":"hdpower-checkpoint-v1","module":"ripple-adder-w2","phase":"ba`), 0o644); err != nil {
		t.Fatal(err)
	}
	// The spec sidecar survived intact (it is tiny and written first), so
	// the restarted server recovers the build.
	if err := atomicio.WriteJSON(filepath.Join(dir, id+".spec.json"), spec); err != nil {
		t.Fatal(err)
	}

	s, _ := newTestServer(t, Config{
		CharWorkers:   2,
		CheckpointDir: dir,
	})
	ent, ok := s.cache.lookupID(id)
	if !ok {
		t.Fatal("interrupted build not recovered")
	}
	select {
	case <-ent.done:
	case <-time.After(60 * time.Second):
		t.Fatal("recovered build did not settle")
	}
	if status, err := s.entryResult(ent); status != statusReady {
		t.Fatalf("recovered build settled %q (%v), want ready", status, err)
	}
	if _, err := os.Stat(ckpt + ".corrupt"); err != nil {
		t.Errorf("torn checkpoint not quarantined: %v", err)
	}
	// Resumed must NOT have fired: the build started from scratch.
	if got := s.met.buildsResumed.Value(); got != 0 {
		t.Errorf("buildsResumed = %d, want 0 (fresh build after quarantine)", got)
	}
}
