package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
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
	baseModel, _, ok := clean.cache.readyEntrySpec(spec.Key())
	if !ok {
		t.Fatal("baseline model not cached")
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
	for deadline := time.Now().Add(10 * time.Second); coord.LiveWorkers() < 3; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d workers registered", coord.LiveWorkers())
		}
		time.Sleep(5 * time.Millisecond)
	}

	if resp, data := buildWait(t, ts.URL, spec); resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet build: %d %s", resp.StatusCode, data)
	}
	fleetModel, _, ok := s.cache.readyEntrySpec(spec.Key())
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

// TestFleetServerResumesCoordinatorCheckpoint: a -fleet server restarted
// with no live worker recovers a build whose coordinator checkpoint holds
// 10 merged shards and resumes it on the local path, since both paths
// checkpoint to the build's one file. The model is bit-identical to an
// uninterrupted build, and the settled build leaves no file behind.
func TestFleetServerResumesCoordinatorCheckpoint(t *testing.T) {
	spec := BuildSpec{Module: "ripple-adder", Width: 4, Seed: 7, Patterns: 2560}

	clean, tsClean := newTestServer(t, Config{CharWorkers: 2})
	if resp, data := buildWait(t, tsClean.URL, spec); resp.StatusCode != http.StatusOK {
		t.Fatalf("baseline build: %d %s", resp.StatusCode, data)
	}
	baseModel, _, ok := clean.cache.readyEntrySpec(spec.Key())
	if !ok {
		t.Fatal("baseline model not cached")
	}
	want, err := json.Marshal(baseModel)
	if err != nil {
		t.Fatal(err)
	}

	// The coordinator of the earlier process: it computes ranges locally
	// (no workers) and is stopped once 10 shards are merged, saving its
	// checkpoint; the process then dies before the build settles, leaving
	// the spec sidecar.
	dir := t.TempDir()
	coord := fleet.NewCoordinator(fleet.Config{LeaseShards: 5, Tick: time.Millisecond, LocalWorkers: 2})
	cfg := Config{CharWorkers: 2, Fleet: coord, CheckpointDir: dir}
	job := (&Server{cfg: cfg}).job(spec)
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	merged := 0
	_, err = coord.RunJob(ctx, job, fleet.RunOptions{
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

	cfg.Fleet = fleet.NewCoordinator(fleet.Config{LeaseShards: 5, Tick: time.Millisecond, LocalWorkers: 2})
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
	gotModel, _, _ := s.cache.readyEntrySpec(spec.Key())
	got, err := json.Marshal(gotModel)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
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
	resp, data := postGet(t, ts.URL+"/v1/models/build/"+buildID(spec.Key()))
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
	resp, data := postGet(t, ts.URL+"/v1/models/build/"+buildID(spec.Key()))
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
	id := buildID(spec.Key())
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
