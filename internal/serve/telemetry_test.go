package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdpower/internal/atomicio"
	"hdpower/internal/core"
	"hdpower/internal/faultpoint"
	"hdpower/internal/telemetry"
)

// epsModel is fakeModel with per-class deviation reservoirs filled in, so
// the hotset's traffic x epsilon apportionment has something to weigh.
func epsModel(m int, eps []float64) *core.Model {
	model := fakeModel(m)
	for i := range model.Basic {
		model.Basic[i].Epsilon = eps[i]
	}
	return model
}

func epsBuilds(m int, eps []float64) func(context.Context, BuildSpec, *core.Hooks) (*core.Model, error) {
	return func(context.Context, BuildSpec, *core.Hooks) (*core.Model, error) {
		return epsModel(m, eps), nil
	}
}

// TestTelemetryEndpoint drives traffic through both decoders and the
// stream plane and checks GET /v1/telemetry reflects all of it: both SLO
// planes observed their requests, and the profiler recorded the combined
// Hd mix under the model's key regardless of decoder.
func TestTelemetryEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{BuildFunc: instantBuilds(4)})
	buildReady(t, ts.URL, map[string]any{"module": "ripple-adder", "width": 2, "seed": 7})

	// Hot shape: hd classes 0..4, five estimates.
	resp, _ := postRaw(t, ts.URL+"/v1/estimate",
		`{"model":{"module":"ripple-adder","width":2,"seed":7},"hd":[0,1,2,3,4]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fast estimate: status %d", resp.StatusCode)
	}
	// The patterns field in the model object leaves the hot shape, so
	// encoding/json decodes this one, which must be recorded all the same.
	resp, _ = postRaw(t, ts.URL+"/v1/estimate",
		`{"model":{"module":"ripple-adder","width":2,"seed":7,"patterns":512},"hd":[2,2]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decoded estimate: status %d", resp.StatusCode)
	}
	// Stream plane: two hot-shape lines.
	line := `{"model":{"module":"ripple-adder","width":2,"seed":7},"hd":[4]}`
	resp, _ = postRaw(t, ts.URL+"/v1/estimate/stream", line+"\n"+line+"\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream estimate: status %d", resp.StatusCode)
	}

	resp, data := postGet(t, ts.URL+"/v1/telemetry")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/telemetry: status %d, body %s", resp.StatusCode, data)
	}
	snap := decode[telemetry.Snapshot](t, data)

	planes := map[string]telemetry.PlaneSnapshot{}
	for _, p := range snap.Planes {
		planes[p.Plane] = p
	}
	if planes["unary"].Requests != 2 {
		t.Errorf("unary plane requests = %d, want 2", planes["unary"].Requests)
	}
	if planes["stream"].Requests != 1 {
		t.Errorf("stream plane requests = %d, want 1", planes["stream"].Requests)
	}
	if planes["unary"].Breached || planes["stream"].Breached {
		t.Error("healthy traffic must not breach the SLO")
	}

	if len(snap.Models) != 1 {
		t.Fatalf("models = %+v, want exactly one", snap.Models)
	}
	ms := snap.Models[0]
	if ms.Key != "ripple-adder/w2/s7" {
		t.Fatalf("model key = %q", ms.Key)
	}
	// 5 hot + 2 decoded + 2 stream estimates, mixed per class:
	// class 0,1,3: one each; class 2: 1 hot + 2 decoded; class 4: 1 + 2 stream.
	wantHits := []uint64{1, 1, 3, 1, 3}
	if !reflect.DeepEqual(ms.HdHits, wantHits) {
		t.Errorf("hd_hits = %v, want %v", ms.HdHits, wantHits)
	}
	if ms.Estimates != 9 {
		t.Errorf("estimates = %d, want 9", ms.Estimates)
	}
	if ms.Requests != 4 {
		t.Errorf("requests = %d, want 4 (unary x2 + stream lines x2)", ms.Requests)
	}
}

// TestTelemetryHotsetGolden pins the hotset recommendation for a fixed
// recorded traffic state: same traffic in, byte-for-byte same
// recommendation out, across repeated computations and over the wire.
func TestTelemetryHotsetGolden(t *testing.T) {
	// Per-class deviations for input bits 1..4 of the w2 ripple adder.
	eps := []float64{0.5, 0.02, 0.10, 0.10}
	s, ts := newTestServer(t, Config{BuildFunc: epsBuilds(4, eps)})
	buildReady(t, ts.URL, map[string]any{
		"module": "ripple-adder", "width": 2, "seed": 7, "patterns": 512})

	// Fixed traffic: Hd class 2 and 3 dominate, class 4 trails, class 1
	// is never hit (weights: 0, 2, 10, 1).
	mp := s.tel.Profiler().Model(telemetry.Key{Module: "ripple-adder", Width: 2, Seed: 7}, 5)
	for i := 0; i < 100; i++ {
		mp.RecordClass(0, 2)
		mp.RecordClass(0, 3)
	}
	for i := 0; i < 10; i++ {
		mp.RecordClass(0, 4)
	}
	mp.RecordRequest(0, 210, 0.001)

	want := hotsetResponse{
		Threshold: 2,
		Models: []hotsetModel{{
			Key:       "ripple-adder/w2/s7",
			Patterns:  512,
			Estimates: 210,
			Classes: []hotsetClass{
				{Hd: 1, Traffic: 0, Epsilon: 0.5, Uniform: 128, Recommended: 0},
				{Hd: 2, Traffic: 100, Epsilon: 0.02, Uniform: 128, Recommended: 79},
				{Hd: 3, Traffic: 100, Epsilon: 0.10, Uniform: 128, Recommended: 394},
				{Hd: 4, Traffic: 10, Epsilon: 0.10, Uniform: 128, Recommended: 39},
			},
			HotClasses:          []int{3},
			RecommendedPatterns: 1024,
			spec:                BuildSpec{Module: "ripple-adder", Width: 2, Seed: 7, Patterns: 512},
		}},
	}
	got := s.computeHotset()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("hotset = %+v\nwant %+v", got, want)
	}
	if again := s.computeHotset(); !reflect.DeepEqual(again, got) {
		t.Errorf("hotset not deterministic: %+v then %+v", got, again)
	}

	resp, data := postGet(t, ts.URL+"/v1/telemetry/hotset")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/telemetry/hotset: status %d", resp.StatusCode)
	}
	var wire struct {
		Threshold float64 `json:"threshold"`
		Models    []struct {
			Key                 string `json:"key"`
			HotClasses          []int  `json:"hot_classes"`
			RecommendedPatterns int    `json:"recommended_patterns"`
		} `json:"models"`
	}
	if err := json.Unmarshal(data, &wire); err != nil {
		t.Fatalf("hotset decode: %v", err)
	}
	if len(wire.Models) != 1 || wire.Models[0].RecommendedPatterns != 1024 ||
		!reflect.DeepEqual(wire.Models[0].HotClasses, []int{3}) {
		t.Errorf("wire hotset = %+v", wire)
	}
}

// TestSLOBreachCapture drives the unary plane over an impossibly tight
// latency budget and checks the watcher's reaction: a breach is declared,
// exactly one bounded capture set lands in CaptureDir, and the rate limit
// swallows the immediately following breach.
func TestSLOBreachCapture(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{
		BuildFunc:          instantBuilds(4),
		SLOLatencyUnary:    time.Nanosecond, // everything is over budget
		CaptureDir:         dir,
		CaptureMinInterval: time.Hour,
		CaptureMax:         4,
	})
	buildReady(t, ts.URL, map[string]any{"module": "ripple-adder", "width": 2, "seed": 7})
	for i := 0; i < 8; i++ {
		resp, _ := postRaw(t, ts.URL+"/v1/estimate",
			`{"model":{"module":"ripple-adder","width":2,"seed":7},"hd":[1]}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("estimate: status %d", resp.StatusCode)
		}
	}

	s.checkSLO()
	if n := s.met.sloBreaches("unary").Value(); n != 1 {
		t.Fatalf("breach counter = %d, want 1", n)
	}
	for _, name := range []string{
		"slo-unary-001.telemetry.json",
		"slo-unary-001.goroutine.pb.gz",
		"slo-unary-001.heap.pb.gz",
	} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("capture file %s: %v", name, err)
		}
	}
	// Captures are durable atomicio files: checksum-verified reads.
	var snap telemetry.Snapshot
	data, err := atomicio.ReadFile(filepath.Join(dir, "slo-unary-001.telemetry.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("captured snapshot is not valid JSON: %v", err)
	}

	// The second breach is inside CaptureMinInterval: counted, not captured.
	s.checkSLO()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), "slo-unary-002") {
			t.Errorf("rate limit failed: %s written", e.Name())
		}
	}
	if n := s.met.sloCaptures.Value(); n != 3 {
		t.Errorf("capture counter = %d, want 3 (snapshot + two profiles)", n)
	}
}

// TestSLOCaptureFaultPoint arms the telemetry.capture fault point and
// checks a failing capture write is counted, not fatal.
func TestSLOCaptureFaultPoint(t *testing.T) {
	faultpoint.Disarm()
	if err := faultpoint.Arm("telemetry.capture=error"); err != nil {
		t.Fatal(err)
	}
	defer faultpoint.Disarm()

	dir := t.TempDir()
	s, ts := newTestServer(t, Config{
		BuildFunc:       instantBuilds(4),
		SLOLatencyUnary: time.Nanosecond,
		CaptureDir:      dir,
	})
	buildReady(t, ts.URL, map[string]any{"module": "ripple-adder", "width": 2, "seed": 7})
	for i := 0; i < 4; i++ {
		postRaw(t, ts.URL+"/v1/estimate",
			`{"model":{"module":"ripple-adder","width":2,"seed":7},"hd":[1]}`)
	}

	s.checkSLO()
	if n := s.met.sloCaptureFailures.Value(); n != 3 {
		t.Errorf("capture failure counter = %d, want 3", n)
	}
	if n := s.met.sloCaptures.Value(); n != 0 {
		t.Errorf("capture counter = %d, want 0 with the fault armed", n)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("no capture files should survive the fault, found %d", len(entries))
	}
}

// TestRefineOnce checks the refinement loop end to end: hot traffic on a
// model with residual deviation triggers a re-characterization at the
// doubled budget, the refreshed model swaps in without the key ever
// leaving the ready state, and a second pass does not re-enqueue.
func TestRefineOnce(t *testing.T) {
	eps := []float64{0.5, 0.02, 0.10, 0.10}
	s, ts := newTestServer(t, Config{
		BuildFunc:          epsBuilds(4, eps),
		RefineMinEstimates: 1,
	})
	buildReady(t, ts.URL, map[string]any{
		"module": "ripple-adder", "width": 2, "seed": 7, "patterns": 512})

	mp := s.tel.Profiler().Model(telemetry.Key{Module: "ripple-adder", Width: 2, Seed: 7}, 5)
	for i := 0; i < 100; i++ {
		mp.RecordClass(0, 3)
	}
	mp.RecordRequest(0, 100, 0.001)

	s.refineOnce()
	if n := s.met.refineBuilds.Value(); n != 1 {
		t.Fatalf("refine builds = %d, want 1", n)
	}

	key := telemetry.Key{Module: "ripple-adder", Width: 2, Seed: 7}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, spec, ok := s.cache.readyEntrySpec(key); ok && spec.Patterns == 1024 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("refreshed model with boosted budget never swapped in")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Model stayed servable throughout, and still is.
	if _, _, ok := s.cache.readyEntrySpec(key); !ok {
		t.Fatal("model left the ready state during refresh")
	}

	// The apportionment is scale-free, so the mix stays hot after the
	// first doubling; each pass ratchets the budget exactly one step
	// (a rebuild in flight blocks stacked rebuilds in between).
	s.refineOnce()
	deadline = time.Now().Add(5 * time.Second)
	for {
		if _, spec, ok := s.cache.readyEntrySpec(key); ok && spec.Patterns == 2048 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second refinement pass did not ratchet the budget")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRefineLoop drives the refinement goroutine itself: with a short
// RefineInterval it rebuilds a hot model at a doubled budget without a
// direct refineOnce call, and Close stops it.
func TestRefineLoop(t *testing.T) {
	eps := []float64{0.5, 0.02, 0.10, 0.10}
	s, ts := newTestServer(t, Config{
		BuildFunc:          epsBuilds(4, eps),
		RefineInterval:     10 * time.Millisecond,
		RefineMinEstimates: 1,
	})
	key := telemetry.Key{Module: "ripple-adder", Width: 2, Seed: 7}
	buildReady(t, ts.URL, map[string]any{
		"module": "ripple-adder", "width": 2, "seed": 7, "patterns": 512})
	heatModel(s, 7)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, spec, ok := s.cache.readyEntrySpec(key); ok && spec.Patterns >= 1024 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the refinement loop never rebuilt %s (%d refine builds)", key, s.met.refineBuilds.Value())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := s.met.refineBuilds.Value(); n < 1 {
		t.Fatalf("refine builds = %d after a refinement rebuild, want at least 1", n)
	}

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not stop the refinement loop")
	}
	// The mix stays hot, so a loop still running would enqueue again.
	n := s.met.refineBuilds.Value()
	time.Sleep(50 * time.Millisecond)
	if got := s.met.refineBuilds.Value(); got != n {
		t.Errorf("refine builds rose from %d to %d after Close", n, got)
	}
}

// heatModel records enough hot traffic on a model for refineOnce to
// rebuild it at a doubled budget.
func heatModel(s *Server, seed int64) {
	mp := s.tel.Profiler().Model(telemetry.Key{Module: "ripple-adder", Width: 2, Seed: seed}, 5)
	for i := 0; i < 100; i++ {
		mp.RecordClass(0, 3)
	}
	mp.RecordRequest(0, 100, 0.001)
}

// waitReadyAt polls until key's ready model was built at patterns.
func waitReadyAt(t *testing.T, s *Server, key telemetry.Key, patterns int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, spec, ok := s.cache.readyEntrySpec(key); ok && spec.Patterns == patterns {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never went ready at %d patterns", key, patterns)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEvictedKeyJoinsItsRebuild: a model evicted while its refinement
// rebuild is in flight and then requested again joins the rebuild instead
// of starting a second build of the key, and goes ready at the rebuild's
// budget.
func TestEvictedKeyJoinsItsRebuild(t *testing.T) {
	eps := []float64{0.5, 0.02, 0.10, 0.10}
	release := make(chan struct{})
	var mu sync.Mutex
	runs := map[telemetry.Key]int{}
	s, ts := newTestServer(t, Config{
		ModelCache:         1,
		BuildWorkers:       2,
		RefineMinEstimates: 1,
		BuildFunc: func(ctx context.Context, spec BuildSpec, _ *core.Hooks) (*core.Model, error) {
			mu.Lock()
			runs[spec.modelKey()]++
			mu.Unlock()
			if spec.Patterns == 1024 { // the rebuild waits for the test
				select {
				case <-release:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return epsModel(4, eps), nil
		},
	})
	defer close(release)
	key := telemetry.Key{Module: "ripple-adder", Width: 2, Seed: 7}
	buildReady(t, ts.URL, map[string]any{
		"module": "ripple-adder", "width": 2, "seed": 7, "patterns": 512})
	heatModel(s, 7)
	s.refineOnce()
	if n := s.met.refineBuilds.Value(); n != 1 {
		t.Fatalf("refine builds = %d, want 1", n)
	}

	// Another model takes the one cache slot while the rebuild runs.
	buildReady(t, ts.URL, map[string]any{"module": "ripple-adder", "width": 2, "seed": 8})
	if _, _, ok := s.cache.readyEntrySpec(key); ok {
		t.Fatal("model not evicted")
	}
	dedup := s.met.buildsDeduped.Value()
	resp, data := postJSON(t, ts.URL+"/v1/models/build",
		map[string]any{"module": "ripple-adder", "width": 2, "seed": 7, "patterns": 512})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("request during rebuild: %d %s", resp.StatusCode, data)
	}
	if got := s.met.buildsDeduped.Value(); got != dedup+1 {
		t.Errorf("dedup = %d, want %d: the request did not join the rebuild", got, dedup+1)
	}

	release <- struct{}{}
	waitReadyAt(t, s, key, 1024)
	mu.Lock()
	defer mu.Unlock()
	if runs[key] != 2 {
		t.Errorf("%d builds of %s ran, want 2 (the first and the rebuild)", runs[key], key)
	}
}

// TestFailedRebuildKeepsServing: a refinement rebuild that fails leaves
// the ready model answering exact estimates, is listed as failed beside
// it in GET /v1/models, and does not stop the next pass from rebuilding.
func TestFailedRebuildKeepsServing(t *testing.T) {
	eps := []float64{0.5, 0.02, 0.10, 0.10}
	var failed atomic.Bool
	s, ts := newTestServer(t, Config{
		BuildRetries:       -1,
		RefineMinEstimates: 1,
		BuildFunc: func(ctx context.Context, spec BuildSpec, _ *core.Hooks) (*core.Model, error) {
			if spec.Patterns == 1024 && !failed.Swap(true) {
				return nil, errors.New("synthetic rebuild failure")
			}
			return epsModel(4, eps), nil
		},
	})
	key := telemetry.Key{Module: "ripple-adder", Width: 2, Seed: 7}
	buildReady(t, ts.URL, map[string]any{
		"module": "ripple-adder", "width": 2, "seed": 7, "patterns": 512})
	heatModel(s, 7)
	s.refineOnce()

	var statuses []string
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, data := httpGet(t, ts.URL+"/v1/models")
		statuses = statuses[:0]
		for _, m := range decode[modelsResponse](t, data).Models {
			if m.Key == key.String() {
				statuses = append(statuses, m.Status+" "+m.Error)
			}
		}
		if reflect.DeepEqual(statuses, []string{"ready ", "failed synthetic rebuild failure"}) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("listing of %s = %q, want the ready model and the failed rebuild", key, statuses)
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, data := postJSON(t, ts.URL+"/v1/estimate",
		map[string]any{"model": map[string]any{"module": "ripple-adder", "width": 2, "seed": 7}, "hd": []int{1, 4}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate after failed rebuild: %d %s", resp.StatusCode, data)
	}
	want := epsModel(4, eps)
	if er := decode[estimateResponse](t, data); er.Degraded ||
		!reflect.DeepEqual(er.Estimates, []float64{want.P(1), want.P(4)}) {
		t.Fatalf("estimate after failed rebuild: %+v", er)
	}

	s.refineOnce()
	if n := s.met.refineBuilds.Value(); n != 2 {
		t.Fatalf("refine builds = %d, want 2: the failed rebuild blocked the next", n)
	}
	waitReadyAt(t, s, key, 1024)
}

// TestLifecycleConcurrent drives requests, refinement rebuilds and LRU
// evictions at once: after a drain, no build is left unsettled, the ready
// set holds at most its capacity, and every entry in it is ready, keyed by
// its own spec and the table estimates resolve.
func TestLifecycleConcurrent(t *testing.T) {
	eps := []float64{0.5, 0.02, 0.10, 0.10}
	s, ts := newTestServer(t, Config{
		BuildFunc:          epsBuilds(4, eps),
		ModelCache:         2,
		BuildWorkers:       2,
		BuildQueue:         64,
		RefineMinEstimates: 1,
	})
	for seed := int64(1); seed <= 4; seed++ {
		heatModel(s, seed)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				spec := map[string]any{"module": "ripple-adder", "width": 2,
					"seed": (g+i)%4 + 1, "patterns": 512, "wait": true}
				raw, _ := json.Marshal(spec)
				resp, err := http.Post(ts.URL+"/v1/models/build", "application/json", strings.NewReader(string(raw)))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("build: status %d", resp.StatusCode)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			s.refineOnce()
		}
	}()
	wg.Wait()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	c := s.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	ready := c.readySet()
	if len(ready) > 2 {
		t.Errorf("ready set holds %d models, capacity 2", len(ready))
	}
	for key, ent := range c.builds {
		t.Errorf("build of %s left %s after drain", key, ent.status)
	}
	for key, ent := range ready {
		if ent.status != statusReady || key != ent.spec.modelKey() || c.table(key) != ent.table {
			t.Errorf("ready set entry under %s: status %s, spec key %s, resolved by table: %t",
				key, ent.status, ent.spec.Key(), c.table(key) == ent.table)
		}
	}
}

// TestRefineSkipsColdModels checks the traffic floor: a model below
// RefineMinEstimates is never rebuilt no matter how skewed its mix.
func TestRefineSkipsColdModels(t *testing.T) {
	eps := []float64{0.5, 0.02, 0.10, 0.10}
	s, ts := newTestServer(t, Config{
		BuildFunc:          epsBuilds(4, eps),
		RefineMinEstimates: 1000,
	})
	buildReady(t, ts.URL, map[string]any{
		"module": "ripple-adder", "width": 2, "seed": 7, "patterns": 512})
	mp := s.tel.Profiler().Model(telemetry.Key{Module: "ripple-adder", Width: 2, Seed: 7}, 5)
	for i := 0; i < 50; i++ {
		mp.RecordClass(0, 3)
	}
	mp.RecordRequest(0, 50, 0.001)

	s.refineOnce()
	if n := s.met.refineBuilds.Value(); n != 0 {
		t.Fatalf("refine builds = %d, want 0 below the traffic floor", n)
	}
}

// TestProfilerZeroAllocWithTraffic re-proves the hot shape's zero-alloc
// invariant with the profiler hot: recording per-class hits and request
// latency into the sharded counters adds no allocations.
func TestProfilerZeroAllocWithTraffic(t *testing.T) {
	s, ts := newTestServer(t, Config{BuildFunc: instantBuilds(4)})
	buildReady(t, ts.URL, map[string]any{"module": "ripple-adder", "width": 2, "seed": 7})

	raw := []byte(`{"model":{"module":"ripple-adder","width":2,"seed":7},"hd":[0,1,2,3,4]}`)
	sc := getScratch()
	defer putScratch(sc)
	allocs := testing.AllocsPerRun(500, func() {
		if _, rerr := s.estimate(raw, sc, false); rerr != nil {
			t.Fatal(rerr.msg)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocs/op with profiler recording, want 0", allocs)
	}
	// And the traffic actually landed.
	ms := s.tel.Profiler().SnapshotModels()
	if len(ms) != 1 || ms[0].Estimates == 0 {
		t.Fatalf("profiler recorded nothing: %+v", ms)
	}
}
