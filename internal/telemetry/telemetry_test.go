package telemetry

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Dropped returns the number of model registrations refused by the cap.
func (p *Profiler) Dropped() uint64 { return p.dropped.Load() }

// clockAt builds a Config.Now returning a fixed, settable time.
type clock struct {
	mu sync.Mutex
	t  time.Time
}

func newClock(t time.Time) *clock { return &clock{t: t} }

func (c *clock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *clock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestTelemetry(t *testing.T, cfg Config) (*Telemetry, *clock) {
	t.Helper()
	ck := newClock(time.Unix(1_700_000_000, 0))
	if cfg.Now == nil {
		cfg.Now = ck.now
	}
	tel, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tel, ck
}

func TestNewRequiresClock(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New must reject a nil Config.Now")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{Now: func() time.Time { return time.Unix(0, 0) }}.withDefaults()
	if cfg.Window != 10*time.Second || cfg.Windows != 30 || cfg.FastWindows != 3 {
		t.Fatalf("window defaults wrong: %+v", cfg)
	}
	if len(cfg.Bounds) == 0 {
		t.Fatalf("bounds default wrong: %+v", cfg)
	}
	tel, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tel.prof.shards, min(runtime.GOMAXPROCS(0), 16); got != want {
		t.Fatalf("profiler shards = %d, want GOMAXPROCS capped at 16 (%d)", got, want)
	}
	// FastWindows clamps to Windows.
	cfg = Config{Now: cfg.Now, Windows: 2, FastWindows: 9}.withDefaults()
	if cfg.FastWindows != 2 {
		t.Fatalf("FastWindows = %d, want clamp to 2", cfg.FastWindows)
	}
}

func TestPlaneRegistrationDedup(t *testing.T) {
	tel, _ := newTestTelemetry(t, Config{})
	a := tel.Plane("unary", SLO{LatencyBudget: 0.01})
	b := tel.Plane("unary", SLO{LatencyBudget: 99})
	if a != b {
		t.Fatal("re-registering a plane name must return the existing plane")
	}
	if a.Name() != "unary" {
		t.Fatalf("name = %q", a.Name())
	}
	if got := a.slo.Objective; got != 0.999 {
		t.Fatalf("default objective = %v, want 0.999", got)
	}
	if got := a.slo.BreachBurn; got != 2 {
		t.Fatalf("default breach burn = %v, want 2", got)
	}
	if tel.Now().IsZero() {
		t.Fatal("Now() must return the injected clock's time")
	}
}

func TestPlaneQuantilesAndBurn(t *testing.T) {
	tel, ck := newTestTelemetry(t, Config{
		Window:  time.Second,
		Windows: 10,
		Bounds:  []float64{0.001, 0.01, 0.1},
	})
	p := tel.Plane("unary", SLO{LatencyBudget: 0.01, Objective: 0.9, BreachBurn: 2})

	for i := 0; i < 10; i++ {
		p.Observe(ck.now(), 0.005, false) // good
		p.Observe(ck.now(), 0.05, false)  // bad: overruns the budget
	}
	s := p.Snapshot(ck.now())
	if s.Requests != 20 || s.Bad != 10 {
		t.Fatalf("requests=%d bad=%d, want 20/10", s.Requests, s.Bad)
	}
	if math.Abs(s.P50-0.01) > 1e-12 {
		t.Fatalf("p50 = %v, want 0.01", s.P50)
	}
	if s.P99 <= 0.01 || s.P99 > 0.1 {
		t.Fatalf("p99 = %v, want in (0.01, 0.1]", s.P99)
	}
	// badFrac 0.5 against a 0.1 error budget: burn 5 on both spans.
	if math.Abs(s.BurnFast-5) > 1e-9 || math.Abs(s.BurnSlow-5) > 1e-9 {
		t.Fatalf("burn fast=%v slow=%v, want 5/5", s.BurnFast, s.BurnSlow)
	}
	if !s.Breached {
		t.Fatal("burn 5 >= threshold 2 on both spans must breach")
	}

	// A server error burns budget even when fast.
	p.Observe(ck.now(), 0.0001, true)
	if got := p.Snapshot(ck.now()).Bad; got != 11 {
		t.Fatalf("bad after server error = %d, want 11", got)
	}
}

func TestPlaneNoTrafficNoBreach(t *testing.T) {
	tel, ck := newTestTelemetry(t, Config{Window: time.Second, Windows: 4})
	p := tel.Plane("stream", SLO{LatencyBudget: 0.001})
	s := p.Snapshot(ck.now())
	if s.Breached || s.BurnFast != 0 || s.BurnSlow != 0 || s.QPS != 0 {
		t.Fatalf("idle plane must be quiet: %+v", s)
	}
}

// TestWindowExpiry drives the ring through a full revolution: data older
// than the ring span must drop out of the windowed view while the
// cumulative totals keep it.
func TestWindowExpiry(t *testing.T) {
	tel, ck := newTestTelemetry(t, Config{Window: time.Second, Windows: 4, FastWindows: 2})
	p := tel.Plane("unary", SLO{LatencyBudget: 0.01})
	p.Observe(ck.now(), 0.5, false) // bad, lands in the current window

	if _, total, bad := p.ring.merge(ck.now(), p.ring.windows); total != 1 || bad != 1 {
		t.Fatalf("fresh observation missing: total=%d bad=%d", total, bad)
	}

	// A full revolution later the slot is reused and reset.
	ck.advance(5 * time.Second)
	p.Observe(ck.now(), 0.001, false)
	_, total, bad := p.ring.merge(ck.now(), p.ring.windows)
	if total != 1 || bad != 0 {
		t.Fatalf("expired window leaked into the view: total=%d bad=%d", total, bad)
	}
	s := p.Snapshot(ck.now())
	if s.Requests != 2 || s.Bad != 1 {
		t.Fatalf("cumulative totals must survive expiry: %+v", s)
	}
}

func TestQPS(t *testing.T) {
	tel, ck := newTestTelemetry(t, Config{Window: time.Second, Windows: 10, FastWindows: 3})
	p := tel.Plane("unary", SLO{LatencyBudget: 1})

	// Startup: only the current, half-elapsed window has traffic.
	ck.advance(500 * time.Millisecond)
	for i := 0; i < 50; i++ {
		p.Observe(ck.now(), 0.001, false)
	}
	if got := p.ring.qps(ck.now(), 3); math.Abs(got-100) > 1 {
		t.Fatalf("startup qps = %v, want ~100", got)
	}

	// Steady state: a completed window with 100 requests.
	ck.advance(time.Second)
	for i := 0; i < 100; i++ {
		p.Observe(ck.now(), 0.001, false)
	}
	ck.advance(time.Second)
	if got := p.ring.qps(ck.now(), 3); math.Abs(got-75) > 1 {
		// Two completed active windows: 50 + 100 over 2s.
		t.Fatalf("steady qps = %v, want ~75", got)
	}
}

func TestProfilerBasics(t *testing.T) {
	p := newProfiler(4, 8)
	key := Key{Module: "csa-multiplier", Width: 8, Seed: 1}
	if got, want := key.String(), "csa-multiplier/w8/s1"; got != want {
		t.Fatalf("key string = %q, want %q", got, want)
	}

	mp := p.Model(key, 17)
	if mp == nil {
		t.Fatal("first registration returned nil")
	}
	if again := p.Model(key, 17); again != mp {
		t.Fatal("hit path must return the registered model")
	}

	mp.RecordClass(0, 3)
	mp.RecordClass(1, 3)
	mp.RecordClass(2, 16)
	mp.RecordClass(3, -1)  // ignored
	mp.RecordClass(0, 999) // clamped into the top class
	mp.RecordRequest(0, 3, 0.002)
	mp.RecordRequest(1, 0, 0) // no estimates, no latency sample

	s := mp.Snapshot()
	if s.Requests != 2 || s.Estimates != 3 {
		t.Fatalf("requests=%d estimates=%d, want 2/3", s.Requests, s.Estimates)
	}
	if s.HdHits[3] != 2 || s.HdHits[16] != 2 {
		// class 16 holds its own hit plus the clamped out-of-range one.
		t.Fatalf("hd hits = %v", s.HdHits)
	}
	if math.Abs(s.AvgLatency-0.002) > 1e-9 {
		t.Fatalf("avg latency = %v, want 0.002", s.AvgLatency)
	}
	if s.Classes != 17 || len(s.HdHits) != 17 {
		t.Fatalf("classes = %d len(hits) = %d", s.Classes, len(s.HdHits))
	}

	// Nil model (over cap) is safe to record into.
	var nilProf *ModelProf
	nilProf.RecordClass(0, 1)
	nilProf.RecordRequest(0, 1, 0.001)
}

// TestRecordClassesMatchesRecordClass pins the batched class flush to the
// per-estimate record: counting a series into a class array and flushing
// it once leaves the snapshot that recording each class does, including
// the fold of classes above the model's count into its top class.
func TestRecordClassesMatchesRecordClass(t *testing.T) {
	perCycle, batched := newProfiler(2, 4), newProfiler(2, 4)
	key := Key{Module: "csa-multiplier", Width: 8, Seed: 1}
	var counts [MaxClasses]uint64
	for hint := uint32(0); hint < 3; hint++ {
		clear(counts[:])
		cycles := 0
		for c := 0; c < MaxClasses; c++ {
			for k := 0; k < (c*7+int(hint))%5; k++ {
				perCycle.Model(key, 17).RecordClass(hint, c)
				counts[c]++
				cycles++
			}
		}
		batched.Model(key, 17).RecordClasses(hint, &counts)
		for _, p := range []*Profiler{perCycle, batched} {
			p.Model(key, 17).RecordRequest(hint, cycles, 0.001)
		}
	}
	got, want := batched.Model(key, 17).Snapshot(), perCycle.Model(key, 17).Snapshot()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("batched snapshot %+v, per-cycle %+v", got, want)
	}
	var nilProf *ModelProf
	nilProf.RecordClasses(0, &counts)
}

func TestProfilerCapAndOrder(t *testing.T) {
	p := newProfiler(2, 2)
	a := p.Model(Key{Module: "zzz", Width: 8, Seed: 1}, 4)
	b := p.Model(Key{Module: "aaa", Width: 8, Seed: 1}, 4)
	if a == nil || b == nil {
		t.Fatal("registrations under the cap must succeed")
	}
	if over := p.Model(Key{Module: "mmm", Width: 8, Seed: 1}, 4); over != nil {
		t.Fatal("registration over the cap must return nil")
	}
	if p.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", p.Dropped())
	}
	snaps := p.SnapshotModels()
	if len(snaps) != 2 || snaps[0].Module != "aaa" || snaps[1].Module != "zzz" {
		t.Fatalf("snapshots not key-sorted: %+v", snaps)
	}
	// Class counts clamp to the representable range.
	if mp := p.Model(Key{Module: "w", Width: 1, Seed: 1}, 0); mp != nil {
		t.Fatal("cap must hold for clamped registrations too")
	}
}

func TestProfilerClassClamp(t *testing.T) {
	p := newProfiler(1, 4)
	lo := p.Model(Key{Module: "lo"}, 0)
	if lo.classes != 1 {
		t.Fatalf("classes = %d, want clamp to 1", lo.classes)
	}
	hi := p.Model(Key{Module: "hi"}, MaxClasses+10)
	if hi.classes != MaxClasses {
		t.Fatalf("classes = %d, want clamp to %d", hi.classes, MaxClasses)
	}
}

func TestTelemetrySnapshot(t *testing.T) {
	tel, ck := newTestTelemetry(t, Config{Window: time.Second, Windows: 4})
	unary := tel.Plane("unary", SLO{LatencyBudget: 0.025})
	tel.Plane("stream", SLO{LatencyBudget: 0.08})
	unary.Observe(ck.now(), 0.001, false)

	mp := tel.Profiler().Model(Key{Module: "ripple-adder", Width: 8, Seed: 1}, 17)
	mp.RecordClass(0, 5)
	mp.RecordRequest(0, 1, 0.0003)

	s := tel.Snapshot()
	if s.Windows != 4 || s.WindowSeconds != 1 {
		t.Fatalf("window config missing from snapshot: %+v", s)
	}
	if len(s.Planes) != 2 || s.Planes[0].Plane != "unary" || s.Planes[1].Plane != "stream" {
		t.Fatalf("planes = %+v", s.Planes)
	}
	if s.Planes[0].Requests != 1 {
		t.Fatalf("unary requests = %d", s.Planes[0].Requests)
	}
	if len(s.Models) != 1 || s.Models[0].HdHits[5] != 1 {
		t.Fatalf("models = %+v", s.Models)
	}
	if s.DroppedModels != 0 {
		t.Fatalf("dropped = %d", s.DroppedModels)
	}
}

// TestProfilerConcurrency hammers the sharded profiler from GOMAXPROCS
// goroutines recording one estimate at a time and as many flushing
// batchCycles-estimate batches with RecordClasses, while a snapshotter
// runs concurrently: no counts may be lost, and every intermediate
// snapshot must be internally consistent — counters monotone between
// snapshots, bounded by the final totals, and the class-sum never further
// from the estimate count than the records in flight allow (each writer
// has at most one record, of at most batchCycles estimates, in flight).
func TestProfilerConcurrency(t *testing.T) {
	const (
		iters       = 20000
		batchCycles = 64
		classes     = 17
	)
	perCycle := runtime.GOMAXPROCS(0)
	writers := 2 * perCycle
	p := newProfiler(perCycle, 8)
	key := Key{Module: "csa-multiplier", Width: 8, Seed: 1}

	var stop atomic.Bool
	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(hint uint32, batched bool) {
			defer writersWG.Done()
			var counts [MaxClasses]uint64
			for i := 0; i < iters; i++ {
				mp := p.Model(key, classes)
				if !batched {
					mp.RecordClass(hint, i%classes)
					mp.RecordRequest(hint, 1, 0.001)
					continue
				}
				if i%batchCycles != batchCycles-1 {
					continue
				}
				clear(counts[:])
				for c := 0; c < batchCycles; c++ {
					counts[(i+c)%classes]++
				}
				mp.RecordClasses(hint, &counts)
				mp.RecordRequest(hint, batchCycles, 0.001)
			}
		}(uint32(w), w >= perCycle)
	}

	bound := int64(2 * writers * batchCycles)
	snapErr := make(chan error, 1)
	go func() {
		var prevHits, prevEst uint64
		for !stop.Load() {
			for _, s := range p.SnapshotModels() {
				var hits uint64
				for _, h := range s.HdHits {
					hits += h
				}
				if hits < prevHits || s.Estimates < prevEst {
					snapErr <- fmt.Errorf("counters went backwards: hits %d->%d estimates %d->%d",
						prevHits, hits, prevEst, s.Estimates)
					return
				}
				if diff := int64(hits) - int64(s.Estimates); diff > bound || diff < -bound {
					snapErr <- fmt.Errorf("snapshot skew %d exceeds in-flight bound %d", diff, bound)
					return
				}
				prevHits, prevEst = hits, s.Estimates
			}
			runtime.Gosched()
		}
		snapErr <- nil
	}()

	writersWG.Wait()
	stop.Store(true)
	if err := <-snapErr; err != nil {
		t.Fatal(err)
	}

	final := p.Model(key, classes).Snapshot()
	batches := uint64(iters / batchCycles)
	wantEst := uint64(perCycle) * (iters + batches*batchCycles)
	wantReq := uint64(perCycle) * (iters + batches)
	if final.Requests != wantReq || final.Estimates != wantEst {
		t.Fatalf("lost counts: requests=%d estimates=%d, want %d/%d",
			final.Requests, final.Estimates, wantReq, wantEst)
	}
	var hits uint64
	for _, h := range final.HdHits {
		hits += h
	}
	if hits != wantEst {
		t.Fatalf("lost class hits: %d, want %d", hits, wantEst)
	}
}

// TestProfilerConcurrentRegistration races registrations of distinct keys
// against the cap from many goroutines.
func TestProfilerConcurrentRegistration(t *testing.T) {
	const cap = 16
	p := newProfiler(2, cap)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				p.Model(Key{Module: "m", Width: i % 32, Seed: seed}, 8)
			}
		}(int64(w))
	}
	wg.Wait()
	if got := len(p.SnapshotModels()); got != cap {
		t.Fatalf("registered %d models, want cap %d", got, cap)
	}
	if p.Dropped() == 0 {
		t.Fatal("over-cap registrations must be counted")
	}
}
