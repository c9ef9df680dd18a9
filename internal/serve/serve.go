// Package serve is the HTTP front-end of the Hd power macro-model: a
// JSON API that separates slow characterization (model builds through the
// parallel engine, deduplicated and cached) from fast evaluation
// (per-cycle table lookups and the closed-form word-statistics estimator),
// the split the paper's Sections 4–6 make possible. The server is built
// for unattended operation: per-request timeouts, a bounded build queue
// with 429 backpressure, request body caps, panic recovery, Prometheus
// metrics via internal/obs, and a graceful drain that lets in-flight
// builds finish.
//
// Endpoints:
//
//	POST /v1/estimate                 per-cycle estimates from Hd classes or vectors
//	POST /v1/estimate/stream          NDJSON batch: one estimate request per line
//	POST /v1/estimate/stats           closed-form average from (μ, σ, ρ, width)
//	GET  /v1/models                   cached / in-flight model inventory
//	POST /v1/models/build             async characterize+fit (singleflight, LRU)
//	GET  /v1/models/build/{id}        live build progress (shards, patterns)
//	GET  /v1/models/{id}/manifest     flight-recorder manifest of a settled build
//	GET  /v1/telemetry                windowed latency/QPS/burn-rate + Hd-mix snapshot
//	GET  /v1/telemetry/hotset         traffic-weighted characterization-budget advice
//	GET  /healthz                     liveness
//	GET  /readyz                      readiness (503 while draining)
//	GET  /metrics                     Prometheus text exposition
//
// Every request runs under a root span (trace ID echoed in X-Trace-ID and
// the access log), model builds produce child spans per phase and merged
// shard, and AdminHandler serves /debug/pprof and /debug/traces on an
// operator-only listener.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hdpower/internal/core"
	"hdpower/internal/faultpoint"
	"hdpower/internal/fleet"
	"hdpower/internal/hddist"
	"hdpower/internal/modellib"
	"hdpower/internal/obs"
	"hdpower/internal/telemetry"
)

// Config tunes the server. Zero values select the documented defaults.
type Config struct {
	// MaxBodyBytes caps request bodies (default 1 MiB).
	MaxBodyBytes int64
	// RequestTimeout bounds each request's context (default 15s).
	RequestTimeout time.Duration
	// BuildTimeout bounds one model build (default 10m).
	BuildTimeout time.Duration
	// BuildWorkers sizes the build worker pool (default 1: builds are
	// CPU-bound and internally parallel via CharWorkers).
	BuildWorkers int
	// BuildQueue bounds the pending-build queue; a full queue answers
	// 429 (default 16).
	BuildQueue int
	// ModelCache is the LRU capacity in fitted models (default 64).
	ModelCache int
	// CharWorkers is passed to core.Characterize (0 = NumCPU).
	CharWorkers int
	// Backend selects the simulation engine behind characterization
	// (core.BackendBitParallel, core.BackendEvent). The zero value
	// BackendAuto resolves to the event-driven golden reference, which
	// keeps embedded servers bit-identical to earlier releases; cmd/hdserve
	// defaults the flag to bitparallel. Changing the backend changes the
	// build's checkpoint identity, so restarted servers discard checkpoints
	// from the other engine and rebuild instead of mixing charges.
	Backend core.BackendKind
	// BuildFunc overrides the characterization backend; tests inject
	// slow or failing builds here. nil selects the real engine.
	BuildFunc func(ctx context.Context, spec BuildSpec, hooks *core.Hooks) (*core.Model, error)
	// Logger receives access-log and build-lifecycle records; nil discards
	// them.
	Logger *slog.Logger
	// TraceCapacity bounds the recent-span ring (default 512).
	TraceCapacity int
	// ManifestDir, when set, persists one flight-recorder manifest per
	// build as <dir>/<build id>.manifest.json, and Close dumps the span
	// ring to <dir>/traces.json.
	ManifestDir string
	// CheckpointDir, when set, makes builds crash-safe: each build
	// checkpoints its merged characterization state to
	// <dir>/<build id>.ckpt.json and records its spec as
	// <dir>/<build id>.spec.json. A restarted server re-enqueues the
	// recorded builds and resumes them from their checkpoints, producing
	// bit-identical models to an uninterrupted build.
	CheckpointDir string
	// CheckpointEvery is the checkpoint interval in merged shards
	// (default 16).
	CheckpointEvery int
	// BuildRetries is how many times a transiently failed build attempt is
	// retried with capped exponential backoff before the build settles as
	// failed (default 2; negative disables retries). Context cancellation,
	// timeouts and checkpoint mismatches are never retried.
	BuildRetries int
	// BuildRetryBackoff is the base backoff before the first retry
	// (default 250ms), doubling per attempt with full jitter, capped at 5s.
	BuildRetryBackoff time.Duration
	// LibraryDir, when set, opens a durable model library (modellib): every
	// successful build is persisted there, and /v1/estimate degrades to
	// library models (or width-regression synthesis) when the requested
	// model is not cached — answers marked "degraded" instead of 404.
	LibraryDir string

	// TelemetryWindow is the width of one telemetry aggregation window
	// (default 10s); TelemetryWindows is how many the ring keeps
	// (default 30). Together they bound how far back /v1/telemetry looks.
	TelemetryWindow  time.Duration
	TelemetryWindows int
	// SLOLatencyUnary / SLOLatencyStream are the per-request latency
	// budgets of the two estimate planes (defaults 25ms and 80ms); a
	// request over budget or answered ≥500 counts against the SLO.
	SLOLatencyUnary  time.Duration
	SLOLatencyStream time.Duration
	// SLOObjective is the success-rate objective (default 0.999);
	// SLOBurnBreach is the burn-rate multiple on both the fast and slow
	// spans that declares a breach (default 2).
	SLOObjective  float64
	SLOBurnBreach float64
	// CaptureDir, when set, enables automatic pprof capture on SLO breach:
	// each breach writes a telemetry snapshot plus goroutine and heap
	// profiles there, rate-limited by CaptureMinInterval (default 1m) and
	// bounded at CaptureMax captures per process (default 8).
	CaptureDir         string
	CaptureMinInterval time.Duration
	CaptureMax         int
	// ProfiledModels caps the traffic profiler's model set (default 128);
	// traffic to models past the cap is counted only in aggregate.
	ProfiledModels int
	// RefineInterval, when positive, starts the refinement loop: every
	// interval the server converts the observed Hd mix into budget
	// recommendations and re-characterizes hot under-budgeted models at a
	// doubled pattern budget. RefineThreshold is the multiple of the
	// uniform per-class budget a class's recommendation must reach to be
	// hot (default 2); RefineMinEstimates is the traffic floor below which
	// a model is never refined (default 1024).
	RefineInterval     time.Duration
	RefineThreshold    float64
	RefineMinEstimates uint64

	// Fleet, when set, runs this server as a distributed-characterization
	// coordinator: the fleet endpoints (/fleet/v1/*) are mounted, the
	// coordinator's hdfleet_* metrics join the server registry, and model
	// builds dispatch to the worker fleet whenever at least one worker is
	// alive — degrading to the local engine otherwise. Build results are
	// bit-identical either way.
	Fleet *fleet.Coordinator
}

func (c *Config) setDefaults() {
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 15 * time.Second
	}
	if c.BuildTimeout <= 0 {
		c.BuildTimeout = 10 * time.Minute
	}
	if c.BuildWorkers <= 0 {
		c.BuildWorkers = 1
	}
	if c.BuildQueue <= 0 {
		c.BuildQueue = 16
	}
	if c.ModelCache <= 0 {
		c.ModelCache = 64
	}
	if c.BuildRetries == 0 {
		c.BuildRetries = 2
	}
	if c.BuildRetries < 0 {
		c.BuildRetries = 0
	}
	if c.BuildRetryBackoff <= 0 {
		c.BuildRetryBackoff = 250 * time.Millisecond
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 16
	}
	if c.TelemetryWindow <= 0 {
		c.TelemetryWindow = 10 * time.Second
	}
	if c.TelemetryWindows <= 0 {
		c.TelemetryWindows = 30
	}
	if c.SLOLatencyUnary <= 0 {
		c.SLOLatencyUnary = 25 * time.Millisecond
	}
	if c.SLOLatencyStream <= 0 {
		c.SLOLatencyStream = 80 * time.Millisecond
	}
	if c.SLOObjective <= 0 || c.SLOObjective >= 1 {
		c.SLOObjective = 0.999
	}
	if c.SLOBurnBreach <= 0 {
		c.SLOBurnBreach = 2
	}
	if c.CaptureMinInterval <= 0 {
		c.CaptureMinInterval = time.Minute
	}
	if c.CaptureMax <= 0 {
		c.CaptureMax = 8
	}
	if c.ProfiledModels <= 0 {
		c.ProfiledModels = 128
	}
	if c.RefineThreshold <= 0 {
		c.RefineThreshold = 2
	}
	if c.RefineMinEstimates == 0 {
		c.RefineMinEstimates = 1024
	}
}

// metrics bundles every instrument the server exports.
type metrics struct {
	reg *obs.Registry

	inflight      *obs.Gauge
	panics        *obs.Counter
	buildsRun     *obs.Counter
	buildsFailed  *obs.Counter
	buildsDeduped *obs.Counter
	cacheHits     *obs.Counter
	cacheEvicted  *obs.Counter
	queueDepth    *obs.Gauge
	queueRejected *obs.Counter
	buildSeconds  *obs.Histogram
	estCycles     *obs.Counter
	lutSwaps      *obs.Gauge

	// The served-path counters are resolved once here: the labeled-counter
	// registry lookup locks and allocates, which the per-estimate hot path
	// must not.
	servedLUT    *obs.Counter
	servedLegacy *obs.Counter

	charPatterns   *obs.Counter
	charShards     *obs.Counter
	charEarlyStops *obs.Counter

	buildRetries    *obs.Counter
	buildsRecovered *obs.Counter
	buildsResumed   *obs.Counter
	ckptSaves       *obs.Counter
	ckptFailures    *obs.Counter

	refineBuilds       *obs.Counter
	sloCaptures        *obs.Counter
	sloCaptureFailures *obs.Counter
}

func newMetrics() *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		reg:           reg,
		inflight:      reg.Gauge("hdserve_inflight_requests", "HTTP requests currently being served"),
		panics:        reg.Counter("hdserve_panics_total", "handler panics recovered"),
		buildsRun:     reg.Counter("hdserve_model_builds_total", "model builds executed (post-singleflight)"),
		buildsFailed:  reg.Counter("hdserve_model_build_failures_total", "model builds that returned an error"),
		buildsDeduped: reg.Counter("hdserve_model_build_dedup_total", "build requests coalesced onto an in-flight build"),
		cacheHits:     reg.Counter("hdserve_model_cache_hits_total", "build or estimate requests served from the model cache"),
		cacheEvicted:  reg.Counter("hdserve_model_cache_evictions_total", "fitted models evicted by the LRU"),
		queueDepth:    reg.Gauge("hdserve_build_queue_depth", "builds waiting for a worker"),
		queueRejected: reg.Counter("hdserve_build_queue_rejected_total", "build requests rejected with 429 (queue full)"),
		buildSeconds:  reg.Histogram("hdserve_model_build_seconds", "model build latency", nil),
		estCycles:     reg.Counter("hdserve_estimate_cycles_total", "cycles estimated across all estimate requests"),
		lutSwaps:      reg.Gauge("hdserve_estimate_lut_swaps_total", "RCU publishes of the flattened-model LUT snapshot"),

		charPatterns:   reg.Counter("hdserve_char_patterns_total", "characterization pairs simulated"),
		charShards:     reg.Counter("hdserve_char_shards_merged_total", "characterization shards merged"),
		charEarlyStops: reg.Counter("hdserve_char_early_stops_total", "characterization runs ended early by convergence"),

		// The process allocation counter gives load generators (cmd/hdload)
		// a wire-visible allocs/op: scrape /metrics before and after a load
		// phase and divide the delta by the estimates served.
		buildRetries:    reg.Counter("hdserve_model_build_retries_total", "transiently failed build attempts retried"),
		buildsRecovered: reg.Counter("hdserve_builds_recovered_total", "interrupted builds re-enqueued at startup"),
		buildsResumed:   reg.Counter("hdserve_builds_resumed_total", "characterization runs resumed from a checkpoint"),
		ckptSaves:       reg.Counter("hdserve_checkpoint_saves_total", "characterization checkpoints written"),
		ckptFailures:    reg.Counter("hdserve_checkpoint_failures_total", "characterization checkpoint writes that failed"),

		refineBuilds:       reg.Counter("hdserve_refine_builds_total", "re-characterization builds enqueued by the refinement loop"),
		sloCaptures:        reg.Counter("hdserve_slo_captures_total", "SLO-breach diagnostic captures written"),
		sloCaptureFailures: reg.Counter("hdserve_slo_capture_failures_total", "SLO-breach diagnostic captures that failed to write"),
	}
	m.servedLUT = m.estimateServed(servedLUT)
	m.servedLegacy = m.estimateServed(servedLegacy)
	m.reg.CounterFunc("hdserve_go_mallocs_total",
		"cumulative heap objects allocated by the process (runtime.MemStats.Mallocs)",
		func() uint64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return ms.Mallocs
		})
	return m
}

// buildsByBackend counts model builds by the simulation backend that
// priced them, so operators can tell bitparallel and event (golden
// reference) build volume apart when comparing latency or drift.
func (m *metrics) buildsByBackend(backend string) *obs.Counter {
	return m.reg.CounterL("hdserve_model_builds_by_backend_total",
		"model builds executed, labeled by simulation backend",
		[]obs.Label{{Key: "backend", Value: backend}})
}

// estimateDegraded counts estimate answers served from a fallback model,
// labeled by which rung of the degradation chain answered. Counted per
// estimate — the stream endpoint increments it once per degraded line,
// not once per request, so unary and batch traffic read the same way.
func (m *metrics) estimateDegraded(fallback string) *obs.Counter {
	return m.reg.CounterL("hdserve_estimate_degraded_total",
		"estimates answered from a fallback model instead of the requested one",
		[]obs.Label{{Key: "fallback", Value: fallback}})
}

// estimateServed counts answered estimates by the code path that produced
// them: "lut" for the lock-free flattened-table fast path, "legacy" for
// the encoding/json + struct-walk fallback. Per item on the stream
// endpoint, like every other hdserve_estimate_* counter.
func (m *metrics) estimateServed(path string) *obs.Counter {
	return m.reg.CounterL("hdserve_estimate_served_total",
		"estimates answered, labeled by serving path (lut = lock-free fast path)",
		[]obs.Label{{Key: "path", Value: path}})
}

// sloBreaches counts SLO breach observations by plane. Incremented by the
// watcher once per breached check, never on the request path.
func (m *metrics) sloBreaches(plane string) *obs.Counter {
	return m.reg.CounterL("hdserve_slo_breaches_total",
		"SLO breach observations by the telemetry watcher, labeled by plane",
		[]obs.Label{{Key: "plane", Value: plane}})
}

func (m *metrics) request(path string, code int) *obs.Counter {
	return m.reg.CounterL("hdserve_requests_total", "HTTP requests by route and status code",
		[]obs.Label{{Key: "path", Value: path}, {Key: "code", Value: strconv.Itoa(code)}})
}

func (m *metrics) latency(path string) *obs.Histogram {
	return m.reg.HistogramL("hdserve_request_seconds", "HTTP request latency by route",
		obs.L("path", path), nil)
}

// Server is one hdserve instance.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	met      *metrics
	cache    *modelCache
	hooks    *core.Hooks
	tracer   *obs.Tracer
	log      *slog.Logger
	lib      *modellib.Library // nil unless LibraryDir is configured and opens
	distMemo *hddist.Memo      // closed-form Hd-distribution cache (stats endpoint)

	tel         *telemetry.Telemetry
	planeUnary  *telemetry.Plane
	planeStream *telemetry.Plane
	// SLO-capture state, touched only by the watcher goroutine (and tests
	// calling checkSLO directly), so it needs no lock.
	lastCapture  time.Time
	captureCount int

	queue     chan *buildEntry
	buildWG   sync.WaitGroup // queued + running builds
	workerWG  sync.WaitGroup // worker goroutines
	quit      chan struct{}
	closeOnce sync.Once
	draining  atomic.Bool

	buildFn func(ctx context.Context, spec BuildSpec, hooks *core.Hooks) (*core.Model, error)
}

// New constructs a server and starts its build worker pool. Callers must
// Close it (after an optional Drain) to stop the workers.
func New(cfg Config) *Server {
	cfg.setDefaults()
	met := newMetrics()
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		met:      met,
		cache:    newModelCache(cfg.ModelCache, met),
		queue:    make(chan *buildEntry, cfg.BuildQueue),
		quit:     make(chan struct{}),
		tracer:   obs.NewTracer(cfg.TraceCapacity),
		log:      cfg.Logger,
		distMemo: hddist.NewMemo(0),
	}
	if s.log == nil {
		s.log = obs.NopLogger()
	}
	s.tracer.RegisterMetrics(met.reg, "hdserve")
	if cfg.ManifestDir != "" {
		if err := os.MkdirAll(cfg.ManifestDir, 0o755); err != nil {
			s.log.Error("manifest dir unavailable; manifests disabled",
				"dir", cfg.ManifestDir, "err", err)
			s.cfg.ManifestDir = ""
		}
	}
	if cfg.CheckpointDir != "" {
		if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
			s.log.Error("checkpoint dir unavailable; crash-safe builds disabled",
				"dir", cfg.CheckpointDir, "err", err)
			s.cfg.CheckpointDir = ""
		}
	}
	if cfg.LibraryDir != "" {
		lib, err := modellib.Open(cfg.LibraryDir)
		if err != nil {
			s.log.Error("model library unavailable; degraded estimates disabled",
				"dir", cfg.LibraryDir, "err", err)
		} else {
			s.lib = lib
		}
	}
	s.hooks = &core.Hooks{
		PatternsSimulated: func(n int) { met.charPatterns.Add(int64(n)) },
		ShardMerged:       func() { met.charShards.Inc() },
		EarlyStop:         func(int) { met.charEarlyStops.Inc() },
		Resumed: func(phase string, shards, _, _ int) {
			met.buildsResumed.Inc()
			s.log.Info("characterization resumed from checkpoint",
				"phase", phase, "shards_restored", shards)
		},
		CheckpointSaved: func(err error) {
			if err != nil {
				met.ckptFailures.Inc()
				s.log.Warn("checkpoint write failed", "err", err)
				return
			}
			met.ckptSaves.Inc()
		},
	}
	s.buildFn = cfg.BuildFunc
	if s.buildFn == nil {
		s.buildFn = s.characterize
	}

	// The telemetry plane must exist before route registration: wrap
	// resolves each route's SLO plane once, at registration time.
	tel, err := telemetry.New(telemetry.Config{
		Now:       time.Now,
		Window:    s.cfg.TelemetryWindow,
		Windows:   s.cfg.TelemetryWindows,
		MaxModels: s.cfg.ProfiledModels,
	})
	if err != nil {
		panic("serve: telemetry init: " + err.Error()) // unreachable: Now is set
	}
	s.tel = tel
	s.planeUnary = tel.Plane("unary", telemetry.SLO{
		LatencyBudget: s.cfg.SLOLatencyUnary.Seconds(),
		Objective:     s.cfg.SLOObjective,
		BreachBurn:    s.cfg.SLOBurnBreach,
	})
	s.planeStream = tel.Plane("stream", telemetry.SLO{
		LatencyBudget: s.cfg.SLOLatencyStream.Seconds(),
		Objective:     s.cfg.SLOObjective,
		BreachBurn:    s.cfg.SLOBurnBreach,
	})
	if s.cfg.CaptureDir != "" {
		if err := os.MkdirAll(s.cfg.CaptureDir, 0o755); err != nil {
			s.log.Error("capture dir unavailable; SLO captures disabled",
				"dir", s.cfg.CaptureDir, "err", err)
			s.cfg.CaptureDir = ""
		}
	}

	s.handle("GET /healthz", s.handleHealthz)
	s.handle("GET /readyz", s.handleReadyz)
	s.handle("GET /metrics", s.handleMetrics)
	s.handle("POST /v1/estimate", s.handleEstimate)
	s.handle("POST /v1/estimate/stream", s.handleEstimateStream)
	s.handle("POST /v1/estimate/stats", s.handleEstimateStats)
	s.handle("GET /v1/models", s.handleModels)
	s.handle("POST /v1/models/build", s.handleModelBuild)
	// One pattern covers both two-segment model sub-resources —
	// /v1/models/build/{id} (progress) and /v1/models/{id}/manifest —
	// because as separate ServeMux patterns they would overlap on
	// /v1/models/build/manifest without either being more specific.
	s.handle("GET /v1/models/{a}/{b}", s.handleModelSub)
	s.handle("GET /v1/telemetry", s.handleTelemetry)
	s.handle("GET /v1/telemetry/hotset", s.handleTelemetryHotset)
	if s.cfg.Fleet != nil {
		s.cfg.Fleet.RegisterObs(met.reg, s.tracer)
		s.handle("POST "+fleet.PathLease, s.cfg.Fleet.HandleLease)
		s.handle("POST "+fleet.PathHeartbeat, s.cfg.Fleet.HandleHeartbeat)
		s.handle("POST "+fleet.PathUpload, s.cfg.Fleet.HandleUpload)
	}

	for w := 0; w < cfg.BuildWorkers; w++ {
		s.workerWG.Add(1)
		go s.buildWorker()
	}
	s.workerWG.Add(1)
	go s.sloWatcher()
	if s.cfg.RefineInterval > 0 {
		s.workerWG.Add(1)
		go s.refineLoop()
	}
	s.recoverBuilds()
	return s
}

// Handler returns the fully wrapped HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the metrics registry (tests and embedders).
func (s *Server) Registry() *obs.Registry { return s.met.reg }

// Tracer exposes the span ring (admin endpoints, tests, embedders).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// handle registers a route behind the standard middleware stack. The
// route pattern doubles as the metric label, keeping cardinality fixed.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.mux.Handle(pattern, s.wrap(pattern, h))
}

// statusWriter records the response code and body size for metrics, the
// access log, and panic recovery.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer so the streaming batch endpoint
// can push NDJSON lines as they are produced.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.ResponseController, which
// the streaming batch endpoint uses to switch on full-duplex mode.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// wrap applies panic recovery, per-request timeout, the body size cap,
// a root span, request-ID propagation, request metrics and the access log
// to a handler.
func (s *Server) wrap(pattern string, h http.HandlerFunc) http.Handler {
	plane := s.planeFor(pattern) // resolved once, not per request
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.met.inflight.Add(1)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}

		rid := r.Header.Get("X-Request-ID")
		if rid == "" {
			rid = obs.NewRequestID()
		}
		ctx := obs.ContextWithRequestID(r.Context(), rid)
		ctx, span := s.tracer.Start(ctx, pattern)
		span.SetAttr("method", r.Method)
		span.SetAttr("path", r.URL.Path)
		sw.Header().Set("X-Request-ID", rid)
		if id := span.TraceID(); id != "" {
			sw.Header().Set("X-Trace-ID", id)
		}

		defer func() {
			if p := recover(); p != nil {
				s.met.panics.Inc()
				fmt.Fprintf(os.Stderr, "hdserve: panic in %s: %v\n%s", pattern, p, debug.Stack())
				if !sw.wrote {
					writeError(sw, http.StatusInternalServerError, "internal error")
				} else {
					sw.code = http.StatusInternalServerError
				}
			}
			s.met.inflight.Add(-1)
			s.met.request(pattern, sw.code).Inc()
			s.met.latency(pattern).Observe(time.Since(start).Seconds())
			if plane != nil {
				plane.Observe(time.Now(), time.Since(start).Seconds(), sw.code >= 500)
			}
			span.SetAttr("status", strconv.Itoa(sw.code))
			span.End()
			s.accessLog(ctx, r, sw, time.Since(start))
		}()
		if r.Body != nil && !uncappedBody(pattern) {
			r.Body = http.MaxBytesReader(sw, r.Body, s.cfg.MaxBodyBytes)
		}
		ctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
		h(sw, r.WithContext(ctx))
	})
}

// uncappedBody exempts a route from the MaxBodyBytes cap. Fleet uploads
// carry whole shard-range accumulator sets — legitimately megabytes for
// wide enhanced builds — and enforce their own (much larger) bound plus a
// checksum trailer inside the handler.
func uncappedBody(pattern string) bool {
	return pattern == "POST "+fleet.PathUpload
}

// planeFor maps a route pattern to its SLO plane. Only the two estimate
// planes carry SLOs; probes, scrapes and the build API return nil.
func (s *Server) planeFor(pattern string) *telemetry.Plane {
	switch pattern {
	case "POST /v1/estimate", "POST /v1/estimate/stats":
		return s.planeUnary
	case "POST /v1/estimate/stream":
		return s.planeStream
	}
	return nil
}

// accessLog emits one structured record per request. Probe and scrape
// endpoints log at Debug so steady-state operation stays quiet at Info.
func (s *Server) accessLog(ctx context.Context, r *http.Request, sw *statusWriter, d time.Duration) {
	level := slog.LevelInfo
	switch r.URL.Path {
	case "/healthz", "/readyz", "/metrics":
		level = slog.LevelDebug
	}
	if !s.log.Enabled(ctx, level) {
		return
	}
	attrs := append([]slog.Attr{
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", sw.code),
		slog.Int64("bytes", sw.bytes),
		slog.Duration("duration", d),
	}, obs.TraceAttrs(ctx)...)
	s.log.LogAttrs(ctx, level, "request", attrs...)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.met.reg.WritePrometheus(w); err != nil {
		// Headers are gone; nothing to do but record it.
		fmt.Fprintf(os.Stderr, "hdserve: metrics write: %v\n", err)
	}
}

// Drain flips readiness, refuses new builds, and waits until every queued
// and running build has completed (or ctx expires). It is the first half
// of graceful shutdown; pair it with Close.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.buildWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: %w", ctx.Err())
	}
}

// errServerClosed fails builds still queued when the pool stops.
var errServerClosed = errors.New("serve: server closed")

// Close stops the worker pool and fails any builds still in the queue so
// their waiters unblock. Call Drain first for a graceful stop. With a
// ManifestDir configured, Close also flight-records the span ring to
// traces.json so post-mortems survive the process.
func (s *Server) Close() {
	s.closeOnce.Do(func() { close(s.quit) })
	s.workerWG.Wait()
	for {
		select {
		case ent := <-s.queue:
			s.met.queueDepth.Add(-1)
			s.cache.complete(ent, nil, errServerClosed, nil)
			s.buildWG.Done()
		default:
			s.dumpTraces()
			return
		}
	}
}

// buildWorker consumes the build queue until Close.
func (s *Server) buildWorker() {
	defer s.workerWG.Done()
	for {
		select {
		case <-s.quit:
			return
		case ent := <-s.queue:
			s.met.queueDepth.Add(-1)
			s.runBuild(ent)
			s.buildWG.Done()
		}
	}
}

// runBuild executes one deduplicated model build under a root span, with
// the flight recorder, span hooks and the entry's progress counters joined
// onto the server's metric hooks.
func (s *Server) runBuild(ent *buildEntry) {
	s.met.buildsRun.Inc()
	s.met.buildsByBackend(s.cfg.Backend.Name()).Inc()
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.BuildTimeout)
	defer cancel()
	ctx, span := s.tracer.Start(ctx, "model.build")
	span.SetAttr("key", ent.key)
	span.SetAttr("module", ent.spec.Module)
	span.SetAttr("width", strconv.Itoa(ent.spec.Width))
	span.SetAttr("backend", s.cfg.Backend.Name())

	rec := core.NewRunRecorder(
		fmt.Sprintf("%s-w%d", ent.spec.Module, ent.spec.Width),
		core.CharacterizeOptions{
			Patterns:  ent.spec.Patterns,
			Seed:      ent.spec.Seed,
			Enhanced:  ent.spec.Enhanced,
			ZClusters: ent.spec.ZClusters,
			Workers:   s.cfg.CharWorkers,
			Backend:   s.cfg.Backend,
		})
	hooks := core.JoinHooks(s.hooks, rec.Hooks(), s.spanHooks(ctx), ent.progressHooks())

	s.log.Info("build started", "id", ent.id, "key", ent.key,
		"trace_id", span.TraceID())
	model, err := s.buildWithRetries(ctx, ent, hooks)
	man := rec.Finish(model, err)
	man.Width = ent.spec.Width
	dur := time.Since(start)
	s.met.buildSeconds.Observe(dur.Seconds())
	if err != nil {
		s.met.buildsFailed.Inc()
		model = nil
		span.SetAttr("error", err.Error())
		s.log.Warn("build failed", "id", ent.id, "key", ent.key,
			"duration", dur, "err", err)
	} else {
		s.log.Info("build finished", "id", ent.id, "key", ent.key,
			"duration", dur, "patterns", man.PatternsBasic+man.PatternsBiased)
	}
	span.End()
	// Durable side effects land before complete() unblocks waiters: a
	// client that saw the build settle can rely on the library entry, the
	// manifest file, and the sidecar being gone.
	if err == nil && s.lib != nil {
		if perr := s.lib.PutModel(ent.spec.Module, ent.spec.Width, model); perr != nil {
			s.log.Warn("model not persisted to library", "id", ent.id, "err", perr)
		}
	}
	s.persistManifest(ent.id, man)
	s.clearBuildSpec(ent.id)
	s.cache.complete(ent, model, err, man)
}

// buildWithRetries runs one build attempt plus up to BuildRetries retries
// with capped exponential backoff and full jitter. Only transient errors
// retry: a canceled or timed-out context and a checkpoint identity
// mismatch are permanent. With a CheckpointDir configured, each retry
// resumes from the previous attempt's checkpoint instead of starting over.
func (s *Server) buildWithRetries(ctx context.Context, ent *buildEntry, hooks *core.Hooks) (*core.Model, error) {
	var model *core.Model
	var err error
	for attempt := 0; ; attempt++ {
		ent.attempts.Add(1)
		if ferr := faultpoint.Hit("serve.build"); ferr != nil {
			err = ferr
		} else {
			model, err = s.buildFn(ctx, ent.spec, hooks)
		}
		if err == nil || attempt >= s.cfg.BuildRetries ||
			!isTransientBuildErr(err) || ctx.Err() != nil {
			return model, err
		}
		s.met.buildRetries.Inc()
		delay := s.retryDelay(attempt)
		// Publish the retry before sleeping, so pollers watching
		// GET /v1/models/build/{id} see why the build is stalled while it
		// is stalled.
		ent.retry.Store(&buildRetryState{attempt: attempt + 1, lastErr: err.Error(), backoff: delay})
		s.log.Warn("build attempt failed; retrying", "id", ent.id,
			"attempt", attempt+1, "backoff", delay, "err", err)
		select {
		case <-ctx.Done():
			return nil, err
		case <-s.quit:
			return nil, err
		case <-time.After(delay):
		}
	}
}

// isTransientBuildErr reports whether a failed attempt is worth retrying.
func isTransientBuildErr(err error) bool {
	return !errors.Is(err, context.Canceled) &&
		!errors.Is(err, context.DeadlineExceeded) &&
		!core.IsCheckpointMismatch(err)
}

// retryDelay is capped exponential backoff with full jitter: uniform in
// (0, base·2^attempt], never above 5s. Jitter keeps a fleet of restarted
// builds from thundering onto the same instant.
func (s *Server) retryDelay(attempt int) time.Duration {
	limit := s.cfg.BuildRetryBackoff << uint(attempt)
	if limit > 5*time.Second {
		limit = 5 * time.Second
	}
	return time.Duration(rand.Int63n(int64(limit))) + time.Millisecond
}
