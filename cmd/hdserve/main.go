// Command hdserve runs the Hd power-estimation service: fitted macro-model
// inference over HTTP with built-in Prometheus observability.
//
// Characterization is the expensive step; serving an estimate from a
// fitted model is a table lookup. hdserve keeps fitted models in an LRU,
// builds them asynchronously through the parallel characterization engine
// (deduplicating concurrent requests for the same model), and answers
// estimate requests in microseconds:
//
//	hdserve -addr :8080
//	curl -s localhost:8080/v1/models/build -d '{"module":"csa-multiplier","width":8,"seed":1,"wait":true}'
//	curl -s localhost:8080/v1/estimate -d '{"model":{"module":"csa-multiplier","width":8,"seed":1},"hd":[3,5,2]}'
//	curl -s localhost:8080/metrics
//
// Every request runs under a trace span (X-Trace-ID on responses, joined
// into the structured access log), model builds emit flight-recorder
// manifests (-manifest-dir persists them), and -admin-addr opens a second,
// operator-only listener with /debug/pprof and /debug/traces.
//
// GET /v1/telemetry serves the windowed view (latency quantiles, QPS,
// SLO burn rates, per-model Hd mix); -capture-dir writes telemetry+pprof
// captures on SLO breach, and -refine turns the observed mix into
// re-characterization builds for hot, under-budgeted models
// (GET /v1/telemetry/hotset shows the recommendations).
//
// -fleet turns the server into a characterization-fleet coordinator: it
// mounts the /fleet/v1/* lease protocol and dispatches model builds to
// registered workers as leased shard ranges, merging results
// bit-identically to a single-node build. The coordinator never computes
// shards itself: a build with no live worker, at its start or after its
// last worker falls silent, runs on the local engine, resuming the
// fleet's checkpoint when -checkpoint-dir is set. -worker <url> runs the
// binary as a headless fleet worker of that coordinator instead of
// serving.
//
// SIGINT/SIGTERM starts a graceful shutdown: the listener stops, readiness
// flips to 503, and in-flight model builds drain before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hdpower/internal/core"
	"hdpower/internal/fleet"
	"hdpower/internal/obs"
	"hdpower/internal/serve"
)

func main() {
	var (
		addr           = flag.String("addr", ":8080", "listen address")
		adminAddr      = flag.String("admin-addr", "", "admin listen address for /debug/pprof and /debug/traces (off when empty)")
		requestTimeout = flag.Duration("request-timeout", 15*time.Second, "per-request timeout")
		buildTimeout   = flag.Duration("build-timeout", 10*time.Minute, "per-model-build timeout")
		buildWorkers   = flag.Int("build-workers", 1, "concurrent model builds")
		buildQueue     = flag.Int("build-queue", 16, "pending-build queue depth (full => 429)")
		charWorkers    = flag.Int("char-workers", 0, "characterization workers per build (0 = NumCPU)")
		modelCache     = flag.Int("model-cache", 64, "fitted-model LRU capacity")
		maxBody        = flag.Int64("max-body", 1<<20, "request body cap in bytes")
		shutdownGrace  = flag.Duration("shutdown-grace", 30*time.Second, "drain deadline on SIGTERM")
		logFormat      = flag.String("log-format", "text", "log output format: text or json")
		logLevel       = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
		manifestDir    = flag.String("manifest-dir", "", "persist per-build flight-recorder manifests here (off when empty)")
		checkpointDir  = flag.String("checkpoint-dir", "", "crash-safe builds: checkpoint and recover interrupted builds here (off when empty)")
		libraryDir     = flag.String("library", "", "durable model library for persisted builds and degraded estimates (off when empty)")
		backendName    = flag.String("backend", "bitparallel", "characterization backend: bitparallel (64 pairs per pass) or event (golden event-driven reference)")

		sloUnary     = flag.Duration("slo-latency-unary", 0, "unary estimate latency budget (0 = default 25ms)")
		sloStream    = flag.Duration("slo-latency-stream", 0, "stream estimate latency budget (0 = default 80ms)")
		sloObjective = flag.Float64("slo-objective", 0, "SLO success-rate objective (0 = default 0.999)")
		captureDir   = flag.String("capture-dir", "", "write telemetry+pprof captures here on SLO breach (off when empty)")
		refine       = flag.Duration("refine", 0, "refinement loop interval: re-characterize hot under-budgeted models from the observed Hd mix (0 = off)")

		fleetOn    = flag.Bool("fleet", false, "coordinator mode: mount /fleet/v1/* and dispatch builds to registered workers")
		workerOf   = flag.String("worker", "", "worker mode: pull shard-range leases from this coordinator URL instead of serving")
		workerName = flag.String("worker-name", "", "worker name in leases and logs (default: hostname-pid)")
	)
	flag.Parse()
	backend, err := core.ParseBackendKind(*backendName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hdserve: %v\n", err)
		os.Exit(2)
	}
	if !obs.ValidLogFormat(*logFormat) {
		fmt.Fprintf(os.Stderr, "hdserve: unknown -log-format %q (want text or json)\n", *logFormat)
		os.Exit(2)
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "hdserve: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, *logFormat, level)

	if *workerOf != "" {
		os.Exit(runWorker(*workerOf, *workerName, *charWorkers, logger))
	}

	var coord *fleet.Coordinator
	if *fleetOn {
		coord = fleet.NewCoordinator(fleet.Config{Logger: logger})
	}

	srv := serve.New(serve.Config{
		MaxBodyBytes:   *maxBody,
		RequestTimeout: *requestTimeout,
		BuildTimeout:   *buildTimeout,
		BuildWorkers:   *buildWorkers,
		BuildQueue:     *buildQueue,
		ModelCache:     *modelCache,
		CharWorkers:    *charWorkers,
		Backend:        backend,
		Logger:         logger,
		ManifestDir:    *manifestDir,
		CheckpointDir:  *checkpointDir,
		LibraryDir:     *libraryDir,
		Fleet:          coord,

		SLOLatencyUnary:  *sloUnary,
		SLOLatencyStream: *sloStream,
		SLOObjective:     *sloObjective,
		CaptureDir:       *captureDir,
		RefineInterval:   *refine,
	})
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr)
		errc <- hs.ListenAndServe()
	}()

	var admin *http.Server
	if *adminAddr != "" {
		admin = &http.Server{
			Addr:              *adminAddr,
			Handler:           srv.AdminHandler(),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			logger.Info("admin listening", "addr", *adminAddr)
			if err := admin.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("admin listener", "err", err)
			}
		}()
	}

	select {
	case err := <-errc:
		logger.Error("listener failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	logger.Info("signal received, draining", "grace", *shutdownGrace)
	graceCtx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
	defer cancel()
	if err := hs.Shutdown(graceCtx); err != nil {
		logger.Warn("http shutdown", "err", err)
	}
	if admin != nil {
		if err := admin.Shutdown(graceCtx); err != nil {
			logger.Warn("admin shutdown", "err", err)
		}
	}
	if err := srv.Drain(graceCtx); err != nil && !errors.Is(err, context.Canceled) {
		logger.Warn("drain", "err", err)
	}
	srv.Close()
	logger.Info("drained, bye")
}

// runWorker is the -worker mode: a headless fleet worker pulling shard-range
// leases from the coordinator until interrupted. It never opens a listener.
func runWorker(coordinator, name string, workers int, logger *slog.Logger) int {
	if name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	w, err := fleet.NewWorker(fleet.WorkerConfig{
		Coordinator: coordinator,
		Name:        name,
		Workers:     workers,
		Logger:      logger,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hdserve: %v\n", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logger.Info("worker joining fleet", "coordinator", coordinator, "name", name)
	w.Run(ctx)
	logger.Info("worker stopped, bye")
	return 0
}
