package serve

// observe.go is the server's observability surface beyond /metrics: span
// hooks that turn a characterization run into a trace, the live build
// progress and flight-recorder manifest endpoints, manifest persistence,
// and the admin handler (pprof + trace dump) meant for an operator-only
// listener.

import (
	"bytes"
	"context"
	"net/http"
	"net/http/pprof"
	"path/filepath"
	"strconv"
	"time"

	"hdpower/internal/atomicio"
	"hdpower/internal/core"
	"hdpower/internal/obs"
)

// spanHooks returns hooks that mirror one characterization run as child
// spans of the span in ctx: one span per phase and one per merged shard
// (spanning the time since the previous merge). Hooks are delivered on
// the run's single merging goroutine, so the closure state needs no
// locking.
func (s *Server) spanHooks(ctx context.Context) *core.Hooks {
	var phaseCtx context.Context
	var phaseSpan *obs.Span
	var lastMerge time.Time
	return &core.Hooks{
		PhaseStart: func(phase string, shards, patterns int) {
			phaseCtx, phaseSpan = s.tracer.Start(ctx, "characterize."+phase)
			phaseSpan.SetAttr("shards", strconv.Itoa(shards))
			phaseSpan.SetAttr("patterns", strconv.Itoa(patterns))
			lastMerge = time.Now()
		},
		PhaseEnd: func(string) { phaseSpan.End() },
		ShardMerged: func() {
			now := time.Now()
			_, sp := s.tracer.StartAt(phaseCtx, "shard.merge", lastMerge)
			lastMerge = now
			sp.End()
		},
	}
}

// handleModelSub dispatches the two-segment model sub-resources that share
// one ServeMux pattern: /v1/models/build/{id} and /v1/models/{id}/manifest.
func (s *Server) handleModelSub(w http.ResponseWriter, r *http.Request) {
	a, b := r.PathValue("a"), r.PathValue("b")
	switch {
	case a == "build":
		s.handleBuildProgress(w, r, b)
	case b == "manifest":
		s.handleModelManifest(w, r, a)
	default:
		writeError(w, http.StatusNotFound, "unknown model resource %s/%s", a, b)
	}
}

// buildProgressResponse is the GET /v1/models/build/{id} payload. The
// counters are monotonic within a session of the build, so pollers can
// watch shards_merged approach shards_total; a retry or a fleet hand-back
// restarts them from what its session restored.
type buildProgressResponse struct {
	ID                string `json:"id"`
	Key               string `json:"key"`
	Status            string `json:"status"`
	ShardsTotal       int64  `json:"shards_total"`
	ShardsMerged      int64  `json:"shards_merged"`
	PatternsSimulated int64  `json:"patterns_simulated"`
	Error             string `json:"error,omitempty"`
	// Retry diagnostics: how many attempts have started, and — when the
	// last attempt failed transiently — what it said and how long the
	// retry loop backed off before the next one. A build stuck in
	// building with attempts climbing is retrying; one with attempts == 1
	// is still on its first try.
	Attempts         int64  `json:"attempts,omitempty"`
	LastAttemptError string `json:"last_attempt_error,omitempty"`
	RetryBackoffMs   int64  `json:"retry_backoff_ms,omitempty"`
}

func (s *Server) handleBuildProgress(w http.ResponseWriter, r *http.Request, id string) {
	ent, ok := s.cache.lookupID(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no build %q", id)
		return
	}
	status, err := s.entryResult(ent)
	var p core.RunProgress
	if rec := ent.rec.Load(); rec != nil {
		p = rec.Progress()
	}
	resp := buildProgressResponse{
		ID:                ent.id,
		Key:               ent.key.String(),
		Status:            status,
		ShardsTotal:       int64(p.ShardsTotal),
		ShardsMerged:      int64(p.ShardsMerged),
		PatternsSimulated: int64(p.Patterns),
		Attempts:          ent.attempts.Load(),
	}
	if rs := ent.retry.Load(); rs != nil {
		resp.LastAttemptError = rs.lastErr
		resp.RetryBackoffMs = rs.backoff.Milliseconds()
	}
	if err != nil {
		resp.Error = err.Error()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleModelManifest(w http.ResponseWriter, r *http.Request, id string) {
	ent, ok := s.cache.lookupID(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no build %q", id)
		return
	}
	s.cache.mu.Lock()
	man := ent.manifest
	s.cache.mu.Unlock()
	if man == nil {
		writeError(w, http.StatusNotFound, "build %q has no manifest yet", id)
		return
	}
	writeJSON(w, http.StatusOK, man)
}

// AdminHandler serves the operator endpoints — Go pprof profiles, the
// recent-span trace dump, and a second copy of /metrics — for an opt-in
// admin listener (hdserve -admin-addr). They are deliberately not part of
// Handler: profiling endpoints on a public port are a denial-of-service
// invitation.
func (s *Server) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// handleTraces dumps the recent-span ring as JSON.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := s.tracer.WriteJSON(w); err != nil {
		s.log.Error("trace dump write", "err", err)
	}
}

// persistManifest writes a build's flight-recorder manifest to the
// configured ManifestDir. Persistence failures are logged, never fatal:
// the manifest stays queryable over HTTP regardless.
func (s *Server) persistManifest(id string, man *core.RunManifest) {
	if s.cfg.ManifestDir == "" || man == nil {
		return
	}
	path := filepath.Join(s.cfg.ManifestDir, id+".manifest.json")
	if err := atomicio.WriteJSON(path, man); err != nil {
		s.log.Error("manifest write", "id", id, "err", err)
		return
	}
	s.log.Info("manifest written", "id", id, "path", path)
}

// dumpTraces persists the span ring on Close when a ManifestDir is
// configured, giving crashed-in-CI runs a post-mortem artifact. The dump
// is buffered and written atomically so an interrupted shutdown cannot
// leave a torn traces.json shadowing an earlier good one.
func (s *Server) dumpTraces() {
	if s.cfg.ManifestDir == "" {
		return
	}
	var buf bytes.Buffer
	if err := s.tracer.WriteJSON(&buf); err != nil {
		s.log.Error("trace dump encode", "err", err)
		return
	}
	path := filepath.Join(s.cfg.ManifestDir, "traces.json")
	if err := atomicio.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		s.log.Error("trace dump write", "err", err)
	}
}
