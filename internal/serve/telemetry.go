package serve

// telemetry.go is the server's live-traffic control loop on top of
// internal/telemetry: the /v1/telemetry snapshot endpoint, the hotset API
// that converts the observed Hd mix into characterization-budget
// recommendations, the SLO watcher with automatic pprof capture on
// breach, and the refinement loop that re-characterizes hot,
// under-budgeted models with a boosted pattern budget.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime/pprof"
	"time"

	"hdpower/internal/atomicio"
	"hdpower/internal/faultpoint"
	"hdpower/internal/telemetry"
)

// handleTelemetry serves the full windowed-telemetry snapshot: per-plane
// quantiles, QPS and burn rates, plus the per-model Hd-class traffic mix.
func (s *Server) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.tel.Snapshot())
}

// hotsetClass is one Hd class's slice of a model's budget recommendation.
type hotsetClass struct {
	Hd      int     `json:"hd"`
	Traffic uint64  `json:"traffic"` // observed estimates in this class
	Epsilon float64 `json:"epsilon"` // the class's residual coefficient deviation
	// Uniform is the class's share under the offline uniform split;
	// Recommended is its share under the traffic x epsilon apportionment.
	Uniform     int `json:"uniform"`
	Recommended int `json:"recommended"`
}

// hotsetModel is the refinement view of one profiled, cached model.
type hotsetModel struct {
	Key       string        `json:"key"`
	Patterns  int           `json:"patterns"` // current characterization budget
	Estimates uint64        `json:"estimates"`
	Classes   []hotsetClass `json:"classes"`
	// HotClasses lists Hd classes whose recommended share reaches
	// refineThreshold times their uniform share: live traffic
	// concentrates there while the coefficient still shows deviation.
	HotClasses []int `json:"hot_classes,omitempty"`
	// RecommendedPatterns is the budget the refinement loop would rebuild
	// with: doubled (capped at the serving maximum) when the model has hot
	// classes, unchanged otherwise.
	RecommendedPatterns int `json:"recommended_patterns"`

	spec BuildSpec // resolved cache spec; backs the refinement rebuild
}

// refineThreshold is the multiple of its uniform share of the pattern
// budget that a class's recommended share must reach to be hot.
const refineThreshold = 2

// hotsetResponse is the GET /v1/telemetry/hotset payload.
type hotsetResponse struct {
	Threshold float64       `json:"threshold"`
	Models    []hotsetModel `json:"models"`
}

// handleTelemetryHotset serves the refinement recommendations derived
// from the observed traffic.
func (s *Server) handleTelemetryHotset(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.computeHotset())
}

// computeHotset joins the profiler's observed Hd mix against the cached
// models' per-class deviation reservoirs (core.Coef.Epsilon) and
// apportions each model's current pattern budget by traffic x epsilon
// (telemetry.RecommendBudgets). The result is deterministic for a fixed
// recorded traffic state: models arrive key-sorted from the profiler and
// the apportionment breaks ties by class index.
func (s *Server) computeHotset() hotsetResponse {
	resp := hotsetResponse{Threshold: refineThreshold, Models: []hotsetModel{}}
	for _, ms := range s.tel.Profiler().SnapshotModels() {
		model, spec, ok := s.cache.readyEntrySpec(telemetry.Key{Module: ms.Module, Width: ms.Width, Seed: ms.Seed})
		if !ok {
			continue // profiled but not (or no longer) cached; nothing to refine
		}
		m := model.InputBits
		if m < 1 || len(model.Basic) < m {
			continue
		}
		// Characterization budgets cover Hd classes 1..m: class 0 switches
		// nothing, draws no charge, and is never characterized.
		traffic := make([]uint64, m)
		eps := make([]float64, m)
		for i := 1; i <= m; i++ {
			if i < len(ms.HdHits) {
				traffic[i-1] = ms.HdHits[i]
			}
			eps[i-1] = model.Basic[i-1].Epsilon
		}
		rec := telemetry.RecommendBudgets(spec.Patterns, traffic, eps)
		uniform := telemetry.RecommendBudgets(spec.Patterns, make([]uint64, m), make([]float64, m))
		hm := hotsetModel{
			Key:                 ms.Key,
			Patterns:            spec.Patterns,
			Estimates:           ms.Estimates,
			Classes:             make([]hotsetClass, m),
			RecommendedPatterns: spec.Patterns,
			spec:                spec,
		}
		for i := 0; i < m; i++ {
			hm.Classes[i] = hotsetClass{
				Hd: i + 1, Traffic: traffic[i], Epsilon: eps[i],
				Uniform: uniform[i], Recommended: rec[i],
			}
			if traffic[i] > 0 && float64(rec[i]) >= refineThreshold*float64(uniform[i]) {
				hm.HotClasses = append(hm.HotClasses, i+1)
			}
		}
		if len(hm.HotClasses) > 0 {
			hm.RecommendedPatterns = spec.Patterns * 2
			if hm.RecommendedPatterns > maxBuildPatterns {
				hm.RecommendedPatterns = maxBuildPatterns
			}
		}
		resp.Models = append(resp.Models, hm)
	}
	return resp
}

// refineLoop periodically turns hotset recommendations into
// re-characterization builds. Started only when RefineInterval > 0.
func (s *Server) refineLoop() {
	defer s.workerWG.Done()
	t := time.NewTicker(s.cfg.RefineInterval)
	defer t.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-t.C:
			s.refineOnce()
		}
	}
}

// refineOnce enqueues one refinement rebuild per hot, under-budgeted
// model: enough traffic to trust the mix (RefineMinEstimates), at least
// one hot class, and a recommended budget above the current one. A
// rebuild is an ordinary build of the ready key (never blocking, dropped
// when the queue is full), and the old model serves until it succeeds.
func (s *Server) refineOnce() {
	if s.draining.Load() {
		return
	}
	for _, hm := range s.computeHotset().Models {
		if len(hm.HotClasses) == 0 || hm.Estimates < s.cfg.RefineMinEstimates ||
			hm.RecommendedPatterns <= hm.Patterns {
			continue
		}
		spec := hm.spec
		spec.Patterns = hm.RecommendedPatterns
		ent, ok := s.cache.rebuild(spec)
		if !ok || !s.enqueue(ent, false) {
			continue // evicted, already rebuilding, or the queue is full
		}
		s.met.refineBuilds.Inc()
		s.log.Info("refinement rebuild enqueued", "key", ent.key.String(),
			"patterns", spec.Patterns, "hot_classes", hm.HotClasses)
	}
}

// sloWatcher evaluates the SLO burn state once per telemetry window.
func (s *Server) sloWatcher() {
	defer s.workerWG.Done()
	t := time.NewTicker(s.tel.Window())
	defer t.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-t.C:
			s.checkSLO()
		}
	}
}

// checkSLO snapshots the telemetry plane and reacts to breached planes:
// a metrics increment, a warning, and (with a CaptureDir) a bounded,
// rate-limited diagnostic capture.
func (s *Server) checkSLO() {
	snap := s.tel.Snapshot()
	for _, p := range snap.Planes {
		if !p.Breached {
			continue
		}
		s.met.sloBreaches(p.Plane).Inc()
		s.log.Warn("SLO breach", "plane", p.Plane,
			"burn_fast", p.BurnFast, "burn_slow", p.BurnSlow,
			"p99_s", p.P99, "qps", p.QPS)
		if s.cfg.CaptureDir != "" {
			s.captureBreach(p.Plane, &snap)
		}
	}
}

// captureBreach writes one diagnostic capture for a breached plane: the
// telemetry snapshot that triggered it plus goroutine and heap profiles,
// named slo-<plane>-<seq>.*. Captures are bounded (CaptureMax per
// process) and rate-limited (CaptureMinInterval) so a sustained breach
// cannot fill the disk; both limits are enforced here, on the watcher
// goroutine, so no locking is needed.
func (s *Server) captureBreach(plane string, snap *telemetry.Snapshot) {
	now := time.Now()
	if s.captureCount >= s.cfg.CaptureMax ||
		(!s.lastCapture.IsZero() && now.Sub(s.lastCapture) < s.cfg.CaptureMinInterval) {
		return
	}
	s.captureCount++
	s.lastCapture = now
	base := fmt.Sprintf("slo-%s-%03d", plane, s.captureCount)
	if data, err := json.MarshalIndent(snap, "", "  "); err == nil {
		s.writeCapture(base+".telemetry.json", data)
	}
	for _, name := range []string{"goroutine", "heap"} {
		prof := pprof.Lookup(name)
		if prof == nil {
			continue
		}
		var buf bytes.Buffer
		if err := prof.WriteTo(&buf, 0); err != nil {
			s.met.sloCaptureFailures.Inc()
			s.log.Warn("SLO capture profile failed", "profile", name, "err", err)
			continue
		}
		s.writeCapture(base+"."+name+".pb.gz", buf.Bytes())
	}
}

// writeCapture lands one capture file durably via atomicio, behind the
// telemetry.capture fault point so chaos runs can exercise the failure
// path.
func (s *Server) writeCapture(name string, data []byte) {
	path := filepath.Join(s.cfg.CaptureDir, name)
	err := faultpoint.Hit("telemetry.capture")
	if err == nil {
		err = atomicio.WriteFile(path, data, 0o644)
	}
	if err != nil {
		s.met.sloCaptureFailures.Inc()
		s.log.Warn("SLO capture write failed", "path", path, "err", err)
		return
	}
	s.met.sloCaptures.Inc()
}
