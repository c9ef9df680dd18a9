package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"hdpower/internal/hddist"
	"hdpower/internal/stats"
)

// maxBatchCycles bounds one estimate request; combined with the body cap
// it keeps a single request from monopolizing a handler goroutine.
const maxBatchCycles = 1 << 20

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing to recover
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// readJSON decodes a request body, translating decode failures into the
// right status: 413 for an oversized body, 400 for malformed JSON.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", tooLarge.Limit)
			return false
		}
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// handleEstimate prices per-cycle charges from the fitted coefficient
// table — microseconds per lookup, no simulation. The pooled body goes
// through the estimator (estimate.go); a hot-shape exact hit allocates
// nothing.
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	sc := getScratch()
	defer putScratch(sc)
	if !readBody(w, r, sc) {
		return
	}
	out, rerr := s.estimate(sc.body, sc, true)
	if rerr != nil {
		writeError(w, rerr.code, "%s", rerr.msg)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(out)
}

type statsRequest struct {
	Model BuildSpec `json:"model"`
	// Word-level statistics of the per-port stream (paper Section 6).
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	Rho  float64 `json:"rho"`
	// N is the nominal sample count behind the statistics. It is accepted
	// but does not affect the answer: the closed form reads only μ, σ, ρ
	// and the width.
	N int `json:"n,omitempty"`
	// Width is the per-port word width of the stream.
	Width int `json:"width"`
	// Ports is the number of module ports fed by independent streams with
	// these statistics; defaults to input_bits / width.
	Ports int `json:"ports,omitempty"`
}

type statsResponse struct {
	Key       string      `json:"key"`
	AvgCharge float64     `json:"avg_charge"`
	AvgHd     float64     `json:"avg_hd"`
	Dist      hddist.Dist `json:"hd_dist"`
	Degraded  bool        `json:"degraded,omitempty"`
	Fallback  string      `json:"fallback,omitempty"`
}

// handleEstimateStats is the closed-form path: no vectors ever cross the
// wire — word-level statistics (μ, σ, ρ) turn into an analytic
// Hamming-distance distribution (dual-bit-type model, eqs. 12–18), which
// the fitted coefficient table integrates into an average charge.
func (s *Server) handleEstimateStats(w http.ResponseWriter, r *http.Request) {
	var req statsRequest
	if !readJSON(w, r, &req) {
		return
	}
	t, fallback, rerr := s.lookupModel(&req.Model, req.Model.modelKey())
	if rerr != nil {
		writeError(w, rerr.code, "%s", rerr.msg)
		return
	}
	m := t.InputBits
	if req.Width <= 0 || req.Width > m {
		writeError(w, http.StatusBadRequest, "width %d outside (0, %d]", req.Width, m)
		return
	}
	if req.Std <= 0 {
		writeError(w, http.StatusBadRequest, "std must be positive (constant streams switch nothing)")
		return
	}
	if req.Rho < -1 || req.Rho > 1 {
		writeError(w, http.StatusBadRequest, "rho %v outside [-1, 1]", req.Rho)
		return
	}
	if req.Ports == 0 {
		req.Ports = m / req.Width
	}
	// Compared by division: ports*width can wrap around to m for a huge
	// ports, which would start that many convolutions.
	if m%req.Width != 0 || req.Ports != m/req.Width {
		writeError(w, http.StatusBadRequest,
			"ports (%d) x width (%d) must equal the model's %d input bits", req.Ports, req.Width, m)
		return
	}

	// The closed-form distribution depends only on (μ, σ, ρ, width, ports),
	// not on N — memoized on exactly those, so repeated stats queries skip
	// the analytic construction and convolution entirely and share one
	// cached slice, whatever sample counts their clients send.
	ws := stats.WordStats{Mean: req.Mean, Std: req.Std, Rho: req.Rho}
	dist := s.distMemo.FromWordStatsPorts(ws, req.Width, req.Ports)
	avg, err := t.AvgFromDist(dist)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, statsResponse{
		Key:       req.Model.Key(),
		AvgCharge: avg,
		AvgHd:     dist.Mean(),
		Dist:      dist,
		Degraded:  fallback != "",
		Fallback:  fallback,
	})
}

type modelsResponse struct {
	Models []modelSnapshot `json:"models"`
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, modelsResponse{Models: s.cache.snapshot()})
}

type buildRequest struct {
	BuildSpec
	// Wait blocks until the build settles (bounded by the request
	// timeout) instead of returning 202 immediately.
	Wait bool `json:"wait,omitempty"`
}

type buildResponse struct {
	// ID addresses the build's progress (GET /v1/models/build/{id}) and
	// manifest (GET /v1/models/{id}/manifest) endpoints.
	ID     string `json:"id"`
	Key    string `json:"key"`
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
}

// handleModelBuild is the slow path: characterize+fit through the
// parallel engine, deduplicated by singleflight, bounded by the build
// queue (429 when saturated), cached in the LRU.
func (s *Server) handleModelBuild(w http.ResponseWriter, r *http.Request) {
	var req buildRequest
	if !readJSON(w, r, &req) {
		return
	}
	if err := req.normalize(); err != nil {
		writeError(w, http.StatusBadRequest, "build spec: %v", err)
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining; not accepting new builds")
		return
	}
	ent, started := s.cache.begin(req.BuildSpec)
	if started {
		if !s.enqueue(ent, false) {
			s.met.queueRejected.Inc()
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "build queue full; retry later")
			return
		}
	} else if status := s.entryStatus(ent); status == statusReady {
		s.met.cacheHits.Inc()
		writeJSON(w, http.StatusOK, buildResponse{ID: ent.id, Key: ent.key.String(), Status: statusReady})
		return
	} else {
		s.met.buildsDeduped.Inc()
	}
	if !req.Wait {
		writeJSON(w, http.StatusAccepted, buildResponse{ID: ent.id, Key: ent.key.String(), Status: statusBuilding})
		return
	}
	select {
	case <-ent.done:
	case <-r.Context().Done():
		writeError(w, http.StatusGatewayTimeout, "build %s still running: %v", ent.key, r.Context().Err())
		return
	}
	status, buildErr := s.entryResult(ent)
	if status == statusFailed {
		writeJSON(w, http.StatusInternalServerError,
			buildResponse{ID: ent.id, Key: ent.key.String(), Status: statusFailed, Error: buildErr.Error()})
		return
	}
	writeJSON(w, http.StatusOK, buildResponse{ID: ent.id, Key: ent.key.String(), Status: status})
}

func (s *Server) entryStatus(ent *buildEntry) string {
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	return ent.status
}

func (s *Server) entryResult(ent *buildEntry) (string, error) {
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	return ent.status, ent.err
}
