package serve

// robust.go is the server's crash-safety and graceful-degradation layer:
// build-spec sidecars and startup recovery (a killed server re-enqueues
// and resumes its interrupted builds), and the estimate fallback chain
// that answers degraded instead of 404 when the requested model is not
// cached.

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"

	"hdpower/internal/atomicio"
	"hdpower/internal/lut"
	"hdpower/internal/telemetry"
)

// specPath is the build-spec sidecar recording an accepted build for
// restart recovery.
func (s *Server) specPath(id string) string {
	return filepath.Join(s.cfg.CheckpointDir, id+".spec.json")
}

// writeBuildSpec records an accepted build durably, so a server killed
// before the build settles re-enqueues it on the next start. Failures
// are logged and tolerated: the build itself proceeds regardless.
func (s *Server) writeBuildSpec(ent *buildEntry) {
	if s.cfg.CheckpointDir == "" {
		return
	}
	if err := atomicio.WriteJSON(s.specPath(ent.id), ent.spec); err != nil {
		s.log.Warn("build spec not recorded; restart will not recover this build",
			"id", ent.id, "err", err)
	}
}

// clearBuildSpec removes the sidecar once a build settles (either way):
// only builds lost to a crash are recovered.
func (s *Server) clearBuildSpec(id string) {
	if s.cfg.CheckpointDir == "" {
		return
	}
	_ = os.Remove(s.specPath(id))
}

// recoverBuilds re-enqueues the builds an earlier process accepted but
// never settled — the *.spec.json sidecars left in the checkpoint
// directory. Each recovered build resumes from its checkpoint (if one
// survived) through the normal build path. Corrupted sidecars are
// quarantined and skipped; a full queue drops the recovery (the sidecar
// stays for the next restart).
func (s *Server) recoverBuilds() {
	if s.cfg.CheckpointDir == "" {
		return
	}
	paths, err := filepath.Glob(filepath.Join(s.cfg.CheckpointDir, "*.spec.json"))
	if err != nil {
		return
	}
	for _, path := range paths {
		var spec BuildSpec
		rerr := atomicio.ReadJSON(path, &spec)
		if rerr != nil && !errors.Is(rerr, atomicio.ErrNoChecksum) {
			s.log.Warn("unreadable build spec; skipping recovery", "path", path, "err", rerr)
			continue
		}
		if nerr := spec.normalize(); nerr != nil {
			s.log.Warn("recorded build spec no longer valid; dropping",
				"path", path, "err", nerr)
			_ = os.Remove(path)
			continue
		}
		ent, started := s.cache.begin(spec)
		if !started {
			continue
		}
		if s.enqueue(ent, true) {
			s.met.buildsRecovered.Inc()
			s.log.Info("recovered interrupted build", "id", ent.id, "key", ent.key.String())
		} else {
			s.log.Warn("build queue full; interrupted build left for next restart",
				"id", ent.id)
		}
	}
}

// Degradation rungs reported in estimate responses and the
// hdserve_estimate_degraded_total metric's fallback label.
const (
	fallbackSeed       = "seed"       // cached model, same module/width, different seed
	fallbackLibrary    = "library"    // instance model from the durable library
	fallbackRegression = "regression" // synthesized from the library's width regression
)

// requestError is an estimate failure with the HTTP status it maps to:
// 400 for a bad body, spec or series, 404 for a missing model. The stream
// endpoint renders it as a per-line error instead of a status code.
type requestError struct {
	code int
	msg  string
}

func badRequest(format string, args ...any) *requestError {
	return &requestError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// lookupModel resolves the table answering an estimate for spec, whose
// cache key is key: the exact model from the ready set when it is
// cached, otherwise the first rung of the degradation chain that can
// serve the request — a rung whose model does not flatten into a table
// counts as absent. The returned fallback string is empty for an exact
// answer. It performs all the metric accounting (per call — the stream
// endpoint calls it per line, so degraded batch items count item by item
// like unary requests).
func (s *Server) lookupModel(spec *BuildSpec, key telemetry.Key) (*lut.Table, string, *requestError) {
	if err := spec.normalize(); err != nil {
		return nil, "", badRequest("model spec: %v", err)
	}
	if t := s.cache.table(key); t != nil {
		s.met.cacheHits.Inc()
		return t, "", nil
	}
	// Degradation chain: trade fidelity for availability, most faithful
	// rung first. Characterization is deterministic per seed, so a
	// different-seed sibling differs only by sampling noise; a library
	// model survived a previous process; a regression synthesis is the
	// paper's parameterizable fallback for uncharacterized widths.
	if t := s.cache.readySibling(spec.Module, spec.Width); t != nil {
		s.met.estimateDegraded(fallbackSeed).Inc()
		return t, fallbackSeed, nil
	}
	if s.lib != nil {
		if model, err := s.lib.GetModel(spec.Module, spec.Width, false); err == nil {
			if t, err := lut.New(model); err == nil {
				s.met.estimateDegraded(fallbackLibrary).Inc()
				return t, fallbackLibrary, nil
			}
		} else if atomicio.IsCorrupt(err) {
			s.log.Warn("library model corrupt; quarantined", "key", spec.Key(), "err", err)
		}
		if pm, err := s.lib.GetParam(spec.Module); err == nil {
			if t, err := lut.New(pm.Synthesize(spec.Width)); err == nil {
				s.met.estimateDegraded(fallbackRegression).Inc()
				return t, fallbackRegression, nil
			}
		}
	}
	return nil, "", &requestError{code: http.StatusNotFound,
		msg: fmt.Sprintf("model %s not built and no fallback available; POST /v1/models/build first", spec.Key())}
}
