package serve

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hdpower/internal/core"
	"hdpower/internal/dwlib"
	"hdpower/internal/fleet"
	"hdpower/internal/lut"
	"hdpower/internal/telemetry"
)

// Build bounds. Width is the operand width per port, so the total input
// vector is at most 2*maxBuildWidth bits; the cap keeps a single request
// from scheduling an hours-long characterization.
const (
	maxBuildWidth    = 32
	maxBuildPatterns = 200000
	defaultPatterns  = 5000
)

// BuildSpec identifies one fitted model. Module, Width and Seed form the
// cache key (characterization is deterministic in them for a fixed
// pattern budget); the remaining fields shape the fit.
type BuildSpec struct {
	// Module is a catalog generator name, e.g. "csa-multiplier".
	Module string `json:"module"`
	// Width is the operand width per port.
	Width int `json:"width"`
	// Seed seeds the deterministic characterization stream.
	Seed int64 `json:"seed"`
	// Patterns is the characterization budget (default 5000).
	Patterns int `json:"patterns,omitempty"`
	// Enhanced additionally fits the stable-zero refined table.
	Enhanced bool `json:"enhanced,omitempty"`
	// ZClusters clusters the stable-zero axis (0 = full resolution).
	ZClusters int `json:"z_clusters,omitempty"`
}

// normalize applies defaults and validates against the catalog.
func (b *BuildSpec) normalize() error {
	if _, err := dwlib.LookupWidth(b.Module, b.Width); err != nil {
		return err
	}
	if b.Width > maxBuildWidth {
		return fmt.Errorf("width %d exceeds the serving cap %d", b.Width, maxBuildWidth)
	}
	if b.Patterns == 0 {
		b.Patterns = defaultPatterns
	}
	if b.Patterns < 0 || b.Patterns > maxBuildPatterns {
		return fmt.Errorf("patterns %d outside (0, %d]", b.Patterns, maxBuildPatterns)
	}
	if b.ZClusters < 0 {
		return fmt.Errorf("z_clusters %d is negative", b.ZClusters)
	}
	return nil
}

// Key renders the model cache key, e.g. "ripple-adder/w8/s1".
func (b BuildSpec) Key() string { return b.modelKey().String() }

// modelKey is the model cache key, which the traffic profiler keys the
// model's traffic by too.
func (b BuildSpec) modelKey() telemetry.Key {
	return telemetry.Key{Module: b.Module, Width: b.Width, Seed: b.Seed}
}

// Build lifecycle states.
const (
	statusBuilding = "building"
	statusReady    = "ready"
	statusFailed   = "failed"
)

// buildEntry is one build of a key: every request for the key while it
// is in flight shares it, and done closes exactly once when it settles.
type buildEntry struct {
	spec BuildSpec
	key  telemetry.Key
	id   string // URL-safe form of key, see fleet.BuildID
	done chan struct{}

	// rec records the build once it runs; GET /v1/models/build/{id}
	// pollers read its live progress.
	rec atomic.Pointer[core.RunRecorder]

	// Retry diagnostics for the progress endpoint: attempts counts build
	// attempts started; retry records the last transient failure (set
	// before the backoff sleep, kept after recovery so a settled build
	// still shows what it survived).
	attempts atomic.Int64
	retry    atomic.Pointer[buildRetryState]

	// Guarded by the owning cache's mutex. Once the entry is in the
	// ready set, model and table are never written again, so readers of
	// the set read them without the mutex.
	status   string
	model    *core.Model
	table    *lut.Table // flattened model: what estimates price with
	err      error
	manifest *core.RunManifest
	stamp    uint64 // recency of a ready model: higher is newer
}

// buildRetryState is one transient build failure, published atomically
// for lock-free progress polls.
type buildRetryState struct {
	attempt int
	lastErr string
	backoff time.Duration
}

// modelSnapshot is the externally visible state of one entry.
type modelSnapshot struct {
	ID            string    `json:"id"`
	Key           string    `json:"key"`
	Spec          BuildSpec `json:"spec"`
	Status        string    `json:"status"`
	Error         string    `json:"error,omitempty"`
	InputBits     int       `json:"input_bits,omitempty"`
	BasicCoefs    int       `json:"basic_coefficients,omitempty"`
	EnhancedCoefs int       `json:"enhanced_coefficients,omitempty"`
}

// modelCache is the fitted-model LRU plus the singleflight table of
// builds. Each key has at most one ready model and, beside it, at most one
// unsettled build: in flight, or the last one that failed. A refinement
// rebuild is an ordinary build of a ready key, and the ready model serves
// until a successful build replaces it. The capacity bounds the ready
// models and, separately, the failed builds kept (the earliest settled is
// forgotten first); builds in flight are bounded by the build queue.
//
// The ready models are one immutable map, the ready set, copied and
// swapped under mu whenever a model goes ready or is evicted (RCU): an
// exact estimate hit resolves with a single atomic load and map read,
// never the mutex. Recency is a stamp on each ready entry, guarded by mu:
// a build request for a ready key and a key's first model take a fresh
// stamp, a rebuild keeps the stamp of the model it replaces, estimates
// take none, and the oldest stamp is evicted first.
type modelCache struct {
	mu       sync.Mutex
	capacity int
	met      *metrics
	clock    uint64                        // the last recency stamp handed out
	builds   map[telemetry.Key]*buildEntry // key -> its unsettled build
	failed   []*buildEntry                 // failed builds, earliest settled first

	ready atomic.Pointer[map[telemetry.Key]*buildEntry]
}

func newModelCache(capacity int, met *metrics) *modelCache {
	c := &modelCache{
		capacity: capacity,
		met:      met,
		builds:   make(map[telemetry.Key]*buildEntry),
	}
	c.ready.Store(&map[telemetry.Key]*buildEntry{})
	return c
}

// readySet returns the current ready set. It is never written after it
// is published, so it is read without c.mu.
func (c *modelCache) readySet() map[telemetry.Key]*buildEntry { return *c.ready.Load() }

// table resolves a ready model's flattened table without taking any lock.
func (c *modelCache) table(key telemetry.Key) *lut.Table {
	if ent := c.readySet()[key]; ent != nil {
		return ent.table
	}
	return nil
}

// lookupID returns the entry for a build ID, if present: the key's ready
// entry before its unsettled build. A scan is cheap at the cache's size.
func (c *modelCache) lookupID(id string) (*buildEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ent := range c.readySet() {
		if ent.id == id {
			return ent, true
		}
	}
	for _, ent := range c.builds {
		if ent.id == id {
			return ent, true
		}
	}
	return nil, false
}

// readySibling returns the table of a ready model for the same module and
// width under any seed — the first degradation rung when the exact key is
// not cached — or nil. The lowest seed wins, so the fallback is
// deterministic across requests.
func (c *modelCache) readySibling(module string, width int) *lut.Table {
	var best *buildEntry
	for key, ent := range c.readySet() {
		if key.Module == module && key.Width == width && (best == nil || key.Seed < best.key.Seed) {
			best = ent
		}
	}
	if best == nil {
		return nil
	}
	return best.table
}

// begin implements the singleflight: it returns the key's ready model,
// else its build in flight, else a new build that the caller owns and
// must enqueue (started). A failed build is replaced so clients can retry.
func (c *modelCache) begin(spec BuildSpec) (ent *buildEntry, started bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ent, ok := c.readySet()[spec.modelKey()]; ok {
		c.clock++
		ent.stamp = c.clock
		return ent, false
	}
	return c.startLocked(spec)
}

// rebuild starts a build of a ready key, which the caller owns and must
// enqueue; the ready model serves until the build settles. It refuses a
// key with no ready model or with a build in flight.
func (c *modelCache) rebuild(spec BuildSpec) (*buildEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.readySet()[spec.modelKey()]; !ok {
		return nil, false
	}
	return c.startLocked(spec)
}

// startLocked returns the key's build in flight, or starts one in place of
// a failed or absent build. Callers must hold c.mu.
func (c *modelCache) startLocked(spec BuildSpec) (ent *buildEntry, started bool) {
	key := spec.modelKey()
	if ent, ok := c.builds[key]; ok && ent.status == statusBuilding {
		return ent, false
	}
	ent = &buildEntry{
		spec: spec, key: key, id: fleet.BuildID(key.Module, key.Width, key.Seed),
		status: statusBuilding, done: make(chan struct{}),
	}
	c.builds[key] = ent
	return ent, true
}

// readyEntrySpec returns the ready model and its build spec for key from
// the ready set, without the mutex and without touching recency: the
// telemetry hotset peeks at every profiled model and must not perturb
// eviction.
func (c *modelCache) readyEntrySpec(key telemetry.Key) (*core.Model, BuildSpec, bool) {
	ent, ok := c.readySet()[key]
	if !ok {
		return nil, BuildSpec{}, false
	}
	return ent.model, ent.spec, true
}

// abandon settles a just-begun build that could not be enqueued (queue
// full) and forgets it, so later requests start afresh and requests that
// joined it stop waiting.
func (c *modelCache) abandon(ent *buildEntry) {
	c.mu.Lock()
	delete(c.builds, ent.key)
	ent.status = statusFailed
	ent.err = errQueueFull
	c.mu.Unlock()
	close(ent.done)
}

// complete settles a build and publishes its flight-recorder manifest. A
// failed build stays as the key's unsettled build; a successful one
// becomes the key's ready model in a newly published ready set, so
// estimate readers see the new (or evicted) model without ever blocking
// on c.mu.
func (c *modelCache) complete(ent *buildEntry, model *core.Model, table *lut.Table, err error, man *core.RunManifest) {
	c.mu.Lock()
	ent.manifest = man
	if err != nil {
		ent.status = statusFailed
		ent.err = err
		c.keepFailed(ent)
	} else {
		ent.status = statusReady
		ent.model = model
		ent.table = table
		delete(c.builds, ent.key)
		c.publish(ent)
	}
	c.mu.Unlock()
	close(ent.done)
}

// keepFailed records a failed build, forgetting the earliest settled
// failed builds beyond the capacity. Callers must hold c.mu.
func (c *modelCache) keepFailed(ent *buildEntry) {
	// A failed build a newer build of its key replaced is no longer kept.
	c.failed = append(slices.DeleteFunc(c.failed, func(f *buildEntry) bool { return c.builds[f.key] != f }), ent)
	for len(c.failed) > c.capacity {
		delete(c.builds, c.failed[0].key)
		c.failed = c.failed[1:]
	}
}

// publish swaps in a ready set holding ent as its key's model, with the
// stamp of the model it replaces or else a fresh one, and evicts the
// oldest stamps beyond the capacity. Callers must hold c.mu.
func (c *modelCache) publish(ent *buildEntry) {
	old := c.readySet()
	next := make(map[telemetry.Key]*buildEntry, len(old)+1)
	maps.Copy(next, old)
	if prev, ok := old[ent.key]; ok {
		ent.stamp = prev.stamp
	} else {
		c.clock++
		ent.stamp = c.clock
	}
	next[ent.key] = ent
	for len(next) > c.capacity {
		var oldest *buildEntry
		for _, e := range next {
			if oldest == nil || e.stamp < oldest.stamp {
				oldest = e
			}
		}
		delete(next, oldest.key)
		c.met.cacheEvicted.Inc()
	}
	c.ready.Store(&next)
	c.met.lutSwaps.Add(1)
}

// snapshot lists every entry: ready models newest first, then the
// unsettled builds (building or failed), which may share a ready key.
func (c *modelCache) snapshot() []modelSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	ents := make([]*buildEntry, 0, len(c.readySet())+len(c.builds))
	for _, ent := range c.readySet() {
		ents = append(ents, ent)
	}
	slices.SortFunc(ents, func(a, b *buildEntry) int { return cmp.Compare(b.stamp, a.stamp) })
	for _, ent := range c.builds {
		ents = append(ents, ent)
	}
	out := make([]modelSnapshot, len(ents))
	for i, ent := range ents {
		out[i] = c.entrySnapshot(ent)
	}
	return out
}

func (c *modelCache) entrySnapshot(ent *buildEntry) modelSnapshot {
	snap := modelSnapshot{ID: ent.id, Key: ent.key.String(), Spec: ent.spec, Status: ent.status}
	if ent.err != nil {
		snap.Error = ent.err.Error()
	}
	if ent.model != nil {
		snap.InputBits = ent.model.InputBits
		snap.BasicCoefs, snap.EnhancedCoefs = ent.model.NumCoefficients()
	}
	return snap
}

// job is a build's one recipe. The local path below, the run recorder,
// the fleet coordinator and every worker take the build's netlist, run
// name, options and checkpoint file from this fleet.JobSpec, as the
// hdpower CLI does, so fleet builds stay bit-identical to local ones.
func (s *Server) job(spec BuildSpec) fleet.JobSpec {
	return fleet.JobSpec{
		ID:        fleet.BuildID(spec.Module, spec.Width, spec.Seed),
		Module:    spec.Module,
		Width:     spec.Width,
		Seed:      spec.Seed,
		Patterns:  spec.Patterns,
		Enhanced:  spec.Enhanced,
		ZClusters: spec.ZClusters,
		Backend:   s.cfg.Backend.Name(),
	}
}

// characterize is the real build backend: the job's own Characterize,
// with the server's observability hooks and the build context as the
// interrupt source. With a Fleet the workers compute the shards, and
// the coordinator merges them through the same state machine, so the
// model is bit-identical; a fleet with no live worker, at the start or
// mid-build, hands the build back to this one local path, which resumes
// the checkpoint the coordinator saved. Without a CheckpointDir the
// job's checkpoint path is empty, which turns checkpointing off.
func (s *Server) characterize(ctx context.Context, spec BuildSpec, hooks *core.Hooks) (*core.Model, error) {
	job := s.job(spec)
	path := job.CheckpointPath(s.cfg.CheckpointDir)
	if s.cfg.Fleet != nil {
		model, err := s.cfg.Fleet.RunJob(ctx, job, fleet.RunOptions{Hooks: hooks, CheckpointPath: path})
		if !errors.Is(err, fleet.ErrNoWorkers) {
			return model, err
		}
		s.log.Info("no live fleet worker; building locally", "id", job.ID)
	}
	opt := job.Options()
	opt.Workers = s.cfg.CharWorkers
	opt.Hooks = hooks
	opt.Interrupt = func() error { return ctx.Err() }
	opt.Checkpoint = core.CheckpointOptions{
		Path:        path,
		EveryShards: s.cfg.CheckpointEvery,
		Resume:      true,
	}
	model, err := job.Characterize(opt)
	if core.IsCheckpointMismatch(err) {
		// A stale checkpoint from a run with different options (e.g. the
		// server was restarted with new defaults). The spec in hand is
		// authoritative; characterize fresh over the leftover.
		s.log.Warn("stale checkpoint does not match build; restarting fresh",
			"key", spec.Key(), "err", err)
		opt.Checkpoint.Resume = false
		model, err = job.Characterize(opt)
	}
	return model, err
}
