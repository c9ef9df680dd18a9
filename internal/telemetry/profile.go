package telemetry

import (
	"maps"
	"strconv"
	"sync"
	"sync/atomic"
)

// MaxClasses bounds the per-model Hd-class counters: Hd classes 0..64
// cover every model the build plane accepts (input vectors are at most 64
// bits wide).
const MaxClasses = 65

// Key identifies one served model: the serving layer keys its ready
// models by it too. The Module string must be interned by the caller when
// the lookup sits on an allocation-sensitive path: the serving layer's
// estimate parser interns module names, so the map probe does not
// allocate.
type Key struct {
	Module string
	Width  int
	Seed   int64
}

// String renders the key in the build plane's canonical
// module/w<width>/s<seed> form.
func (k Key) String() string { return string(k.Append(nil)) }

// Append appends the key's canonical module/w<width>/s<seed> form to b,
// the one place that form is written.
func (k Key) Append(b []byte) []byte {
	b = append(b, k.Module...)
	b = append(b, "/w"...)
	b = strconv.AppendInt(b, int64(k.Width), 10)
	b = append(b, "/s"...)
	return strconv.AppendInt(b, k.Seed, 10)
}

// Profiler records per-model × per-Hd-class traffic with lock-free,
// allocation-free hot-path recording. The model set is an RCU snapshot: a
// read-only map swapped under a mutex on registration (rare), probed with
// a single atomic load per lookup (always). Counters are sharded per
// model so concurrent workers do not contend on one cache line.
type Profiler struct {
	shards  int
	max     int
	mu      sync.Mutex // guards registration (copy + swap of set)
	set     atomic.Pointer[map[Key]*ModelProf]
	dropped atomic.Uint64 // registrations refused by the model cap
}

// ModelProf holds the sharded counters of one model.
type ModelProf struct {
	key     Key
	classes int
	shards  []profShard
}

// profShard is one shard's counters. Latency is accumulated in integer
// nanoseconds so recording is a plain atomic add rather than a CAS loop.
type profShard struct {
	classes   [MaxClasses]atomic.Uint64
	requests  atomic.Uint64
	estimates atomic.Uint64
	latNanos  atomic.Uint64
	latCount  atomic.Uint64
}

// maxProfiledModels caps the number of distinct models a Telemetry's
// profiler tracks; registrations beyond it are counted in DroppedModels
// instead of growing without bound.
const maxProfiledModels = 128

func newProfiler(shards, maxModels int) *Profiler {
	p := &Profiler{shards: shards, max: maxModels}
	p.set.Store(&map[Key]*ModelProf{})
	return p
}

// Model returns the counters for key, registering the model on first
// sight. The hit path is one atomic load plus a map probe and never
// allocates. Returns nil (safe to record into) when the model cap is
// reached.
func (p *Profiler) Model(key Key, classes int) *ModelProf {
	if mp, ok := (*p.set.Load())[key]; ok {
		return mp
	}
	return p.register(key, classes)
}

func (p *Profiler) register(key Key, classes int) *ModelProf {
	if classes < 1 {
		classes = 1
	} else if classes > MaxClasses {
		classes = MaxClasses
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	old := *p.set.Load()
	if mp, ok := old[key]; ok { // lost a registration race
		return mp
	}
	if len(old) >= p.max {
		p.dropped.Add(1)
		return nil
	}
	mp := &ModelProf{key: key, classes: classes, shards: make([]profShard, p.shards)}
	next := maps.Clone(old)
	next[key] = mp
	p.set.Store(&next)
	return mp
}

// RecordClass counts one estimate landing in Hd class hd. hint selects
// the shard; callers pass a per-worker value so concurrent recorders
// spread across shards. Nil-safe and allocation-free.
func (m *ModelProf) RecordClass(hint uint32, hd int) {
	if m == nil || hd < 0 {
		return
	}
	if hd >= MaxClasses {
		hd = MaxClasses - 1
	}
	m.shards[int(hint)%len(m.shards)].classes[hd].Add(1)
}

// RecordClasses counts counts[c] estimates landing in Hd class c, for a
// whole request at once: one atomic add per non-empty class, where
// RecordClass takes one per estimate. Nil-safe and allocation-free.
func (m *ModelProf) RecordClasses(hint uint32, counts *[MaxClasses]uint64) {
	if m == nil {
		return
	}
	sh := &m.shards[int(hint)%len(m.shards)]
	for c, n := range counts {
		if n != 0 {
			sh.classes[c].Add(n)
		}
	}
}

// RecordRequest counts one request against the model: how many estimates
// it carried and how long the estimate computation took. Nil-safe and
// allocation-free.
func (m *ModelProf) RecordRequest(hint uint32, estimates int, latSeconds float64) {
	if m == nil {
		return
	}
	sh := &m.shards[int(hint)%len(m.shards)]
	sh.requests.Add(1)
	if estimates > 0 {
		sh.estimates.Add(uint64(estimates))
	}
	if latSeconds > 0 {
		sh.latNanos.Add(uint64(latSeconds * 1e9))
		sh.latCount.Add(1)
	}
}

// Snapshot sums the model's shards. Writers record a request's class
// hits before its estimates, so each shard's estimate count is read
// before and after its class counters: the class hits read lie between
// the first read and the second plus the records in flight, and the
// shard reports the count it held during its class reads that is nearest
// its hits. A record in flight is a whole request: a writer flushes all
// of a request's class hits (RecordClasses), then adds all its estimates.
// A snapshot taken while writers record therefore never shows more skew
// between hits and estimates than the estimates of the requests in
// flight.
func (m *ModelProf) Snapshot() ModelSnapshot {
	s := ModelSnapshot{
		Key:     m.key.String(),
		Module:  m.key.Module,
		Width:   m.key.Width,
		Seed:    m.key.Seed,
		Classes: m.classes,
		HdHits:  make([]uint64, m.classes),
	}
	var latNanos, latCount uint64
	for i := range m.shards {
		sh := &m.shards[i]
		before := sh.estimates.Load()
		var hits uint64
		for c := range sh.classes {
			// Out-of-range Hd values are clamped into the top slot by
			// RecordClass; fold anything above the model's class count
			// into the last class so no hit is lost from the snapshot.
			n := sh.classes[c].Load()
			s.HdHits[min(c, m.classes-1)] += n
			hits += n
		}
		s.Estimates += min(max(hits, before), sh.estimates.Load())
		s.Requests += sh.requests.Load()
		latNanos += sh.latNanos.Load()
		latCount += sh.latCount.Load()
	}
	if latCount > 0 {
		s.AvgLatency = float64(latNanos) / 1e9 / float64(latCount)
	}
	return s
}

// SnapshotModels snapshots every registered model, sorted by key for
// deterministic output.
func (p *Profiler) SnapshotModels() []ModelSnapshot {
	// hdlint type-checks against stub imports, so only the declared map
	// type shows it that the walk below ranges over a map.
	var set map[Key]*ModelProf = *p.set.Load()
	out := make([]ModelSnapshot, 0, len(set))
	//hdlint:allow nondeterminism sortModels orders the snapshots by key, so the walk's order never shows
	for _, m := range set {
		out = append(out, m.Snapshot())
	}
	sortModels(out)
	return out
}
