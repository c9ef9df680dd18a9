package telemetry

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// MaxClasses bounds the per-model Hd-class counters: Hd classes 0..64
// cover every model the build plane accepts (input vectors are at most 64
// bits wide).
const MaxClasses = 65

// Key identifies one served model, mirroring the serving layer's build
// key. The Module string must be interned by the caller when the lookup
// sits on an allocation-sensitive path: the serving layer's estimate
// parser interns module names, so the map probe does not allocate.
type Key struct {
	Module string
	Width  int
	Seed   int64
}

// String renders the key in the build-plane's canonical
// module/w<width>/s<seed> form.
func (k Key) String() string { return fmt.Sprintf("%s/w%d/s%d", k.Module, k.Width, k.Seed) }

// Profiler records per-model × per-Hd-class traffic with lock-free,
// allocation-free hot-path recording. The model set is an RCU snapshot: a
// read-only map swapped under a mutex on registration (rare), probed with
// a single atomic load per lookup (always). Counters are sharded per
// model so concurrent workers do not contend on one cache line.
type Profiler struct {
	shards  int
	max     int
	mu      sync.Mutex // guards registration (copy + swap of set)
	set     atomic.Pointer[profSet]
	dropped atomic.Uint64 // registrations refused by the MaxModels cap
}

// profSet is one immutable model-set snapshot. list preserves
// registration order so snapshot code never ranges over the map.
type profSet struct {
	byKey map[Key]*ModelProf
	list  []*ModelProf
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

func newProfiler(shards, maxModels int) *Profiler {
	p := &Profiler{shards: shards, max: maxModels}
	p.set.Store(&profSet{byKey: map[Key]*ModelProf{}})
	return p
}

// Model returns the counters for key, registering the model on first
// sight. The hit path is one atomic load plus a map probe and never
// allocates. Returns nil (safe to record into) when the MaxModels cap is
// reached.
func (p *Profiler) Model(key Key, classes int) *ModelProf {
	if mp, ok := p.set.Load().byKey[key]; ok {
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
	old := p.set.Load()
	if mp, ok := old.byKey[key]; ok { // lost a registration race
		return mp
	}
	if len(old.list) >= p.max {
		p.dropped.Add(1)
		return nil
	}
	mp := &ModelProf{key: key, classes: classes, shards: make([]profShard, p.shards)}
	next := &profSet{
		byKey: make(map[Key]*ModelProf, len(old.list)+1),
		list:  make([]*ModelProf, len(old.list), len(old.list)+1),
	}
	copy(next.list, old.list)
	next.list = append(next.list, mp)
	for _, m := range next.list {
		next.byKey[m.key] = m
	}
	p.set.Store(next)
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

// Snapshot sums the model's shards. Writers record an estimate's class
// hit before the estimate itself, so each shard's estimate count is read
// before and after its class counters: the class hits read lie between
// the first read and one past the second, and the shard reports the count
// it held during its class reads that is nearest its hits. A snapshot
// taken while writers record therefore never shows more skew between
// hits and estimates than the records in flight.
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
	set := p.set.Load()
	out := make([]ModelSnapshot, 0, len(set.list))
	for _, m := range set.list {
		out = append(out, m.Snapshot())
	}
	sortModels(out)
	return out
}
