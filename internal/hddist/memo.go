package hddist

// memo.go memoizes the closed-form distribution pipeline for serving.
// Deriving a Dist from word statistics is pure — the same
// (μ, σ, ρ, width, ports) always yields the same distribution — and
// production estimate traffic clusters on a handful of stream profiles,
// so the stats endpoint would otherwise recompute identical binomials and
// convolutions millions of times. The cache is a bounded immutable
// open-addressing table published behind an atomic pointer: readers never
// lock, writers copy-insert-swap (RCU), and when the table fills it is
// reset rather than evicted entry-by-entry, keeping the structure free of
// maps (whose iteration order is forbidden in this deterministic package)
// and of any recency bookkeeping on the read path.

import (
	"math"
	"sync"
	"sync/atomic"

	"hdpower/internal/stats"
)

// MemoKey identifies one memoized distribution: the word-level statistics
// (paper Section 6's μ, σ, ρ), the per-port word width, and the number of
// convolved ports. The closed form never reads a stream's sample count N,
// so the key leaves it out: queries that differ only in N share an entry.
type MemoKey struct {
	Mean  float64
	Std   float64
	Rho   float64
	Width int
	Ports int
}

// Hash folds the key into 64 bits with FNV-1a over the exact float bit
// patterns, so keys that differ in any ULP occupy distinct slots and the
// hash is deterministic across processes.
func (k MemoKey) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(math.Float64bits(k.Mean))
	mix(math.Float64bits(k.Std))
	mix(math.Float64bits(k.Rho))
	mix(uint64(k.Width))
	mix(uint64(k.Ports))
	return h
}

// memoTable is one immutable open-addressing snapshot. Slots are probed
// linearly from Hash(key) % len; a nil dist marks an empty slot (every
// cached Dist has at least one entry).
type memoTable struct {
	keys []MemoKey
	dist []Dist
	used int
}

// Memo is a bounded concurrent cache of closed-form distributions.
// Lookups are lock-free; misses compute outside any lock and publish by
// copy-and-swap, so a burst of distinct profiles can never stall readers.
type Memo struct {
	p   atomic.Pointer[memoTable]
	mu  sync.Mutex // serializes writers (copy-insert-swap)
	cap int        // maximum cached entries before reset

	hits   atomic.Uint64
	misses atomic.Uint64
	resets atomic.Uint64
}

// DefaultMemoCapacity bounds a Memo built with capacity <= 0. 4096
// distinct (stats, width, ports) profiles is far beyond any observed
// traffic mix, and at ~1 KiB per cached distribution the worst case
// stays around 4 MiB.
const DefaultMemoCapacity = 4096

// NewMemo returns an empty memo bounded to capacity entries
// (DefaultMemoCapacity when capacity <= 0).
func NewMemo(capacity int) *Memo {
	if capacity <= 0 {
		capacity = DefaultMemoCapacity
	}
	m := &Memo{cap: capacity}
	m.p.Store(newMemoTable(capacity))
	return m
}

// newMemoTable sizes the slot array at 2x capacity so the probe chains
// stay short even at the fill bound.
func newMemoTable(capacity int) *memoTable {
	n := 2 * capacity
	return &memoTable{keys: make([]MemoKey, n), dist: make([]Dist, n)}
}

// lookup probes the snapshot for key.
func (t *memoTable) lookup(key MemoKey) (Dist, bool) {
	n := uint64(len(t.keys))
	for i, h := uint64(0), key.Hash(); i < n; i++ {
		slot := (h + i) % n
		if t.dist[slot] == nil {
			return nil, false
		}
		if t.keys[slot] == key {
			return t.dist[slot], true
		}
	}
	return nil, false
}

// insert places key into a table with free space (callers guarantee
// used < cap, and the slot array is 2x cap, so probing always finds room).
func (t *memoTable) insert(key MemoKey, d Dist) {
	n := uint64(len(t.keys))
	for i, h := uint64(0), key.Hash(); i < n; i++ {
		slot := (h + i) % n
		if t.dist[slot] == nil {
			t.keys[slot] = key
			t.dist[slot] = d
			t.used++
			return
		}
		if t.keys[slot] == key {
			return // racer published it first; keep the existing value
		}
	}
}

// Get returns the cached distribution for key, or computes it with fn and
// publishes the result. The returned Dist is shared: callers must treat
// it as read-only.
func (m *Memo) Get(key MemoKey, fn func() Dist) Dist {
	if d, ok := m.p.Load().lookup(key); ok {
		m.hits.Add(1)
		return d
	}
	m.misses.Add(1)
	d := fn()
	m.mu.Lock()
	cur := m.p.Load()
	if cached, ok := cur.lookup(key); ok {
		// Lost the race to another writer; their value is identical
		// (the computation is pure), keep it.
		m.mu.Unlock()
		return cached
	}
	next := newMemoTable(m.cap)
	if cur.used < m.cap {
		copy(next.keys, cur.keys)
		copy(next.dist, cur.dist)
		next.used = cur.used
	} else {
		// Bounded: at capacity the whole table resets instead of evicting
		// piecemeal, trading a warm-up burst for an O(1) decision with no
		// recency state on the read path.
		m.resets.Add(1)
	}
	next.insert(key, d)
	m.p.Store(next)
	m.mu.Unlock()
	return d
}

// FromWordStats returns the memoized analytic distribution of a single
// width-bit port with the given word statistics — FromWordStats with a
// cache in front.
func (m *Memo) FromWordStats(ws stats.WordStats, width int) Dist {
	key := MemoKey{Mean: ws.Mean, Std: ws.Std, Rho: ws.Rho, Width: width, Ports: 1}
	return m.Get(key, func() Dist { return FromWordStats(ws, width) })
}

// FromWordStatsPorts returns the memoized distribution of ports
// independent width-bit streams with identical statistics feeding
// disjoint ports: the single-port distribution convolved ports-1 times
// (the multi-input extension of Section 6.3). Both the per-port and the
// fully convolved distributions are cached, so a profile that alternates
// port counts still reuses the expensive base computation.
func (m *Memo) FromWordStatsPorts(ws stats.WordStats, width, ports int) Dist {
	if ports <= 1 {
		return m.FromWordStats(ws, width)
	}
	key := MemoKey{Mean: ws.Mean, Std: ws.Std, Rho: ws.Rho, Width: width, Ports: ports}
	return m.Get(key, func() Dist {
		port := m.FromWordStats(ws, width)
		dist := port
		for p := 1; p < ports; p++ {
			dist = Convolve(dist, port)
		}
		return dist
	})
}

// Stats reports cache effectiveness counters: hits, misses, and
// capacity-exhaustion resets.
func (m *Memo) Stats() (hits, misses, resets uint64) {
	return m.hits.Load(), m.misses.Load(), m.resets.Load()
}

// Len returns the number of currently cached distributions.
func (m *Memo) Len() int {
	return m.p.Load().used
}
