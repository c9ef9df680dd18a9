package hddist

import (
	"sync"
	"testing"

	"hdpower/internal/stats"
)

func testWS(mean float64) stats.WordStats {
	return stats.WordStats{N: 1024, Mean: mean, Std: 42, Rho: 0.3}
}

func TestMemoReturnsSameDistribution(t *testing.T) {
	m := NewMemo(8)
	ws := testWS(10)
	want := FromWordStats(ws, 8)
	got := m.FromWordStats(ws, 8)
	if len(got) != len(want) {
		t.Fatalf("length %d != %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dist[%d]: %v != %v", i, got[i], want[i])
		}
	}
	// Second call must be a hit returning the identical slice.
	again := m.FromWordStats(ws, 8)
	if &again[0] != &got[0] {
		t.Fatal("second lookup did not return the cached distribution")
	}
	hits, misses, _ := m.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", hits, misses)
	}
}

func TestMemoPortsConvolution(t *testing.T) {
	m := NewMemo(8)
	ws := testWS(3)
	want := FromWordStats(ws, 4)
	for p := 1; p < 3; p++ {
		want = Convolve(want, FromWordStats(ws, 4))
	}
	got := m.FromWordStatsPorts(ws, 4, 3)
	if len(got) != len(want) {
		t.Fatalf("length %d != %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dist[%d]: %v != %v", i, got[i], want[i])
		}
	}
	// The per-port base distribution was cached on the way.
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (base + convolved)", m.Len())
	}
	// ports <= 1 routes through the single-port entry: still 2 cached.
	m.FromWordStatsPorts(ws, 4, 1)
	if m.Len() != 2 {
		t.Fatalf("Len after ports=1 = %d, want 2", m.Len())
	}
}

func TestMemoDistinctKeys(t *testing.T) {
	m := NewMemo(32)
	a := m.FromWordStats(testWS(1), 8)
	b := m.FromWordStats(testWS(2), 8)
	c := m.FromWordStats(testWS(1), 6)
	if &a[0] == &b[0] || len(c) == len(a) {
		t.Fatal("distinct keys collided")
	}
	if m.Len() != 3 {
		t.Fatalf("Len = %d, want 3", m.Len())
	}
}

// TestMemoBounded fills the cache past capacity and checks it resets
// instead of growing without bound.
func TestMemoBounded(t *testing.T) {
	m := NewMemo(4)
	for i := 0; i < 10; i++ {
		m.FromWordStats(testWS(float64(i)), 8)
	}
	if m.Len() > 4 {
		t.Fatalf("Len = %d exceeds capacity 4", m.Len())
	}
	_, _, resets := m.Stats()
	if resets == 0 {
		t.Fatal("cache never reset despite overflow")
	}
}

func TestMemoDefaultCapacity(t *testing.T) {
	m := NewMemo(0)
	if m.cap != DefaultMemoCapacity {
		t.Fatalf("cap = %d, want %d", m.cap, DefaultMemoCapacity)
	}
}

func TestMemoKeyHashDiffers(t *testing.T) {
	base := MemoKey{Mean: 1, Std: 2, Rho: 0.5, Width: 8, Ports: 1}
	variants := []MemoKey{
		{Mean: 1.0000001, Std: 2, Rho: 0.5, Width: 8, Ports: 1},
		{Mean: 1, Std: 2.5, Rho: 0.5, Width: 8, Ports: 1},
		{Mean: 1, Std: 2, Rho: -0.5, Width: 8, Ports: 1},
		{Mean: 1, Std: 2, Rho: 0.5, Width: 9, Ports: 1},
		{Mean: 1, Std: 2, Rho: 0.5, Width: 8, Ports: 2},
	}
	h := base.Hash()
	for _, v := range variants {
		if v.Hash() == h {
			t.Fatalf("key %+v hashes like the base key", v)
		}
	}
	if base.Hash() != h {
		t.Fatal("hash is not deterministic")
	}
}

// TestMemoIgnoresSampleCount pins the memo to what the closed form reads:
// the distribution of two streams that differ only in their sample count
// N is the same, so the second query is a hit on the first one's entry.
func TestMemoIgnoresSampleCount(t *testing.T) {
	m := NewMemo(8)
	ws := testWS(10)
	other := ws
	other.N = 500
	first := m.FromWordStats(ws, 8)
	second := m.FromWordStats(other, 8)
	if hits, misses, _ := m.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", hits, misses)
	}
	if &second[0] != &first[0] {
		t.Fatal("second query did not share the first one's distribution")
	}
	want := FromWordStats(other, 8)
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("dist[%d]: %v, closed form at N=%d gives %v", i, first[i], other.N, want[i])
		}
	}
}

// TestMemoConcurrent hammers one memo from many goroutines mixing hits,
// misses and resets; run under -race this pins the lock-free read path.
func TestMemoConcurrent(t *testing.T) {
	m := NewMemo(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ws := testWS(float64(i % 24))
				d := m.FromWordStatsPorts(ws, 4, 1+i%3)
				if len(d) == 0 {
					t.Error("empty distribution")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestMemoLookupAllocs pins the allocation-free read path: a warm cache
// hit must not allocate.
func TestMemoLookupAllocs(t *testing.T) {
	m := NewMemo(8)
	ws := testWS(5)
	m.FromWordStats(ws, 8) // warm
	allocs := testing.AllocsPerRun(200, func() {
		m.FromWordStats(ws, 8)
	})
	if allocs != 0 {
		t.Fatalf("warm memo hit allocated %v allocs/op, want 0", allocs)
	}
}
