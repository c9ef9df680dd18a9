package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// Quantile estimates the q-quantile (q in [0,1]) of the observed values by
// linear interpolation inside the winning bucket. Returns 0 when the
// histogram is empty. The overflow bucket has no finite upper bound, so a
// quantile that lands there is clamped to the largest finite bound instead
// of being reported as +Inf; callers needing the true tail should widen the
// bucket bounds.
func (h *Histogram) Quantile(q float64) float64 {
	counts := make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return BucketQuantile(h.bounds, counts, q)
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if same := r.Counter("reqs_total", "requests"); same != c {
		t.Fatalf("re-registering a counter must return the same instance")
	}

	g := r.Gauge("depth", "queue depth")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestCounterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Add(-1) must panic")
		}
	}()
	(&Counter{}).Add(-1)
}

func TestLabeledCounters(t *testing.T) {
	r := NewRegistry()
	ok := r.CounterL("http_total", "by code", []Label{{"path", "/x"}, {"code", "200"}})
	bad := r.CounterL("http_total", "by code", []Label{{"path", "/x"}, {"code", "500"}})
	ok.Add(3)
	bad.Inc()

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE http_total counter",
		`http_total{path="/x",code="200"} 3`,
		`http_total{path="/x",code="500"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.001, 0.01, 0.1})
	for _, v := range []float64{0.0005, 0.005, 0.005, 0.05, 5} {
		h.Observe(v)
	}
	h.Observe(math.NaN()) // ignored
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 0.0005+0.005+0.005+0.05+5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("sum = %v, want %v", got, want)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.001"} 1`,
		`lat_seconds_bucket{le="0.01"} 3`,
		`lat_seconds_bucket{le="0.1"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		"lat_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_seconds", "latency", []float64{0.001, 0.01, 0.1})

	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}

	// 10 observations in (0.001, 0.01]: the median interpolates inside
	// that bucket.
	for i := 0; i < 10; i++ {
		h.Observe(0.005)
	}
	got := h.Quantile(0.5)
	if got <= 0.001 || got > 0.01 {
		t.Fatalf("p50 = %v, want within (0.001, 0.01]", got)
	}
	// q outside [0,1] clamps instead of extrapolating.
	if lo, hi := h.Quantile(-1), h.Quantile(2); lo < 0 || hi > 0.01+1e-12 {
		t.Fatalf("clamped quantiles out of range: q=-1 -> %v, q=2 -> %v", lo, hi)
	}
}

// TestHistogramQuantileOverflowClamp is the regression test for the +Inf
// edge case: every observation beyond the last finite bound lands in the
// unbounded overflow bucket, where naive interpolation would report +Inf.
// The estimate must clamp to the last finite bound instead.
func TestHistogramQuantileOverflowClamp(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("of_seconds", "latency", []float64{0.001, 0.01, 0.1})
	for i := 0; i < 100; i++ {
		h.Observe(5) // > 0.1: overflow bucket
	}
	for _, q := range []float64{0.5, 0.99, 0.999, 1} {
		got := h.Quantile(q)
		if math.IsInf(got, 1) {
			t.Fatalf("Quantile(%v) = +Inf, want clamp to last finite bound", q)
		}
		if got != 0.1 {
			t.Fatalf("Quantile(%v) = %v, want 0.1 (last finite bound)", q, got)
		}
	}
}

func TestBucketQuantile(t *testing.T) {
	bounds := []float64{1, 2, 4}
	// 4 observations <=1, 4 in (1,2], none in (2,4], 2 overflow.
	counts := []uint64{4, 4, 0, 2}
	if got := BucketQuantile(bounds, counts, 0.25); got != 0.625 {
		t.Fatalf("p25 = %v, want 0.625", got)
	}
	if got := BucketQuantile(bounds, counts, 0.8); got != 2 {
		t.Fatalf("p80 = %v, want 2", got)
	}
	if got := BucketQuantile(bounds, counts, 1); got != 4 {
		t.Fatalf("p100 = %v, want clamp to 4", got)
	}
	if got := BucketQuantile(nil, []uint64{7}, 0.9); got != 0 {
		t.Fatalf("no finite bounds: got %v, want 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("mismatched counts length must panic")
		}
	}()
	BucketQuantile(bounds, []uint64{1, 2}, 0.5)
}

func TestLatencyBoundsShape(t *testing.T) {
	bs := LatencyBounds()
	if len(bs) != 20 {
		t.Fatalf("got %d bounds", len(bs))
	}
	for i := 1; i < len(bs); i++ {
		if bs[i] <= bs[i-1] {
			t.Fatalf("bounds not increasing at %d", i)
		}
	}
	if bs[0] != 100e-6 {
		t.Fatalf("first bound = %v", bs[0])
	}
}

// TestConcurrency exercises every metric type from many goroutines; run
// with -race.
func TestConcurrency(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "c")
	g := r.Gauge("g", "g")
	h := r.Histogram("h", "h", nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || g.Value() != 8000 || h.Count() != 8000 {
		t.Fatalf("lost updates: c=%d g=%d h=%d", c.Value(), g.Value(), h.Count())
	}
	if math.Abs(h.Sum()-8) > 1e-9 {
		t.Fatalf("histogram sum drifted: %v", h.Sum())
	}
}
