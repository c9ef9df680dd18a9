// Package obs is the dependency-free observability toolkit for the
// hdpower services, in three self-consistent halves:
//
//   - metrics: atomic counters and gauges, log-bucketed latency
//     histograms, and a registry that renders everything in the Prometheus
//     text exposition format (version 0.0.4);
//   - tracing (trace.go): spans with parent links, monotonic durations and
//     attributes, collected in a bounded ring of recent spans and dumped as
//     JSON by /debug/traces — with the tracer's own counters exposed back
//     through the metrics registry;
//   - structured logging (log.go): log/slog constructors plus trace- and
//     request-ID context plumbing so access logs join up with spans.
//
// It exists so the serving layer can expose first-class observability
// without pulling an external client library into a module that otherwise
// has no dependencies.
//
// All metric operations are safe for concurrent use and allocation-free on
// the hot path; rendering takes a snapshot under the registry lock.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas panic (counters only go up).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("obs: negative counter delta")
	}
	c.v.Add(uint64(n))
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (n may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram with exponentially growing bucket
// bounds, intended for latencies in seconds. Observations are counted into
// the first bucket whose upper bound is >= the value; the rendered output
// is cumulative, Prometheus-style.
type Histogram struct {
	bounds []float64 // sorted upper bounds; implicit +Inf bucket follows
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
	count  atomic.Uint64
}

// LatencyBounds returns the default log-spaced latency bounds: 100µs
// doubling through ~52s (20 buckets), wide enough to cover both
// sub-millisecond lookups and multi-second model builds.
func LatencyBounds() []float64 {
	bounds := make([]float64, 20)
	b := 100e-6
	for i := range bounds {
		bounds[i] = b
		b *= 2
	}
	return bounds
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = LatencyBounds()
	}
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	idx := sort.SearchFloat64s(h.bounds, v)
	h.counts[idx].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// BucketQuantile estimates the q-quantile from raw histogram bucket counts:
// counts[i] is the number of observations at or below bounds[i], and the
// final element counts[len(bounds)] is the unbounded overflow bucket. The
// estimate interpolates linearly within the winning bucket (the first
// bucket's lower edge is taken as 0). Quantiles landing in the overflow
// bucket are clamped to the last finite bound rather than +Inf. Returns 0
// for empty counts, and panics if len(counts) != len(bounds)+1.
func BucketQuantile(bounds []float64, counts []uint64, q float64) float64 {
	if len(counts) != len(bounds)+1 {
		panic("obs: BucketQuantile needs len(counts) == len(bounds)+1")
	}
	total := uint64(0)
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := uint64(0)
	for i, c := range counts {
		prev := cum
		cum += c
		if float64(cum) < rank || c == 0 {
			continue
		}
		if i >= len(bounds) {
			// Overflow bucket: no finite upper bound to interpolate
			// toward, so clamp.
			if len(bounds) == 0 {
				return 0
			}
			return bounds[len(bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		frac := (rank - float64(prev)) / float64(c)
		if frac < 0 {
			frac = 0
		} else if frac > 1 {
			frac = 1
		}
		return lo + (bounds[i]-lo)*frac
	}
	return bounds[len(bounds)-1]
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// metric is one registered family member: a concrete series with
// pre-rendered labels.
type series struct {
	labels string // rendered `k="v",...` or ""
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() uint64 // read-on-render counter (CounterFunc)
}

// family is one metric name with HELP/TYPE and its label series.
type family struct {
	name string
	help string
	typ  string
	// series in registration order; families without labels hold exactly
	// one entry with empty labels.
	series []*series
	byKey  map[string]*series
}

// Registry holds metric families and renders them.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func (r *Registry) family(name, help, typ string) *family {
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, byKey: make(map[string]*series)}
		r.byName[name] = f
		r.families = append(r.families, f)
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s, was %s", name, typ, f.typ))
	}
	return f
}

func (f *family) get(labels string) *series {
	s, ok := f.byKey[labels]
	if !ok {
		s = &series{labels: labels}
		switch f.typ {
		case "counter":
			s.c = &Counter{}
		case "gauge":
			s.g = &Gauge{}
		}
		f.byKey[labels] = s
		f.series = append(f.series, s)
	}
	return s
}

// Counter registers (or returns the existing) unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterL(name, help, nil)
}

// CounterL registers (or returns) a counter with the given label pairs.
func (r *Registry) CounterL(name, help string, labels []Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.family(name, help, "counter").get(renderLabels(labels)).c
}

// CounterFunc registers a counter whose value is read from fn at render
// time, for instruments that keep their own atomics (e.g. the tracer's
// span counters). Re-registering a name keeps the first function.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.family(name, help, "counter").get("")
	if s.fn == nil {
		s.fn = fn
	}
}

// Gauge registers (or returns the existing) unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.family(name, help, "gauge").get("").g
}

// Histogram registers (or returns) an unlabeled histogram. Nil or empty
// bounds select LatencyBounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.HistogramL(name, help, nil, bounds)
}

// HistogramL registers (or returns) a histogram with the given label pairs.
func (r *Registry) HistogramL(name, help string, labels []Label, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, "histogram")
	s := f.get(renderLabels(labels))
	if s.h == nil {
		s.h = newHistogram(bounds)
	}
	return s.h
}

// Label is one metric label pair.
type Label struct {
	Key, Value string
}

// L is shorthand for a single-label slice.
func L(key, value string) []Label { return []Label{{Key: key, Value: value}} }

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, escapeLabel(l.Value))
	}
	return b.String()
}

// escapeLabel escapes a label value per the exposition format. %q above
// already escapes backslashes and quotes; newlines are the remaining case.
func escapeLabel(v string) string {
	return strings.ReplaceAll(v, "\n", "\\n")
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	bw := bufio.NewWriter(w)
	for _, f := range r.families {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			switch f.typ {
			case "counter":
				v := uint64(0)
				if s.fn != nil {
					v = s.fn()
				} else {
					v = s.c.Value()
				}
				fmt.Fprintf(bw, "%s %d\n", seriesName(f.name, s.labels), v)
			case "gauge":
				fmt.Fprintf(bw, "%s %d\n", seriesName(f.name, s.labels), s.g.Value())
			case "histogram":
				writeHistogram(bw, f.name, s)
			}
		}
	}
	return bw.Flush()
}

func seriesName(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

func writeHistogram(w io.Writer, name string, s *series) {
	h := s.h
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%s} %d\n", name, bucketLabels(s.labels, formatBound(bound)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{%s} %d\n", name, bucketLabels(s.labels, "+Inf"), cum)
	fmt.Fprintf(w, "%s %g\n", seriesName(name+"_sum", s.labels), h.Sum())
	fmt.Fprintf(w, "%s %d\n", seriesName(name+"_count", s.labels), h.Count())
}

func bucketLabels(labels, le string) string {
	if labels == "" {
		return fmt.Sprintf("le=%q", le)
	}
	return labels + fmt.Sprintf(",le=%q", le)
}

func formatBound(b float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.6f", b), "0"), ".")
}
