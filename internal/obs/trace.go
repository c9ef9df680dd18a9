package obs

// trace.go is the dependency-free tracing half of the obs toolkit: spans
// with parent links, monotonic durations and string attributes, collected
// into a bounded in-memory ring of recently finished spans. It is built
// for the characterization pipeline — a model build produces a root span
// with one child per phase and per merged shard — and renders its ring as
// JSON for the /debug/traces admin endpoint.
//
// The tracer is nil-safe throughout: a nil *Tracer starts nil spans, and
// every Span method is a no-op on nil, so instrumented code needs no
// "tracing enabled?" branches.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// defaultTraceCapacity bounds the recent-span ring when NewTracer is
// given a non-positive capacity.
const defaultTraceCapacity = 512

// SpanRecord is one finished span as stored in the ring and rendered by
// the /debug/traces dump. All fields are immutable after End.
type SpanRecord struct {
	TraceID  string    `json:"trace_id"`
	SpanID   string    `json:"span_id"`
	ParentID string    `json:"parent_id,omitempty"`
	Name     string    `json:"name"`
	Start    time.Time `json:"start"`
	// DurationSeconds is measured on the monotonic clock.
	DurationSeconds float64           `json:"duration_seconds"`
	Attrs           map[string]string `json:"attrs,omitempty"`
}

// Span is one in-flight traced operation. Create spans with Tracer.Start
// (or StartAt) and finish them with End; a span records into its tracer's
// ring exactly once, no matter how often End is called.
type Span struct {
	t     *Tracer
	start time.Time

	mu    sync.Mutex
	rec   SpanRecord
	ended bool
}

// Tracer collects finished spans into a bounded ring, newest evicting
// oldest. All methods are safe for concurrent use.
type Tracer struct {
	mu       sync.Mutex
	ring     []SpanRecord // circular buffer, next is the write position
	next     int
	size     int
	capacity int

	started atomic.Uint64
	dropped atomic.Uint64
}

// NewTracer returns a tracer whose ring keeps the most recent `capacity`
// finished spans (<= 0 selects the default of 512).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = defaultTraceCapacity
	}
	return &Tracer{ring: make([]SpanRecord, capacity), capacity: capacity}
}

// SpansStarted returns the number of spans started over the tracer's
// lifetime.
func (t *Tracer) SpansStarted() uint64 {
	if t == nil {
		return 0
	}
	return t.started.Load()
}

// SpansDropped returns the number of finished spans evicted from the ring
// to make room for newer ones.
func (t *Tracer) SpansDropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// RegisterMetrics wires the tracer's span counters into a metrics
// registry under the given name prefix (e.g. "hdserve"), keeping the obs
// package's two halves self-consistent: trace activity is visible on
// /metrics like every other instrument.
func (t *Tracer) RegisterMetrics(r *Registry, prefix string) {
	r.CounterFunc(prefix+"_trace_spans_started_total",
		"trace spans started", t.SpansStarted)
	r.CounterFunc(prefix+"_trace_spans_dropped_total",
		"finished trace spans evicted from the bounded recent-span ring", t.SpansDropped)
}

// spanCtxKey carries the active span through a context.
type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying the span.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext returns the active span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// Start begins a span as a child of the span in ctx (or as a new root
// with a fresh trace ID) and returns a context carrying it. On a nil
// tracer both return values degrade gracefully: the input context and a
// nil span.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	return t.StartAt(ctx, name, time.Now())
}

// StartAt is Start with an explicit start time, for callers that detect a
// unit of work only at its end (e.g. a merged shard spans the time since
// the previous merge).
func (t *Tracer) StartAt(ctx context.Context, name string, at time.Time) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	t.started.Add(1)
	s := &Span{t: t, start: at}
	s.rec.Name = name
	s.rec.Start = at
	s.rec.SpanID = newID()
	if parent := SpanFromContext(ctx); parent != nil {
		s.rec.TraceID = parent.TraceID()
		s.rec.ParentID = parent.SpanID()
	} else {
		s.rec.TraceID = newID() + newID()
	}
	return ContextWithSpan(ctx, s), s
}

// newID returns 8 random bytes as 16 hex digits.
func newID() string {
	return fmt.Sprintf("%016x", rand.Uint64())
}

// TraceID returns the span's trace ID ("" on nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.rec.TraceID
}

// SpanID returns the span's ID ("" on nil).
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return s.rec.SpanID
}

// SetAttr attaches a string attribute. Later values win on key reuse;
// calls after End are ignored.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	if s.rec.Attrs == nil {
		s.rec.Attrs = make(map[string]string, 4)
	}
	s.rec.Attrs[key] = value
}

// End finishes the span, stamps its monotonic duration, and records it in
// the tracer's ring. Only the first End has any effect.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.rec.DurationSeconds = time.Since(s.start).Seconds()
	rec := s.rec
	s.mu.Unlock()
	s.t.record(rec)
}

func (t *Tracer) record(rec SpanRecord) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.size == t.capacity {
		t.dropped.Add(1)
	} else {
		t.size++
	}
	t.ring[t.next] = rec
	t.next = (t.next + 1) % t.capacity
}

// Snapshot returns the finished spans currently in the ring, newest
// first. The slice is a copy; mutating it does not affect the tracer.
func (t *Tracer) Snapshot() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, 0, t.size)
	for i := 1; i <= t.size; i++ {
		out = append(out, t.ring[(t.next-i+t.capacity)%t.capacity])
	}
	return out
}

// TraceDump is the JSON shape of the /debug/traces endpoint.
type TraceDump struct {
	SpansStarted uint64       `json:"spans_started"`
	SpansDropped uint64       `json:"spans_dropped"`
	Spans        []SpanRecord `json:"spans"`
}

// Dump returns the tracer's state for serialization.
func (t *Tracer) Dump() TraceDump {
	return TraceDump{
		SpansStarted: t.SpansStarted(),
		SpansDropped: t.SpansDropped(),
		Spans:        t.Snapshot(),
	}
}

// WriteJSON writes the recent-span dump as indented JSON.
func (t *Tracer) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.Dump())
}
