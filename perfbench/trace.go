package main

// trace.go is the traced run. Spans are recorded through obs.Tracer from
// this package's own files, around the public calls into each layer. They
// stay in memory, none may be dropped, and they are written to
// .bench_build/traces/<workload>.json at the end. Every traced run yields
// both ledgers: a char-* workload replays its own specs and then serves
// the models it built through the unary mix; serve-stream serves
// its own mix and then replays the characterization of its served models.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hdpower/internal/atomicio"
	"hdpower/internal/core"
	"hdpower/internal/hddist"
	"hdpower/internal/obs"
	"hdpower/internal/telemetry"
)

const (
	// spanHeader links a handler span to the client span of the same
	// request; the server never reads it. X-Request-ID and the request
	// context are not used: serve's middleware skips generating its own
	// ids when given either, so the traced handler would run other code.
	spanHeader = "X-Perfbench-Span"
	// maxTraced caps the traced requests, which bounds the span ring and
	// the trace file.
	maxTraced = 20000
	// sideServe is the untraced phase of the short serving pass a char-*
	// workload runs over the models it built.
	sideServe = 5 * time.Second
	// offPathReplays is how often serve-stream's ledger re-times each
	// stats profile of its models, which its own mix never queries.
	offPathReplays = 32
	// recordLatency is the request latency the telemetry re-run records.
	recordLatency = 50e-6
)

// sinkF keeps re-timed results alive so the compiler cannot drop the calls.
var sinkF float64

// span records a finished span named name that started at t0 under the
// span in ctx, and returns the time since t0. The span is created after
// the work it covers, so its bookkeeping stays outside the timed call.
func span(ctx context.Context, tr *obs.Tracer, name string, t0 time.Time) time.Duration {
	d := time.Since(t0)
	_, sp := tr.StartAt(ctx, name, t0)
	sp.End()
	return d
}

// tracedHandler wraps the mounted Server.Handler() in a span nested in the
// client's request span. Requests without spanHeader pass straight
// through.
type tracedHandler struct {
	inner   http.Handler
	tracer  atomic.Pointer[obs.Tracer]
	clients sync.Map // client span id -> *obs.Span
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get(spanHeader)
	if id == "" {
		h.inner.ServeHTTP(w, r)
		return
	}
	parent, _ := h.clients.Load(id)
	ps, _ := parent.(*obs.Span)
	t0 := time.Now()
	h.inner.ServeHTTP(w, r)
	span(obs.ContextWithSpan(context.Background(), ps), h.tracer.Load(), "serve.handler", t0)
}

// traced runs the workload's traced ledgers and reports every per-layer
// metric.
func (r *run) traced(seed int64) (result, error) {
	var res result
	charTr := obs.NewTracer(charSpans(r.specs))
	var cl *charLedger
	var sl *serveLedger
	var overhead float64
	var err error
	if r.serve == "" {
		var built []*core.Model
		if cl, built, err = r.charLedger(charTr, nil); err != nil {
			return res, err
		}
		if sl, err = r.serveLedger(built, "unary", sideServe); err != nil {
			return res, err
		}
		overhead = cl.overheadPct()
	} else {
		refs, err := r.references(r.workers)
		if err != nil {
			return res, err
		}
		if sl, err = r.serveLedger(refs, r.serve, r.seconds/2); err != nil {
			return res, err
		}
		if cl, _, err = r.charLedger(charTr, refs); err != nil {
			return res, err
		}
		overhead = sl.overheadPct()
	}
	cl.report(&res, r.name)
	sl.report(&res, r.name)
	res.set("trace_overhead_pct", overhead, "%")

	dropped := charTr.SpansDropped() + sl.tracer.SpansDropped()
	path := filepath.Join(".bench_build", "traces", r.name+".json")
	if err := writeTrace(path, r.name, seed, charTr, sl.tracer); err != nil {
		return res, err
	}
	res.Attempted = cl.attempted + sl.attempted
	res.Failed = cl.failed + sl.failed
	res.Correct = res.Failed == 0 && dropped == 0 && sl.unmatched == 0
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d spans, %d dropped, %d unmatched, written to %s\n", r.name,
		charTr.SpansStarted()+sl.tracer.SpansStarted(), dropped, sl.unmatched, path)
	return res, nil
}

func writeTrace(path, workload string, seed int64, char, serve *obs.Tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string        `json:"workload"`
		Seed     int64         `json:"seed"`
		Char     obs.TraceDump `json:"char"`
		Serve    obs.TraceDump `json:"serve"`
	}{workload, seed, char.Dump(), serve.Dump()})
	if err != nil {
		return err
	}
	return atomicio.WriteFile(path, data, 0o644)
}

// serveLedger is the per-layer account of serving one request mix.
type serveLedger struct {
	tracer             *obs.Tracer
	untraced, traced   phaseStats
	handler, client    float64 // summed span seconds of matched requests
	matched, unmatched int
	allocs             float64

	requests, cycles     int64 // traced requests and the cycles they carried
	lut, tel, dist       time.Duration
	lutCycles, telCycles int64
	queries              int64
	distOnPath           bool // the mix itself sends stats queries
	hits, misses         uint64

	attempted, failed int64
}

// serveLedger serves mode's mix over the run's specs with models as the
// answer key: an untraced phase of length untraced, then as many requests
// again (at most maxTraced) under spans, then the direct-call allocation
// count and the re-runs of the layers below serve.
func (r *run) serveLedger(models []*core.Model, mode string, untraced time.Duration) (*serveLedger, error) {
	sv, err := servedModels(r.specs, models)
	if err != nil {
		return nil, err
	}
	p, err := newPool(mode, sv, r.poolSeed)
	if err != nil {
		return nil, err
	}
	s, err := startServer(r.specs, true)
	if err != nil {
		return nil, err
	}
	defer s.close()
	clients := newClients(r.workers, s.url, p)
	defer closeClients(clients)
	if err := warm(clients); err != nil {
		return nil, err
	}

	deadline := time.Now().Add(untraced)
	l := &serveLedger{untraced: drive(clients, func(c *client) bool {
		c.step()
		return time.Now().Before(deadline)
	})}
	n := l.untraced.attempted
	if n > maxTraced {
		n = maxTraced
	}
	// Two spans per request plus the re-run's root and three layer spans.
	l.tracer = obs.NewTracer(int(2*n) + 8)
	s.th.tracer.Store(l.tracer)
	var left atomic.Int64
	left.Store(n)
	l.traced = drive(clients, func(c *client) bool {
		if left.Add(-1) < 0 {
			return false
		}
		idx := c.next % len(c.bodies)
		c.next++
		_, ok := c.send(idx, s.th)
		c.attempted++
		c.sent[idx]++
		if !ok {
			c.failed++
		}
		return true
	})
	l.attempted = l.untraced.attempted + l.traced.attempted
	l.failed = l.untraced.failed + l.traced.failed
	l.match()

	if l.allocs, err = handlerAllocs(s.srv.Handler(), p); err != nil {
		return nil, err
	}
	counts := make([]int64, len(p.bodies))
	for _, c := range clients {
		for i, k := range c.sent {
			counts[i] += k
		}
	}
	if err := l.rerun(p, sv, mode, counts); err != nil {
		return nil, err
	}
	return l, nil
}

// match pairs every handler span with its client span.
func (l *serveLedger) match() {
	spans := l.tracer.Snapshot()
	clientSpans := make(map[string]float64, len(spans)/2)
	for _, s := range spans {
		if s.Name == "client.request" {
			clientSpans[s.SpanID] = s.DurationSeconds
		}
	}
	for _, s := range spans {
		if s.Name != "serve.handler" {
			continue
		}
		c, ok := clientSpans[s.ParentID]
		if !ok {
			l.unmatched++
			continue
		}
		delete(clientSpans, s.ParentID)
		l.handler += s.DurationSeconds
		l.client += c
		l.matched++
	}
	l.unmatched += len(clientSpans)
}

// discard is a ResponseWriter that keeps only the status code.
type discard struct {
	header http.Header
	code   int
}

func (d *discard) Header() http.Header { return d.header }

func (d *discard) Write(b []byte) (int, error) {
	if d.code == 0 {
		d.code = http.StatusOK
	}
	return len(b), nil
}

func (d *discard) WriteHeader(code int) {
	if d.code == 0 {
		d.code = code
	}
}

// handlerAllocs calls the mounted handler directly, from one goroutine,
// over every body of the pool, and returns heap allocations per request.
func handlerAllocs(h http.Handler, p *pool) (float64, error) {
	reqs := make([]*http.Request, len(p.bodies))
	readers := make([]*bytes.Reader, len(p.bodies))
	closers := make([]io.ReadCloser, len(p.bodies))
	for i := range p.bodies {
		req, err := http.NewRequest(http.MethodPost, "http://perfbench"+p.bodies[i].path, nil)
		if err != nil {
			return 0, err
		}
		req.Header.Set("Content-Type", "application/json")
		readers[i] = bytes.NewReader(p.bodies[i].data)
		closers[i] = io.NopCloser(readers[i])
		reqs[i] = req
	}
	w := &discard{header: make(http.Header)}
	pass := func() error {
		for i, req := range reqs {
			readers[i].Reset(p.bodies[i].data)
			req.Body = closers[i] // the middleware replaced it last time
			req.ContentLength = int64(len(p.bodies[i].data))
			w.code = 0
			h.ServeHTTP(w, req)
			if w.code != http.StatusOK {
				return fmt.Errorf("direct call to %s answered %d", p.bodies[i].path, w.code)
			}
		}
		return nil
	}
	if err := pass(); err != nil { // fills the server's pools
		return 0, err
	}
	reps := (256 + len(reqs) - 1) / len(reqs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < reps; k++ {
		if err := pass(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(reps*len(reqs)), nil
}

// rerun re-times, on one goroutine, the work the traced requests did in
// the layers below serve: lut estimates for the fast-path lines,
// telemetry recording for every request, and hddist for the stats
// queries. counts[i] is how often body i was sent.
func (l *serveLedger) rerun(p *pool, models []served, mode string, counts []int64) error {
	ctx, root := l.tracer.Start(context.Background(), "serve.rerun")
	defer root.End()
	for i, c := range counts {
		l.requests += c
		for j := range p.bodies[i].lines {
			l.cycles += c * int64(p.bodies[i].lines[j].cycles())
		}
	}

	dst := make([]float64, streamCycles)
	t0 := time.Now()
	for i, c := range counts {
		b := &p.bodies[i]
		for k := int64(0); k < c; k++ {
			for j := range b.lines {
				if ln := &b.lines[j]; !ln.legacy {
					sinkF += estimate(models[ln.model].table, ln, dst)
					l.lutCycles += int64(ln.cycles())
				}
			}
		}
	}
	l.lut = span(ctx, l.tracer, "lut.estimate", t0)

	tel, err := telemetry.New(telemetry.Config{Now: time.Now})
	if err != nil {
		return err
	}
	budget := 0.025 // serve's default SLO latency budgets
	if mode == "stream" {
		budget = 0.080
	}
	plane := tel.Plane(mode, telemetry.SLO{LatencyBudget: budget})
	prof := tel.Profiler()
	t0 = time.Now()
	for i, c := range counts {
		b := &p.bodies[i]
		for k := int64(0); k < c; k++ {
			hint := uint32(k)
			for j := range b.lines {
				ln := &b.lines[j]
				sv := &models[ln.model]
				mp := prof.Model(sv.key, sv.table.InputBits+1)
				if ln.shape == shapeWords {
					for w := 1; w < len(ln.words); w++ {
						mp.RecordClass(hint, bits.OnesCount64(ln.words[w-1]^ln.words[w]))
					}
				} else {
					for _, hd := range ln.hd {
						mp.RecordClass(hint, hd)
					}
				}
				mp.RecordRequest(hint, ln.cycles(), recordLatency)
				l.telCycles += int64(ln.cycles())
			}
			plane.Observe(time.Now(), recordLatency, false)
		}
	}
	l.tel = span(ctx, l.tracer, "telemetry.record", t0)

	memo := hddist.NewMemo(0)
	t0 = time.Now()
	for i, c := range counts {
		if q := p.bodies[i].query; q != nil {
			for k := int64(0); k < c; k++ {
				sinkF += memo.FromWordStatsPorts(q.ws, q.width, q.ports)[0]
				l.queries++
			}
		}
	}
	l.distOnPath = l.queries > 0
	if !l.distOnPath {
		for k := 0; k < offPathReplays; k++ {
			for qi := range p.queries {
				q := &p.queries[qi]
				sinkF += memo.FromWordStatsPorts(q.ws, q.width, q.ports)[0]
				l.queries++
			}
		}
	}
	l.dist = span(ctx, l.tracer, "hddist.Memo.FromWordStatsPorts", t0)
	l.hits, l.misses, _ = memo.Stats()
	return nil
}

// overheadPct compares the per-request time of the traced phase with the
// untraced one.
func (l *serveLedger) overheadPct() float64 {
	traced := l.traced.wall.Seconds() / float64(l.traced.attempted)
	untraced := l.untraced.wall.Seconds() / float64(l.untraced.attempted)
	return (traced/untraced - 1) * 100
}

func (l *serveLedger) report(res *result, workload string) {
	n := float64(l.matched)
	handler := l.handler / n * 1e6
	transport := (l.client - l.handler) / n * 1e6
	rtt := us(l.untraced.rtt) / float64(l.untraced.attempted)
	reqs := float64(l.requests)
	lut, tel := us(l.lut)/reqs, us(l.tel)/reqs
	dist := 0.0
	if l.distOnPath {
		dist = us(l.dist) / reqs
	}
	// Parse, model resolve, render, middleware and access log have no
	// public entry point: they are what remains of the handler span.
	self := handler - lut - tel - dist
	reconcile := (handler + transport) / rtt
	res.set("serve.handler_us", handler, "us/req")
	res.set("serve.transport_us", transport, "us/req")
	res.set("serve.reconcile", reconcile, "ratio")
	res.set("serve.handler_allocs", l.allocs, "allocs/req")
	res.set("lut.estimate_ns", float64(l.lut)/float64(l.lutCycles), "ns/cycle")
	res.set("telemetry.record_ns", float64(l.tel)/float64(l.telCycles), "ns/cycle")
	res.set("hddist.dist_us", us(l.dist)/float64(l.queries), "us/query")
	res.set("hddist.memo_hit_ratio", float64(l.hits)/float64(l.hits+l.misses), "ratio")
	res.set("serve.self_us", self, "us/req")
	res.set("serve.cycles_per_req", float64(l.cycles)/reqs, "cycles/req")

	total := handler + transport
	share := func(v float64) float64 { return 100 * v / total }
	fmt.Fprintf(os.Stderr, "perfbench: %s: serving shares of the traced round trip (%.1fus): "+
		"transport %.1f%%, serve self %.1f%%, lut %.1f%%, telemetry %.1f%%, hddist %.1f%%\n",
		workload, total, share(transport), share(self), share(lut), share(tel), share(dist))
	if reconcile < 0.85 || reconcile > 1.15 {
		fmt.Fprintf(os.Stderr, "perfbench: ledger gap: %s: handler+transport %.1fus vs untraced mean round trip %.1fus (serve.reconcile %.3f)\n",
			workload, total, rtt, reconcile)
	}
}
