// Package telemetry is the live-traffic measurement plane for the hdpower
// serving stack. It complements internal/obs (cumulative Prometheus-style
// metrics) with the time-local views an operator and the refinement loop
// actually act on:
//
//   - windowed latency aggregation (window.go): a rotating ring of
//     fixed-duration windows over obs.Histogram-style buckets, answering
//     "what are p50/p99/p999 and QPS right now" rather than since boot,
//     plus multi-window SLO burn rates in the style of the SRE workbook —
//     a breach requires both the fast and the slow span to burn error
//     budget faster than the configured threshold, so a single slow
//     request cannot page and a sustained regression cannot hide;
//   - a sharded lock-free traffic profiler (profile.go) recording the
//     per-model × per-Hd-class hit mix and per-model latency of estimate
//     traffic, cheap enough to sit inside the zero-allocation estimator.
//
// The package is deliberately clock-free: every entry point takes the
// current time from the caller (or Config.Now), so the deterministic
// packages' reproducibility lint applies and tests can drive the window
// ring with a synthetic clock.
package telemetry

import (
	"errors"
	"runtime"
	"sort"
	"time"

	"hdpower/internal/obs"
)

// SLO is a latency service-level objective for one traffic plane: at least
// Objective of requests must complete within LatencyBudget seconds.
type SLO struct {
	// LatencyBudget is the per-request latency budget in seconds; a
	// request slower than this (or failing with a server error) burns
	// error budget.
	LatencyBudget float64
	// Objective is the target good fraction, e.g. 0.999.
	Objective float64
	// BreachBurn is the burn-rate threshold: the SLO is breached when
	// both the fast and the slow window span burn error budget at >=
	// this multiple of the sustainable rate. Zero selects 2.
	BreachBurn float64
}

func (s SLO) withDefaults() SLO {
	if s.Objective <= 0 || s.Objective >= 1 {
		s.Objective = 0.999
	}
	if s.BreachBurn <= 0 {
		s.BreachBurn = 2
	}
	return s
}

// Config parameterizes a Telemetry instance.
type Config struct {
	// Now supplies the clock. Required: the package never consults
	// time.Now itself.
	Now func() time.Time
	// Window is the width of one aggregation window. Zero selects 10s.
	Window time.Duration
	// Windows is the ring length; the slow burn span and the quantile
	// estimates cover Windows*Window of history. Zero selects 30 (five
	// minutes at the default width).
	Windows int
	// FastWindows is the fast burn span in windows. Zero selects 3.
	FastWindows int
	// Bounds are the latency bucket upper bounds in seconds. Nil selects
	// obs.LatencyBounds.
	Bounds []float64
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 10 * time.Second
	}
	if c.Windows <= 0 {
		c.Windows = 30
	}
	if c.FastWindows <= 0 {
		c.FastWindows = 3
	}
	if c.FastWindows > c.Windows {
		c.FastWindows = c.Windows
	}
	if len(c.Bounds) == 0 {
		c.Bounds = obs.LatencyBounds()
	}
	return c
}

// Telemetry owns the per-plane window rings and the traffic profiler.
type Telemetry struct {
	cfg    Config
	planes []*Plane // registration order; snapshots preserve it
	prof   *Profiler
}

// New builds a Telemetry instance. Config.Now is required.
func New(cfg Config) (*Telemetry, error) {
	if cfg.Now == nil {
		return nil, errors.New("telemetry: Config.Now is required")
	}
	cfg = cfg.withDefaults()
	return &Telemetry{
		cfg: cfg,
		// One counter shard per model per processor, at most 16, so
		// concurrent recorders rarely share a cache line.
		prof: newProfiler(min(runtime.GOMAXPROCS(0), 16), maxProfiledModels),
	}, nil
}

// Plane registers (or returns the previously registered) traffic plane
// with the given name. The SLO of an existing plane is not changed.
func (t *Telemetry) Plane(name string, slo SLO) *Plane {
	for _, p := range t.planes {
		if p.name == name {
			return p
		}
	}
	p := &Plane{
		name: name,
		slo:  slo.withDefaults(),
		ring: newRing(t.cfg.Window, t.cfg.Windows, t.cfg.Bounds),
		fast: t.cfg.FastWindows,
	}
	t.planes = append(t.planes, p)
	return p
}

// Profiler returns the traffic profiler.
func (t *Telemetry) Profiler() *Profiler { return t.prof }

// Now returns the configured clock's current time.
func (t *Telemetry) Now() time.Time { return t.cfg.Now() }

// Window returns the width of one aggregation window.
func (t *Telemetry) Window() time.Duration { return t.cfg.Window }

// Plane is one traffic plane (e.g. the unary or streaming estimate path)
// with its own window ring and SLO.
type Plane struct {
	name string
	slo  SLO
	ring *ring
	fast int
}

// Name returns the plane's registered name.
func (p *Plane) Name() string { return p.name }

// Observe records one request: its latency in seconds and whether it
// failed server-side. A request is "bad" (burns error budget) when it
// errored or overran the SLO latency budget.
func (p *Plane) Observe(now time.Time, seconds float64, serverErr bool) {
	bad := serverErr || seconds > p.slo.LatencyBudget
	p.ring.observe(now, seconds, bad)
}

// Snapshot summarizes the plane as of now.
func (p *Plane) Snapshot(now time.Time) PlaneSnapshot {
	slowCounts, slowTotal, slowBad := p.ring.merge(now, p.ring.windows)
	_, fastTotal, fastBad := p.ring.merge(now, p.fast)
	s := PlaneSnapshot{
		Plane:    p.name,
		Requests: p.ring.requests.Load(),
		Bad:      p.ring.badTotal.Load(),
		QPS:      p.ring.qps(now, p.fast),
		P50:      obs.BucketQuantile(p.ring.bounds, slowCounts, 0.50),
		P99:      obs.BucketQuantile(p.ring.bounds, slowCounts, 0.99),
		P999:     obs.BucketQuantile(p.ring.bounds, slowCounts, 0.999),
		BurnFast: burnRate(fastBad, fastTotal, p.slo.Objective),
		BurnSlow: burnRate(slowBad, slowTotal, p.slo.Objective),
		SLO: SLOSnapshot{
			LatencyBudget: p.slo.LatencyBudget,
			Objective:     p.slo.Objective,
			BreachBurn:    p.slo.BreachBurn,
		},
	}
	s.Breached = fastTotal > 0 &&
		s.BurnFast >= p.slo.BreachBurn && s.BurnSlow >= p.slo.BreachBurn
	return s
}

// burnRate is the SRE burn rate: the fraction of requests that burned
// error budget, normalized by the budget fraction the SLO allows. A burn
// of 1 exhausts the budget exactly at the end of the SLO period; >1 burns
// faster.
func burnRate(bad, total uint64, objective float64) float64 {
	if total == 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / (1 - objective)
}

// Snapshot captures every plane and the profiler as of Config.Now().
func (t *Telemetry) Snapshot() Snapshot {
	now := t.cfg.Now()
	s := Snapshot{
		WindowSeconds: t.cfg.Window.Seconds(),
		Windows:       t.cfg.Windows,
		Planes:        make([]PlaneSnapshot, 0, len(t.planes)),
		Models:        t.prof.SnapshotModels(),
		DroppedModels: t.prof.dropped.Load(),
	}
	for _, p := range t.planes {
		s.Planes = append(s.Planes, p.Snapshot(now))
	}
	return s
}

// Snapshot is the JSON shape served by GET /v1/telemetry.
type Snapshot struct {
	WindowSeconds float64         `json:"window_seconds"`
	Windows       int             `json:"windows"`
	Planes        []PlaneSnapshot `json:"planes"`
	Models        []ModelSnapshot `json:"models"`
	DroppedModels uint64          `json:"dropped_models"`
}

// PlaneSnapshot is the windowed view of one traffic plane. Quantiles and
// burn rates cover the ring span; QPS covers the trailing fast span so it
// tracks load changes quickly.
type PlaneSnapshot struct {
	Plane    string      `json:"plane"`
	Requests uint64      `json:"requests"` // cumulative since start
	Bad      uint64      `json:"bad"`      // cumulative SLO violations
	QPS      float64     `json:"qps"`
	P50      float64     `json:"p50_s"`
	P99      float64     `json:"p99_s"`
	P999     float64     `json:"p999_s"`
	BurnFast float64     `json:"burn_fast"`
	BurnSlow float64     `json:"burn_slow"`
	Breached bool        `json:"breached"`
	SLO      SLOSnapshot `json:"slo"`
}

// SLOSnapshot echoes the plane's SLO configuration.
type SLOSnapshot struct {
	LatencyBudget float64 `json:"latency_budget_s"`
	Objective     float64 `json:"objective"`
	BreachBurn    float64 `json:"breach_burn"`
}

// ModelSnapshot is the profiler's view of one model's traffic.
type ModelSnapshot struct {
	Key        string   `json:"key"` // module/w<width>/s<seed>
	Module     string   `json:"module"`
	Width      int      `json:"width"`
	Seed       int64    `json:"seed"`
	Classes    int      `json:"classes"` // Hd classes 0..Classes-1
	Requests   uint64   `json:"requests"`
	Estimates  uint64   `json:"estimates"`
	AvgLatency float64  `json:"avg_latency_s"` // mean per-request estimate latency
	HdHits     []uint64 `json:"hd_hits"`       // per-class estimate counts
}

// sortModels orders model snapshots by key for deterministic output.
func sortModels(ms []ModelSnapshot) {
	sort.Slice(ms, func(i, j int) bool { return ms[i].Key < ms[j].Key })
}
