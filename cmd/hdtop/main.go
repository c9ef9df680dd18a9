// Command hdtop is a terminal dashboard over hdserve's windowed
// telemetry. It polls GET /v1/telemetry and repaints one frame per poll:
// per-plane QPS, latency quantiles (p50/p99/p999), SLO burn rates and
// breach state, a QPS trend chart over the trailing polls, and a per-model
// Hd-mix heat strip showing where estimate traffic concentrates across
// Hamming-distance classes — the mix the refinement loop budgets against.
//
//	hdtop -url http://127.0.0.1:8080 -interval 2s
//
// -once renders a single frame without ANSI screen clearing, so the
// output can be piped into files, docs, or CI logs:
//
//	hdtop -url http://127.0.0.1:8080 -once
//
// Exit status: 0 on success, 1 when the server cannot be polled.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strings"
	"time"

	"hdpower/internal/telemetry"
	"hdpower/internal/textplot"
)

func main() {
	var (
		url      = flag.String("url", "http://127.0.0.1:8080", "hdserve base URL")
		interval = flag.Duration("interval", 2*time.Second, "poll interval")
		frames   = flag.Int("n", 0, "number of frames to render (0 = until interrupted)")
		once     = flag.Bool("once", false, "render one frame without clearing the screen and exit (for captures and scripts)")
		width    = flag.Int("width", 60, "trend chart width in characters")
	)
	flag.Parse()
	if *once {
		*frames = 1
	}
	client := &http.Client{Timeout: 10 * time.Second}
	hist := newHistory(64)
	for i := 0; *frames == 0 || i < *frames; i++ {
		if i > 0 {
			time.Sleep(*interval)
		}
		snap, err := fetch(client, *url)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hdtop: %v\n", err)
			os.Exit(1)
		}
		hist.push(snap)
		if *frames != 1 {
			fmt.Print("\x1b[H\x1b[2J") // cursor home + clear: repaint in place
		}
		fmt.Print(render(*url, snap, hist, *width))
	}
}

// fetch polls one telemetry snapshot.
func fetch(client *http.Client, url string) (*telemetry.Snapshot, error) {
	resp, err := client.Get(url + "/v1/telemetry")
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("read /v1/telemetry: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/v1/telemetry: status %d: %s", resp.StatusCode, data)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("decode /v1/telemetry: %v", err)
	}
	return &snap, nil
}

// history keeps the trailing per-plane QPS samples backing the trend
// chart, bounded to cap polls.
type history struct {
	cap   int
	order []string             // plane registration order, first seen first
	qps   map[string][]float64 // plane -> trailing samples
}

func newHistory(cap int) *history {
	return &history{cap: cap, qps: make(map[string][]float64)}
}

func (h *history) push(snap *telemetry.Snapshot) {
	for _, p := range snap.Planes {
		if _, ok := h.qps[p.Plane]; !ok {
			h.order = append(h.order, p.Plane)
		}
		s := append(h.qps[p.Plane], p.QPS)
		if len(s) > h.cap {
			s = s[len(s)-h.cap:]
		}
		h.qps[p.Plane] = s
	}
}

// render formats one full dashboard frame.
func render(url string, snap *telemetry.Snapshot, hist *history, width int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "hdtop — %s — window %gs × %d\n\n",
		url, snap.WindowSeconds, snap.Windows)

	fmt.Fprintf(&b, "%-8s %10s %8s %9s %9s %9s %10s  %s\n",
		"PLANE", "REQUESTS", "QPS", "P50", "P99", "P999", "BURN f/s", "SLO")
	for _, p := range snap.Planes {
		state := "ok"
		if p.Breached {
			state = "BREACH"
		}
		fmt.Fprintf(&b, "%-8s %10d %8.1f %9s %9s %9s %5.2f/%4.2f  %s\n",
			p.Plane, p.Requests, p.QPS,
			fmtSeconds(p.P50), fmtSeconds(p.P99), fmtSeconds(p.P999),
			p.BurnFast, p.BurnSlow, state)
	}

	if chart := qpsChart(hist, width); chart != "" {
		b.WriteByte('\n')
		b.WriteString(chart)
	}

	if len(snap.Models) > 0 {
		keyW := len("MODEL")
		for _, m := range snap.Models {
			if len(m.Key) > keyW {
				keyW = len(m.Key)
			}
		}
		fmt.Fprintf(&b, "\n%-*s %10s %10s %9s  %s\n",
			keyW, "MODEL", "REQUESTS", "ESTIMATES", "AVG", "HD MIX (class 0..m)")
		for _, m := range snap.Models {
			fmt.Fprintf(&b, "%-*s %10d %10d %9s  |%s|\n",
				keyW, m.Key, m.Requests, m.Estimates,
				fmtSeconds(m.AvgLatency), heatStrip(m.HdHits))
		}
	}
	if snap.DroppedModels > 0 {
		fmt.Fprintf(&b, "\n(%d model(s) over the profiler cap, not shown)\n", snap.DroppedModels)
	}
	return b.String()
}

// qpsChart renders the trailing QPS trend once at least two polls exist.
func qpsChart(hist *history, width int) string {
	n := 0
	var series []textplot.Series
	for _, name := range hist.order {
		s := hist.qps[name]
		if len(s) > n {
			n = len(s)
		}
		series = append(series, textplot.Series{Name: name + " qps", Y: s})
	}
	if n < 2 {
		return ""
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i - n + 1) // polls ago, newest at 0
	}
	// Left-pad shorter series (planes that appeared later) with NaN so
	// every series shares the x axis; textplot skips NaN points.
	for si, s := range series {
		if len(s.Y) == n {
			continue
		}
		pad := make([]float64, n-len(s.Y), n)
		for i := range pad {
			pad[i] = math.NaN()
		}
		series[si].Y = append(pad, s.Y...)
	}
	return textplot.Chart("QPS trend", "polls ago", xs, series, width, 8)
}

// heatRamp maps relative per-class traffic to a glyph, lightest to
// heaviest.
var heatRamp = []byte(" .:-=+*#%@")

// heatStrip renders one character per Hd class, scaled to the hottest
// class, so traffic concentration is visible at a glance.
func heatStrip(hits []uint64) string {
	var max uint64
	for _, h := range hits {
		if h > max {
			max = h
		}
	}
	strip := make([]byte, len(hits))
	for i, h := range hits {
		if max == 0 {
			strip[i] = heatRamp[0]
			continue
		}
		strip[i] = heatRamp[int(float64(h)/float64(max)*float64(len(heatRamp)-1)+0.5)]
	}
	return string(strip)
}

// fmtSeconds renders a duration-in-seconds float compactly.
func fmtSeconds(s float64) string {
	switch {
	case s <= 0:
		return "-"
	case s < 1e-3:
		return fmt.Sprintf("%.0fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.2fs", s)
	}
}
