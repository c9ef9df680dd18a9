package main

import (
	"strings"
	"testing"

	"hdpower/internal/telemetry"
)

func testSnapshot() *telemetry.Snapshot {
	return &telemetry.Snapshot{
		WindowSeconds: 10,
		Windows:       30,
		Planes: []telemetry.PlaneSnapshot{
			{Plane: "unary", Requests: 1234, QPS: 410.5, P50: 42e-6, P99: 180e-6,
				P999: 410e-6, BurnFast: 0.1, BurnSlow: 0.05},
			{Plane: "stream", Requests: 88, QPS: 12.25, P50: 1.2e-3, P99: 3.9e-3,
				P999: 8.8e-3, BurnFast: 2.5, BurnSlow: 2.1, Breached: true},
		},
		Models: []telemetry.ModelSnapshot{
			{Key: "csa-multiplier/w8/s1", Requests: 1000, Estimates: 16000,
				AvgLatency: 48e-6, HdHits: []uint64{0, 10, 400, 800, 400, 10, 0, 0, 0}},
		},
	}
}

func TestRenderFrame(t *testing.T) {
	hist := newHistory(8)
	snap := testSnapshot()
	hist.push(snap)
	hist.push(snap)

	frame := render("http://example:8080", snap, hist, 40)
	for _, want := range []string{
		"window 10s × 30",
		"unary",
		"BREACH", // the stream plane burns over threshold on both spans
		"ok",
		"QPS trend",
		"csa-multiplier/w8/s1",
		"42µs",
		"3.90ms",
	} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame missing %q:\n%s", want, frame)
		}
	}
	if frame != render("http://example:8080", snap, hist, 40) {
		t.Error("render is not deterministic for a fixed snapshot")
	}
}

// A plane that appears mid-run gets NaN-padded history, not a crash or a
// length-mismatch chart error.
func TestQPSChartLatePlane(t *testing.T) {
	hist := newHistory(8)
	first := &telemetry.Snapshot{Planes: []telemetry.PlaneSnapshot{{Plane: "unary", QPS: 100}}}
	hist.push(first)
	hist.push(testSnapshot())
	hist.push(testSnapshot())

	chart := qpsChart(hist, 40)
	if !strings.Contains(chart, "unary qps") || !strings.Contains(chart, "stream qps") {
		t.Fatalf("chart missing a series:\n%s", chart)
	}
	if strings.Contains(chart, "length") {
		t.Fatalf("chart reports a series length mismatch:\n%s", chart)
	}
}

func TestHeatStrip(t *testing.T) {
	if got := heatStrip([]uint64{0, 5, 10}); got != " +@" {
		t.Errorf("heatStrip([0 5 10]) = %q, want %q", got, " +@")
	}
	if got := heatStrip([]uint64{0, 0}); got != "  " {
		t.Errorf("heatStrip on zero traffic = %q, want blanks", got)
	}
}

func TestFmtSeconds(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "-"},
		{42e-6, "42µs"},
		{3.9e-3, "3.90ms"},
		{1.25, "1.25s"},
	}
	for _, c := range cases {
		if got := fmtSeconds(c.in); got != c.want {
			t.Errorf("fmtSeconds(%g) = %q, want %q", c.in, got, c.want)
		}
	}
}
