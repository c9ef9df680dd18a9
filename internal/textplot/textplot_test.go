package textplot

import (
	"math"
	"strings"
	"testing"
)

func TestChartBasics(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	out := Chart("test chart", "Hd", xs, []Series{
		{Name: "alpha", Y: []float64{1, 2, 3, 4}},
		{Name: "beta", Y: []float64{4, 3, 2, 1}},
	}, 40, 10)
	for _, want := range []string{"test chart", "alpha", "beta", "Hd", "*", "o"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 12 {
		t.Errorf("chart too short: %d lines", len(lines))
	}
}

func TestChartHandlesDegenerateInput(t *testing.T) {
	if out := Chart("empty", "x", nil, nil, 20, 5); !strings.Contains(out, "no data") {
		t.Errorf("empty chart = %q", out)
	}
	out := Chart("mismatch", "x", []float64{1, 2}, []Series{{Name: "s", Y: []float64{1}}}, 20, 5)
	if !strings.Contains(out, "length") {
		t.Errorf("mismatch chart = %q", out)
	}
	// constant series must not divide by zero
	out = Chart("flat", "x", []float64{1, 2}, []Series{{Name: "s", Y: []float64{5, 5}}}, 20, 5)
	if !strings.Contains(out, "flat") {
		t.Errorf("flat chart = %q", out)
	}
	// NaN values skipped
	out = Chart("nan", "x", []float64{1, 2}, []Series{{Name: "s", Y: []float64{math.NaN(), 1}}}, 20, 5)
	if !strings.Contains(out, "nan") {
		t.Errorf("nan chart = %q", out)
	}
}

func TestErrorBars(t *testing.T) {
	out := ErrorBars("coefficients", []int{1, 2, 3}, []float64{10, 20, 30}, []float64{0.2, 0.1, 0.05}, 30)
	if !strings.Contains(out, "±") || !strings.Contains(out, "20.0%") {
		t.Errorf("errorbars output:\n%s", out)
	}
	// the largest value gets the longest bar
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if c1, c3 := strings.Count(lines[1], "="), strings.Count(lines[3], "="); c3 <= c1 {
		t.Errorf("bar lengths not increasing: %d vs %d", c1, c3)
	}
}
