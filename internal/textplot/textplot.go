// Package textplot renders small ASCII charts for the experiment drivers:
// the repository regenerates the paper's figures as text plots so that
// `cmd/repro` works in any terminal with no plotting dependencies.
package textplot

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named data series sampled at shared x positions.
type Series struct {
	Name string
	Y    []float64
}

var markers = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// Chart renders an XY chart of one or more series over shared x values.
// Width and height are the plot-area dimensions in characters; NaN values
// are skipped.
func Chart(title, xlabel string, xs []float64, series []Series, width, height int) string {
	if width < 8 {
		width = 8
	}
	if height < 4 {
		height = 4
	}
	if len(xs) == 0 || len(series) == 0 {
		return title + ": (no data)\n"
	}
	for _, s := range series {
		if len(s.Y) != len(xs) {
			return fmt.Sprintf("%s: (series %q length %d != %d x values)\n",
				title, s.Name, len(s.Y), len(xs))
		}
	}
	xmin, xmax := minMax(xs)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		lo, hi := minMax(s.Y)
		ymin = math.Min(ymin, lo)
		ymax = math.Max(ymax, hi)
	}
	if math.IsInf(ymin, 1) {
		return title + ": (no finite data)\n"
	}
	if ymin > 0 && ymin < 0.25*ymax {
		ymin = 0 // anchor near-origin charts at zero, easier to read
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	if xmax == xmin {
		xmax = xmin + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		mk := markers[si%len(markers)]
		for i, y := range s.Y {
			if math.IsNaN(y) {
				continue
			}
			c := int(math.Round((xs[i] - xmin) / (xmax - xmin) * float64(width-1)))
			r := height - 1 - int(math.Round((y-ymin)/(ymax-ymin)*float64(height-1)))
			if r >= 0 && r < height && c >= 0 && c < width {
				grid[r][c] = mk
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for r, row := range grid {
		yTick := ymax - (ymax-ymin)*float64(r)/float64(height-1)
		fmt.Fprintf(&b, "%10.3g |%s|\n", yTick, string(row))
	}
	fmt.Fprintf(&b, "%10s  %s\n", "", strings.Repeat("-", width))
	fmt.Fprintf(&b, "%10s  %-*.4g%*.4g  (%s)\n", "", width/2, xmin, width-width/2, xmax, xlabel)
	for si, s := range series {
		fmt.Fprintf(&b, "%10s  %c %s\n", "", markers[si%len(markers)], s.Name)
	}
	return b.String()
}

// ErrorBars renders a value series with symmetric relative deviations as
// "value (+/- dev%)" rows plus a bar visualization — the textual analogue
// of the paper's Figure 1 error-bar plot.
func ErrorBars(title string, xs []int, y, relDev []float64, width int) string {
	if width < 10 {
		width = 10
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	_, ymax := minMax(y)
	if ymax <= 0 {
		ymax = 1
	}
	for i := range xs {
		bar := int(math.Round(y[i] / ymax * float64(width)))
		if bar < 0 {
			bar = 0
		}
		fmt.Fprintf(&b, "%4d | %-*s %10.3f ±%5.1f%%\n",
			xs[i], width, strings.Repeat("=", bar), y[i], relDev[i]*100)
	}
	return b.String()
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return lo, hi
}
