// Package experiments regenerates every table and figure of the paper's
// evaluation (and the extensions the README's "Parallel campaigns"
// section lists: the anomaly sweep and the method comparison): Fig. 2 (LQG
// cost versus sampling period), Fig. 4 (jitter-margin stability curves
// with linear lower bounds), Table I (fraction of invalid assignments
// produced by the monotonicity-assuming baseline), and Fig. 5 (runtime of
// the backtracking assignment versus the baseline). Each experiment
// returns a typed, JSON-serializable result (rows plus seed/config/
// campaign metadata — see result.go); the ASCII and CSV renderers are
// thin views over that struct, so the cmd/ctrlsched CLI, the ctrlschedd
// HTTP daemon, and the benchmark harness share one implementation.
package experiments

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// formatFloat renders a float cell with the same non-finite spellings
// the JSON encoding uses (experiments.Float): "inf", "-inf", "nan".
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "inf"
	case math.IsInf(v, -1):
		return "-inf"
	case math.IsNaN(v):
		return "nan"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteCSVRow writes one CSV line, rendering float64/Float cells with
// formatFloat so non-finite values spell "inf"/"-inf"/"nan" everywhere.
// Exported for result types living outside this package (service).
func WriteCSVRow(w io.Writer, cells ...interface{}) { writeCSV(w, cells...) }

// writeCSV writes one CSV line from float/string cells.
func writeCSV(w io.Writer, cells ...interface{}) {
	parts := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			parts[i] = formatFloat(v)
		case Float:
			parts[i] = formatFloat(float64(v))
		default:
			parts[i] = fmt.Sprint(v)
		}
	}
	fmt.Fprintln(w, strings.Join(parts, ","))
}

// asciiPlot renders a crude scatter of y versus x on a w×h character
// grid, with log-scale y when logY is set. Points outside the range are
// clamped. It exists so the CLI can show the *shape* of each figure
// without any plotting dependency.
func asciiPlot(out io.Writer, x, y []float64, width, height int, logY bool, title string) {
	if len(x) == 0 || len(x) != len(y) {
		fmt.Fprintln(out, "(no data)")
		return
	}
	tx := func(v float64) float64 { return v }
	ty := tx
	if logY {
		ty = func(v float64) float64 {
			if v <= 0 {
				return math.Inf(-1)
			}
			return math.Log10(v)
		}
	}
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for i := range x {
		xv, yv := tx(x[i]), ty(y[i])
		if math.IsInf(yv, 0) || math.IsNaN(yv) {
			continue
		}
		if xv < xmin {
			xmin = xv
		}
		if xv > xmax {
			xmax = xv
		}
		if yv < ymin {
			ymin = yv
		}
		if yv > ymax {
			ymax = yv
		}
	}
	if xmin >= xmax {
		xmax = xmin + 1
	}
	if ymin >= ymax {
		ymax = ymin + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for i := range x {
		yv := ty(y[i])
		mark := byte('*')
		if math.IsInf(yv, 0) || math.IsNaN(yv) {
			yv = ymax // clamp spikes to the top of the plot
			mark = '^'
		}
		c := int((tx(x[i]) - xmin) / (xmax - xmin) * float64(width-1))
		r := height - 1 - int((yv-ymin)/(ymax-ymin)*float64(height-1))
		if c < 0 {
			c = 0
		}
		if c >= width {
			c = width - 1
		}
		if r < 0 {
			r = 0
		}
		if r >= height {
			r = height - 1
		}
		grid[r][c] = mark
	}
	fmt.Fprintln(out, title)
	for _, row := range grid {
		fmt.Fprintf(out, "  |%s\n", string(row))
	}
	fmt.Fprintf(out, "  +%s\n", strings.Repeat("-", width))
	fmt.Fprintf(out, "   x: [%.4g, %.4g]", xmin, xmax)
	if logY {
		fmt.Fprintf(out, "  y: log10 [%.3g, %.3g]\n", ymin, ymax)
	} else {
		fmt.Fprintf(out, "  y: [%.4g, %.4g]\n", ymin, ymax)
	}
}
