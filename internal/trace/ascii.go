package trace

import (
	"fmt"
	"math"
	"strings"
)

// ASCIIPlot renders one or more series as a fixed-size character chart
// for terminal output — the CLI's stand-in for the paper's figures.
// Each series gets its own glyph; the legend lists glyph = name.
func ASCIIPlot(title string, width, height int, series ...*Series) string {
	if width < 16 {
		width = 16
	}
	if height < 4 {
		height = 4
	}
	glyphs := []byte{'*', '+', 'o', 'x', '#', '@'}

	// Global extents over finite samples only: one NaN/Inf reading (a
	// faulted run can produce them) must not blow up the axes. Skipped
	// samples leave a gap in the canvas and a note in the legend.
	tMin, tMax := math.Inf(1), math.Inf(-1)
	vMin, vMax := math.Inf(1), math.Inf(-1)
	any := false
	nonFinite := 0
	for _, s := range series {
		for _, sm := range s.Samples() {
			if !finite(sm.V) {
				nonFinite++
				continue
			}
			any = true
			t, v := float64(sm.T), sm.V
			tMin, tMax = math.Min(tMin, t), math.Max(tMax, t)
			vMin, vMax = math.Min(vMin, v), math.Max(vMax, v)
		}
	}
	if !any {
		if nonFinite > 0 {
			return fmt.Sprintf("%s\n(no samples; %d non-finite omitted)\n", title, nonFinite)
		}
		return title + "\n(no samples)\n"
	}
	if tMax == tMin {
		tMax = tMin + 1
	}
	if vMax == vMin {
		vMax = vMin + 1
	}
	// A little headroom. The product is rounded, so no GOARCH fuses it
	// into the sums below.
	pad := float64((vMax - vMin) * 0.05)
	vMin -= pad
	vMax += pad

	canvas := make([][]byte, height)
	for i := range canvas {
		canvas[i] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		g := glyphs[si%len(glyphs)]
		for _, sm := range s.Samples() {
			if !finite(sm.V) {
				continue
			}
			x := int((float64(sm.T) - tMin) / (tMax - tMin) * float64(width-1))
			y := int((sm.V - vMin) / (vMax - vMin) * float64(height-1))
			row := height - 1 - y
			if row >= 0 && row < height && x >= 0 && x < width {
				canvas[row][x] = g
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for i, row := range canvas {
		val := vMax - (vMax-vMin)*float64(i)/float64(height-1)
		fmt.Fprintf(&b, "%8.1f |%s\n", val, string(row))
	}
	fmt.Fprintf(&b, "%8s +%s\n", "", strings.Repeat("-", width))
	fmt.Fprintf(&b, "%8s  %-*.1f%*.1f\n", "", width/2, tMin, width-width/2, tMax)
	legend := make([]string, 0, len(series))
	for si, s := range series {
		legend = append(legend, fmt.Sprintf("%c=%s", glyphs[si%len(glyphs)], s.Name))
	}
	fmt.Fprintf(&b, "%8s  %s\n", "", strings.Join(legend, "  "))
	if nonFinite > 0 {
		fmt.Fprintf(&b, "%8s  (%d non-finite samples omitted)\n", "", nonFinite)
	}
	return b.String()
}
