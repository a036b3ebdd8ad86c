// Package plot renders the experiment harness's outputs: CSV files for
// machine consumption and compact ASCII line charts for `flowsim paper`,
// standing in for the paper's figure pipeline (Figures 6 and 7).
package plot

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Series is one named line of (x, y) points.
type Series struct {
	Name   string
	Points [][2]float64
}

// Chart is a titled collection of series over a shared x axis.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// AddPoint appends (x, y) to the named series, creating it if needed.
func (c *Chart) AddPoint(series string, x, y float64) {
	for i := range c.Series {
		if c.Series[i].Name == series {
			c.Series[i].Points = append(c.Series[i].Points, [2]float64{x, y})
			return
		}
	}
	c.Series = append(c.Series, Series{Name: series, Points: [][2]float64{{x, y}}})
}

// WriteCSV emits "x,series1,series2,..." rows, merging series on x.
func (c *Chart) WriteCSV(w io.Writer) error {
	xs := map[float64]bool{}
	for _, s := range c.Series {
		for _, p := range s.Points {
			xs[p[0]] = true
		}
	}
	sorted := make([]float64, 0, len(xs))
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Float64s(sorted)

	header := []string{c.XLabel}
	for _, s := range c.Series {
		header = append(header, s.Name)
	}
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}
	for _, x := range sorted {
		row := []string{trimFloat(x)}
		for _, s := range c.Series {
			val := ""
			for _, p := range s.Points {
				if p[0] == x {
					val = trimFloat(p[1])
					break
				}
			}
			row = append(row, val)
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

func trimFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e12 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4g", v)
}

// markers cycles through per-series glyphs.
var markers = []byte{'*', 'o', '+', 'x', '#', '@'}

// RenderASCII draws the chart into a width x height character grid with
// axis annotations, one marker per series, and a legend.
func (c *Chart) RenderASCII(width, height int) string {
	if width < 16 {
		width = 16
	}
	if height < 5 {
		height = 5
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range c.Series {
		for _, p := range s.Points {
			minX, maxX = math.Min(minX, p[0]), math.Max(maxX, p[0])
			minY, maxY = math.Min(minY, p[1]), math.Max(maxY, p[1])
		}
	}
	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s\n", c.Title)
	}
	if math.IsInf(minX, 1) {
		b.WriteString("(no data)\n")
		return b.String()
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range c.Series {
		mk := markers[si%len(markers)]
		for _, p := range s.Points {
			col := int(math.Round((p[0] - minX) / (maxX - minX) * float64(width-1)))
			row := height - 1 - int(math.Round((p[1]-minY)/(maxY-minY)*float64(height-1)))
			if row >= 0 && row < height && col >= 0 && col < width {
				grid[row][col] = mk
			}
		}
	}
	yHi := fmt.Sprintf("%9.4g", maxY)
	yLo := fmt.Sprintf("%9.4g", minY)
	pad := strings.Repeat(" ", 9)
	for r, rowBytes := range grid {
		label := pad
		if r == 0 {
			label = yHi
		} else if r == height-1 {
			label = yLo
		}
		fmt.Fprintf(&b, "%s |%s|\n", label, string(rowBytes))
	}
	fmt.Fprintf(&b, "%s  %s%s%s\n", pad, trimFloat(minX),
		strings.Repeat(" ", maxInt(1, width-len(trimFloat(minX))-len(trimFloat(maxX)))), trimFloat(maxX))
	if c.XLabel != "" || c.YLabel != "" {
		fmt.Fprintf(&b, "%s  x: %s, y: %s\n", pad, c.XLabel, c.YLabel)
	}
	for si, s := range c.Series {
		fmt.Fprintf(&b, "%s  %c %s\n", pad, markers[si%len(markers)], s.Name)
	}
	return b.String()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
