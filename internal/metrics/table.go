package metrics

import (
	"fmt"
	"strings"
)

// Table renders aligned plain-text tables, the output format of the
// benchmark harness. It is intentionally dependency-free: experiments
// print paper-shaped rows to stdout and into EXPERIMENTS.md.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v != v: // NaN
		return "-"
	case v == 0:
		return "0"
	case v >= 1000 || v <= -1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10 || v <= -10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// String renders the table with a title line, a header rule, and columns
// padded to their widest cell.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	if total >= 2 {
		total -= 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Series is a named sequence of (x, y) points — one curve in one of the
// paper projects' figures (e.g. speedup vs cores).
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Add appends one point to the series.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Chart renders one or more series as an ASCII line chart plus the raw
// values, so benchmark output shows the figure shape directly in a
// terminal. All series must share their X grid; extra points are ignored.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	Series []*Series
}

// AddSeries appends a curve to the chart.
func (c *Chart) AddSeries(s *Series) { c.Series = append(c.Series, s) }

// String renders the chart: a value table (one column per series) followed
// by a coarse 20-row ASCII plot of each curve.
func (c *Chart) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", c.Title)
	if len(c.Series) == 0 {
		b.WriteString("(no data)\n")
		return b.String()
	}
	headers := []string{c.XLabel}
	for _, s := range c.Series {
		headers = append(headers, s.Name)
	}
	tab := NewTable("", headers...)
	n := len(c.Series[0].X)
	for _, s := range c.Series {
		if len(s.X) < n {
			n = len(s.X)
		}
	}
	for i := 0; i < n; i++ {
		cells := []any{formatFloat(c.Series[0].X[i])}
		for _, s := range c.Series {
			cells = append(cells, s.Y[i])
		}
		tab.AddRow(cells...)
	}
	b.WriteString(tab.String())
	b.WriteString(c.plot(n))
	return b.String()
}

func (c *Chart) plot(n int) string {
	const rows, cols = 16, 60
	if n == 0 {
		return ""
	}
	minY, maxY := c.Series[0].Y[0], c.Series[0].Y[0]
	for _, s := range c.Series {
		for i := 0; i < n; i++ {
			if s.Y[i] < minY {
				minY = s.Y[i]
			}
			if s.Y[i] > maxY {
				maxY = s.Y[i]
			}
		}
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, rows)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", cols))
	}
	marks := "*o+x#@%&"
	for si, s := range c.Series {
		mark := marks[si%len(marks)]
		for i := 0; i < n; i++ {
			x := 0
			if n > 1 {
				x = i * (cols - 1) / (n - 1)
			}
			y := int((s.Y[i] - minY) / (maxY - minY) * float64(rows-1))
			row := rows - 1 - y
			grid[row][x] = mark
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (top=%.4g bottom=%.4g)\n", c.YLabel, maxY, minY)
	for _, row := range grid {
		b.WriteString("| ")
		b.Write(row)
		b.WriteByte('\n')
	}
	b.WriteString("+" + strings.Repeat("-", cols+1) + "> " + c.XLabel + "\n")
	for si, s := range c.Series {
		fmt.Fprintf(&b, "  %c = %s\n", marks[si%len(marks)], s.Name)
	}
	return b.String()
}
