package parctrace

import (
	"encoding/json"
	"fmt"
	"html"
	"io"
	"sort"
	"strings"
	"time"

	"parc751/internal/probe"
)

// HTML viewer caps: the page is a debugger, not a database. Beyond these
// the timeline shows the latest events and the DAG notes the truncation;
// the full window is always in the embedded JSON and the dump file. The
// ASCII view draws every event.
const (
	maxTimelineEvents = 4000
	maxDAGNodes       = 300
)

// span is one run→complete interval on a worker row.
type span struct {
	task     uint64
	startNs  int64
	endNs    int64
	complete bool
}

// timelineModel groups the event window into per-worker rows.
type timelineModel struct {
	workers []int32 // sorted: 0..Workers-1 and any other id the events carry
	spans   map[int32][]span
	marks   map[int32][]Event // submit/steal/park/wake ticks
	tMin    int64
	tMax    int64
}

// buildTimeline lays evs out in one row for each of the dump's workers,
// idle ones included, plus one for any other worker id the events carry
// (-1, goroutines outside the pool).
func buildTimeline(evs []Event, workers int) *timelineModel {
	m := &timelineModel{
		spans: map[int32][]span{},
		marks: map[int32][]Event{},
	}
	if len(evs) > 0 {
		m.tMin, m.tMax = evs[0].TNs, evs[0].TNs
	}
	// A task's running span is found by row and index: a nested run on
	// the same worker (a join that helps) may grow the row's slice.
	type at struct {
		w int32
		i int
	}
	open := map[uint64]at{}
	seen := map[int32]bool{}
	for w := range workers {
		seen[int32(w)] = true
	}
	for _, ev := range evs {
		m.tMin = min(m.tMin, ev.TNs)
		m.tMax = max(m.tMax, ev.TNs)
		seen[ev.Worker] = true
		switch ev.Kind {
		case probe.SiteRun:
			s := span{task: ev.Task, startNs: ev.TNs, endNs: ev.TNs}
			m.spans[ev.Worker] = append(m.spans[ev.Worker], s)
			if ev.Task != 0 {
				open[ev.Task] = at{ev.Worker, len(m.spans[ev.Worker]) - 1}
			}
		case probe.SiteComplete:
			if o, ok := open[ev.Task]; ok {
				s := &m.spans[o.w][o.i]
				s.endNs = ev.TNs
				s.complete = true
				delete(open, ev.Task)
			}
		case probe.SiteSubmit, probe.SiteSteal, probe.SitePark, probe.SiteWake:
			m.marks[ev.Worker] = append(m.marks[ev.Worker], ev)
		}
	}
	for w := range seen {
		m.workers = append(m.workers, w)
	}
	sort.Slice(m.workers, func(i, j int) bool { return m.workers[i] < m.workers[j] })
	if m.tMax <= m.tMin {
		m.tMax = m.tMin + 1
	}
	return m
}

// dagModel is the dependence graph laid out in longest-path layers.
type dagModel struct {
	Nodes     []dagNode `json:"nodes"`
	Edges     []dagEdge `json:"edges"`
	Truncated bool      `json:"truncated,omitempty"`
}

type dagNode struct {
	ID    uint64 `json:"id"`
	Layer int    `json:"layer"`
	Col   int    `json:"col"`
	Kind  string `json:"kind"` // "task" or "region"
}

type dagEdge struct {
	From uint64 `json:"from"` // dependence (runs first)
	To   uint64 `json:"to"`   // dependent
}

func buildDAG(d *Dump) *dagModel {
	g := &dagModel{}
	nodeKind := map[uint64]string{}
	order := []uint64{}
	note := func(id uint64, kind string) {
		if id == 0 {
			return
		}
		if _, ok := nodeKind[id]; !ok {
			if len(nodeKind) >= maxDAGNodes {
				g.Truncated = true
				return
			}
			nodeKind[id] = kind
			order = append(order, id)
		}
	}
	deps := map[uint64][]uint64{} // dependent -> dependences
	for _, ev := range d.Events {
		switch ev.Kind {
		case probe.SiteSubmit, probe.SiteRun:
			note(ev.Task, "task")
		case probe.SiteRegionStart:
			note(ev.Task, "region")
		case probe.SiteDepend:
			note(ev.Task, "task")
			note(ev.Aux, "task")
			if _, ok := nodeKind[ev.Task]; ok {
				if _, ok := nodeKind[ev.Aux]; ok {
					deps[ev.Task] = append(deps[ev.Task], ev.Aux)
					g.Edges = append(g.Edges, dagEdge{From: ev.Aux, To: ev.Task})
				}
			}
		}
	}
	// Longest-path layering: a node sits one layer below its deepest
	// dependence. The visit is memoized and cycle-guarded (a malformed
	// dump could claim a cycle; the guard breaks it at depth 0).
	layer := map[uint64]int{}
	visiting := map[uint64]bool{}
	var depth func(id uint64) int
	depth = func(id uint64) int {
		if l, ok := layer[id]; ok {
			return l
		}
		if visiting[id] {
			return 0
		}
		visiting[id] = true
		l := 0
		for _, dep := range deps[id] {
			if dl := depth(dep) + 1; dl > l {
				l = dl
			}
		}
		visiting[id] = false
		layer[id] = l
		return l
	}
	cols := map[int]int{}
	for _, id := range order {
		l := depth(id)
		g.Nodes = append(g.Nodes, dagNode{ID: id, Layer: l, Col: cols[l], Kind: nodeKind[id]})
		cols[l]++
	}
	return g
}

// RenderHTML writes the self-contained viewer: summary, per-worker
// timeline SVG, dependence DAG SVG, and the trace JSON embedded in a
// <script type="application/json"> block — stdlib only, no JS
// dependencies, safe to save and open offline.
func RenderHTML(w io.Writer, d *Dump) error {
	evs := d.Events
	if len(evs) > maxTimelineEvents {
		evs = evs[len(evs)-maxTimelineEvents:]
	}
	tl := buildTimeline(evs, d.Workers)
	dag := buildDAG(d)
	var b strings.Builder
	b.WriteString("<!doctype html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n")
	fmt.Fprintf(&b, "<title>parctrace: %s</title>\n", html.EscapeString(d.Name))
	b.WriteString(`<style>
body { font: 14px/1.4 system-ui, sans-serif; margin: 24px; color: #222; }
h1 { font-size: 20px; } h2 { font-size: 16px; margin-top: 28px; }
table { border-collapse: collapse; } td, th { border: 1px solid #ccc; padding: 3px 10px; text-align: right; }
th { background: #f2f2f2; }
.lane-label { font: 11px monospace; }
svg { border: 1px solid #ddd; background: #fcfcfc; }
</style>
</head>
<body>
`)
	fmt.Fprintf(&b, "<h1>parctrace — %s</h1>\n", html.EscapeString(d.Name))
	fmt.Fprintf(&b, "<p>schema %s · seed %d · %d workers · %d events recorded (%d lost, %d sampled out)</p>\n",
		html.EscapeString(d.Schema), d.Seed, d.Workers, d.Recorded, d.Lost, d.SampledOut)

	b.WriteString("<h2>Event counts</h2>\n<table><tr>")
	keys := make([]string, 0, len(d.Counts))
	for k := range d.Counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "<th>%s</th>", html.EscapeString(k))
	}
	b.WriteString("</tr><tr>")
	for _, k := range keys {
		fmt.Fprintf(&b, "<td>%d</td>", d.Counts[k])
	}
	b.WriteString("</tr></table>\n")

	if len(d.Faults) > 0 {
		fmt.Fprintf(&b, "<h2>Injected faults (%d)</h2>\n<p><code>%s</code></p>\n",
			len(d.Faults), html.EscapeString(strings.Join(d.Faults, " ")))
	}

	renderTimelineSVG(&b, tl)
	renderDAGSVG(&b, dag)

	// The raw window rides along for tooling; encoding/json escapes '<'
	// by default, so the payload cannot break out of the script block.
	b.WriteString("<h2>Trace data</h2>\n<script type=\"application/json\" id=\"trace-data\">\n")
	payload, err := json.Marshal(struct {
		Dump *Dump     `json:"dump"`
		DAG  *dagModel `json:"dag"`
	}{d, dag})
	if err != nil {
		return err
	}
	b.Write(payload)
	b.WriteString("\n</script>\n<p>Embedded JSON: the full recorded window plus the DAG layout.</p>\n")
	b.WriteString("</body>\n</html>\n")
	_, err = io.WriteString(w, b.String())
	return err
}

func renderTimelineSVG(b *strings.Builder, tl *timelineModel) {
	const (
		width  = 960
		rowH   = 26
		labelW = 70
		padTop = 8
		chartW = width - labelW - 16
	)
	b.WriteString("<h2>Per-worker timeline</h2>\n")
	if len(tl.workers) == 0 {
		b.WriteString("<p>No events recorded yet.</p>\n")
		return
	}
	height := padTop*2 + rowH*len(tl.workers)
	scale := func(t int64) float64 {
		return float64(labelW) + float64(t-tl.tMin)/float64(tl.tMax-tl.tMin)*float64(chartW)
	}
	fmt.Fprintf(b, "<svg width=\"%d\" height=\"%d\" class=\"timeline\">\n", width, height)
	for i, wid := range tl.workers {
		y := padTop + i*rowH
		name := fmt.Sprintf("w%d", wid)
		if wid < 0 {
			name = "ext"
		}
		fmt.Fprintf(b, "<text x=\"4\" y=\"%d\" class=\"lane-label\">%s</text>\n", y+rowH/2+4, name)
		fmt.Fprintf(b, "<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"#eee\"/>\n",
			labelW, y+rowH/2, width-8, y+rowH/2)
		for _, s := range tl.spans[wid] {
			x0, x1 := scale(s.startNs), scale(s.endNs)
			if x1-x0 < 1.5 {
				x1 = x0 + 1.5
			}
			fill := "#4a90d9"
			if !s.complete {
				fill = "#d94a4a" // run with no matching complete in the window
			}
			fmt.Fprintf(b, "<rect x=\"%.1f\" y=\"%d\" width=\"%.1f\" height=\"%d\" fill=\"%s\" rx=\"2\"><title>task %d: %.1fµs</title></rect>\n",
				x0, y+5, x1-x0, rowH-10, fill, s.task, float64(s.endNs-s.startNs)/1e3)
		}
		for _, ev := range tl.marks[wid] {
			x := scale(ev.TNs)
			color := map[probe.Site]string{
				probe.SiteSubmit: "#666", probe.SiteSteal: "#e08a00", probe.SitePark: "#bbb", probe.SiteWake: "#3aa35c",
			}[ev.Kind]
			fmt.Fprintf(b, "<line x1=\"%.1f\" y1=\"%d\" x2=\"%.1f\" y2=\"%d\" stroke=\"%s\"><title>%s task %d</title></line>\n",
				x, y+3, x, y+rowH-3, color, ev.Kind, ev.Task)
		}
	}
	b.WriteString("</svg>\n")
	b.WriteString("<p>Blue bars: run→complete spans. Orange ticks: steals (after the claim landed). Grey: submits, green: wakes, light grey: parks.</p>\n")
}

func renderDAGSVG(b *strings.Builder, g *dagModel) {
	b.WriteString("<h2>Task dependence DAG</h2>\n")
	if len(g.Nodes) == 0 {
		b.WriteString("<p>No task nodes in the recorded window.</p>\n")
		return
	}
	const (
		nodeR   = 7
		colStep = 34
		rowStep = 56
		padX    = 30
		padY    = 30
	)
	maxLayer, maxCol := 0, 0
	pos := map[uint64][2]int{}
	for _, n := range g.Nodes {
		x := padX + n.Col*colStep
		y := padY + n.Layer*rowStep
		pos[n.ID] = [2]int{x, y}
		if n.Layer > maxLayer {
			maxLayer = n.Layer
		}
		if n.Col > maxCol {
			maxCol = n.Col
		}
	}
	width := padX*2 + maxCol*colStep + 40
	if width < 300 {
		width = 300
	}
	height := padY*2 + maxLayer*rowStep + 20
	fmt.Fprintf(b, "<svg width=\"%d\" height=\"%d\" class=\"dag\">\n", width, height)
	for _, e := range g.Edges {
		p, q := pos[e.From], pos[e.To]
		fmt.Fprintf(b, "<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"#b0c4de\"/>\n",
			p[0], p[1], q[0], q[1])
	}
	for _, n := range g.Nodes {
		p := pos[n.ID]
		fill := "#4a90d9"
		if n.Kind == "region" {
			fill = "#9b59b6"
		}
		fmt.Fprintf(b, "<circle cx=\"%d\" cy=\"%d\" r=\"%d\" fill=\"%s\"><title>task %d (layer %d)</title></circle>\n",
			p[0], p[1], nodeR, fill, n.ID, n.Layer)
	}
	b.WriteString("</svg>\n")
	note := fmt.Sprintf("<p>%d nodes, %d dependence edges; layers are longest-path depth (a node runs below everything it waits on).", len(g.Nodes), len(g.Edges))
	if g.Truncated {
		note += fmt.Sprintf(" Truncated to the first %d nodes — the embedded JSON holds the full window.", maxDAGNodes)
	}
	b.WriteString(note + "</p>\n")
}

// RenderASCII renders the whole event window as fixed-width text: one
// row per worker, idle ones included, time bucketed into width columns,
// '#' where the worker was executing a task, 'S' where a steal landed,
// '.' idle — the screenshot-free schedule view of the CLI, the README,
// and the simulator's examples and racelab page.
func RenderASCII(d *Dump, width int) string {
	if width < 16 {
		width = 64
	}
	tl := buildTimeline(d.Events, d.Workers)
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s: %d workers, %d events (%d lost, %d sampled out), window %v\n",
		d.Name, d.Workers, d.Recorded, d.Lost, d.SampledOut, time.Duration(tl.tMax-tl.tMin))
	if len(d.Events) == 0 {
		b.WriteString("(no events)\n")
		return b.String()
	}
	bucket := func(t int64) int {
		i := int(float64(t-tl.tMin) / float64(tl.tMax-tl.tMin) * float64(width-1))
		if i < 0 {
			i = 0
		}
		if i >= width {
			i = width - 1
		}
		return i
	}
	for _, wid := range tl.workers {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		for _, s := range tl.spans[wid] {
			for i := bucket(s.startNs); i <= bucket(s.endNs); i++ {
				row[i] = '#'
			}
		}
		for _, ev := range tl.marks[wid] {
			if ev.Kind == probe.SiteSteal {
				row[bucket(ev.TNs)] = 'S'
			}
		}
		name := fmt.Sprintf("w%-3d", wid)
		if wid < 0 {
			name = "ext "
		}
		fmt.Fprintf(&b, "%s |%s|\n", name, row)
	}
	b.WriteString("      '#' running a task   'S' steal landed   '.' idle\n")
	return b.String()
}
