package parctrace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"parc751/internal/probe"
)

// TestRenderHTMLSelfContained: the /tracez page is one self-contained
// document — doctype, inline SVG for both panels, and the machine-
// readable trace embedded as a valid JSON script block.
func TestRenderHTMLSelfContained(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderHTML(&buf, goldenDump()); err != nil {
		t.Fatalf("RenderHTML: %v", err)
	}
	page := buf.String()
	for _, want := range []string{
		"<!doctype html>", "<svg", "</html>", `id="trace-data"`,
		"region_start", "quicksort", "submit@3:delay",
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("rendered page missing %q", want)
		}
	}
	// The embedded block must parse back as {dump, dag} JSON.
	start := strings.Index(page, `id="trace-data">`)
	end := strings.Index(page[start:], "</script>")
	if start < 0 || end < 0 {
		t.Fatal("trace-data script block not found")
	}
	blob := page[start+len(`id="trace-data">`) : start+end]
	var embedded struct {
		Dump *Dump `json:"dump"`
		DAG  *struct {
			Nodes []json.RawMessage `json:"nodes"`
			Edges []json.RawMessage `json:"edges"`
		} `json:"dag"`
	}
	if err := json.Unmarshal([]byte(blob), &embedded); err != nil {
		t.Fatalf("embedded trace-data is not valid JSON: %v", err)
	}
	if embedded.Dump == nil || embedded.Dump.Schema != SchemaV1 {
		t.Fatalf("embedded dump missing or wrong schema: %+v", embedded.Dump)
	}
	if embedded.DAG == nil || len(embedded.DAG.Nodes) == 0 {
		t.Fatal("embedded DAG is empty for a dump with task events")
	}
}

// TestRenderHTMLEmptyDump: a recorder that saw nothing still renders a
// complete page (the live /tracez endpoint can be hit before any load).
func TestRenderHTMLEmptyDump(t *testing.T) {
	var buf bytes.Buffer
	d := &Dump{Schema: SchemaV1, Name: "empty", Counts: map[string]uint64{}}
	if err := RenderHTML(&buf, d); err != nil {
		t.Fatalf("RenderHTML on empty dump: %v", err)
	}
	if !strings.Contains(buf.String(), "</html>") {
		t.Fatal("empty-dump page is truncated")
	}
}

func TestRenderASCII(t *testing.T) {
	out := RenderASCII(goldenDump(), 60)
	if out == "" {
		t.Fatal("empty ASCII timeline")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// The golden dump declares 2 workers and has events from -1
	// (external) and 1: each gets a row, idle worker 0 too, and the busy
	// worker's row shows running ticks.
	r := asciiRows(out)
	if len(r) != 3 || !strings.HasPrefix(r[0], "ext ") || !strings.HasPrefix(r[1], "w0 ") || !strings.HasPrefix(r[2], "w1 ") {
		t.Fatalf("want rows ext, w0, w1:\n%s", out)
	}
	if !strings.Contains(r[2], "#") || strings.Contains(r[1], "#") {
		t.Fatalf("want work on w1 only:\n%s", out)
	}
	for _, ln := range lines {
		if len(ln) > 120 {
			t.Fatalf("ASCII row wider than requested width budget: %d chars", len(ln))
		}
	}
}

// asciiRows returns the worker rows of a RenderASCII timeline.
func asciiRows(out string) []string {
	var rows []string
	for _, ln := range strings.Split(out, "\n") {
		if strings.HasSuffix(ln, "|") {
			rows = append(rows, ln)
		}
	}
	return rows
}

// TestRenderASCIIDrawsEveryEvent: the text view has no event cap. A task
// that ran across more than the HTML viewer's window of events still
// draws from its first instant.
func TestRenderASCIIDrawsEveryEvent(t *testing.T) {
	d := &Dump{Schema: SchemaV1, Workers: 2, Counts: map[string]uint64{}}
	d.Events = append(d.Events, Event{TNs: 0, Kind: probe.SiteRun, Worker: 0, Task: 1})
	for i := 0; i < maxTimelineEvents; i++ {
		tid := uint64(i + 2)
		d.Events = append(d.Events,
			Event{TNs: int64(10 + 2*i), Kind: probe.SiteRun, Worker: 1, Task: tid},
			Event{TNs: int64(11 + 2*i), Kind: probe.SiteComplete, Worker: 1, Task: tid})
	}
	d.Events = append(d.Events, Event{TNs: int64(20 + 2*maxTimelineEvents), Kind: probe.SiteComplete, Worker: 0, Task: 1})
	out := RenderASCII(d, 40)
	if r := asciiRows(out); len(r) != 2 || !strings.Contains(r[0], "|"+strings.Repeat("#", 40)+"|") {
		t.Fatalf("task 1 does not span worker 0's row:\n%s", out)
	}
}

// TestRenderASCIINestedRun: a task run inside another on one worker (a
// join that helps) closes its own span, and the outer span still ends at
// the outer complete.
func TestRenderASCIINestedRun(t *testing.T) {
	d := &Dump{Schema: SchemaV1, Workers: 1, Counts: map[string]uint64{}, Events: []Event{
		{TNs: 0, Kind: probe.SiteRun, Worker: 0, Task: 1},
		{TNs: 10, Kind: probe.SiteRun, Worker: 0, Task: 2},
		{TNs: 20, Kind: probe.SiteComplete, Worker: 0, Task: 2},
		{TNs: 100, Kind: probe.SiteComplete, Worker: 0, Task: 1},
	}}
	tl := buildTimeline(d.Events, d.Workers)
	if s := tl.spans[0]; len(s) != 2 || !s[0].complete || s[0].endNs != 100 || !s[1].complete || s[1].endNs != 20 {
		t.Fatalf("spans = %+v", s)
	}
	out := RenderASCII(d, 20)
	if r := asciiRows(out); len(r) != 1 || !strings.Contains(r[0], "|"+strings.Repeat("#", 20)+"|") {
		t.Fatalf("outer task does not span the row:\n%s", out)
	}
}

// TestBuildDAGTruncation: the DAG view caps its node count so a huge
// trace cannot render an unusable page; truncation is flagged, not silent.
func TestBuildDAGTruncation(t *testing.T) {
	d := &Dump{Schema: SchemaV1, Counts: map[string]uint64{}}
	for i := 0; i < maxDAGNodes+50; i++ {
		d.Events = append(d.Events, Event{TNs: int64(i), Kind: probe.SiteSubmit, Task: uint64(i + 1)})
	}
	g := buildDAG(d)
	if len(g.Nodes) > maxDAGNodes {
		t.Fatalf("DAG has %d nodes, cap is %d", len(g.Nodes), maxDAGNodes)
	}
	if !g.Truncated {
		t.Fatal("truncation not flagged")
	}
}
