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
	// Workers -1 (external), and 1 appear in the golden events; each gets
	// a row, and the busy worker's row shows running ticks.
	var sawRun bool
	for _, ln := range lines {
		if strings.Contains(ln, "#") {
			sawRun = true
		}
	}
	if !sawRun {
		t.Fatalf("no run span rendered:\n%s", out)
	}
	for _, ln := range lines {
		if len(ln) > 120 {
			t.Fatalf("ASCII row wider than requested width budget: %d chars", len(ln))
		}
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
