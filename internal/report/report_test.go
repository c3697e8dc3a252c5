package report

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func sample() []Finding {
	return []Finding{
		{Tool: "parcvet", Rule: "sharedwrite", Pos: "a/b.go:10:3", Severity: Error, Detail: "write to shared x"},
		{Tool: "parcaudit", Rule: "layout", Pos: "cmd", Severity: Warning, Detail: "missing README"},
		{Tool: "parcpar", Rule: "parallelizable", Pos: "k/m.go:4:2", Severity: Warning, Detail: "loop is parallelizable"},
	}
}

// TestJSONGolden pins the exact JSON shape shared by parcvet, parcaudit,
// and parcpar: an indented array, severities as names, fields in struct
// order, and input ordering preserved (producers sort by position before
// rendering; Render must not re-order).
func TestJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := Render(&buf, sample(), true); err != nil {
		t.Fatal(err)
	}
	want := `[
  {
    "tool": "parcvet",
    "rule": "sharedwrite",
    "pos": "a/b.go:10:3",
    "severity": "error",
    "detail": "write to shared x"
  },
  {
    "tool": "parcaudit",
    "rule": "layout",
    "pos": "cmd",
    "severity": "warning",
    "detail": "missing README"
  },
  {
    "tool": "parcpar",
    "rule": "parallelizable",
    "pos": "k/m.go:4:2",
    "severity": "warning",
    "detail": "loop is parallelizable"
  }
]
`
	if got := buf.String(); got != want {
		t.Errorf("JSON output drifted from the golden form.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestJSONEmptyIsArray guards the "always an array, never null" contract
// machine consumers (CI artifact scripts) rely on.
func TestJSONEmptyIsArray(t *testing.T) {
	for _, fs := range [][]Finding{nil, {}} {
		var buf bytes.Buffer
		if err := Render(&buf, fs, true); err != nil {
			t.Fatal(err)
		}
		if got := strings.TrimSpace(buf.String()); got != "[]" {
			t.Errorf("Render(%v, json) = %q, want []", fs, got)
		}
	}
}

// TestJSONRoundTrip checks severities survive encode/decode by name, so
// findings artifacts can be re-read by tooling.
func TestJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := sample()
	if err := Render(&buf, in, true); err != nil {
		t.Fatal(err)
	}
	var out []Finding
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip: got %d findings, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("finding %d changed in round trip: got %+v, want %+v", i, out[i], in[i])
		}
	}
	var sev Severity
	if err := sev.UnmarshalJSON([]byte(`"fatal"`)); err == nil {
		t.Error("unknown severity name should be rejected")
	}
}

// TestErrorsOnlyFiltering is the behavior behind the -errors-only flag of
// parcvet and parcaudit: Errors keeps error severity, drops warnings, and
// preserves order.
func TestErrorsOnlyFiltering(t *testing.T) {
	fs := []Finding{
		{Rule: "a", Severity: Error},
		{Rule: "b", Severity: Warning},
		{Rule: "c", Severity: Error},
	}
	got := Errors(fs)
	if len(got) != 2 || got[0].Rule != "a" || got[1].Rule != "c" {
		t.Errorf("Errors(%v) = %v, want the two error findings in order", fs, got)
	}
	if got := Errors(nil); len(got) != 0 {
		t.Errorf("Errors(nil) = %v, want empty", got)
	}
	if got := Errors([]Finding{{Severity: Warning}}); len(got) != 0 {
		t.Errorf("Errors(warnings only) = %v, want empty", got)
	}
}

// TestExitCodeContract pins the 0/1 mapping (2 is reserved for "could
// not run" and produced by the CLIs directly, never by ExitCode).
func TestExitCodeContract(t *testing.T) {
	cases := []struct {
		name string
		fs   []Finding
		want int
	}{
		{"no findings", nil, 0},
		{"warnings only", []Finding{{Severity: Warning}, {Severity: Warning}}, 0},
		{"one error", []Finding{{Severity: Warning}, {Severity: Error}}, 1},
		{"all errors", []Finding{{Severity: Error}}, 1},
	}
	for _, c := range cases {
		if got := ExitCode(c.fs); got != c.want {
			t.Errorf("%s: ExitCode = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestTextRendering covers the one-line grep form and the summary line.
func TestTextRendering(t *testing.T) {
	var buf bytes.Buffer
	if err := Render(&buf, sample(), false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 3 finding lines + summary, got %d: %q", len(lines), out)
	}
	if lines[0] != "a/b.go:10:3: error: [sharedwrite] write to shared x" {
		t.Errorf("finding line form drifted: %q", lines[0])
	}
	if lines[3] != "3 finding(s), 1 error(s)" {
		t.Errorf("summary line drifted: %q", lines[3])
	}

	buf.Reset()
	if err := Render(&buf, nil, false); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != "0 finding(s), 0 error(s)" {
		t.Errorf("empty text render = %q", got)
	}
}
