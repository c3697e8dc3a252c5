package experiments

import (
	"slices"
	"strings"
	"testing"
)

// quickConfig is a fast configuration for tests.
func quickConfig() Config { return Config{Seed: 751, Quick: true, Workers: 2} }

func TestRegistryComplete(t *testing.T) {
	// Every exhibit from DESIGN.md's per-experiment index is registered,
	// in paper order: the course exhibits, the ten projects, the
	// ablations.
	want := []string{"F1", "F2", "TASSESS", "EALLOC", "EPROTO", "ECURR", "ELIKERT",
		"P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8", "P9", "P10", "A1", "A6", "A7", "A9", "A10", "A11", "A12"}
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
		if e.Title == "" || e.Paper == "" || e.run == nil {
			t.Errorf("experiment %s lacks a title, paper citation or run function", e.ID)
		}
	}
	if !slices.Equal(ids, want) {
		t.Errorf("registry order = %v, want %v", ids, want)
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("P2"); !ok {
		t.Fatal("P2 not found")
	}
	if _, ok := ByID("p2"); !ok {
		t.Fatal("lookup not case-insensitive")
	}
	if _, ok := ByID("NOPE"); ok {
		t.Fatal("bogus ID found")
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{ID: "X"}
	r.ok("a", true)
	r.ok("b", false)
	r.metric("m", 1.5)
	if r.AllPassed() {
		t.Error("AllPassed with a failure")
	}
	failed := r.FailedFindings()
	if len(failed) != 1 || failed[0] != "b" {
		t.Errorf("FailedFindings = %v", failed)
	}
	if r.Metrics["m"] != 1.5 {
		t.Error("metric lost")
	}
}

// TestCompareHarness: the sequential-versus-parallel harness records each
// pair's equality finding from one untimed run of both sides, times each
// side reps more times, and renders one row per pair.
func TestCompareHarness(t *testing.T) {
	calls := 0
	res := &Result{}
	out, times := compare(res, "pairs", 3,
		comparison("agree", 1, func() int { calls++; return 7 }, func() int { return 7 }, eq[int], "agree identical"),
		comparison("differ", 2, func() []int { return []int{1, 2} }, func() []int { return []int{1, 3} },
			slices.Equal, "differ identical"))
	if !res.Findings["agree identical"] || res.Findings["differ identical"] || len(res.Findings) != 2 {
		t.Errorf("findings = %v, want agree true and differ false", res.Findings)
	}
	if calls != 4 {
		t.Errorf("sequential side called %d times, want 1 untimed + 3 timed", calls)
	}
	if len(times) != 2 || times[0].name != "agree" || times[1].name != "differ" {
		t.Errorf("timings = %+v, want one per pair in order", times)
	}
	if !strings.HasPrefix(out, "== pairs ==\nkernel  size  seq") || !strings.Contains(out, "\ndiffer  2     ") {
		t.Errorf("table:\n%s", out)
	}
}

// TestAllExperimentsPass runs the full registry at quick scale: every
// experiment must produce output and every paper-shape finding must hold.
// This is the repository's acceptance test.
func TestAllExperimentsPass(t *testing.T) {
	cfg := quickConfig()
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			res := e.Run(cfg)
			if res.Output == "" {
				t.Fatal("no output")
			}
			banner := "### " + e.ID + " — " + e.Title + "\n(paper: " + e.Paper + ")\n\n"
			if res.ID != e.ID || !strings.HasPrefix(res.Output, banner) {
				t.Errorf("output does not start with the registry banner %q", banner)
			}
			if len(res.Findings) == 0 {
				t.Fatal("experiment reported no findings")
			}
			for name, ok := range res.Findings {
				if !ok {
					t.Errorf("finding failed: %s", name)
				}
			}
		})
	}
}
