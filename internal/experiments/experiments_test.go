package experiments

import (
	"strings"
	"testing"
)

// quickConfig is a fast configuration for tests.
func quickConfig() Config { return Config{Seed: 751, Quick: true, Workers: 2} }

func TestRegistryComplete(t *testing.T) {

	// Every exhibit from DESIGN.md's per-experiment index must be
	// registered.
	want := []string{"F1", "F2", "TASSESS", "EALLOC", "EPROTO", "ECURR", "ELIKERT",
		"P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8", "P9", "P10", "A1", "A6", "A7", "A9", "A10", "A11", "A12"}
	var ids []string
	have := map[string]bool{}
	for _, e := range All() {
		ids = append(ids, e.ID)
		have[e.ID] = true
	}

	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(ids) != len(want) {
		t.Errorf("registry has %d experiments, want %d: %v", len(ids), len(want), ids)
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

// TestAllExperimentsPass runs the full registry at quick scale: every
// experiment must produce output and every paper-shape finding must hold.
// This is the repository's acceptance test.
func TestAllExperimentsPass(t *testing.T) {
	cfg := quickConfig()
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res := e.Run(cfg)
			if res.Output == "" {
				t.Fatal("no output")
			}
			if !strings.Contains(res.Output, res.ID) {
				t.Error("output missing experiment id banner")
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
