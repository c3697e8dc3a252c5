// Package experiments is the reproduction registry: it maps every exhibit
// of the paper (figures F1-F2, the assessment table, the allocation and
// survey evaluations, and the ten project studies P1-P10) to a runnable
// experiment that regenerates it, together with the DESIGN.md §5
// ablations. cmd/parcbench and TestAllExperimentsPass drive this registry;
// EXPERIMENTS.md records its output.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Config scales an experiment run.
type Config struct {
	// Seed makes every workload deterministic.
	Seed uint64
	// Quick shrinks problem sizes for tests and smoke runs.
	Quick bool
	// Workers is the worker/thread count for real (non-simulated)
	// parallel execution.
	Workers int
	// SchedStats, when set, makes experiments that drive the real
	// work-stealing runtime append a scheduler snapshot (per-worker
	// push/pop/steal/park/wake counts, submit→start latency) to their
	// output. Driven by `parcbench -schedstats`.
	SchedStats bool
}

// Result is an experiment's rendered output plus machine-checkable
// findings.
type Result struct {
	ID     string
	Title  string
	Output string // human-readable tables/charts
	// Findings maps named checks to pass/fail so tests can assert the
	// paper-shape properties without parsing the text output.
	Findings map[string]bool
	// Metrics exposes headline numbers (speedups, rates) by name.
	Metrics map[string]float64
}

// ok records a finding.
func (r *Result) ok(name string, pass bool) {
	if r.Findings == nil {
		r.Findings = map[string]bool{}
	}
	r.Findings[name] = pass
}

// metric records a headline number.
func (r *Result) metric(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]float64{}
	}
	r.Metrics[name] = v
}

// AllPassed reports whether every finding held.
func (r *Result) AllPassed() bool {
	for _, ok := range r.Findings {
		if !ok {
			return false
		}
	}
	return true
}

// FailedFindings lists the findings that did not hold.
func (r *Result) FailedFindings() []string {
	var out []string
	for name, ok := range r.Findings {
		if !ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Experiment is one registered reproduction.
type Experiment struct {
	ID    string
	Title string
	// Paper cites where in the paper the exhibit lives.
	Paper string
	Run   func(cfg Config) *Result
}

var registry []Experiment

// canonicalOrder is the paper order used by All: the course exhibits
// first, then the ten projects. (init functions run in file-name order,
// so raw registration order is arbitrary.)
var canonicalOrder = []string{"F1", "F2", "TASSESS", "EALLOC", "EPROTO", "ECURR", "ELIKERT",
	"P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8", "P9", "P10", "A1", "A6", "A7", "A9", "A10", "A11", "A12"}

func register(e Experiment) { registry = append(registry, e) }

// All returns every experiment in paper order (unknown IDs trail in
// registration order).
func All() []Experiment {
	rank := map[string]int{}
	for i, id := range canonicalOrder {
		rank[id] = i
	}
	out := append([]Experiment(nil), registry...)
	sort.SliceStable(out, func(i, j int) bool {
		ri, iok := rank[out[i].ID]
		rj, jok := rank[out[j].ID]
		switch {
		case iok && jok:
			return ri < rj
		case iok:
			return true
		default:
			return false
		}
	})
	return out
}

// ByID finds an experiment by its identifier (case-insensitive).
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// header renders a uniform experiment banner.
func header(e *Result, paper string) string {
	return fmt.Sprintf("### %s — %s\n(paper: %s)\n\n", e.ID, e.Title, paper)
}
