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
}

// Result is an experiment's rendered output plus machine-checkable
// findings.
type Result struct {
	ID     string
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

// Experiment is one reproduction: an exhibit of the paper or a DESIGN.md
// ablation.
type Experiment struct {
	ID    string
	Title string
	// Paper cites where in the paper the exhibit lives.
	Paper string
	// run fills in the result's output and findings.
	run func(cfg Config, res *Result)
}

// registry is every experiment in paper order: the course exhibits, the
// ten projects, then the ablations.
var registry = []Experiment{
	{"F1", "Research-teaching nexus classification (Figure 1)", "Figure 1, §I, §III-E", runF1},
	{"F2", "SoftEng 751 course structure (Figure 2)", "Figure 2, §III-A", runF2},
	{"TASSESS", "Assessment scheme (§III-C)", "§III-C", runTAssess},
	{"EALLOC", "First-in-first-served doodle-poll topic allocation", "§III-D", runEAlloc},
	{"EPROTO", "PARC repository protocols (directory hygiene audit)", "§IV-A", runEProto},
	{"ECURR", "TCPP curriculum alignment and the speedup laws", "§II (Early Adopter), §III-A weeks 1-5", runECurr},
	{"ELIKERT", "Summative student evaluation (Likert agreement)", "§V-A", runELikert},
	{"P1", "Thumbnails of images in a folder (responsive GUI)", "§IV-C item 1", runP1},
	{"P2", "Parallel quicksort: Parallel Task vs Pyjama vs goroutines", "§IV-C item 2", runP2},
	{"P3", "Computational kernels: FFT, MD, graph, linear algebra", "§IV-C item 3", runP3},
	{"P4", "Search for a string in text files of a folder", "§IV-C item 4", runP4},
	{"P5", "Object-oriented reductions in Pyjama", "§IV-C item 5, §V-B", runP5},
	{"P6", "Task-aware (task-safe) libraries for Parallel Task", "§IV-C item 6", runP6},
	{"P7", "PDF searching: granularity of parallelisation", "§IV-C item 7", runP7},
	{"P8", "Understanding and coping with the memory model", "§IV-C item 8", runP8},
	{"P9", "Parallel use of collections: lock strategies compared", "§IV-C item 9", runP9},
	{"P10", "Fast web access through concurrent connections", "§IV-C item 10", runP10},
	{"A1", "Scheduler ablation: work-stealing vs global queue, with live pool observability",
		"DESIGN.md §5 (A1); Giacaman & Sinnen runtime design", runA1},
	{"A6", "Pyjama schedule ablation: static/dynamic/guided/auto on uniform and skewed loops",
		"DESIGN.md §5 (A6); Giacaman & Sinnen Pyjama worksharing", runA6},
	{"A7", "parcvet misuse detection: each seeded concurrency bug class is caught, the corrected program is clean",
		"DESIGN.md §9 (A7); §III/§IV-B/§IV-C misuse catalogue", runA7},
	{"A9", "Serving ablation: job front end under open-loop load",
		"DESIGN.md §11 (A9); course workloads as a servable system", runA9},
	{"A10", "parcpar auto-parallelization: fixture classification, committed rewrites regenerate byte-identically, rewrites are checksum-identical and faster",
		"DESIGN.md §13 (A10); §II research-infusion of dependence analysis", runA10},
	{"A11", "Cluster ablation: sharded routing and node-kill survival",
		"DESIGN.md §14 (A11); the serving layer scaled horizontally", runA11},
	{"A12", "Chaos replay: seeded faults surface once, never deadlock, and replay bit-identically",
		"DESIGN.md §10 and §15 (A12); faultinject + parctrace recorder + replay debugger", runA12},
}

// All returns every experiment in paper order.
func All() []Experiment { return append([]Experiment(nil), registry...) }

// ByID finds an experiment by its identifier (case-insensitive).
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// Run executes the experiment and puts its banner — ID, title and paper
// citation — in front of the output.
func (e Experiment) Run(cfg Config) *Result {
	res := &Result{ID: e.ID}
	e.run(cfg, res)
	res.Output = fmt.Sprintf("### %s — %s\n(paper: %s)\n\n", e.ID, e.Title, e.Paper) + res.Output
	return res
}
