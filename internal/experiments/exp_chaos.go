package experiments

import (
	"fmt"
	"strings"

	"parc751/internal/metrics"
	"parc751/internal/parctrace"
	"parc751/internal/parctrace/replay"
)

func init() {
	register(Experiment{
		ID:    "A8",
		Title: "Chaos harness: deterministic fault injection across the runtime",
		Paper: "DESIGN.md §10 (A8); failure semantics + faultinject",
		Run:   runA8,
	})
}

// runA8 records seeded chaos scenarios from the replay catalogue over
// three of the paper's projects, each twice. A recording fails when its
// scenario's invariants do (no deadlock, no lost future, the pool
// quiesces within its deadline, every injected fault surfaces as exactly
// one error), and the determinism contract is replay.Verify between the
// two recordings: the same seed produces the same injected schedule and
// the same deterministic event counts on every run.
func runA8(cfg Config) *Result {
	res := &Result{ID: "A8", Title: "Chaos harness: deterministic fault injection"}
	tab := metrics.NewTable("Chaos scenarios (each recorded twice; replay.Verify must pass)",
		"project", "scenario", "faults", "replayed", "invariants")

	seeds := []uint64{cfg.Seed, cfg.Seed + 101, cfg.Seed + 202}
	qsN, phases, imgs := 40000, 8, 96
	if cfg.Quick {
		qsN, phases, imgs = 8000, 4, 32
	}
	type scenario struct {
		project, name string
		spec          parctrace.WorkloadSpec
	}
	var matrix []scenario
	for _, s := range []struct {
		project, kind string
		n             int
	}{
		{"quicksort", replay.KindQuicksort, qsN},
		{"pyjama", replay.KindBarrier, phases},
		{"thumbnails", replay.KindThumbs, imgs},
	} {
		for i, seed := range seeds {
			matrix = append(matrix, scenario{s.project, fmt.Sprintf("%s-%d", s.kind, i+1),
				parctrace.WorkloadSpec{Kind: s.kind, Seed: seed, N: s.n, Workers: cfg.Workers, Chaos: true}})
		}
	}
	// The web scenarios' concurrency is the fetcher's connection count;
	// two pool workers suffice.
	for i, kind := range []string{replay.KindWebRetry, replay.KindWebHang, replay.KindWebfetch} {
		matrix = append(matrix, scenario{"webfetch", kind,
			parctrace.WorkloadSpec{Kind: kind, Seed: seeds[i], Workers: 2, Chaos: true}})
	}

	var notes strings.Builder
	for _, sc := range matrix {
		a, err := replay.Record(sc.spec, 0)
		var b *parctrace.Dump
		if err == nil {
			b, err = replay.Record(sc.spec, 0)
		}
		invariants := err == nil
		if err == nil {
			err = replay.Verify(a, b)
		}
		fired := 0
		if a != nil {
			fired = a.FaultCount()
		}
		if err != nil {
			fmt.Fprintf(&notes, "%s %s: %v\n", sc.project, sc.name, err)
		}
		label := sc.project + " " + sc.name
		res.ok(label+": invariants hold", invariants)
		res.ok(label+": replays", err == nil)
		res.ok(label+": faults fired", fired > 0)
		tab.AddRow(sc.project, sc.name, fired, err == nil, invariants)
	}

	passed := 0
	for _, ok := range res.Findings {
		if ok {
			passed++
		}
	}
	res.metric("plans", float64(len(matrix)))
	res.metric("checks_passed", float64(passed))

	var b strings.Builder
	b.WriteString(header(res, "DESIGN.md §10 (A8)"))
	b.WriteString(tab.String())
	b.WriteString("\nEach scenario is a replay catalogue kind under its seeded plan; 'replayed'\n" +
		"means two independent recordings injected the identical (site, ordinal)\n" +
		"fault schedule and produced byte-identical canonical projections.\n" +
		"Invariants: results correct, every fault surfaced once, pool quiesces in time.\n")
	b.WriteString(notes.String())
	res.Output = b.String()
	return res
}
