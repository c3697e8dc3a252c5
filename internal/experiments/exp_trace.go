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
		ID:    "A12",
		Title: "Chaos replay: seeded faults surface once, never deadlock, and replay bit-identically",
		Paper: "DESIGN.md §10 and §15 (A12); faultinject + parctrace recorder + replay debugger",
		Run:   runA12,
	})
}

// runA12 is the one exhibit over the replay catalogue: for every
// scenario kind and three seeds, record a run under the kind's seeded
// chaos plan, replay the dump's coordinate, and check
//
//   - the scenario's invariants (DESIGN.md §10): no deadlock, no lost
//     future, the pool quiesces within its deadline, every injected
//     fault surfaces as exactly one error — a violated invariant fails
//     the recording, and the row;
//   - at least one fault fired;
//   - the canonical projections (deterministic event counts, workload,
//     plan, fault trace) are bit-identical between recording and a
//     replay under the plan stored in the dump, with the same fault
//     ordinals: same seed ⇒ same injected schedule ⇒ same surfaced
//     errors;
//   - the recorder's accounting conserves: for the whole recording,
//     sum(counts) == recorded + lost + sampled-out.
//
// A diverging replay means the schedule coordinate (workload spec +
// fault plan) no longer pins the execution — the reproduce-a-failure
// debugging loop of DESIGN.md §15 would be broken.
func runA12(cfg Config) *Result {
	res := &Result{ID: "A12", Title: "Chaos replay: record → replay → verify"}
	tab := metrics.NewTable("Seeded chaos runs recorded, then replayed (canonical projections compared)",
		"workload", "seed", "invariants", "events", "faults", "identical", "conserved")

	seeds := []uint64{cfg.Seed, cfg.Seed + 101, cfg.Seed + 202}
	var runs, identical int
	var notes strings.Builder
	for _, kind := range replay.Kinds() {
		for _, seed := range seeds {
			label := fmt.Sprintf("%s seed=%d", kind, seed)
			// N 0 runs the catalogue's default size.
			spec := parctrace.WorkloadSpec{Kind: kind, Seed: seed, Workers: cfg.Workers, Chaos: true}
			if cfg.Quick {
				spec.N = replay.QuickN(kind)
			}
			rec, err := replay.Record(spec, 0)
			if err != nil {
				res.ok(label+": recorded, invariants hold", false)
				fmt.Fprintf(&notes, "%s: %v\n", label, err)
				tab.AddRow(kind, seed, false, "-", "-", false, false)
				continue
			}
			rep, err := replay.Replay(rec, 0)
			verr := err
			if verr == nil {
				verr = replay.Verify(rec, rep)
			}
			var total uint64
			for _, c := range rec.Counts {
				total += c
			}
			conserved := total == rec.Recorded+rec.Lost+rec.SampledOut
			runs++
			if verr == nil {
				identical++
			}
			res.ok(label+": replay bit-identical", verr == nil)
			res.ok(label+": faults fired", len(rec.Faults) > 0)
			res.ok(label+": accounting conserved", conserved)
			if verr != nil {
				fmt.Fprintf(&notes, "%s: %v\n", label, verr)
			}
			tab.AddRow(kind, seed, true, rec.Recorded, len(rec.Faults), verr == nil, conserved)
		}
	}
	res.metric("replays", float64(runs))
	res.metric("bit_identical", float64(identical))

	res.Output = "A12 — chaos replay over the scenario catalogue (DESIGN.md §10, §15)\n\n" +
		tab.String() +
		"\nEach row records one catalogue scenario under its seeded fault plan with\n" +
		"the parctrace recorder attached. 'invariants' means the run neither\n" +
		"deadlocked nor lost a future, the pool quiesced in time, and every\n" +
		"injected fault surfaced as exactly one error. The dump's replay\n" +
		"coordinate (workload spec + stored fault plan) is then re-executed and\n" +
		"the canonical projections compared byte for byte: same seed, same\n" +
		"injected schedule, same surfaced errors. The conservation column checks\n" +
		"sum(counts) == recorded + lost + sampled-out — exact counters survive\n" +
		"ring shedding.\n" + notes.String()
	return res
}
