package experiments

import (
	"fmt"

	"parc751/internal/metrics"
	"parc751/internal/parctrace"
	"parc751/internal/parctrace/replay"
)

func init() {
	register(Experiment{
		ID:    "A12",
		Title: "Schedule replay: recorded chaos runs reproduce bit-identically",
		Paper: "DESIGN.md §15 (A12); parctrace recorder + replay debugger",
		Run:   runA12,
	})
}

// runA12 is the replay-debugger ablation: for each of the replayable
// workloads under a seeded chaos plan, record a run, replay the dump's
// coordinate, and verify the contract —
//
//   - the canonical projections (deterministic event counts, workload,
//     plan, fault trace) are bit-identical between recording and replay;
//   - the replay surfaced exactly the recorded fault ordinals;
//   - the recorder's accounting conserves: for the whole recording,
//     sum(counts) == recorded + lost + sampled-out.
//
// A diverging replay means the schedule coordinate (workload spec +
// fault plan) no longer pins the execution — the reproduce-a-failure
// debugging loop of DESIGN.md §15 would be broken.
func runA12(cfg Config) *Result {
	res := &Result{ID: "A12", Title: "Schedule replay: record → replay → verify"}
	tab := metrics.NewTable("Recorded chaos runs replayed (canonical projections compared)",
		"workload", "seed", "events", "faults", "identical", "conserved")

	seeds := []uint64{cfg.Seed, cfg.Seed + 101, cfg.Seed + 202}
	var runs, identical int
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
				res.ok(label+": recorded", false)
				tab.AddRow(kind, seed, "-", "-", false, false)
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
			res.ok(label+": faults fired", rec.FaultCount() > 0)
			res.ok(label+": accounting conserved", conserved)
			tab.AddRow(kind, seed, rec.Recorded, rec.FaultCount(), verr == nil, conserved)
		}
	}
	res.metric("replays", float64(runs))
	res.metric("bit_identical", float64(identical))

	res.Output = "A12 — the schedule-replay debugger (DESIGN.md §15)\n\n" +
		tab.String() +
		"\nEach row records one seeded chaos run with the parctrace recorder\n" +
		"attached, re-executes the dump's replay coordinate (workload spec +\n" +
		"fault plan), and compares canonical projections byte for byte. The\n" +
		"conservation column checks sum(counts) == recorded + lost + sampled-out\n" +
		"— exact counters survive ring shedding.\n"
	return res
}
