// Command parcbench regenerates the paper's exhibits: figures F1-F2, the
// assessment table, the allocation and Likert evaluations, and the ten
// project studies P1-P10. Each experiment prints the paper-shaped tables
// and verifies its findings (the "who wins / what shape" properties
// recorded in EXPERIMENTS.md).
//
// Usage:
//
//	parcbench -list
//	parcbench -e P2              # one experiment, full scale
//	parcbench -e all -quick      # everything, small sizes
//	parcbench -e P7 -workers 8 -seed 99
//	parcbench -e P2 -schedstats  # append per-worker scheduler counters
//
// It is also the front end of the committed-performance ratchet:
//
//	parcbench -perf                          # measure, ratchet vs last BENCH_*.json, no file written
//	parcbench -perf -perfout BENCH_7.json    # measure and write a new committed baseline
//	parcbench -perf -perfquick               # short windows (CI smoke; noisier)
//	parcbench -perf -perfbaseline BENCH_6.json -perftol 25
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"parc751/internal/experiments"
	"parc751/internal/perfbench"
)

// experimentIDs lists the registered experiment ids in paper order.
func experimentIDs() string {
	var ids []string
	for _, e := range experiments.All() {
		ids = append(ids, e.ID)
	}
	return strings.Join(ids, ", ")
}

func main() {
	var (
		expID   = flag.String("e", "all", "experiment id ("+experimentIDs()+") or 'all'")
		quick   = flag.Bool("quick", false, "use small problem sizes")
		seed    = flag.Uint64("seed", 751, "workload seed")
		workers = flag.Int("workers", 4, "worker threads for real parallel execution")
		list    = flag.Bool("list", false, "list experiments and exit")
		sstats  = flag.Bool("schedstats", false,
			"print per-worker scheduler counters (pushes/pops/steals/parks/wakes) and submit latency for experiments that drive the real runtime")

		perf     = flag.Bool("perf", false, "run the hot-path performance suite and ratchet against the last committed BENCH_<n>.json")
		perfOut  = flag.String("perfout", "", "write the measured report to this file (e.g. BENCH_7.json); empty = measure and compare only")
		perfBase = flag.String("perfbaseline", "", "baseline report to ratchet against (default: highest-numbered BENCH_<n>.json in the current directory, excluding -perfout)")
		perfTol  = flag.Float64("perftol", perfbench.DefaultTolerancePct, "ns/op regression tolerance in percent")
		perfEps  = flag.Float64("perfeps", perfbench.DefaultEpsilonNs, "absolute ns/op slack: deltas below this never fail, whatever the percentage")
		perfQk   = flag.Bool("perfquick", false, "short measurement windows (CI smoke; too noisy to commit as a baseline)")
		perfCmp  = flag.Bool("perfcompare", true, "ratchet against the baseline (disable to just measure, e.g. a -race smoke where timings are meaningless)")
		perfDel  = flag.String("perfdelta", "", "write the per-path baseline-vs-current delta report (JSON) to this file — the CI build artifact")
	)
	flag.Parse()

	if *perf {
		os.Exit(runPerf(*perfOut, *perfBase, *perfDel, *perfTol, *perfEps, *perfQk, *perfCmp))
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s  [%s]\n", e.ID, e.Title, e.Paper)
		}
		return
	}

	cfg := experiments.Config{Seed: *seed, Quick: *quick, Workers: *workers, SchedStats: *sstats}
	var toRun []experiments.Experiment
	if strings.EqualFold(*expID, "all") {
		toRun = experiments.All()
	} else {
		e, ok := experiments.ByID(*expID)
		if !ok {
			fmt.Fprintf(os.Stderr, "parcbench: unknown experiment %q; try -list\n", *expID)
			os.Exit(2)
		}
		toRun = []experiments.Experiment{e}
	}

	failures := 0
	for _, e := range toRun {
		res := e.Run(cfg)
		fmt.Println(res.Output)
		if res.AllPassed() {
			fmt.Printf("[%s] all %d findings hold\n\n", res.ID, len(res.Findings))
		} else {
			failures++
			fmt.Printf("[%s] FAILED findings: %v\n\n", res.ID, res.FailedFindings())
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "parcbench: %d experiment(s) had failed findings\n", failures)
		os.Exit(1)
	}
}

// runPerf measures the hot-path suite, optionally writes the report and
// the per-path delta artifact, and ratchets against the committed
// baseline. Exit codes: 0 ok, 1 the ratchet failed, 2 operational error.
func runPerf(out, baselinePath, deltaPath string, tolPct, epsNs float64, quick, compare bool) int {
	opts := perfbench.DefaultOptions()
	if quick {
		opts = perfbench.QuickOptions()
	}
	specs, cleanup := perfbench.Suite()
	defer cleanup()
	rep := perfbench.RunSuite(specs, opts, func(line string) { fmt.Println(line) })

	if out != "" {
		if err := perfbench.WriteReport(out, rep); err != nil {
			fmt.Fprintf(os.Stderr, "parcbench: writing %s: %v\n", out, err)
			return 2
		}
		fmt.Printf("wrote %s (%d hot paths)\n", out, len(rep.Results))
	}

	if !compare {
		fmt.Println("perf ratchet: comparison disabled (-perfcompare=false)")
		return 0
	}
	if baselinePath == "" {
		var err error
		baselinePath, err = perfbench.LatestBaseline(".", out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "parcbench: discovering baseline: %v\n", err)
			return 2
		}
		if baselinePath == "" {
			fmt.Println("perf ratchet: no committed BENCH_<n>.json baseline found; nothing to compare")
			return 0
		}
	}
	base, err := perfbench.LoadReport(baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "parcbench: %v\n", err)
		return 2
	}
	if deltaPath != "" {
		delta := perfbench.BuildDelta(baselinePath, base, rep, tolPct, epsNs)
		if err := perfbench.WriteDelta(deltaPath, delta); err != nil {
			fmt.Fprintf(os.Stderr, "parcbench: writing %s: %v\n", deltaPath, err)
			return 2
		}
		fmt.Printf("wrote %s (%d delta rows)\n", deltaPath, len(delta.Deltas))
	}
	regs := perfbench.Compare(base, rep, tolPct, epsNs)
	fmt.Printf("baseline %s: %s\n", baselinePath, perfbench.FormatRegressions(regs))
	if len(regs) > 0 {
		return 1
	}
	return 0
}
