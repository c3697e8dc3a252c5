package experiments

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"parc751/internal/metrics"
	"parc751/internal/pyjama"
)

func init() {
	register(Experiment{
		ID:    "A6",
		Title: "Pyjama schedule ablation: static/dynamic/guided/auto on uniform and skewed loops",
		Paper: "DESIGN.md §5 (A6); Giacaman & Sinnen Pyjama worksharing",
		Run:   runA6,
	})
}

// a6SkewBlock is the period of the skewed workload's cost alternation:
// iterations in odd 512-blocks cost a6SkewFactor times more than the
// rest. The block is larger than auto's probe chunk cap (256), so the
// calibration prefix is guaranteed to time both cheap and expensive
// chunks and see the spread.
const (
	a6SkewBlock  = 512
	a6SkewFactor = 40
	a6BaseRounds = 64
)

// a6Sink absorbs the spin results so the workload cannot be eliminated.
var a6Sink atomic.Uint64

// runA6 is the Pyjama worksharing ablation: the same loop body under
// every schedule kind, on a uniform and a block-skewed cost profile,
// observed through RegionStats, plus a dynamic chunk-size sweep (A2) on
// the uniform profile. The findings are deterministic shape
// properties (coverage, claim counts, auto's committed decision), not
// wall-clock speedups — this host may be a single core.
func runA6(cfg Config) *Result {
	res := &Result{ID: "A6", Title: "Pyjama schedule ablation"}

	n := 32768
	if cfg.Quick {
		n = 8192
	}
	threads := cfg.Workers
	if threads < 2 {
		threads = 2
	}

	spin := func(rounds int) uint64 {
		acc := uint64(751)
		for j := 0; j < rounds; j++ {
			acc = acc*6364136223846793005 + 1442695040888963407
		}
		return acc
	}

	type a6Run struct {
		workload string
		sched    pyjama.Schedule
		ms       float64
		sum      int64
		stats    pyjama.RegionStats
	}

	runLoop := func(wl string, sched pyjama.Schedule) a6Run {
		skewed := wl == "skewed"
		var sum atomic.Int64
		body := func(i int) {
			rounds := a6BaseRounds
			if skewed && (i/a6SkewBlock)%2 == 1 {
				rounds *= a6SkewFactor
			}
			a6Sink.Add(spin(rounds))
			sum.Add(int64(i) + 1)
		}
		start := time.Now()
		stats := pyjama.ParallelWithStats(threads, func(tc *pyjama.TC) {
			tc.For(n, sched, body)
		})
		return a6Run{
			workload: wl,
			sched:    sched,
			ms:       float64(time.Since(start).Microseconds()) / 1000,
			sum:      sum.Load(),
			stats:    stats,
		}
	}

	scheds := []pyjama.Schedule{
		pyjama.Static(0), pyjama.Dynamic(16), pyjama.Guided(16), pyjama.Auto(),
	}
	var runs []a6Run
	for _, wl := range []string{"uniform", "skewed"} {
		for _, sched := range scheds {
			runs = append(runs, runLoop(wl, sched))
		}
	}

	// A2, dynamic chunk size: the uniform loop under dynamic(c). Every
	// claim takes one chunk, so the claim count is exactly ceil(n/c); the
	// wall time is reported only.
	chunkTab := metrics.NewTable(fmt.Sprintf("A2: dynamic chunk size, uniform loop, n=%d", n),
		"chunk", "time ms", "claims", "ceil(n/chunk)")
	claimsExact := true
	for _, chunk := range []int{1, 16, 256, 4096} {
		r := runLoop("uniform", pyjama.Dynamic(chunk))
		want := int64((n + chunk - 1) / chunk)
		chunkTab.AddRow(chunk, fmt.Sprintf("%.2f", r.ms), r.stats.TotalChunks(), want)
		if r.stats.TotalChunks() != want {
			claimsExact = false
		}
	}

	tab := metrics.NewTable(
		fmt.Sprintf("Pyjama schedule ablation, n=%d, %d threads", n, threads),
		"workload", "schedule", "time ms", "chunks", "iterations", "auto decision")
	wantSum := int64(n) * int64(n+1) / 2
	covered, barriered := true, true
	var chunksByKey = map[string]int64{}
	var autoByWorkload = map[string]pyjama.AutoDecision{}
	for _, r := range runs {
		auto := ""
		if len(r.stats.Auto) == 1 {
			d := r.stats.Auto[0]
			auto = fmt.Sprintf("%s(%d) spread=%.1f", d.Mode, d.Chunk, d.Spread)
			autoByWorkload[r.workload] = d
		}
		tab.AddRow(r.workload, r.sched.String(), fmt.Sprintf("%.2f", r.ms),
			r.stats.TotalChunks(), r.stats.TotalIterations(), auto)
		if r.sum != wantSum || r.stats.TotalIterations() != int64(n) {
			covered = false
		}
		for _, t := range r.stats.Threads {
			if t.Barrier.Waits < 1 {
				barriered = false
			}
		}
		chunksByKey[r.workload+"/"+r.sched.Kind.String()] = r.stats.TotalChunks()
	}

	skewedAuto, skewedAutoOK := autoByWorkload["skewed"]
	uniformAuto, uniformAutoOK := autoByWorkload["uniform"]

	res.ok("every schedule covered the iteration space exactly once", covered)
	res.ok("guided issues far fewer claims than dynamic on the same loop",
		chunksByKey["uniform/guided"] < chunksByKey["uniform/dynamic"]/4 &&
			chunksByKey["skewed/guided"] < chunksByKey["skewed/dynamic"]/4)
	res.ok("auto committed a schedule decision on both workloads",
		skewedAutoOK && uniformAutoOK &&
			skewedAuto.Mode != "undecided" && uniformAuto.Mode != "undecided")
	res.ok("auto chose dynamic claiming for the block-skewed loop",
		skewedAutoOK && skewedAuto.Mode == "dynamic")
	res.ok("every team member synchronised at the worksharing barrier", barriered)
	res.ok("dynamic(c) issues exactly ceil(n/c) claims", claimsExact)

	res.metric("a6_dynamic_chunks", float64(chunksByKey["uniform/dynamic"]))
	res.metric("a6_guided_chunks", float64(chunksByKey["uniform/guided"]))
	res.metric("a6_skewed_spread", skewedAuto.Spread)
	res.metric("a6_skewed_auto_chunk", float64(skewedAuto.Chunk))

	var b strings.Builder
	b.WriteString(header(res, "DESIGN.md §5 (A6)"))
	b.WriteString(tab.String())
	b.WriteString("\n")
	b.WriteString(chunkTab.String())
	b.WriteString("\nRegionStats of the skewed schedule(auto) run:\n")
	b.WriteString(runs[len(runs)-1].stats.String())
	res.Output = b.String()
	return res
}
