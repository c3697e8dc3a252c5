package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"parc751/internal/machine"
	"parc751/internal/metrics"
	"parc751/internal/ptask"
	"parc751/internal/sched"
)

func init() {
	register(Experiment{
		ID:    "A1",
		Title: "Scheduler ablation: work-stealing vs global queue, with live pool observability",
		Paper: "DESIGN.md §5 (A1); Giacaman & Sinnen runtime design",
		Run:   runA1,
	})
}

// runA1 reproduces the scheduling ablation at two levels. The
// deterministic simulator compares work-stealing against a single global
// queue on identical task sets, flat against recursive spawning (A3), and
// makespans across steal latencies (A5). The real runtime then executes a
// worker-spawned fan-out and asserts on the scheduler snapshot itself:
// tasks conserved, owner deques used for worker-side spawns, thieves
// stealing, and parked workers woken by targeted wakeups — scheduler
// internals as observable state.
func runA1(cfg Config) *Result {
	res := &Result{ID: "A1", Title: "Scheduler ablation + observability"}

	// Level 1: deterministic simulator, identical task set both modes.
	nTasks := 1024
	if cfg.Quick {
		nTasks = 256
	}
	costs := make([]uint64, nTasks)
	for i := range costs {
		costs[i] = 300 + uint64(i%7)*100
	}
	ws := machine.RunTasks(machine.Config{Name: "ws", Procs: 16, SpeedFactor: 1,
		StealLatency: 200}, costs, true)
	gq := machine.RunTasks(machine.Config{Name: "gq", Procs: 16, SpeedFactor: 1,
		GlobalQueue: true, GlobalQueueNs: 250}, costs, true)

	simTab := metrics.NewTable(fmt.Sprintf("Simulated makespan, %d tasks on 16 cores", nTasks),
		"scheduler", "virtual ns", "steals")
	simTab.AddRow("work-stealing", ws.Makespan, ws.Steals)
	simTab.AddRow("global-queue", gq.Makespan, gq.Steals)

	// A3, decomposition shape: 2^20 work in 4096-sized leaves, spawned by
	// one flat loop or by recursive halving. A3 and A5 keep their size
	// under -quick: each simulates in well under a millisecond.
	const a3Work, a3Leaf = 1 << 20, 4096
	a3 := machine.Config{Name: "a3", Procs: 16, SpeedFactor: 1, SpawnOverhead: 200, StealLatency: 400}
	flat := machine.New(a3)
	flat.Submit(0, 100, func(ctx *machine.Ctx) {
		for l := 0; l < a3Work/a3Leaf; l++ {
			ctx.Spawn(a3Leaf, nil)
		}
	})
	flatSpan := flat.Run().Makespan
	var split func(ctx *machine.Ctx, size int)
	split = func(ctx *machine.Ctx, size int) {
		if size <= a3Leaf {
			return
		}
		half := size / 2
		ctx.Spawn(uint64(half/64), func(c *machine.Ctx) { split(c, half) })
		ctx.Spawn(uint64((size-half)/64), func(c *machine.Ctx) { split(c, size-half) })
	}
	recursive := machine.New(a3)
	recursive.Submit(0, 100, func(ctx *machine.Ctx) { split(ctx, a3Work) })
	recSpan := recursive.Run().Makespan
	a3Tab := metrics.NewTable(fmt.Sprintf("A3: decomposition shape, %d leaves on 16 cores", a3Work/a3Leaf),
		"spawning", "virtual ns")
	a3Tab.AddRow("flat fan-out", flatSpan)
	a3Tab.AddRow("recursive", recSpan)

	// A5, steal-latency sensitivity: 512 equal tasks all seeded on core 0
	// of 8, so every task another core runs is a steal.
	a5Costs := make([]uint64, 512)
	for i := range a5Costs {
		a5Costs[i] = 500
	}
	a5Tab := metrics.NewTable(fmt.Sprintf("A5: steal latency, %d tasks seeded on core 0 of 8", len(a5Costs)),
		"steal latency ns", "virtual ns")
	latencyRaises := true
	var prevSpan uint64
	for i, lat := range []uint64{0, 200, 1000, 5000} {
		span := machine.RunTasks(machine.Config{Name: "a5", Procs: 8, SpeedFactor: 1,
			StealLatency: lat}, a5Costs, false).Makespan
		a5Tab.AddRow(lat, span)
		if i > 0 && span <= prevSpan {
			latencyRaises = false
		}
		prevSpan = span
	}

	// Level 2: the real pool. A root task fans out children from the
	// worker side so they land on the owner's deque; idle workers must
	// steal them. Retry a few rounds so the steal/wake findings don't
	// depend on one scheduling interleaving.
	workers := cfg.Workers
	if workers < 2 {
		workers = 2
	}
	children := 2000
	spin := 2000
	if cfg.Quick {
		children, spin = 600, 800
	}
	var snap sched.Snapshot
	submitted := children + 1 // the root fan-out task plus its children
	for round := 0; round < 5; round++ {
		rt := ptask.NewRuntime(workers)
		time.Sleep(time.Millisecond) // let workers reach their parked state
		root := ptask.Run(rt, func() (int, error) {
			// Fanning out from inside a task puts every child on this
			// worker's own deque; the other workers must steal.
			m := ptask.RunMulti(rt, children, func(i int) (uint64, error) {
				acc := uint64(i)
				for j := 0; j < spin; j++ {
					acc = acc*6364136223846793005 + 1442695040888963407
				}
				// Yield so woken thieves get CPU time even on a
				// single-core host; otherwise the owner can drain its
				// whole deque before any thief is scheduled.
				runtime.Gosched()
				return acc, nil
			})
			vals, err := m.Results()
			return len(vals), err
		})
		if n, err := root.Result(); n != children || err != nil {
			res.ok("real pool: fan-out completed", false)
		}
		rt.Shutdown()
		snap = rt.SchedStats()
		if snap.TotalSteals() > 0 && totalWakes(snap) > 0 {
			break
		}
	}

	var served int64
	for _, w := range snap.Workers {
		served += w.Pops + w.Steals
	}

	res.ok("simulated: work-stealing beats the global queue", ws.Makespan < gq.Makespan)
	res.ok("simulated: recursive spawning beats a flat fan-out", recSpan < flatSpan)
	res.ok("simulated: makespan strictly increases with steal latency", latencyRaises)
	res.ok("real pool: every submitted task executed", snap.Executed == int64(submitted) &&
		snap.Inflight == 0 && snap.Queued == 0)
	res.ok("real pool: deque traffic conserved (pops+steals == pushes)",
		served == snap.TotalPushes())
	res.ok("real pool: thieves stole from owner deques", snap.TotalSteals() > 0)
	res.ok("real pool: parked workers woken by targeted wakeups", totalWakes(snap) > 0)
	res.metric("sim_makespan_worksteal", float64(ws.Makespan))
	res.metric("sim_makespan_globalqueue", float64(gq.Makespan))
	res.metric("pool_steals", float64(snap.TotalSteals()))
	res.metric("pool_parks", float64(snap.TotalParks()))
	res.metric("submit_latency_p50_ns", float64(snap.SubmitLatency.Quantile(0.5)))

	var b strings.Builder
	b.WriteString(header(res, "DESIGN.md §5 (A1)"))
	b.WriteString(simTab.String())
	b.WriteString("\n")
	b.WriteString(a3Tab.String())
	b.WriteString("\n")
	b.WriteString(a5Tab.String())
	b.WriteString("\n")
	b.WriteString(snap.String())
	res.Output = b.String()
	return res
}

func totalWakes(s sched.Snapshot) int64 {
	var n int64
	for _, w := range s.Workers {
		n += w.Wakes
	}
	return n
}
