package parc751

// The benchmark harness: the ablation studies from DESIGN.md §5, which
// report the quantity under study (virtual makespans, throughputs) via
// b.ReportMetric. The paper exhibits themselves run through the
// experiments registry: TestAllExperimentsPass and `parcbench -e`.

import (
	"fmt"
	"sync"
	"testing"

	"parc751/internal/collections"
	"parc751/internal/experiments"
	"parc751/internal/machine"
	"parc751/internal/ptask"
	"parc751/internal/pyjama"
	"parc751/internal/workload"
)

// ---- Ablation A1: work-stealing vs global queue (DESIGN.md §5) ----
//
// The simulator sub-benches report virtual makespans; the realpool
// sub-bench drives the actual work-stealing runtime through the A1
// registry experiment and asserts on its scheduler snapshot findings
// (task conservation, observed steals, targeted wakeups).

func BenchmarkA1SchedulerAblation(b *testing.B) {
	b.Run("realpool", func(b *testing.B) {
		e, ok := experiments.ByID("A1")
		if !ok {
			b.Fatal("A1 experiment not registered")
		}
		cfg := experiments.QuickConfig()
		var steals, parks float64
		for i := 0; i < b.N; i++ {
			res := e.Run(cfg)
			if !res.AllPassed() {
				b.Fatalf("A1 scheduler findings failed: %v", res.FailedFindings())
			}
			steals = res.Metrics["pool_steals"]
			parks = res.Metrics["pool_parks"]
		}
		b.ReportMetric(steals, "steals")
		b.ReportMetric(parks, "parks")
	})
	costs := make([]uint64, 1024)
	for i := range costs {
		costs[i] = 300 + uint64(i%7)*100
	}
	for _, mode := range []struct {
		name string
		cfg  machine.Config
	}{
		{"worksteal", machine.Config{Name: "ws", Procs: 16, SpeedFactor: 1, StealLatency: 200}},
		{"globalqueue", machine.Config{Name: "gq", Procs: 16, SpeedFactor: 1, GlobalQueue: true, GlobalQueueNs: 250}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var makespan uint64
			for i := 0; i < b.N; i++ {
				makespan = machine.RunTasks(mode.cfg, costs, true).Makespan
			}
			b.ReportMetric(float64(makespan), "virtual_ns")
		})
	}
}

// ---- Ablation A2: Pyjama dynamic-schedule chunk size ----

func BenchmarkA2ChunkSize(b *testing.B) {
	const n = 100000
	work := make([]int, n)
	for _, chunk := range []int{1, 16, 256, 4096} {
		b.Run(fmt.Sprintf("chunk%d", chunk), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pyjama.ParallelFor(4, n, pyjama.Dynamic(chunk), func(j int) {
					work[j]++
				})
			}
		})
	}
}

// ---- Ablation A3: multi-task fan-out vs recursive spawning ----

func BenchmarkA3DecompositionShape(b *testing.B) {
	const totalWork = 1 << 20
	const leafWork = 4096
	leaves := totalWork / leafWork
	cfg := machine.Config{Name: "a3", Procs: 16, SpeedFactor: 1,
		SpawnOverhead: 200, StealLatency: 400}

	b.Run("flat-fanout", func(b *testing.B) {
		var makespan uint64
		for i := 0; i < b.N; i++ {
			m := machine.New(cfg)
			m.Submit(0, 100, func(ctx *machine.Ctx) {
				for l := 0; l < leaves; l++ {
					ctx.Spawn(leafWork, nil)
				}
			})
			makespan = m.Run().Makespan
		}
		b.ReportMetric(float64(makespan), "virtual_ns")
	})
	b.Run("recursive", func(b *testing.B) {
		var makespan uint64
		for i := 0; i < b.N; i++ {
			m := machine.New(cfg)
			var spawn func(ctx *machine.Ctx, size int)
			spawn = func(ctx *machine.Ctx, size int) {
				if size <= leafWork {
					return
				}
				half := size / 2
				ctx.Spawn(uint64(half/64), func(c *machine.Ctx) { spawn(c, half) })
				ctx.Spawn(uint64((size-half)/64), func(c *machine.Ctx) { spawn(c, size-half) })
			}
			m.Submit(0, 100, func(ctx *machine.Ctx) { spawn(ctx, totalWork) })
			makespan = m.Run().Makespan
		}
		b.ReportMetric(float64(makespan), "virtual_ns")
	})
}

// ---- Ablation A4: sharding degree of the concurrent map ----

func BenchmarkA4ShardDegree(b *testing.B) {
	for _, shards := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("shards%d", shards), func(b *testing.B) {
			m := collections.NewShardedMap[int, int](shards)
			for i := 0; i < 1024; i++ {
				m.Put(i, i)
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if i%5 == 0 {
						m.Put(i%1024, i)
					} else {
						m.Get(i % 1024)
					}
					i++
				}
			})
		})
	}
}

// ---- Ablation A5: steal-latency sensitivity of the simulated machine ----

func BenchmarkA5StealLatency(b *testing.B) {
	costs := make([]uint64, 512)
	for i := range costs {
		costs[i] = 500
	}
	for _, lat := range []uint64{0, 200, 1000, 5000} {
		b.Run(fmt.Sprintf("lat%d", lat), func(b *testing.B) {
			cfg := machine.Config{Name: "a5", Procs: 8, SpeedFactor: 1, StealLatency: lat}
			var makespan uint64
			for i := 0; i < b.N; i++ {
				// All work seeded on processor 0: maximal stealing.
				makespan = machine.RunTasks(cfg, costs, false).Makespan
			}
			b.ReportMetric(float64(makespan), "virtual_ns")
		})
	}
}

// ---- Ablation A6: Pyjama schedule choice on uniform vs skewed loops ----
//
// Drives the A6 registry experiment (static/dynamic/guided/auto over both
// cost profiles, observed through RegionStats) and reports the claim
// counts plus auto's measured spread on the skewed loop.

func BenchmarkA6ScheduleAblation(b *testing.B) {
	e, ok := experiments.ByID("A6")
	if !ok {
		b.Fatal("A6 experiment not registered")
	}
	cfg := experiments.QuickConfig()
	var dynChunks, guidedChunks, spread float64
	for i := 0; i < b.N; i++ {
		res := e.Run(cfg)
		if !res.AllPassed() {
			b.Fatalf("A6 schedule findings failed: %v", res.FailedFindings())
		}
		dynChunks = res.Metrics["a6_dynamic_chunks"]
		guidedChunks = res.Metrics["a6_guided_chunks"]
		spread = res.Metrics["a6_skewed_spread"]
	}
	b.ReportMetric(dynChunks, "dynamic_chunks")
	b.ReportMetric(guidedChunks, "guided_chunks")
	b.ReportMetric(spread, "skewed_spread")
}

// ---- Ablation A8: chaos harness (DESIGN.md §10) ----
//
// Drives the A8 registry experiment: seeded fault plans replayed over
// quicksort, thumbnails, and webfetch, asserting the failure-semantics
// invariants (no deadlock, no lost future, exactly-once error surfacing,
// deterministic replay) on every iteration.

func BenchmarkA8Chaos(b *testing.B) {
	e, ok := experiments.ByID("A8")
	if !ok {
		b.Fatal("A8 experiment not registered")
	}
	cfg := experiments.QuickConfig()
	var checks float64
	for i := 0; i < b.N; i++ {
		res := e.Run(cfg)
		if !res.AllPassed() {
			b.Fatalf("A8 chaos findings failed: %v", res.FailedFindings())
		}
		checks = res.Metrics["checks_passed"]
	}
	b.ReportMetric(checks, "checks_passed")
}

// ---- Model-overhead comparison: cost per task/iteration in each model ----

func BenchmarkModelOverheadPTask(b *testing.B) {
	rt := ptask.NewRuntime(4)
	defer rt.Shutdown()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ptask.Run(rt, func() (struct{}, error) { return struct{}{}, nil }).Result()
	}
}

func BenchmarkModelOverheadPyjamaRegion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pyjama.Parallel(4, func(tc *pyjama.TC) {})
	}
}

func BenchmarkModelOverheadGoroutine(b *testing.B) {
	done := make(chan struct{})
	for i := 0; i < b.N; i++ {
		go func() { done <- struct{}{} }()
		<-done
	}
}

// ---- End-to-end throughput benches over the real runtimes ----

func BenchmarkEndToEndTextSearch(b *testing.B) {
	spec := workload.DefaultFolderSpec(1)
	folder, _ := workload.GenFolder(spec)
	var total int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		var mu sync.Mutex
		pyjama.ParallelFor(4, len(folder.Files), pyjama.Dynamic(4), func(fi int) {
			local := 0
			for _, line := range folder.Files[fi].Lines {
				if len(line) > 0 && line[0] == 'c' {
					local++
				}
			}
			mu.Lock()
			count += local
			mu.Unlock()
		})
		total = count
	}
	_ = total
}
