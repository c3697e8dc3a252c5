package machine

import (
	"testing"
	"testing/quick"

	"parc751/internal/metrics"
)

func equalCosts(n int, c uint64) []uint64 {
	costs := make([]uint64, n)
	for i := range costs {
		costs[i] = c
	}
	return costs
}

func refConfig(p int) Config {
	return Config{Name: "ref", Procs: p, SpeedFactor: 1.0}
}

func TestPerfectSpeedupNoOverhead(t *testing.T) {
	costs := equalCosts(64, 1000)
	seq := SequentialTime(costs)
	for _, p := range []int{1, 2, 4, 8} {
		st := RunTasks(refConfig(p), costs, true)
		want := seq / uint64(p)
		if st.Makespan != want {
			t.Errorf("p=%d makespan = %d, want %d", p, st.Makespan, want)
		}
		if s := metrics.Speedup(float64(seq), float64(st.Makespan)); s != float64(p) {
			t.Errorf("p=%d speedup = %g", p, s)
		}
	}
}

func TestSingleProcMatchesSequential(t *testing.T) {
	costs := []uint64{10, 20, 30, 40}
	st := RunTasks(refConfig(1), costs, true)
	if st.Makespan != SequentialTime(costs) {
		t.Errorf("makespan = %d, want %d", st.Makespan, SequentialTime(costs))
	}
	if st.AvgUtil < 0.999 {
		t.Errorf("single-proc utilisation = %g, want ~1", st.AvgUtil)
	}
}

func TestSpeedupMonotoneInProcs(t *testing.T) {
	costs := equalCosts(256, 500)
	prev := ^uint64(0)
	for _, p := range []int{1, 2, 4, 8, 16, 32, 64} {
		st := RunTasks(PARC64().WithProcs(p), costs, false)
		if st.Makespan > prev {
			t.Errorf("p=%d makespan %d worse than fewer procs %d", p, st.Makespan, prev)
		}
		prev = st.Makespan
	}
}

func TestAmdahlTail(t *testing.T) {
	// One long task dominates: makespan can never go below it.
	costs := append(equalCosts(63, 100), 100000)
	st := RunTasks(refConfig(64), costs, false)
	if st.Makespan < 100000 {
		t.Errorf("makespan %d beat the critical path", st.Makespan)
	}
	// And with many procs it should be close to the critical path plus at
	// most a small scheduling delay.
	if st.Makespan > 101000 {
		t.Errorf("makespan %d far above critical path", st.Makespan)
	}
}

func TestDeterminism(t *testing.T) {
	costs := make([]uint64, 200)
	for i := range costs {
		costs[i] = uint64(100 + 37*i%977)
	}
	a := RunTasks(PARC16(), costs, false)
	b := RunTasks(PARC16(), costs, false)
	if a != b {
		t.Fatalf("same simulation differed:\n%+v\n%+v", a, b)
	}
}

func TestStealingHappensFromProcZeroSeed(t *testing.T) {
	costs := equalCosts(64, 1000)
	st := RunTasks(refConfig(8), costs, false) // all seeded on proc 0
	if st.Steals == 0 {
		t.Error("expected steals when all work starts on one processor")
	}
	// Work should still spread: makespan far below sequential.
	if st.Makespan >= SequentialTime(costs) {
		t.Errorf("no parallelism achieved: %d", st.Makespan)
	}
}

func TestStealLatencySlowsDynamic(t *testing.T) {
	costs := equalCosts(128, 1000)
	fast := Config{Name: "fast", Procs: 8, SpeedFactor: 1, StealLatency: 0}
	slow := Config{Name: "slow", Procs: 8, SpeedFactor: 1, StealLatency: 5000}
	a := RunTasks(fast, costs, false)
	b := RunTasks(slow, costs, false)
	if b.Makespan <= a.Makespan {
		t.Errorf("steal latency had no cost: fast=%d slow=%d", a.Makespan, b.Makespan)
	}
}

func TestGlobalQueueContentionCost(t *testing.T) {
	costs := equalCosts(512, 200) // many small tasks
	ws := Config{Name: "ws", Procs: 16, SpeedFactor: 1, StealLatency: 100}
	gq := Config{Name: "gq", Procs: 16, SpeedFactor: 1, GlobalQueue: true, GlobalQueueNs: 300}
	a := RunTasks(ws, costs, true)
	b := RunTasks(gq, costs, true)
	if b.Makespan <= a.Makespan {
		t.Errorf("global queue should lose on small tasks: ws=%d gq=%d", a.Makespan, b.Makespan)
	}
}

func TestSpeedFactorScalesTime(t *testing.T) {
	costs := equalCosts(16, 2400)
	full := RunTasks(Config{Name: "a", Procs: 4, SpeedFactor: 1}, costs, true)
	half := RunTasks(Config{Name: "b", Procs: 4, SpeedFactor: 0.5}, costs, true)
	if half.Makespan != 2*full.Makespan {
		t.Errorf("half-speed makespan = %d, want %d", half.Makespan, 2*full.Makespan)
	}
}

func TestRecursiveSpawnDivideAndConquer(t *testing.T) {
	// A binary recursive decomposition of 64 leaves, like parallel
	// quicksort: internal nodes spawn two children.
	m := New(refConfig(8))
	leaves := 0
	var spawn func(ctx *Ctx, n int)
	spawn = func(ctx *Ctx, n int) {
		if n == 1 {
			leaves++
			return
		}
		ctx.Spawn(100, func(c *Ctx) { spawn(c, n/2) })
		ctx.Spawn(100, func(c *Ctx) { spawn(c, n-n/2) })
	}
	m.Submit(0, 100, func(ctx *Ctx) { spawn(ctx, 64) })
	st := m.Run()
	if leaves != 64 {
		t.Fatalf("leaves = %d, want 64", leaves)
	}
	if st.Spawns != 127 { // 64 leaves + 63 internal
		t.Errorf("Spawns = %d, want 127", st.Spawns)
	}
}

func TestSpawnOverheadCharged(t *testing.T) {
	// A root task that spawns k children delays its processor by
	// k*SpawnOverhead before it can pick up new work.
	cfg := Config{Name: "ov", Procs: 1, SpeedFactor: 1, SpawnOverhead: 10}
	m := New(cfg)
	m.Submit(0, 100, func(ctx *Ctx) {
		for i := 0; i < 5; i++ {
			ctx.Spawn(100, nil)
		}
	})
	st := m.Run()
	// 100 (root) + 5*10 (spawn overhead) + 5*100 (children serially).
	if st.Makespan != 650 {
		t.Errorf("makespan = %d, want 650", st.Makespan)
	}
}

func TestCtxExposesProcAndTime(t *testing.T) {
	m := New(refConfig(1))
	var now uint64
	m.Submit(0, 123, func(ctx *Ctx) { now = ctx.Now() })
	m.Run()
	if now != 123 {
		t.Errorf("Now = %d, want 123", now)
	}
}

func TestBadConfigPanics(t *testing.T) {
	for _, cfg := range []Config{
		{Procs: 0, SpeedFactor: 1},
		{Procs: 4, SpeedFactor: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestPresetsAreSane(t *testing.T) {
	for _, cfg := range []Config{PARC64(), PARC16(), PARC8(), AndroidQuad()} {
		if cfg.Procs <= 0 || cfg.SpeedFactor <= 0 || cfg.Name == "" {
			t.Errorf("preset %+v malformed", cfg)
		}
	}
	if PARC64().Procs != 64 || PARC16().Procs != 16 || PARC8().Procs != 8 || AndroidQuad().Procs != 4 {
		t.Error("preset core counts wrong")
	}
	w := PARC64().WithProcs(8)
	if w.Procs != 8 || w.Name != "parc64-p8" {
		t.Errorf("WithProcs = %+v", w)
	}
}

func TestUtilisationBounded(t *testing.T) {
	f := func(seed uint64, pRaw, nRaw uint8) bool {
		p := int(pRaw%16) + 1
		n := int(nRaw%128) + 1
		costs := make([]uint64, n)
		x := seed
		for i := range costs {
			x = x*6364136223846793005 + 1442695040888963407
			costs[i] = 100 + x%10000
		}
		st := RunTasks(Config{Name: "q", Procs: p, SpeedFactor: 1, StealLatency: 50}, costs, false)
		return st.AvgUtil > 0 && st.AvgUtil <= 1.0000001 &&
			st.Makespan >= SequentialTime(costs)/uint64(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMakespanLowerBound(t *testing.T) {
	// Makespan >= max(total/p, max task cost) for any schedule.
	costs := []uint64{5000, 100, 100, 100, 100, 100, 100, 100}
	st := RunTasks(refConfig(4), costs, false)
	if st.Makespan < 5000 {
		t.Errorf("makespan %d below longest task", st.Makespan)
	}
	total := SequentialTime(costs)
	if st.Makespan < total/4 {
		t.Errorf("makespan %d below work bound %d", st.Makespan, total/4)
	}
}

func BenchmarkSimulate1kTasks8Procs(b *testing.B) {
	costs := equalCosts(1000, 500)
	cfg := PARC8()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunTasks(cfg, costs, false)
	}
}

func BenchmarkSimulate64Procs(b *testing.B) {
	costs := equalCosts(4096, 300)
	cfg := PARC64()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunTasks(cfg, costs, true)
	}
}
