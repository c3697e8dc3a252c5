//go:build !race

// Allocation-budget guards for Pyjama's constructs: a warm team keeps
// every loop and reduction state in its own tables (see slotTable), so a
// worksharing loop or a reduction allocates nothing once its team has
// run it, whatever the schedule, and a schedule(static) For is pure
// arithmetic plus a barrier. Excluded under -race because the race
// runtime's own instrumentation allocates.

package pyjama

import (
	"runtime"
	"sync"
	"testing"

	"parc751/internal/reduction"
)

// TestForStaticZeroAlloc measures tc.For(n, Static(0), body) inside one
// long-lived parallel region. SPMD pairing demands that both team members
// make identical worksharing calls, so BOTH threads run the same warmup
// loop and the same AllocsPerRun(100, ...) — each makes the same number of
// For calls (AllocsPerRun's warmup call included) and the loops stay
// paired. Only thread 0's measurement is asserted; thread 1's is the same
// code and exists for pairing.
//
// AllocsPerRun pins GOMAXPROCS to 1 during measurement and the two
// concurrent restores can race, so the test re-asserts the original value
// itself.
func TestForStaticZeroAlloc(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	const n = 1 << 10
	var got [2]float64
	Parallel(2, func(tc *TC) {
		sink := 0
		// body is hoisted out of the measured closure: a fresh closure per
		// call would be a per-op allocation of the test's own making.
		body := func(i int) { sink += i }
		for k := 0; k < 64; k++ {
			tc.For(n, Static(0), body)
		}
		got[tc.id] = testing.AllocsPerRun(100, func() {
			tc.For(n, Static(0), body)
		})
		_ = sink
	})
	if got[0] != 0 {
		t.Fatalf("steady-state For(static) allocates %v objects/op, want 0", got[0])
	}
}

// TestForDynamicGuidedAllocGuard pins the claim-based schedules at zero
// allocations per construct on a warm team, across garbage collections:
// the loopState, with an auto loop's calibration state, lives in the
// team's loop table and the join clears it in place, and the chunk claim
// is pure atomics. The measurement wraps whole regions because the join
// is where states are readied for reuse; the region body is hoisted, so
// no closure of the test's own making is counted.
func TestForDynamicGuidedAllocGuard(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	const n = 1 << 10
	const per = 32 // constructs per region
	for _, tc := range []struct {
		name  string
		sched Schedule
	}{
		{"dynamic", Dynamic(64)},
		{"guided", Guided(16)},
		{"auto", Auto()},
	} {
		sched := tc.sched
		sink := 0
		body := func(i int) { sink += i }
		loops := func(tc *TC) {
			for k := 0; k < per; k++ {
				tc.For(n, sched, body)
			}
		}
		region := func() { Parallel(2, loops) }
		for k := 0; k < 8; k++ {
			region() // build the team's loop table
		}
		runtime.GC()
		runtime.GC()
		got := testing.AllocsPerRun(20, region) / per
		if got != 0 {
			t.Fatalf("steady-state For(%s) allocates %v objects/op, want 0", tc.name, got)
		}
		_ = sink
	}
}

// TestColdRegionZeroAlloc pins the fork-join cost of a cold region at
// zero allocations: the team, its region object and barrier are reused
// from the idle-team cache, the members are parked goroutines, and
// ParallelFor carries its loop to the members without a closure.
func TestColdRegionZeroAlloc(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	const n = 1 << 10
	sink := 0
	body := func(i int) { sink += i }
	empty := func(*TC) {}
	for _, c := range []struct {
		name   string
		region func()
	}{
		{"ParallelFor(static)", func() { ParallelFor(2, n, Static(0), body) }},
		{"Parallel(empty)", func() { Parallel(2, empty) }},
	} {
		for k := 0; k < 64; k++ {
			c.region()
		}
		if got := testing.AllocsPerRun(200, c.region); got != 0 {
			t.Errorf("cold %s allocates %v objects/op, want 0", c.name, got)
		}
	}
	_ = sink
}

// TestForReduceStaticZeroAlloc pins a static reduction, ForReduce and
// ForChunkedReduce alike, at zero allocations once its team is warm, at
// GOMAXPROCS 1, 2 and 4 and across garbage collections. The reduction
// state and its partial and result boxes stay with the cached team from
// region to region, so a GC between regions costs nothing; states kept
// in a sync.Pool would be dropped by the GC and rebuilt by the next
// region, construct by construct. The measurement counts mallocs around
// whole regions with ReadMemStats, because testing.AllocsPerRun would pin
// GOMAXPROCS to 1; like AllocsPerRun it truncates the mean. The runtime's
// own parking structures are refilled between the GC and the measurement
// (refillSudogs), since they are not Pyjama's.
func TestForReduceStaticZeroAlloc(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	const n, per, runs = 1 << 10, 32, 50
	r := reduction.Sum[int]()
	body := func(i, acc int) int { return acc + i }
	chunkBody := func(lo, hi, acc int) int {
		for i := lo; i < hi; i++ {
			acc += i
		}
		return acc
	}
	for _, c := range []struct {
		name   string
		region func(tc *TC)
	}{
		{"ForReduce", func(tc *TC) {
			for k := 0; k < per; k++ {
				_ = ForReduce(tc, n, Static(0), r, body)
			}
		}},
		{"ForChunkedReduce", func(tc *TC) {
			for k := 0; k < per; k++ {
				_ = ForChunkedReduce(tc, n, Static(0), r, chunkBody)
			}
		}},
	} {
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			for k := 0; k < 8; k++ {
				Parallel(2, c.region)
			}
			runtime.GC()
			runtime.GC()
			refillSudogs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for k := 0; k < runs; k++ {
				Parallel(2, c.region)
			}
			runtime.ReadMemStats(&after)
			// Per region, not per construct: a region that rebuilt its
			// per states after the GC would read at least 4*per/runs = 2.
			if got := (after.Mallocs - before.Mallocs) / runs; got != 0 {
				t.Errorf("GOMAXPROCS %d: a region of %d static %s constructs allocates %d objects after a GC, want 0", procs, per, c.name, got)
			}
		}
	}
}

// refillSudogs parks a few hundred goroutines on a channel at once and
// then releases them. Every GC drops the runtime's central cache of
// sudogs, the records a goroutine blocked on a channel holds; members
// that park at a barrier on one P and wake on another then drain their
// P's cache and allocate new sudogs, tens of them per region at
// GOMAXPROCS 2, until the other P's cache overflows back into the central
// one. Releasing this many at once refills both. No Pyjama code runs
// here, so a construct state the GC took is still rebuilt in the
// measured regions.
func refillSudogs() {
	const parked = 256
	var ready, done sync.WaitGroup
	release := make(chan struct{})
	for range parked {
		ready.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			ready.Done()
			<-release
		}()
	}
	ready.Wait()
	for range 8 {
		runtime.Gosched() // let the last arrivals block on release
	}
	close(release)
	done.Wait()
}
