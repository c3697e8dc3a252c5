//go:build !race

// Allocation-budget guard for the worksharing fast path: a
// schedule(static) block-decomposed For must be pure arithmetic plus a
// barrier — no loopState registration, no chunk closure, no heap traffic
// at all (see staticFastChunk). Excluded under -race because the race
// runtime's own instrumentation allocates.

package pyjama

import (
	"runtime"
	"testing"
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

// TestForDynamicGuidedAllocGuard bounds the claim-based schedules at one
// allocation per construct in the steady state: the loopState comes back
// from the region-join recycling pool (team.reset → loopStatePool),
// the ordered cond is created lazily (claim loops never touch it), and
// the chunk claim is pure atomics. The measurement wraps whole regions
// because recycling only returns state at the join.
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
	} {
		sched := tc.sched
		sink := 0
		body := func(i int) { sink += i }
		region := func() {
			Parallel(2, func(tc *TC) {
				for k := 0; k < per; k++ {
					tc.For(n, sched, body)
				}
			})
		}
		for k := 0; k < 8; k++ {
			region() // warm loopStatePool across region joins
		}
		got := testing.AllocsPerRun(20, region) / per
		if got > 1 {
			t.Fatalf("steady-state For(%s) allocates %v objects/op, want <= 1", tc.name, got)
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
