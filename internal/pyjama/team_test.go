package pyjama

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parc751/internal/core"
)

// within fails the test if fn does not return in time: every test here
// guards against a deadlocked team.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatalf("%s deadlocked", what)
	}
}

// barrierSum runs a region of threads members that sums [0, n) through a
// worksharing loop, a barrier and a single, returning the sum.
func barrierSum(threads, n int) int64 {
	var sum atomic.Int64
	Parallel(threads, func(tc *TC) {
		tc.For(n, Dynamic(3), func(i int) { sum.Add(int64(i)) })
		tc.Barrier()
		tc.Single(func() {})
	})
	return sum.Load()
}

// TestPanickingMemberDoesNotPoisonTeam runs a region whose member dies
// between barriers, then reuses the same cached team: the aborted
// barrier must have been replaced and the construct tables cleared.
func TestPanickingMemberDoesNotPoisonTeam(t *testing.T) {
	const threads, n = 3, 100
	barrierSum(threads, n) // park a team of this size in the cache
	cached := idleTeams[threads].Load()
	if cached == nil {
		t.Fatal("no team cached after a region")
	}
	aborted := cached.barrier
	within(t, "failing region", func() {
		defer func() {
			if recover() == nil {
				t.Error("member panic not re-raised")
			}
		}()
		Parallel(threads, func(tc *TC) {
			tc.For(n, Dynamic(1), func(int) {})
			if tc.ThreadNum() == 1 {
				panic("member 1 died")
			}
			tc.Barrier()
		})
	})
	if idleTeams[threads].Load() != cached {
		t.Fatal("the failed region's team was not returned to the cache")
	}
	if cached.barrier == aborted {
		t.Fatal("the aborted barrier was kept")
	}
	for round := 0; round < 20; round++ {
		within(t, "region after a failure", func() {
			if got, want := barrierSum(threads, n), int64(n*(n-1)/2); got != want {
				t.Errorf("round %d: sum = %d, want %d", round, got, want)
			}
		})
	}
}

// TestOrderedPanicAbortsTeam panics inside an ordered section: members
// waiting for a later turn must be released by the abort, the region must
// re-raise the body's own panic, and the cached team must then sequence a
// fresh ordered loop.
func TestOrderedPanicAbortsTeam(t *testing.T) {
	for _, threads := range []int{2, 3, 4} {
		within(t, "region with a panicking ordered section", func() {
			defer func() {
				var pe *core.PanicError
				if err, _ := recover().(error); !errors.As(err, &pe) || pe.Value != "ordered body died" {
					t.Errorf("team of %d: re-raised %v, want the ordered body's panic", threads, err)
				}
			}()
			Parallel(threads, func(tc *TC) {
				tc.For(8, Static(1), func(i int) {
					tc.Ordered(i, func() {
						if i == 0 {
							panic("ordered body died")
						}
					})
				})
			})
		})
		var order []int
		within(t, "ordered loop after a failure", func() {
			Parallel(threads, func(tc *TC) {
				tc.For(20, Dynamic(1), func(i int) {
					tc.Ordered(i, func() { order = append(order, i) })
				})
			})
		})
		for i, v := range order {
			if v != i {
				t.Fatalf("team of %d: ordered broke at %d: %v", threads, i, order)
			}
		}
		if len(order) != 20 {
			t.Fatalf("team of %d: %d ordered entries, want 20", threads, len(order))
		}
	}
}

// TestNestedRegionsComplete opens a region inside every member of an
// outer region of the same size: the cached team is busy, so each inner
// region runs on a fresh team.
func TestNestedRegionsComplete(t *testing.T) {
	const outer, inner = 2, 2
	var members atomic.Int64
	within(t, "nested regions", func() {
		for round := 0; round < 10; round++ {
			Parallel(outer, func(tc *TC) {
				Parallel(inner, func(in *TC) {
					in.Barrier()
					members.Add(1)
				})
				tc.Barrier()
			})
		}
	})
	if got := members.Load(); got != 10*outer*inner {
		t.Fatalf("%d inner members ran, want %d", got, 10*outer*inner)
	}
}

// TestConcurrentCallersComplete races eight callers for the same team
// size; all but the cache holder build and dismiss fresh teams.
func TestConcurrentCallersComplete(t *testing.T) {
	const callers, rounds, threads, n = 8, 25, 3, 64
	within(t, "concurrent callers", func() {
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					if got, want := barrierSum(threads, n), int64(n*(n-1)/2); got != want {
						t.Errorf("sum = %d, want %d", got, want)
						return
					}
				}
			}()
		}
		wg.Wait()
	})
}

// TestTeamLargerThanPool runs a barrier-heavy region from inside the only
// worker of a core.Pool. Members are not pool tasks, so a team larger
// than the pool still has all its members live at once.
func TestTeamLargerThanPool(t *testing.T) {
	const threads, n = 4, 200
	p := core.NewPool(1)
	defer p.Shutdown()
	var got atomic.Int64
	within(t, "team on a 1-worker pool", func() {
		p.Submit(func() { got.Store(barrierSum(threads, n)) })
		p.Quiesce()
	})
	if want := int64(n * (n - 1) / 2); got.Load() != want {
		t.Fatalf("sum = %d, want %d", got.Load(), want)
	}
}

// TestRepeatedStatsIdentical runs the same ParallelWithStats region twice
// on one cached team: per-region counters and barrier stats restart at
// zero, so the deterministic counters match exactly. Which member is a
// generation's serial thread varies, so spin-caught releases and parks
// are compared as a team total.
func TestRepeatedStatsIdentical(t *testing.T) {
	const threads, n = 4, 1000
	region := func() RegionStats {
		return ParallelWithStats(threads, func(tc *TC) {
			tc.For(n, Static(0), func(int) {})
			tc.For(n, Static(16), func(int) {})
			tc.Barrier()
		})
	}
	region()
	a, b := region(), region()
	waited := func(s RegionStats) (w int64) {
		for _, ts := range s.Threads {
			w += ts.Barrier.SpinReleases + ts.Barrier.Parks
		}
		return w
	}
	for i := range a.Threads {
		x, y := a.Threads[i], b.Threads[i]
		if x.ChunksClaimed != y.ChunksClaimed || x.IterationsRun != y.IterationsRun ||
			x.Barrier.Waits != y.Barrier.Waits {
			t.Errorf("thread %d: first %+v, second %+v", i, x, y)
		}
		if x.Barrier.Waits != 3 {
			t.Errorf("thread %d: %d barrier waits, want 3", i, x.Barrier.Waits)
		}
	}
	if waited(a) != waited(b) {
		t.Errorf("released waiters: first %d, second %d", waited(a), waited(b))
	}
}
