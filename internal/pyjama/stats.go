package pyjama

// RegionStats is Pyjama's observability surface, mirroring the scheduler's
// sched.Snapshot: per-thread worksharing tallies (chunks claimed,
// iterations run) and barrier behaviour (waits, spin-caught releases,
// parks), plus the decision every schedule(auto) loop committed to.
// Obtain one with ParallelWithStats; `parcbench -e A6` prints them for the
// schedule-ablation workloads.

import (
	"fmt"
	"strings"

	"parc751/internal/core"
	"parc751/internal/metrics"
)

// threadCounters is one team member's padded tally slot. It is written
// only by its owning thread (no atomics on the claim path); the region
// join publishes the final values to the stats reader.
type threadCounters struct {
	chunks int64
	iters  int64
	_      [48]byte
}

// ThreadStats is one team member's view of the region: how many chunks it
// claimed across all worksharing loops, how many iterations it ran, and
// how it behaved at barriers.
type ThreadStats struct {
	ID            int
	ChunksClaimed int64
	IterationsRun int64
	Barrier       core.BarrierStats
}

// RegionStats is the whole team's snapshot, taken after the region joins.
type RegionStats struct {
	Threads []ThreadStats
	// Auto records the calibration outcome of every schedule(auto) loop
	// in the region, in construct order.
	Auto []AutoDecision
}

// statsSnapshot reads the region's counters at the join; c bounds its
// slot tables.
func (r *region) statsSnapshot(c constructCounts) RegionStats {
	s := RegionStats{Threads: make([]ThreadStats, r.n)}
	for i := 0; i < r.n; i++ {
		s.Threads[i] = ThreadStats{
			ID:            i,
			ChunksClaimed: r.counters[i].chunks,
			IterationsRun: r.counters[i].iters,
			Barrier:       r.barrier.PartyStats(i),
		}
	}
	// Only auto loops mark their slot (calibEnd >= 0); the walk covers
	// every slot up to the team's construct count, skipping segments no
	// claim-based loop allocated.
	for slot := 0; slot < c.loops; slot++ {
		if ls := r.loops.peek(slot); ls != nil && ls.auto.calibEnd.Load() >= 0 {
			s.Auto = append(s.Auto, ls.auto.snapshot(slot))
		}
	}
	return s
}

// TotalChunks sums chunks claimed across the team.
func (s RegionStats) TotalChunks() int64 {
	var n int64
	for _, t := range s.Threads {
		n += t.ChunksClaimed
	}
	return n
}

// TotalIterations sums iterations run across the team — for a region with
// one For over [0, n), exactly n when coverage is complete.
func (s RegionStats) TotalIterations() int64 {
	var n int64
	for _, t := range s.Threads {
		n += t.IterationsRun
	}
	return n
}

// TotalBarrierParks sums the generations any member had to park for (as
// opposed to catching the release while spinning or yielding).
func (s RegionStats) TotalBarrierParks() int64 {
	var n int64
	for _, t := range s.Threads {
		n += t.Barrier.Parks
	}
	return n
}

// String renders the snapshot as the plain-text table printed by
// `parcbench -e A6`, in the style of sched.Snapshot.
func (s RegionStats) String() string {
	tab := metrics.NewTable("Pyjama region stats (per thread)",
		"thread", "chunks", "iterations", "barrier-waits", "spin-releases", "parks")
	for _, t := range s.Threads {
		tab.AddRow(t.ID, t.ChunksClaimed, t.IterationsRun,
			t.Barrier.Waits, t.Barrier.SpinReleases, t.Barrier.Parks)
	}
	var b strings.Builder
	b.WriteString(tab.String())
	for _, d := range s.Auto {
		fmt.Fprintf(&b,
			"auto loop %d: mode=%s chunk=%d per-iter=%.1fns spread=%.2f samples=%d calib=%d\n",
			d.Loop, d.Mode, d.Chunk, d.PerIterNs, d.Spread, d.Samples, d.CalibEnd)
	}
	return b.String()
}
