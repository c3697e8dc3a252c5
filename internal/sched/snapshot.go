package sched

import (
	"fmt"
	"strings"

	"parc751/internal/metrics"
)

// WorkerSnapshot is one worker's scheduler traffic at a point in time:
// its deque counters plus how often it parked (went idle with no work
// anywhere) and was woken by a targeted submit-side wakeup.
type WorkerSnapshot struct {
	ID int
	DequeStats
	Parks int64
	Wakes int64
}

// Snapshot is the pool-wide scheduler state exposed through
// core.Pool.Stats: per-worker traffic, global-queue activity, task
// accounting, and the sampled submit→start latency distribution. It is
// the observable-scheduler surface motivated by TEMANEJO-style debugging:
// internals as first-class data rather than opaque counters.
type Snapshot struct {
	Workers []WorkerSnapshot

	// GlobalDepth is the global FIFO's depth when the snapshot was taken;
	// GlobalSubmits counts external submissions routed to it.
	GlobalDepth   int
	GlobalSubmits int64

	// Queued is the advisory count of enqueued-but-not-yet-taken tasks;
	// Inflight counts queued + running; Executed counts finished tasks.
	Queued   int64
	Inflight int64
	Executed int64

	// Abandoned counts tasks given up on by a timed shutdown
	// (core.Pool.ShutdownTimeout): queued work that was never run plus
	// wedged tasks that were still running when the pool stopped waiting.
	// It is a live count — a left-behind worker that eventually finishes
	// its task drops it back out — and zero on every clean shutdown.
	Abandoned int64

	// SubmitLatency is the sampled submit→start latency distribution.
	SubmitLatency metrics.LatencySnapshot
}

// TotalSteals sums successful steals across workers.
func (s Snapshot) TotalSteals() int64 {
	var n int64
	for _, w := range s.Workers {
		n += w.Steals
	}
	return n
}

// TotalPushes sums deque pushes (worker-side submissions) across workers.
func (s Snapshot) TotalPushes() int64 {
	var n int64
	for _, w := range s.Workers {
		n += w.Pushes
	}
	return n
}

// TotalParks sums park events across workers.
func (s Snapshot) TotalParks() int64 {
	var n int64
	for _, w := range s.Workers {
		n += w.Parks
	}
	return n
}

// String renders the snapshot as the plain-text table that parcbench's
// P2 and A1 experiments print.
func (s Snapshot) String() string {
	tab := metrics.NewTable("Scheduler snapshot (per worker)",
		"worker", "pushes", "pops", "steals", "batch-moved", "failed-steals", "parks", "wakes")
	for _, w := range s.Workers {
		tab.AddRow(w.ID, w.Pushes, w.Pops, w.Steals, w.BatchMoved, w.FailedSteal, w.Parks, w.Wakes)
	}
	var b strings.Builder
	b.WriteString(tab.String())
	fmt.Fprintf(&b, "global queue: depth=%d submits=%d | queued=%d inflight=%d executed=%d abandoned=%d\n",
		s.GlobalDepth, s.GlobalSubmits, s.Queued, s.Inflight, s.Executed, s.Abandoned)
	fmt.Fprintf(&b, "submit→start latency (sampled): %s\n", s.SubmitLatency.String())
	return b.String()
}
