package core

import (
	"sync"
	"testing"
	"time"

	"parc751/internal/parctrace"
	"parc751/internal/probe"
)

// TestStealTraceConservation pins the steal-edge hook placement: the
// recorder logs a steal only after StealInto's CAS claim landed, so the
// number of steal events must equal the number of steals the deques
// themselves performed — a hook placed before the claim would log
// steals that lost the race and break this equality. Run under -race in
// CI, this is the stress test the satellite audit asks for.
func TestStealTraceConservation(t *testing.T) {
	const workers = 4
	rec := parctrace.NewRecorder(parctrace.Config{
		// Tiny rings with sampling active: the equality below is on the
		// exact per-kind counters, which shedding must never disturb.
		Workers: workers, LaneCap: 64,
	})
	detach := attach(t, rec)

	p := NewPool(workers)
	defer p.Shutdown()

	// Tasks submitted from inside a worker land on that worker's own
	// deque; wedging the spawner right after the burst forces siblings
	// to steal them — reliable even on a single-CPU host, where a
	// free-running spawner would drain its own deque first.
	var wg sync.WaitGroup
	leaf := func() { wg.Done() }
	for round := 0; round < 8; round++ {
		const children = 64
		wg.Add(children + 1)
		p.Submit(func() {
			for i := 0; i < children; i++ {
				p.Submit(leaf)
			}
			time.Sleep(10 * time.Millisecond)
			wg.Done()
		})
		wg.Wait()
	}
	p.Quiesce()
	detach()

	logged := rec.Count(probe.SiteSteal)
	// One steal event per successful StealInto operation. The deque's
	// Steals counter tallies stolen *elements* — the task handed to the
	// thief plus every batch-rebalanced sibling (BatchMoved) — so the
	// operation count is their difference.
	snap := p.Stats()
	var batchMoved int64
	for _, w := range snap.Workers {
		batchMoved += w.BatchMoved
	}
	performed := snap.TotalSteals() - batchMoved
	if int64(logged) != performed {
		t.Fatalf("steal conservation broken: %d steal events logged, %d steal operations performed", logged, performed)
	}
	if performed == 0 {
		t.Fatalf("no steals happened — the stress load is not exercising the hook")
	}
	// The run/complete pairing must also be conserved: every envelope
	// the scheduler ran while recording completed exactly once.
	if runs, completes := rec.Count(probe.SiteRun), rec.Count(probe.SiteComplete); runs != completes {
		t.Fatalf("run/complete not conserved: %d runs, %d completes", runs, completes)
	}
	if submits := rec.Count(probe.SiteSubmit); submits != rec.Count(probe.SiteRun) {
		t.Fatalf("submit/run not conserved on a drained pool: %d submits, %d runs",
			submits, rec.Count(probe.SiteRun))
	}
}
