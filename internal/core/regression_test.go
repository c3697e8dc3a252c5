package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parc751/internal/faultinject"
	"parc751/internal/probe"
)

// TestNoLostWakeup pins the Submit→wakeOne vs park ordering fix.
//
// The scenario: a task running on worker W submits a subtask (which lands
// on W's own deque) and then blocks on a raw channel until it runs — no
// helping, so a *different* worker must take the subtask. Submit sends
// exactly one wake token. Under the old code the woken worker rechecked
// for work with a single round of RANDOM victim picks, which can miss
// the one deque that holds the subtask (~1/e per round); it then parked
// again with the only token consumed, no further submits ever came, and
// the pool hung with work queued — a lost wakeup. The fix rechecks with
// a deterministic sweep over every deque (findWorkFull) before a
// goroutine is allowed to stay parked, so this test, which hangs within
// a few dozen iterations under the old ordering, now always completes.
func TestNoLostWakeup(t *testing.T) {
	p := NewPool(4)
	defer p.Shutdown()
	for iter := 0; iter < 300; iter++ {
		outerDone := make(chan struct{})
		p.Submit(func() {
			ran := make(chan struct{})
			p.Submit(func() { close(ran) }) // lands on this worker's deque
			<-ran                           // raw block: only a sibling worker can run the subtask
			close(outerDone)
		})
		select {
		case <-outerDone:
		case <-time.After(15 * time.Second):
			t.Fatalf("iteration %d: lost wakeup — subtask stranded on a blocked worker's deque while siblings stayed parked", iter)
		}
	}
}

// TestNoLostWakeupStress is the same window under heavier concurrency:
// many simultaneous block-until-subtask tasks keep most of the pool
// blocked so the remaining workers' recheck coverage is what decides
// liveness. Run with -race in CI.
func TestNoLostWakeupStress(t *testing.T) {
	p := NewPool(8)
	defer p.Shutdown()
	const rounds, perRound = 40, 3 // < half the pool blocked per round
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for i := 0; i < perRound; i++ {
			wg.Add(1)
			p.Submit(func() {
				defer wg.Done()
				ran := make(chan struct{})
				p.Submit(func() { close(ran) })
				<-ran
			})
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			t.Fatalf("round %d: pool wedged with queued subtasks", r)
		}
	}
}

// TestNoLostWakeupHelpJoin pins the parking join. A worker joins a future
// that an outside goroutine completes, with no pool work anywhere, so the
// helper parks its slot on the future and only Complete can wake it. The
// worker's slot moves on to the next iteration's join as soon as this one
// returns, so a completer that reads the registration late meets the
// slot's next join: its wake is spurious, and the next Complete must
// still reach the new joiner.
func TestNoLostWakeupHelpJoin(t *testing.T) {
	p := NewPool(2)
	defer func() {
		if !t.Failed() { // a stranded join would hang the drain
			p.Shutdown()
		}
	}()
	for iter := 0; iter < 2000; iter++ {
		f := NewFuture[int]()
		joined := make(chan int, 1)
		p.Submit(func() {
			p.HelpJoin(f)
			v, _ := f.Get()
			joined <- v
		})
		// Sweep the completion across the join's register/re-check
		// window: from before the helper starts to after it parks.
		go func(delay int) {
			for i := 0; i < delay; i++ {
				runtime.Gosched()
			}
			f.Complete(iter, nil)
		}(iter % 64 * 8)
		select {
		case v := <-joined:
			if v != iter {
				t.Fatalf("iteration %d: joined value %d", iter, v)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("iteration %d: lost wakeup — the joining worker stayed parked on a completed future", iter)
		}
	}
}

// TestNoLostWakeupGet is TestNoLostWakeupHelpJoin from a goroutine that
// is not a pool worker: Get registers a pooled Parker on the future and
// only Complete can wake it. Parkers are recycled, so a late completer's
// wake can land on a slot's next owner; it must cost a re-check, never a
// lost join.
func TestNoLostWakeupGet(t *testing.T) {
	for iter := 0; iter < 2000; iter++ {
		f := NewFuture[int]()
		joined := make(chan int, 1)
		go func() {
			v, _ := f.Get()
			joined <- v
		}()
		// Sweep the completion across Get's register/re-check window:
		// from before the getter starts to after it parks.
		go func(delay int) {
			for i := 0; i < delay; i++ {
				runtime.Gosched()
			}
			f.Complete(iter, nil)
		}(iter % 64 * 8)
		select {
		case v := <-joined:
			if v != iter {
				t.Fatalf("iteration %d: joined value %d", iter, v)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("iteration %d: lost wakeup — Get stayed parked on a completed future", iter)
		}
	}
}

// TestQuiesceConcurrentWaiters drains a backlog under eight concurrent
// Quiesce callers: every one must return, and only once nothing is
// queued or running.
func TestQuiesceConcurrentWaiters(t *testing.T) {
	p := NewPool(2)
	defer p.Shutdown()
	for round := 0; round < 200; round++ {
		// The gate holds the backlog until the waiters are on their way.
		gate := make(chan struct{})
		for i := 0; i < 32; i++ {
			p.Submit(func() { <-gate })
		}
		var wg sync.WaitGroup
		early := make(chan int64, 8)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.Quiesce()
				if n := p.inflight.Load(); n != 0 {
					early <- n
				}
			}()
		}
		runtime.Gosched()
		close(gate)
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			t.Fatalf("round %d: a Quiesce caller never returned", round)
		}
		close(early)
		for n := range early {
			t.Fatalf("round %d: Quiesce returned with %d task(s) in flight", round, n)
		}
	}
}

// TestBarrierAbortWhileFirstParker pins the barrier park/abort race fix.
//
// One party arrives and parks (its sibling never arrives); Abort fires
// while that party is the generation's first and only parker. Under the
// old design the parker's wake channel was created lazily and CAS-
// published while Abort concurrently closed the global abort channel —
// the window this regression test covers. The party must panic with
// ErrBarrierAborted promptly; hanging in Await is the failure mode.
func TestBarrierAbortWhileFirstParker(t *testing.T) {
	for iter := 0; iter < 50; iter++ {
		b := NewBarrier(2)
		got := make(chan any, 1)
		go func() {
			defer func() { got <- recover() }()
			b.AwaitAs(0) // sibling never arrives
			got <- nil   // unreachable: generation can never complete
		}()
		// Wait for the party to reach the parking protocol, then abort at
		// the most hostile moment available.
		for b.PartyStats(0).Parks == 0 {
			runtime.Gosched()
		}
		b.Abort()
		select {
		case r := <-got:
			err, ok := r.(error)
			if !ok || !errors.Is(err, ErrBarrierAborted) {
				t.Fatalf("iteration %d: Await returned %v, want panic(ErrBarrierAborted)", iter, r)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("iteration %d: Abort did not release the parked party", iter)
		}
	}
}

// TestBarrierAbortRacesFirstParkerInjected drives the same window with a
// seeded fault-injection plan: arrival delays stagger the team so the
// early parties are parked when Abort lands mid-generation. Every party
// must either complete the generation or panic with ErrBarrierAborted —
// never hang, never return from an uncompleted generation.
func TestBarrierAbortRacesFirstParkerInjected(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		const parties = 4
		b := NewBarrier(parties)
		// Deterministic plan: delay the last arrivals of the first
		// generation so the earlier ones are deep in the parking protocol
		// when the abort fires.
		in := faultinject.New(faultinject.Plan{Seed: seed, Rules: []faultinject.Rule{
			{Site: probe.SiteBarrier, Kind: faultinject.Delay,
				Nth: 3, Count: 2, Dur: 2 * time.Millisecond},
		}})
		detach := attach(t, in)

		var completed, aborted atomic.Int32
		var wg sync.WaitGroup
		for id := 0; id < parties; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						err, ok := r.(error)
						if !ok || !errors.Is(err, ErrBarrierAborted) {
							panic(r)
						}
						aborted.Add(1)
					}
				}()
				b.AwaitAs(id)
				completed.Add(1)
			}(id)
		}
		// Abort while the delayed arrivals are still in flight and the
		// early parties are parked (or about to park).
		time.Sleep(time.Duration(seed) * 300 * time.Microsecond)
		b.Abort()

		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			t.Fatalf("seed %d: barrier deadlocked under abort-vs-parker race", seed)
		}
		detach()
		if n := completed.Load() + aborted.Load(); n != parties {
			t.Fatalf("seed %d: %d parties settled, want %d", seed, n, parties)
		}
		// A completed generation releases everyone; a broken one aborts
		// everyone who didn't complete. Both counters together always
		// cover the team — partial states are the bug.
		if completed.Load() != 0 && completed.Load() != parties && aborted.Load() == 0 {
			t.Fatalf("seed %d: %d parties completed without the rest aborting", seed, completed.Load())
		}
	}
}

// TestFutureDoneAfterComplete covers the lazy done-channel install race:
// Done called before, during, and after completion must always return a
// channel that ends up closed.
func TestFutureDoneAfterComplete(t *testing.T) {
	// After completion.
	f := NewFuture[int]()
	f.Complete(1, nil)
	select {
	case <-f.Done():
	case <-time.After(time.Second):
		t.Fatal("Done channel created after completion never closed")
	}
	// Concurrently with completion.
	for i := 0; i < 200; i++ {
		f := NewFuture[int]()
		start := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		var ch <-chan struct{}
		go func() { defer wg.Done(); <-start; f.Complete(i, nil) }()
		go func() { defer wg.Done(); <-start; ch = f.Done() }()
		close(start)
		wg.Wait()
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatal("Done channel installed during completion never closed")
		}
	}
}
