package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parc751/internal/faultinject"
	"parc751/internal/parctrace"
	"parc751/internal/probe"
)

// attach attaches pr to the probe seam for the rest of the test and
// returns its detach, which is safe to call more than once.
func attach(t testing.TB, pr probe.Probe) (detach func()) {
	t.Helper()
	if !probe.CompareAndSwap(nil, pr) {
		t.Fatal("a probe is already attached")
	}
	detach = func() { probe.CompareAndSwap(pr, nil) }
	t.Cleanup(detach)
	return detach
}

func TestShutdownTimeoutCleanDrain(t *testing.T) {
	p := NewPool(2)
	var ran atomic.Int32
	for i := 0; i < 50; i++ {
		p.Submit(func() { ran.Add(1) })
	}
	if err := p.ShutdownTimeout(5 * time.Second); err != nil {
		t.Fatalf("clean drain returned %v", err)
	}
	if ran.Load() != 50 {
		t.Fatalf("ran %d tasks, want 50", ran.Load())
	}
	if got := p.Stats().Abandoned; got != 0 {
		t.Fatalf("abandoned = %d on a clean shutdown", got)
	}
}

func TestShutdownTimeoutAbandonsStragglers(t *testing.T) {
	p := NewPool(2)
	release := make(chan struct{})
	var wedged sync.WaitGroup
	wedged.Add(2)
	for i := 0; i < 2; i++ {
		p.Submit(func() { wedged.Done(); <-release })
	}
	wedged.Wait() // both workers are now stuck inside tasks
	for i := 0; i < 5; i++ {
		p.Submit(func() {})
	}

	start := time.Now()
	err := p.ShutdownTimeout(50 * time.Millisecond)
	if !errors.Is(err, ErrShutdownTimeout) {
		t.Fatalf("got %v, want ErrShutdownTimeout", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("timed shutdown did not return promptly")
	}
	if got := p.Stats().Abandoned; got != 7 {
		t.Errorf("abandoned = %d, want 7 (2 wedged + 5 queued)", got)
	}

	// The pool is dead: Submit must panic, further shutdowns are no-ops.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Submit after timed shutdown did not panic")
			}
		}()
		p.Submit(func() {})
	}()
	p.Shutdown() // must return immediately, not hang on the wedged tasks
	if err := p.ShutdownTimeout(time.Millisecond); err != nil {
		t.Errorf("second ShutdownTimeout = %v, want nil no-op", err)
	}
	close(release) // let the wedged goroutines drain
	// Wait for the released workers to run the abandoned queue and exit:
	// their tasks fire the process-wide probe, which a later test owns.
	p.wg.Wait()
}

// TestShutdownTimeoutAbandonedCountRace audits the leftover-queue count
// under Submits racing a timed-out shutdown. Every worker is wedged inside
// a task so queued work can never execute; submitter goroutines hammer
// Submit while ShutdownTimeout expires. The invariant: once the racing
// submitters have settled (enqueued or panicked), Stats().Abandoned equals
// wedged tasks + every Submit that returned without panicking — no task is
// stranded in a queue without being counted, and nothing is counted twice.
// Run under -race this also checks the counter accesses themselves.
func TestShutdownTimeoutAbandonedCountRace(t *testing.T) {
	const workers, submitters = 4, 8
	for round := 0; round < 20; round++ {
		p := NewPool(workers)
		release := make(chan struct{})
		var wedged sync.WaitGroup
		wedged.Add(workers)
		for i := 0; i < workers; i++ {
			p.Submit(func() { wedged.Done(); <-release })
		}
		wedged.Wait()

		var enqueued atomic.Int64
		start := make(chan struct{})
		var subs sync.WaitGroup
		subs.Add(submitters)
		for g := 0; g < submitters; g++ {
			go func() {
				defer subs.Done()
				<-start
				for i := 0; i < 50; i++ {
					ok := func() (ok bool) {
						defer func() { recover() }() // post-shutdown Submit panics
						p.Submit(func() {})
						return true
					}()
					if !ok {
						return // pool is down; later submits also panic
					}
					enqueued.Add(1)
				}
			}()
		}
		close(start)
		err := p.ShutdownTimeout(time.Duration(round%3) * time.Millisecond)
		if !errors.Is(err, ErrShutdownTimeout) {
			t.Fatalf("round %d: got %v, want ErrShutdownTimeout", round, err)
		}
		subs.Wait() // all racing submits have either enqueued or panicked
		want := int64(workers) + enqueued.Load()
		if got := p.Stats().Abandoned; got != want {
			t.Fatalf("round %d: abandoned = %d, want %d (%d wedged + %d enqueued)",
				round, got, want, workers, enqueued.Load())
		}
		close(release)
		p.wg.Wait() // as above: no straggler may outlive the test
	}
}

func TestShutdownIdempotentAfterShutdown(t *testing.T) {
	p := NewPool(2)
	var ran atomic.Int32
	p.Submit(func() { ran.Add(1) })
	p.Shutdown()
	done := make(chan struct{})
	go func() {
		p.Shutdown() // documented no-op, must not hang or panic
		p.Shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("repeated Shutdown hung")
	}
	if ran.Load() != 1 {
		t.Fatalf("ran = %d, want 1", ran.Load())
	}
}

// TestPoolHooksInjectAndTrace drives a pool with delay rules at all three
// pool sites and checks the injector observed the traffic.
func TestPoolHooksInjectAndTrace(t *testing.T) {
	in := faultinject.New(faultinject.Plan{Rules: []faultinject.Rule{
		{Site: probe.SiteSubmit, Kind: faultinject.Delay, Nth: 2, Count: 1, Dur: time.Millisecond},
		{Site: probe.SiteRun, Kind: faultinject.Stall, Nth: 1, Count: 1, Dur: 2 * time.Millisecond},
	}})
	attach(t, in)
	p := NewPool(2)
	var ran atomic.Int32
	for i := 0; i < 20; i++ {
		p.Submit(func() { ran.Add(1) })
	}
	p.Shutdown()
	if ran.Load() != 20 {
		t.Fatalf("ran %d, want 20 (faults must not lose tasks)", ran.Load())
	}
	if in.Seen(probe.SiteSubmit) != 20 {
		t.Errorf("submit events = %d, want 20", in.Seen(probe.SiteSubmit))
	}
	if in.Seen(probe.SiteRun) != 20 {
		t.Errorf("run events = %d, want 20", in.Seen(probe.SiteRun))
	}
	if in.Fired() != 2 {
		t.Errorf("fired = %d, want 2 (%v)", in.Fired(), in.Trace())
	}
}

// TestBarrierAbortRacesAwaitAs races Abort against concurrent AwaitAs
// arrivals whose order is skewed by injected arrival delays. The
// invariant is liveness plus a clean split: every party either completes
// a generation or panics ErrBarrierAborted — never deadlocks. Run under
// -race this is the regression net for the abort/arrival window (Abort
// was previously only tested against a quiescent barrier).
func TestBarrierAbortRacesAwaitAs(t *testing.T) {
	const parties = 4
	for round := 0; round < 25; round++ {
		b := NewBarrier(parties)
		in := faultinject.New(faultinject.Plan{Rules: []faultinject.Rule{
			// Periodic sub-millisecond arrival delays desynchronise the
			// team so Abort lands in every phase of the protocol across
			// rounds: pre-arrival, mid-climb, spinning, and parked.
			{Site: probe.SiteBarrier, Kind: faultinject.Delay,
				Nth: uint64(round % 3), Every: 5, Dur: 200 * time.Microsecond},
		}})
		detach := attach(t, in)

		var aborted, generations atomic.Int32
		var wg sync.WaitGroup
		for id := 0; id < parties; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						if r != ErrBarrierAborted {
							panic(r)
						}
						aborted.Add(1)
					}
				}()
				for i := 0; i < 40; i++ {
					b.AwaitAs(id)
					generations.Add(1)
				}
			}(id)
		}
		time.Sleep(time.Duration(round*37) * time.Microsecond)
		b.Abort()

		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: team deadlocked after Abort", round)
		}
		detach()
		// A party that never saw the abort finished all 40 generations;
		// everyone else must have panicked with ErrBarrierAborted.
		finished := int32(0)
		if g := generations.Load(); g == int32(40*parties) {
			finished = int32(parties)
		}
		if aborted.Load()+finished < 1 {
			t.Fatalf("round %d: no party aborted or finished", round)
		}
	}
}

// TestDisabledHookOverheadGuard is the no-overhead proof for the probe
// seam against the chaos probe: detached, every hot site costs one atomic
// pointer load and a branch, so the detached path must be no slower than
// twice an attached empty-plan injector, which does strictly more work
// per event.
func TestDisabledHookOverheadGuard(t *testing.T) {
	detachedProbeOverheadGuard(t, "empty-plan injector", func() probe.Probe {
		return faultinject.New(faultinject.Plan{})
	})
}

// TestDisabledRecorderOverheadGuard is the same guard against the trace
// probe: the attached recorder takes a timestamp, bumps a counter and
// writes a ring slot per event.
func TestDisabledRecorderOverheadGuard(t *testing.T) {
	detachedProbeOverheadGuard(t, "recorder", func() probe.Probe {
		return parctrace.NewRecorder(parctrace.Config{Workers: 2, LaneCap: 1024})
	})
}

// raceBuild is true in race builds (race_test.go).
var raceBuild bool

// detachedProbeOverheadGuard pins (a) an absolute per-submit ceiling for
// the detached seam far below anything a real hook slip-up would produce,
// outside race builds, and (b) in every build, that the detached path is
// no slower than twice the attached path built by newProbe.
func detachedProbeOverheadGuard(t *testing.T, name string, newProbe func() probe.Probe) {
	t.Helper()
	if testing.Short() {
		t.Skip("timing guard")
	}
	const tasks = 20000
	measure := func(pr probe.Probe) time.Duration {
		if pr != nil {
			defer attach(t, pr)()
		}
		p := NewPool(2)
		defer p.Shutdown()
		var sink atomic.Int64
		start := time.Now()
		for i := 0; i < tasks; i++ {
			p.Submit(func() { sink.Add(1) })
		}
		p.Quiesce()
		return time.Since(start)
	}
	// Best of several interleaved trials each: minima are robust against
	// scheduler noise on shared CI hardware.
	detached, attached := time.Hour, time.Hour
	for trial := 0; trial < 5; trial++ {
		if d := measure(nil); d < detached {
			detached = d
		}
		if d := measure(newProbe()); d < attached {
			attached = d
		}
	}
	if perSubmit := detached / tasks; !raceBuild && perSubmit > 5*time.Microsecond {
		t.Errorf("detached submit path costs %v/op, want <= 5µs (hook overhead crept in)", perSubmit)
	}
	if detached > attached*2 {
		t.Errorf("detached seam (%v) slower than twice the %s (%v): nil fast path broken",
			detached, name, attached)
	}
	t.Logf("submit+run cost: detached=%v %s=%v for %d tasks", detached, name, attached, tasks)
}

func BenchmarkSubmitHookDisabled(b *testing.B) {
	p := NewPool(2)
	defer p.Shutdown()
	var sink atomic.Int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Submit(func() { sink.Add(1) })
	}
	p.Quiesce()
}

func BenchmarkSubmitHookAttachedEmptyPlan(b *testing.B) {
	attach(b, faultinject.New(faultinject.Plan{}))
	p := NewPool(2)
	defer p.Shutdown()
	var sink atomic.Int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Submit(func() { sink.Add(1) })
	}
	p.Quiesce()
}
