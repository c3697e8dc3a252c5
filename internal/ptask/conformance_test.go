// Conformance suite for the failure-semantics table in DESIGN.md §10.
// Every table cell — event × construct (Task / MultiTask / Pyjama
// region) — has a test here asserting exactly what the table promises:
// which futures settle, with which error identities, and whether the
// body ran at all. The suite is an external test package so the Pyjama
// region rows can be exercised alongside the ptask ones.
//
// All tests are named TestConformance* so the CI serve-smoke step
// (`go test -race -run 'TestServe|TestConformance'`) runs the whole
// table on every change.
package ptask_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parc751/internal/core"
	"parc751/internal/ptask"
	"parc751/internal/pyjama"
	"parc751/internal/webfetch"
)

func newRT(t *testing.T, workers int) *ptask.Runtime {
	t.Helper()
	rt := ptask.NewRuntime(workers)
	t.Cleanup(rt.Shutdown)
	return rt
}

// wedge occupies every worker with a blocked task so that subsequent
// submissions stay queued until release is called. The §10 rows about
// "queued" state (cancel and deadline skip execution) need tasks that
// verifiably never left the queue.
func wedge(t *testing.T, rt *ptask.Runtime) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	var started sync.WaitGroup
	started.Add(rt.Workers())
	for i := 0; i < rt.Workers(); i++ {
		ptask.Run(rt, func() (struct{}, error) {
			started.Done()
			<-gate
			return struct{}{}, nil
		})
	}
	started.Wait()
	var once sync.Once
	return func() { once.Do(func() { close(gate) }) }
}

// awaitDone fails the test if ch does not close within a generous bound.
func awaitDone(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s never settled", what)
	}
}

// --- Row: body returns error ---

// TestConformanceBodyError: a Task's future settles with exactly the
// body's error.
func TestConformanceBodyError(t *testing.T) {
	rt := newRT(t, 2)
	boom := errors.New("boom")
	_, err := ptask.Run(rt, func() (int, error) { return 0, boom }).Result()
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

// TestConformanceBodyErrorMultiFirstError: every sub-task runs to
// settlement and the aggregate error is the first in element order, not
// completion order.
func TestConformanceBodyErrorMultiFirstError(t *testing.T) {
	rt := newRT(t, 4)
	errB, errC := errors.New("errB"), errors.New("errC")
	var ran atomic.Int64
	m := ptask.RunMulti(rt, 3, func(i int) (int, error) {
		ran.Add(1)
		switch i {
		case 1:
			return 0, errB
		case 2:
			return 0, errC // may settle before errB; element order must still win
		}
		return i, nil
	})
	_, err := m.Results()
	if !errors.Is(err, errB) {
		t.Fatalf("aggregate err = %v, want element-order first %v", err, errB)
	}
	if errors.Is(err, errC) {
		t.Fatalf("aggregate err %v includes later element's error", err)
	}
	if ran.Load() != 3 {
		t.Fatalf("%d sub-tasks ran, want all 3", ran.Load())
	}
}

// --- Row: body panics ---

// TestConformancePanicTask: a panicking body settles the future with
// *core.PanicError, Unwrap reaches the panic value when it is an error,
// and the worker survives to run more tasks.
func TestConformancePanicTask(t *testing.T) {
	rt := newRT(t, 2)
	sentinel := errors.New("panic sentinel")
	_, err := ptask.Run(rt, func() (int, error) { panic(sentinel) }).Result()
	var pe *core.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T %v, want *core.PanicError", err, err)
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("err %v does not unwrap to the panic value", err)
	}
	// The worker that recovered the panic is still alive and scheduling.
	for i := 0; i < 10; i++ {
		if v, err := ptask.Run(rt, func() (int, error) { return 7, nil }).Result(); err != nil || v != 7 {
			t.Fatalf("post-panic task %d: (%v, %v)", i, v, err)
		}
	}
}

// TestConformancePanicMulti: a panicking sub-task counts as a failed
// sub-task and surfaces through the aggregate as *core.PanicError.
func TestConformancePanicMulti(t *testing.T) {
	rt := newRT(t, 4)
	m := ptask.RunMulti(rt, 3, func(i int) (int, error) {
		if i == 1 {
			panic("sub-task 1 blew up")
		}
		return i, nil
	})
	_, err := m.Results()
	var pe *core.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("aggregate err = %T %v, want *core.PanicError", err, err)
	}
}

// TestConformancePanicRegion: a Pyjama team member's panic propagates to
// the Parallel caller after the team quiesces — siblings blocked at the
// barrier are released by the abort cascade instead of deadlocking, and
// the re-raised value is the member's own panic, not the cascade.
func TestConformancePanicRegion(t *testing.T) {
	sentinel := errors.New("member 2 died")
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		pyjama.Parallel(4, func(tc *pyjama.TC) {
			if tc.ThreadNum() == 2 {
				panic(sentinel)
			}
			tc.Barrier() // would deadlock without the abort cascade
		})
		done <- nil
	}()
	var r any
	select {
	case r = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("region deadlocked after member panic")
	}
	err, ok := r.(error)
	if !ok {
		t.Fatalf("recovered %T %v, want an error", r, r)
	}
	var pe *core.PanicError
	if !errors.As(err, &pe) || !errors.Is(err, sentinel) {
		t.Fatalf("recovered %v, want *core.PanicError unwrapping to the member's panic", err)
	}
}

// --- Row: Cancel / parent ctx cancelled ---

// TestConformanceCancelQueued: cancelling a queued task means its body
// is never executed and the future settles with ErrCancelled.
func TestConformanceCancelQueued(t *testing.T) {
	rt := newRT(t, 2)
	release := wedge(t, rt)
	defer release()
	var ran atomic.Bool
	tk := ptask.Run(rt, func() (int, error) { ran.Store(true); return 1, nil })
	if !tk.Cancel() {
		t.Fatal("Cancel on a queued task returned false")
	}
	_, err := tk.Result()
	if !errors.Is(err, ptask.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	release()
	rtQuiesce(t, rt)
	if ran.Load() {
		t.Fatal("cancelled queued task's body ran")
	}
}

// TestConformanceCancelRunning: a running body is not interrupted —
// Cancel reports false and the task settles with the body's own result.
func TestConformanceCancelRunning(t *testing.T) {
	rt := newRT(t, 2)
	started := make(chan struct{})
	unblock := make(chan struct{})
	tk := ptask.Run(rt, func() (int, error) { close(started); <-unblock; return 42, nil })
	<-started
	if tk.Cancel() {
		t.Fatal("Cancel claimed to cancel a running task")
	}
	close(unblock)
	v, err := tk.Result()
	if err != nil || v != 42 {
		t.Fatalf("result = (%v, %v), want (42, nil): running bodies run to completion", v, err)
	}
}

// TestConformanceCancelMultiFanout: MultiTask.Cancel reaches every
// unstarted sub-task.
func TestConformanceCancelMultiFanout(t *testing.T) {
	rt := newRT(t, 2)
	release := wedge(t, rt)
	defer release()
	var ran atomic.Int64
	m := ptask.RunMulti(rt, 4, func(i int) (int, error) { ran.Add(1); return i, nil })
	if n := m.Cancel(); n != 4 {
		t.Fatalf("Cancel cancelled %d sub-tasks, want 4 (all queued)", n)
	}
	release()
	awaitDone(t, m.Done(), "cancelled multi-task")
	if ran.Load() != 0 {
		t.Fatalf("%d cancelled sub-task bodies ran", ran.Load())
	}
	for i, tk := range m.Tasks() {
		if _, err := tk.Result(); !errors.Is(err, ptask.ErrCancelled) {
			t.Fatalf("sub-task %d err = %v, want ErrCancelled", i, err)
		}
	}
}

// TestConformanceCancelCtxParent: cancelling the parent context of a
// queued RunCtx task settles it with ErrCancelled without running it.
func TestConformanceCancelCtxParent(t *testing.T) {
	rt := newRT(t, 2)
	release := wedge(t, rt)
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Bool
	tk := ptask.RunCtx(rt, ctx, func(context.Context) (int, error) { ran.Store(true); return 1, nil })
	cancel()
	awaitDone(t, tk.Done(), "ctx-cancelled task")
	_, err := tk.Result()
	if !errors.Is(err, ptask.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	release()
	rtQuiesce(t, rt)
	if ran.Load() {
		t.Fatal("ctx-cancelled queued task's body ran")
	}
}

// TestConformanceCancelBarrierAbort: regions are not cancellable
// mid-phase; the escape hatch is Barrier.Abort, which fails every
// blocked and future Await with ErrBarrierAborted.
func TestConformanceCancelBarrierAbort(t *testing.T) {
	b := core.NewBarrier(2)
	blocked := make(chan error, 1)
	go func() {
		blocked <- core.Catch(func() { b.AwaitAs(0) })
	}()
	time.Sleep(10 * time.Millisecond) // let party 0 block
	b.Abort()
	var err error
	select {
	case err = <-blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("Abort did not release the blocked party")
	}
	var pe *core.PanicError
	if !errors.As(err, &pe) || !errors.Is(err, core.ErrBarrierAborted) {
		t.Fatalf("blocked party got %v, want ErrBarrierAborted", err)
	}
	// Future arrivals fail fast too.
	if err := core.Catch(func() { b.AwaitAs(1) }); err == nil {
		t.Fatal("Await after Abort succeeded")
	}
}

// --- Row: deadline expires ---

// TestConformanceDeadlineQueued: a task whose deadline expires while it
// is still queued skips execution entirely and settles with an error
// matching BOTH ErrDeadline and context.DeadlineExceeded.
func TestConformanceDeadlineQueued(t *testing.T) {
	rt := newRT(t, 2)
	release := wedge(t, rt)
	defer release()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	var ran atomic.Bool
	tk := ptask.RunCtx(rt, ctx, func(context.Context) (int, error) {
		ran.Store(true)
		return 1, nil
	})
	awaitDone(t, tk.Done(), "deadline-expired queued task")
	_, err := tk.Result()
	if !errors.Is(err, ptask.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded reachable too", err)
	}
	release()
	rtQuiesce(t, rt)
	if ran.Load() {
		t.Fatal("deadline-expired queued task's body ran")
	}
}

// TestConformanceDeadlineRunning: an already-running body observes ctx
// cancellation and settles with whatever it returns — cooperative, not
// preemptive.
func TestConformanceDeadlineRunning(t *testing.T) {
	rt := newRT(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	started := make(chan struct{})
	tk := ptask.RunCtx(rt, ctx, func(ctx context.Context) (int, error) {
		close(started)
		<-ctx.Done()
		return 0, ctx.Err()
	})
	<-started
	_, err := tk.Result()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the body's own ctx.Err()", err)
	}
}

// --- Row: dependence fails ---

// TestConformanceDepFailureRun: a RunAfter dependent runs anyway once
// its failed dependence settles, and sees that dependence's error when
// it inspects its input.
func TestConformanceDepFailureRun(t *testing.T) {
	rt := newRT(t, 2)
	boom := errors.New("boom")
	a := ptask.Run(rt, func() (int, error) { return 0, boom })
	var seen error
	v, err := ptask.RunAfter(rt, []ptask.Dep{a}, func() (int, error) {
		_, seen = a.Result()
		return 8, nil
	}).Result()
	if err != nil || v != 8 {
		t.Fatalf("RunAfter dependent = (%v, %v), want (8, nil)", v, err)
	}
	if !errors.Is(seen, boom) {
		t.Fatalf("dependent saw its input's error as %v, want %v", seen, boom)
	}
}

// --- Retry (webfetch.RetryPolicy, below the table) ---

// TestConformanceRetryBackoffDeterministic: Backoff is pure — two
// policies with the same seed give the same schedule, and another seed
// gives another one — so a chaos run's retry timing replays.
func TestConformanceRetryBackoffDeterministic(t *testing.T) {
	p := webfetch.RetryPolicy{MaxAttempts: 6, Base: time.Millisecond, Max: 8 * time.Millisecond, Seed: 99}
	same, other := p, p
	other.Seed = 100
	differs := false
	for attempt := 0; attempt < 5; attempt++ {
		d := p.Backoff(attempt)
		if s := same.Backoff(attempt); s != d {
			t.Fatalf("attempt %d: same seed gave %v and %v", attempt, d, s)
		}
		if other.Backoff(attempt) != d {
			differs = true
		}
	}
	if !differs {
		t.Fatal("two different seeds produced identical 5-step schedules")
	}
}

// rtQuiesce gives in-flight pool work a moment to finish so "body never
// ran" flags are conclusive: it submits a full wave of no-op tasks and
// joins them, which cannot complete until the workers have cycled.
func rtQuiesce(t *testing.T, rt *ptask.Runtime) {
	t.Helper()
	m := ptask.RunMulti(rt, rt.Workers(), func(int) (struct{}, error) { return struct{}{}, nil })
	awaitDone(t, m.Done(), "quiesce wave")
}
