//go:build !race

// Allocation-budget guards for the task hot paths: a steady-state
// Run→Result cycle allocates exactly the Task handle — the future lives
// inside it, the pool submission rides SubmitRunnable (no wrapper
// closure), and the worker-side envelope cycles through the scheduler's
// freelist. Excluded under -race because the race runtime's
// instrumentation allocates.

package ptask

import (
	"context"
	"testing"
)

// TestRunResultReleaseAllocGuard pins the serving path's per-job task
// cost at one allocation: the Task struct itself. testing.AllocsPerRun
// reads process-wide Mallocs, so the guard covers the worker half of the
// cycle too.
func TestRunResultReleaseAllocGuard(t *testing.T) {
	rt := NewRuntime(2)
	defer rt.Shutdown()
	fn := func() (int, error) { return 42, nil }
	cycle := func() {
		if v, err := Run(rt, fn).Result(); err != nil || v != 42 {
			t.Fatalf("Result = (%v, %v)", v, err)
		}
	}
	for i := 0; i < 256; i++ {
		cycle()
	}
	if got := testing.AllocsPerRun(200, cycle); got > 1 {
		t.Fatalf("steady-state Run→Result allocates %v objects/op, want <= 1", got)
	}
}

// TestWorkerJoinAllocGuard is the same budget for a join inside a task:
// the joining worker parks its own slot on the child's future instead of
// materialising a Done channel, so the cycle still allocates only the
// Task handle.
func TestWorkerJoinAllocGuard(t *testing.T) {
	rt := NewRuntime(2)
	defer rt.Shutdown()
	fn := func() (int, error) { return 42, nil }
	cycle := func() {
		if v, err := Run(rt, fn).Result(); err != nil || v != 42 {
			panic("wrong child result")
		}
	}
	got, err := Run(rt, func() (float64, error) {
		for i := 0; i < 256; i++ {
			cycle()
		}
		return testing.AllocsPerRun(200, cycle), nil
	}).Result()
	if err != nil {
		t.Fatal(err)
	}
	if got > 1 {
		t.Fatalf("worker-side Run→Result allocates %v objects/op, want <= 1", got)
	}
}

// TestRunWithAllocGuard pins RunWith's promise: with a non-capturing
// function, the argument rides in the task, so the spawn allocates the
// task and nothing else.
func TestRunWithAllocGuard(t *testing.T) {
	rt := NewRuntime(2)
	defer rt.Shutdown()
	type span struct{ lo, hi int }
	width := func(s span) (int, error) { return s.hi - s.lo, nil }
	cycle := func() {
		if v, err := RunWith(rt, span{3, 45}, width).Result(); err != nil || v != 42 {
			t.Fatalf("Result = (%v, %v)", v, err)
		}
	}
	for i := 0; i < 256; i++ {
		cycle()
	}
	if got := testing.AllocsPerRun(200, cycle); got > 1 {
		t.Fatalf("steady-state RunWith→Result allocates %v objects/op, want <= 1", got)
	}
}

// TestMultiResultsAllocGuard pins the fan-out join's budget: a steady-state
// RunMulti(rt, 4, fn).Results() allocates the handle (with its aggregate
// future inside), the sub-task slice, four sub-tasks, and the results
// slice. A sub-task carries its index as its RunWith argument and reports
// to the handle directly, so it needs no closure and no callback slice;
// and no Done channel appears — Results joins through the aggregate
// future like Task.Result does, from an external caller and from a
// worker alike.
func TestMultiResultsAllocGuard(t *testing.T) {
	const budget = 7
	rt := NewRuntime(2)
	defer rt.Shutdown()
	fn := func(i int) (int, error) { return i, nil }
	cycle := func() {
		if vals, err := RunMulti(rt, 4, fn).Results(); err != nil || len(vals) != 4 || vals[3] != 3 {
			panic("wrong multi-task results")
		}
	}
	for i := 0; i < 256; i++ {
		cycle()
	}
	if got := testing.AllocsPerRun(200, cycle); got > budget {
		t.Fatalf("external RunMulti→Results allocates %v objects/op, want <= %d", got, budget)
	}
	got, err := Run(rt, func() (float64, error) {
		for i := 0; i < 256; i++ {
			cycle()
		}
		return testing.AllocsPerRun(200, cycle), nil
	}).Result()
	if err != nil {
		t.Fatal(err)
	}
	if got > budget {
		t.Fatalf("worker-side RunMulti→Results allocates %v objects/op, want <= %d", got, budget)
	}
}

// TestRunCtxAllocGuard pins the context-aware task's budget, the path
// every served job takes. The context, body and expiry stop share one
// allocation with the handle, so beyond it a steady-state RunCtx→Result
// on a cancellable context pays only for the context.AfterFunc
// registration.
func TestRunCtxAllocGuard(t *testing.T) {
	const budget = 4
	rt := NewRuntime(2)
	defer rt.Shutdown()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fn := func(context.Context) (int, error) { return 42, nil }
	cycle := func() {
		if v, err := RunCtx(rt, ctx, fn).Result(); err != nil || v != 42 {
			t.Fatalf("Result = (%v, %v)", v, err)
		}
	}
	for i := 0; i < 256; i++ {
		cycle()
	}
	if got := testing.AllocsPerRun(200, cycle); got > budget {
		t.Fatalf("steady-state RunCtx→Result allocates %v objects/op, want <= %d", got, budget)
	}
}
