package ptask

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// gate wedges a 1-worker runtime so tests can control exactly when queued
// tasks start executing.
func gate(rt *Runtime) (release func(), started <-chan struct{}) {
	rel := make(chan struct{})
	st := make(chan struct{})
	Run(rt, func() (struct{}, error) {
		close(st)
		<-rel
		return struct{}{}, nil
	})
	<-st
	return func() { close(rel) }, st
}

func TestDepRunPolicyStillRuns(t *testing.T) {
	rt := NewRuntime(2)
	defer rt.Shutdown()

	boom := errors.New("boom")
	root := Run(rt, func() (int, error) { return 0, boom })
	// The dependent runs anyway and sees its input's error itself.
	var seen error
	dep := RunAfter(rt, []Dep{root}, func() (int, error) {
		_, seen = root.Result()
		return 7, nil
	})

	if v, err := dep.Result(); err != nil || v != 7 {
		t.Errorf("RunAfter after failed dep = (%d, %v), want (7, nil)", v, err)
	}
	if !errors.Is(seen, boom) {
		t.Errorf("dependent saw its input's error as %v, want %v", seen, boom)
	}
}

func TestDeadlineExpiresQueuedTask(t *testing.T) {
	rt := NewRuntime(1)
	defer rt.Shutdown()
	release, _ := gate(rt)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	var ran atomic.Bool
	tk := RunCtx(rt, ctx, func(context.Context) (int, error) {
		ran.Store(true)
		return 1, nil
	})

	select {
	case <-tk.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("deadline never fired on a queued task")
	}
	release()
	_, err := tk.Result()
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("queued-task deadline error = %v, want ErrDeadline", err)
	}
	if !tk.Cancelled() {
		t.Error("deadline-expired task not marked cancelled")
	}
	rt.pool.Quiesce()
	if ran.Load() {
		t.Error("body ran after its deadline expired in the queue")
	}
}

func TestDeadlineReachesRunningBody(t *testing.T) {
	rt := NewRuntime(2)
	defer rt.Shutdown()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	tk := RunCtx(rt, ctx, func(ctx context.Context) (int, error) {
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(10 * time.Second):
			return 0, errors.New("deadline never reached the body")
		}
	})

	_, err := tk.Result()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("running body observed %v, want context.DeadlineExceeded", err)
	}
}

func TestCancelledParentContext(t *testing.T) {
	rt := NewRuntime(1)
	defer rt.Shutdown()
	release, _ := gate(rt)

	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Bool
	tk := RunCtx(rt, ctx, func(context.Context) (int, error) {
		ran.Store(true)
		return 1, nil
	})
	cancel()
	<-tk.Done()
	release()
	if _, err := tk.Result(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("parent-cancelled task error = %v, want ErrCancelled", err)
	}
	rt.pool.Quiesce()
	if ran.Load() {
		t.Error("body ran after its parent context was cancelled")
	}
}

func TestMultiFirstErrorLegacySemantics(t *testing.T) {
	rt := NewRuntime(2)
	defer rt.Shutdown()

	var ran atomic.Int32
	m := RunMulti(rt, 4, func(i int) (int, error) {
		ran.Add(1)
		if i == 1 {
			return 0, errors.New("boom")
		}
		return i, nil
	})
	if _, err := m.Results(); err == nil || err.Error() != "boom" {
		t.Fatalf("aggregate = %v, want boom", err)
	}
	if ran.Load() != 4 {
		t.Errorf("RunMulti ran %d bodies, want all 4", ran.Load())
	}
}

// TestQueuedCancelSkipsExecution pins the satellite guarantee: cancelling
// a task that is already queued (past its dependence wait) still prevents
// the closure from ever executing, and the future settles ErrCancelled.
func TestQueuedCancelSkipsExecution(t *testing.T) {
	rt := NewRuntime(1)
	defer rt.Shutdown()
	release, _ := gate(rt)

	var ran atomic.Bool
	tk := Run(rt, func() (int, error) {
		ran.Store(true)
		return 1, nil
	})
	if !tk.Cancel() {
		t.Fatal("Cancel on a queued task returned false")
	}
	release()
	if _, err := tk.Result(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("cancelled-while-queued error = %v, want ErrCancelled", err)
	}
	rt.pool.Quiesce()
	if ran.Load() {
		t.Error("queued-then-cancelled closure executed anyway")
	}
	if tk.Cancel() {
		t.Error("second Cancel on a settled task returned true")
	}
}

// TestCancelReleasesBody checks the closure (and anything it captures) is
// dropped on cancellation rather than retained by the dead task handle.
func TestCancelReleasesBody(t *testing.T) {
	rt := NewRuntime(1)
	defer rt.Shutdown()
	release, _ := gate(rt)

	tk := Run(rt, func() (int, error) { return 1, nil })
	tk.Cancel()
	tk.mu.Lock()
	body := tk.body
	tk.mu.Unlock()
	if body != nil {
		t.Error("cancelled task still holds its body closure")
	}
	release()
}
