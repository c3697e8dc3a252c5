// Failure semantics for the Parallel Task model (§IV-B's asynchronous
// exception story, completed): context-aware tasks with deadlines,
// failure propagation through task DAGs, multi-task failure policies,
// and deterministic retry with capped jittered exponential backoff.
//
// The semantics table lives in DESIGN.md §10; the short version:
//
//   - a task body that returns an error or panics settles its future
//     with that error — never crashes a worker (unchanged);
//   - with the DepCancel policy, a failed or cancelled dependence
//     cancels the dependent immediately with a wrapping *DepError, and
//     that cancellation cascades to its own dependents;
//   - RunCtx tasks observe their context: an expired deadline cancels a
//     waiting/queued task outright and is delivered to a running body
//     through the context it receives;
//   - a MultiTask is FailFast (first failure cancels unstarted siblings),
//     CollectAll (every error joined), or FirstError (legacy default).
package ptask

import (
	"context"
	"errors"
	"fmt"
	"time"

	"parc751/internal/xrand"
)

// ErrDepFailed marks a task cancelled because one of its dependences
// failed or was cancelled under the DepCancel policy. Settled errors wrap
// it: errors.Is(err, ErrDepFailed) identifies DAG-propagated failures and
// errors.Unwrap-ing a *DepError reaches the root cause.
var ErrDepFailed = errors.New("ptask: dependence failed")

// ErrDeadline marks a task cancelled because its deadline (WithDeadline,
// or the RunCtx context's own deadline) expired before it completed.
var ErrDeadline = errors.New("ptask: deadline exceeded")

// DepError carries the dependence failure that cancelled a dependent.
type DepError struct {
	Cause error
}

// Error implements the error interface.
func (e *DepError) Error() string {
	return fmt.Sprintf("ptask: dependence failed: %v", e.Cause)
}

// Unwrap exposes the failed dependence's error for errors.Is/As walks.
func (e *DepError) Unwrap() error { return e.Cause }

// Is makes errors.Is(err, ErrDepFailed) and errors.Is(err, ErrCancelled)
// both true: the task was cancelled, and the reason was a dependence.
func (e *DepError) Is(target error) bool {
	return target == ErrDepFailed || target == ErrCancelled
}

// DepPolicy selects what a task does when a dependence fails or is
// cancelled.
type DepPolicy uint8

const (
	// DepRun is the legacy policy: the dependent runs regardless and may
	// inspect its dependences itself. Run/RunAfter tasks use it.
	DepRun DepPolicy = iota
	// DepCancel propagates failure: the dependent is cancelled with a
	// wrapping *DepError the moment any dependence fails or is
	// cancelled. RunCtx/RunAfterCtx tasks default to it.
	DepCancel
)

// MultiPolicy selects a MultiTask's aggregate failure behaviour.
type MultiPolicy uint8

const (
	// MultiFirstError is the legacy default: every sub-task runs to
	// settlement and the aggregate error is the first (element-order)
	// sub-task error.
	MultiFirstError MultiPolicy = iota
	// MultiFailFast cancels every not-yet-started sibling as soon as one
	// sub-task fails; the aggregate error is the root-cause failure, not
	// the ErrCancelled cascade it triggered.
	MultiFailFast
	// MultiCollectAll runs everything and joins every sub-task error
	// (errors.Join), for callers that need the full failure picture.
	MultiCollectAll
)

// RetryPolicy re-runs a failing task body with capped, jittered
// exponential backoff. Attempt k (0-based) sleeps
// min(Base<<k, Max) * u, with u drawn deterministically in [0.5, 1.0)
// from Seed — same seed, same backoff schedule, so chaos runs replay.
type RetryPolicy struct {
	MaxAttempts int           // total attempts including the first; < 2 disables retry
	Base        time.Duration // first backoff step
	Max         time.Duration // backoff cap (0 = uncapped)
	Seed        uint64        // keys the deterministic jitter stream
}

// Backoff returns the sleep before attempt+1 (0-based). Exported so other
// retry loops (webfetch's request budget) share the same deterministic
// schedule.
func (p RetryPolicy) Backoff(attempt int) time.Duration {
	d := p.Base << uint(attempt)
	if d <= 0 { // shift overflow or zero base
		d = p.Max
	}
	if p.Max > 0 && d > p.Max {
		d = p.Max
	}
	u := 0.5 + 0.5*xrand.New(p.Seed^uint64(attempt)*0x9E3779B97F4A7C15).Float64()
	return time.Duration(float64(d) * u)
}

// retryable reports whether err is worth re-running the body for:
// cancellations, deadline expiries, and DAG propagation are terminal.
func (p RetryPolicy) retryable(err error) bool {
	return !errors.Is(err, ErrCancelled) && !errors.Is(err, ErrDeadline) &&
		!errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// Opt configures a RunCtx/RunAfterCtx task.
type Opt func(*taskOpts)

type taskOpts struct {
	dep      DepPolicy
	deadline time.Duration
	retry    *RetryPolicy
}

// OnDepFailure overrides the dependence-failure policy (RunCtx tasks
// default to DepCancel).
func OnDepFailure(p DepPolicy) Opt { return func(o *taskOpts) { o.dep = p } }

// WithDeadline bounds the task's total lifetime — waiting on dependences,
// queue time, and execution. Past the deadline a not-yet-running task is
// cancelled with an error wrapping ErrDeadline; a running body sees its
// context expire.
func WithDeadline(d time.Duration) Opt { return func(o *taskOpts) { o.deadline = d } }

// WithRetry re-runs the body on retryable errors per the policy.
func WithRetry(p RetryPolicy) Opt { return func(o *taskOpts) { o.retry = &p } }

// RunCtx submits a context-aware task: fn receives a context derived from
// ctx (plus any WithDeadline bound) and should observe its cancellation.
// A task whose context expires before it starts settles with an error
// wrapping ErrDeadline or ErrCancelled without running the body.
func RunCtx[T any](rt *Runtime, ctx context.Context, fn func(context.Context) (T, error), opts ...Opt) *Task[T] {
	return RunAfterCtx(rt, ctx, nil, fn, opts...)
}

// RunAfterCtx is RunCtx with dependences. Unlike legacy RunAfter, the
// default policy is DepCancel: a failed or cancelled dependence cancels
// this task with a wrapping *DepError instead of running it (override
// with OnDepFailure(DepRun)).
func RunAfterCtx[T any](rt *Runtime, ctx context.Context, deps []Dep, fn func(context.Context) (T, error), opts ...Opt) *Task[T] {
	o := taskOpts{dep: DepCancel}
	for _, opt := range opts {
		opt(&o)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	t := newTask[T](rt)
	t.depPolicy, t.ctx, t.retry, t.ctxBody = o.dep, ctx, o.retry, fn
	if o.deadline > 0 {
		t.ctx, t.cancel = context.WithTimeout(ctx, o.deadline)
	}
	// An expiring context cancels a waiting/queued task outright; a
	// running one is reached through ctx inside the body. A context that
	// can never expire needs no registration. If the task settled before
	// the registration landed, complete found no stop to call, so undo it
	// here.
	if t.ctx.Done() != nil {
		stop := context.AfterFunc(t.ctx, t.expire)
		t.mu.Lock()
		settled := t.fut.IsDone()
		if !settled {
			t.stop = stop
		}
		t.mu.Unlock()
		if settled {
			stop()
		}
	}
	t.wireDeps(deps)
	return t
}

// expire settles a task whose context ended before it ran.
func (t *Task[T]) expire() { t.cancelWith(ctxError(t.ctx.Err())) }

// ctxError maps a context error to the package's failure vocabulary.
func ctxError(err error) error {
	// Both identities stay reachable: the package's sentinel for callers
	// matching on failure vocabulary, and the original context error for
	// callers matching on context semantics (DESIGN §10).
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w (%w)", ErrDeadline, err)
	}
	return fmt.Errorf("%w (%w)", ErrCancelled, err)
}

// sleepCtx sleeps for d, abandoning the sleep (returning false) when ctx
// expires first. A nil ctx always sleeps fully.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if ctx == nil {
		time.Sleep(d)
		return true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}
