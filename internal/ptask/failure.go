// Failure semantics for the Parallel Task model (§IV-B's asynchronous
// exception story): context-aware tasks whose caller's context bounds
// their lifetime.
//
// The semantics table lives in DESIGN.md §10; the short version:
//
//   - a task body that returns an error or panics settles its future
//     with that error — never crashes a worker;
//   - a RunAfter dependent runs whatever its dependences settled with
//     and can inspect them itself;
//   - RunCtx tasks observe their context: an expired deadline cancels a
//     waiting/queued task outright and is delivered to a running body
//     through the context it receives;
//   - a MultiTask runs every sub-task to settlement and its aggregate
//     error is the first sub-task error in element order.
package ptask

import (
	"context"
	"errors"
	"fmt"
)

// ErrDeadline marks a task cancelled because its RunCtx context's
// deadline expired before the body started.
var ErrDeadline = errors.New("ptask: deadline exceeded")

// RunCtx submits a context-aware task: fn receives ctx and should
// observe its cancellation. A task whose context expires before it
// starts settles with an error wrapping ErrDeadline or ErrCancelled
// without running the body.
func RunCtx[T any](rt *Runtime, ctx context.Context, fn func(context.Context) (T, error)) *Task[T] {
	if ctx == nil {
		ctx = context.Background()
	}
	c := &ctxTask[T]{ctx: ctx, fn: fn}
	c.rt, c.body = rt, c
	// An expiring context cancels a queued task outright; a running one
	// is reached through ctx inside the body. A context that can never
	// expire needs no registration. If the task settled before the
	// registration landed, unregister found no stop to call, so undo it
	// here.
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, c.expire)
		c.mu.Lock()
		settled := c.fut.IsDone()
		if !settled {
			c.stop = stop
		}
		c.mu.Unlock()
		if settled {
			stop()
		}
	}
	c.wireDeps(nil)
	return &c.Task
}

// ctxTask is RunCtx's task: the handle, the context and the function in
// one allocation.
type ctxTask[T any] struct {
	Task[T]
	ctx context.Context
	fn  func(context.Context) (T, error)
	// stop undoes the context's expiry registration; the task calls it
	// once it settles.
	stop func() bool
}

func (c *ctxTask[T]) run() (T, error) { return c.fn(c.ctx) }

// expire settles a task whose context ended before it ran.
func (c *ctxTask[T]) expire() { c.cancelWith(ctxError(c.ctx.Err())) }

// unregister drops the expiry registration of a settled task.
func (c *ctxTask[T]) unregister() {
	c.mu.Lock()
	stop := c.stop
	c.stop = nil
	c.mu.Unlock()
	if stop != nil {
		stop()
	}
}

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
