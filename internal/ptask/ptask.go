// Package ptask reproduces Parallel Task, the PARC lab's task-parallelism
// model for object-oriented desktop and mobile applications (Giacaman &
// Sinnen, IJPP 41(5), 2013; §IV-B of the reproduced paper). The Java
// original extends the language with a TASK keyword; this Go reproduction
// provides the same runtime semantics as a library:
//
//   - tasks are futures executed by a work-stealing pool (Run);
//   - tasks may depend on other tasks and start only when every
//     dependence has completed (RunAfter) — the task-DAG model;
//   - multi-tasks fan one logical task out into one sub-task per element
//     (RunMulti), Parallel Task's "TASK(*)";
//   - completion and interim-result handlers are delivered on the GUI
//     event-dispatch thread (Notify / NotifyEach), the feature that makes
//     the model suitable for interactive applications;
//   - failures inside tasks surface as errors on the future, never as a
//     crashed worker (the asynchronous-exception model);
//   - joins "help": a goroutine waiting on a task executes other queued
//     tasks, so recursive decompositions run on pools of any size.
package ptask

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"parc751/internal/core"
	"parc751/internal/eventloop"
	"parc751/internal/probe"
	"parc751/internal/sched"
)

// ErrCancelled is the error carried by a task cancelled before it ran.
var ErrCancelled = errors.New("ptask: task cancelled")

// Task states.
const (
	stateWaiting int32 = iota // waiting on dependences
	stateQueued               // submitted to the pool, not yet running
	stateRunning
	stateDone
	stateCancelled
)

// Runtime owns the worker pool and (optionally) the GUI event loop used
// for handler delivery. A Runtime must be Shutdown when no longer needed.
type Runtime struct {
	pool *core.Pool
	loop *eventloop.Loop
}

// NewRuntime starts a runtime with the given number of worker threads.
func NewRuntime(workers int) *Runtime {
	return &Runtime{pool: core.NewPool(workers)}
}

// SetEventLoop registers the GUI event loop on which Notify handlers run.
// Without one, handlers run inline on the completing worker.
func (rt *Runtime) SetEventLoop(l *eventloop.Loop) { rt.loop = l }

// Workers returns the pool size.
func (rt *Runtime) Workers() int { return rt.pool.Size() }

// Shutdown drains outstanding work and stops the workers. The runtime is
// dead afterwards: submitting more tasks (Run, RunAfter, RunMulti, ...)
// panics, because no worker would ever execute them.
func (rt *Runtime) Shutdown() { rt.pool.Shutdown() }

// ShutdownTimeout drains like Shutdown but gives up after d, abandoning
// wedged or unstarted tasks (see core.Pool.ShutdownTimeout). It returns
// nil on a clean drain.
func (rt *Runtime) ShutdownTimeout(d time.Duration) error { return rt.pool.ShutdownTimeout(d) }

// SchedStats returns a point-in-time snapshot of the underlying pool's
// scheduler state: per-worker push/pop/steal/park/wake counts, global
// queue activity, and the sampled submit→start latency histogram.
func (rt *Runtime) SchedStats() sched.Snapshot { return rt.pool.Stats() }

// dispatch routes a handler to the event loop when one is registered and
// still accepting events; otherwise the handler runs inline.
func (rt *Runtime) dispatch(fn func()) {
	if rt.loop != nil {
		if err := rt.loop.InvokeLater(fn); err == nil {
			return
		}
	}
	fn()
}

// join blocks until f completes and returns its value and error. Called
// from a worker it helps the pool (core.Pool.HelpJoin), so arbitrary
// recursive joins are safe: the worker parks its own slot on f. Called
// from any other goroutine it parks a pooled core.Parker on f (Get), the
// same register → re-check → wait protocol. No join materialises the
// future's Done channel unless a second waiter finds f's registration
// taken.
func join[T any](rt *Runtime, f *core.Future[T]) (T, error) {
	if !f.IsDone() {
		rt.pool.HelpJoin(f)
	}
	return f.Get()
}

// Dep is the dependence interface: anything whose completion a task can
// wait on. Task[T] (any T) and MultiTask[T] both satisfy it.
type Dep interface {
	// onDone arranges for fn to be called exactly once when the
	// dependence completes; if already complete, fn runs immediately.
	onDone(fn func())
}

// Task is an asynchronous computation producing a T. Create with Run,
// RunAfter, or the context-aware RunCtx (failure.go), or as part of a
// multi-task.
type Task[T any] struct {
	rt    *Runtime
	fut   *core.Future[T]
	state atomic.Int32

	// gen snapshots the pooled future envelope's recycle generation at
	// acquisition; accessors re-check it so a handle whose envelope was
	// Released and recycled panics instead of reading a successor task's
	// result. released makes Release single-shot; it sits next to state
	// so the two share a word.
	released atomic.Bool
	gen      uint64

	// tid is the trace task id, assigned at construction while a
	// recorder is attached (0 otherwise). The scheduler reuses it for
	// the submit/run/complete edges via TraceTaskID, so dependence edges
	// recorded here and scheduler edges name the same DAG node.
	tid uint64

	mu        sync.Mutex
	callbacks []func()
	body      func() (T, error)
	// void is Invoke's body, run in place of body: holding it directly
	// spares a wrapper closure per void task.
	void func() error
	// ctxBody is RunCtx's body, run with ctx in place of body, for the
	// same reason.
	ctxBody func(context.Context) (T, error)
	// waitDeps counts the dependences that have not yet completed.
	waitDeps int32

	// RunCtx's context (failure.go); other constructors leave both nil.
	// stop undoes the context's expiry registration; complete calls it
	// once the task settles.
	ctx  context.Context
	stop func() bool
}

// Run submits fn for asynchronous execution and returns its task handle.
func Run[T any](rt *Runtime, fn func() (T, error)) *Task[T] {
	return RunAfter(rt, nil, fn)
}

// RunAfter submits fn to run only after every dependence in deps has
// completed, whether successfully, with an error, or cancelled: the
// dependent runs regardless and can inspect its dependences if it cares.
// A nil or empty deps behaves like Run.
func RunAfter[T any](rt *Runtime, deps []Dep, fn func() (T, error)) *Task[T] {
	t := newTask[T](rt)
	t.body = fn
	t.wireDeps(deps)
	return t
}

// newTask returns a waiting task on a pooled future envelope; the caller
// sets its body and then wires its dependences.
func newTask[T any](rt *Runtime) *Task[T] {
	fut := futurePoolFor[T]().Get()
	t := &Task[T]{rt: rt, fut: fut, gen: fut.Gen()}
	t.state.Store(stateWaiting)
	return t
}

// wireDeps arms the dependence countdown (or enqueues immediately when
// there are none). Shared by every constructor.
func (t *Task[T]) wireDeps(deps []Dep) {
	if pr := probe.Load(); pr != nil {
		t.tid = probe.NewTaskID(pr)
		// Dependence edges fire at wiring time — before the task can
		// possibly be enqueued — so an edge always precedes its
		// dependent's submit in the trace.
		for _, d := range deps {
			if tagged, ok := d.(probe.Tagged); ok {
				if dep := tagged.TraceTaskID(); dep != 0 {
					pr.Fire(probe.SiteDepend, -1, t.tid, dep)
				}
			}
		}
	}
	if len(deps) == 0 {
		t.enqueue()
		return
	}
	t.mu.Lock()
	t.waitDeps = int32(len(deps))
	t.mu.Unlock()
	done := t.depDone
	for _, d := range deps {
		d.onDone(done)
	}
}

func (t *Task[T]) depDone() {
	t.mu.Lock()
	t.waitDeps--
	ready := t.waitDeps == 0
	t.mu.Unlock()
	if ready {
		t.enqueue()
	}
}

func (t *Task[T]) enqueue() {
	if !t.state.CompareAndSwap(stateWaiting, stateQueued) {
		return // cancelled while waiting on dependences
	}
	// SubmitRunnable, not Submit(t.RunTask): the method-value expression
	// would allocate a closure per task, while the Task pointer enters
	// the Runnable interface allocation-free. This is half of the old
	// 2 allocs/op on the Run→Result path (the other is the handle
	// itself, which is deliberately not pooled — see futurepool.go).
	t.rt.pool.SubmitRunnable(t)
}

// TraceTaskID implements probe.Tagged: it exposes the trace id this
// task was assigned at construction (0 when no recorder was attached),
// letting the scheduler stamp its submit/run/complete edges with it.
func (t *Task[T]) TraceTaskID() uint64 { return t.tid }

// RunTask implements core.Runnable: it is the scheduler's entry into the
// task and must only be called by the pool. A stray external call is a
// harmless no-op — the queued→running CAS admits exactly one execution.
func (t *Task[T]) RunTask() {
	if !t.state.CompareAndSwap(stateQueued, stateRunning) {
		return // cancelled while queued: the closure must not execute
	}
	t.mu.Lock()
	body, void, ctxBody := t.body, t.void, t.ctxBody
	t.body, t.void, t.ctxBody = nil, nil, nil // the task owns at most one execution; release the closure
	t.mu.Unlock()
	var val T
	var err error
	if t.ctx != nil && t.ctx.Err() != nil {
		// The context expired between enqueue and execution; settle
		// without running the body.
		t.complete(stateCancelled, val, ctxError(t.ctx.Err()))
		return
	}
	pr := probe.Load()
	if perr := core.Catch(func() {
		if pr != nil {
			// Inside Catch: an injected panic surfaces as an error on
			// this future, never as a crashed worker.
			pr.Fire(probe.SiteTaskBody, -1, t.tid, 0)
		}
		switch {
		case void != nil:
			err = void()
		case ctxBody != nil:
			val, err = ctxBody(t.ctx)
		default:
			val, err = body()
		}
	}); perr != nil {
		err = perr
	}
	t.complete(stateDone, val, err)
}

func (t *Task[T]) complete(final int32, v T, err error) {
	t.state.Store(final)
	t.fut.Complete(v, err)
	t.mu.Lock()
	cbs, stop := t.callbacks, t.stop
	t.callbacks, t.stop = nil, nil
	t.mu.Unlock()
	if stop != nil {
		stop()
	}
	for _, cb := range cbs {
		cb()
	}
}

// onDone implements Dep.
func (t *Task[T]) onDone(fn func()) {
	t.mu.Lock()
	if t.fut.IsDone() {
		t.mu.Unlock()
		fn()
		return
	}
	t.callbacks = append(t.callbacks, fn)
	t.mu.Unlock()
}

// Cancel attempts to cancel the task before it runs. It returns true when
// the task will never execute (its future completes with ErrCancelled and
// the body closure is released without running); false when the task is
// already running or finished.
func (t *Task[T]) Cancel() bool {
	return t.cancelWith(ErrCancelled)
}

// cancelWith is Cancel carrying a specific settlement error (ErrCancelled
// for user cancels, a ctxError for expired contexts). The CAS against run()'s queued→running transition is
// what guarantees a queued-then-cancelled task's closure never executes.
func (t *Task[T]) cancelWith(err error) bool {
	if t.state.CompareAndSwap(stateWaiting, stateCancelled) ||
		t.state.CompareAndSwap(stateQueued, stateCancelled) {
		t.mu.Lock()
		t.body, t.void, t.ctxBody = nil, nil, nil // never runs; release captured state eagerly
		t.mu.Unlock()
		var zero T
		t.complete(stateCancelled, zero, err)
		return true
	}
	return false
}

// Cancelled reports whether the task was cancelled.
func (t *Task[T]) Cancelled() bool { return t.state.Load() == stateCancelled }

// Done returns a channel closed when the task completes (or is cancelled).
func (t *Task[T]) Done() <-chan struct{} {
	t.fut.CheckGen(t.gen)
	return t.fut.Done()
}

// IsDone reports completion without blocking.
func (t *Task[T]) IsDone() bool {
	t.fut.CheckGen(t.gen)
	return t.fut.IsDone()
}

// Result joins the task: it blocks until completion and returns the value
// and error. Called from inside another task it helps the pool, so
// arbitrary recursive joins are safe (see join).
func (t *Task[T]) Result() (T, error) {
	t.fut.CheckGen(t.gen)
	return join(t.rt, t.fut)
}

// Notify registers a completion handler delivered on the runtime's event
// loop (or inline when none is registered). Registering after completion
// delivers immediately. Multiple handlers are allowed.
func (t *Task[T]) Notify(fn func(T, error)) {
	t.onDone(func() {
		v, err := t.fut.Get()
		t.rt.dispatch(func() { fn(v, err) })
	})
}

// MultiTask is Parallel Task's TASK(*): one logical task expanded into n
// sub-tasks, with per-element interim results and an aggregate join.
type MultiTask[T any] struct {
	rt        *Runtime
	tasks     []*Task[T]
	agg       *core.Future[[]T]
	remaining atomic.Int32

	// tid is the multi-task's own trace node id; the recorder links
	// it to every sub-task with a depend edge so the fan-out is visible
	// as one logical node in the DAG.
	tid uint64

	mu        sync.Mutex
	callbacks []func()
}

// RunMulti launches fn(i) for every i in [0, n) as sub-tasks and returns
// the multi-task handle. n <= 0 yields an immediately-complete empty
// handle (a negative n must not leave remaining below zero, or the
// aggregate future would never complete and Results would hang forever).
// Every sub-task runs to settlement; the aggregate error is the first
// sub-task error in element order.
func RunMulti[T any](rt *Runtime, n int, fn func(i int) (T, error)) *MultiTask[T] {
	m := &MultiTask[T]{rt: rt, agg: core.NewFuture[[]T]()}
	if n <= 0 {
		m.agg.Complete(nil, nil)
		return m
	}
	m.remaining.Store(int32(n))
	m.tasks = make([]*Task[T], n)
	for i := 0; i < n; i++ {
		i := i
		m.tasks[i] = Run(rt, func() (T, error) { return fn(i) })
	}
	if pr := probe.Load(); pr != nil {
		m.tid = probe.NewTaskID(pr)
		for _, tk := range m.tasks {
			if tk.tid != 0 {
				pr.Fire(probe.SiteDepend, -1, m.tid, tk.tid)
			}
		}
	}
	// Wire completions only after every sub-task exists: the last one
	// to settle reads the whole slice.
	done := m.subDone
	for _, tk := range m.tasks {
		tk.onDone(done)
	}
	return m
}

func (m *MultiTask[T]) subDone() {
	if m.remaining.Add(-1) != 0 {
		return
	}
	vals := make([]T, len(m.tasks))
	var aggErr error
	for i, t := range m.tasks {
		v, err := t.fut.Get()
		vals[i] = v
		if aggErr == nil {
			aggErr = err
		}
	}
	m.agg.Complete(vals, aggErr)
	m.mu.Lock()
	cbs := m.callbacks
	m.callbacks = nil
	m.mu.Unlock()
	for _, cb := range cbs {
		cb()
	}
}

// TraceTaskID implements probe.Tagged (see Task.TraceTaskID).
func (m *MultiTask[T]) TraceTaskID() uint64 { return m.tid }

// onDone implements Dep.
func (m *MultiTask[T]) onDone(fn func()) {
	m.mu.Lock()
	if m.agg.IsDone() {
		m.mu.Unlock()
		fn()
		return
	}
	m.callbacks = append(m.callbacks, fn)
	m.mu.Unlock()
}

// Tasks returns the sub-task handles (nil for an empty multi-task).
func (m *MultiTask[T]) Tasks() []*Task[T] { return m.tasks }

// Done returns a channel closed when every sub-task has completed.
func (m *MultiTask[T]) Done() <-chan struct{} { return m.agg.Done() }

// Results joins all sub-tasks and returns their values in element order,
// along with the first error encountered (nil when all succeeded). It
// joins like Task.Result.
func (m *MultiTask[T]) Results() ([]T, error) { return join(m.rt, m.agg) }

// NotifyEach registers an interim-result handler invoked (on the event
// loop, when registered) as each sub-task completes — the mechanism the
// thumbnail and search projects use to display results while computation
// continues.
func (m *MultiTask[T]) NotifyEach(fn func(i int, v T, err error)) {
	for i, t := range m.tasks {
		i, t := i, t
		t.Notify(func(v T, err error) { fn(i, v, err) })
	}
}

// Cancel attempts to cancel every sub-task that has not yet started and
// returns how many were cancelled. Running and finished sub-tasks are
// unaffected; their results remain available. This is the "stop the
// search" button of the interactive projects.
func (m *MultiTask[T]) Cancel() int {
	n := 0
	for _, t := range m.tasks {
		if t.Cancel() {
			n++
		}
	}
	return n
}

// Notify registers an aggregate completion handler on the event loop.
func (m *MultiTask[T]) Notify(fn func([]T, error)) {
	m.onDone(func() {
		v, err := m.agg.Get()
		m.rt.dispatch(func() { fn(v, err) })
	})
}

// Then chains a continuation: it returns a task that runs fn with t's
// value after t completes. If t failed, fn is skipped and the error
// propagates — the monadic composition students reach for when wiring
// task pipelines.
//
//parcvet:ignore unused api Parallel Task continuation
func Then[T, U any](t *Task[T], fn func(T) (U, error)) *Task[U] {
	return RunAfter(t.rt, []Dep{t}, func() (U, error) {
		v, err := t.Result()
		if err != nil {
			var zero U
			return zero, err
		}
		return fn(v)
	})
}

// Invoke is a convenience for void tasks: it runs fn as a Task[struct{}].
func Invoke(rt *Runtime, fn func() error) *Task[struct{}] {
	t := newTask[struct{}](rt)
	t.void = fn
	t.wireDeps(nil)
	return t
}

// WaitAll joins a set of dependences, helping the pool when called from a
// worker (see join). It is the bulk barrier used by fork-join style code.
func WaitAll(rt *Runtime, deps ...Dep) {
	if len(deps) == 0 {
		return
	}
	all := core.NewFuture[struct{}]()
	var remaining atomic.Int32
	remaining.Store(int32(len(deps)))
	for _, d := range deps {
		d.onDone(func() {
			if remaining.Add(-1) == 0 {
				all.Complete(struct{}{}, nil)
			}
		})
	}
	join(rt, all)
}
