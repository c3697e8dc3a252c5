// Package ptask reproduces Parallel Task, the PARC lab's task-parallelism
// model for object-oriented desktop and mobile applications (Giacaman &
// Sinnen, IJPP 41(5), 2013; §IV-B of the reproduced paper). The Java
// original extends the language with a TASK keyword; this Go reproduction
// provides the same runtime semantics as a library:
//
//   - tasks are futures executed by a work-stealing pool (Run, or
//     RunWith for a task that takes its input as an argument);
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
//
// A TASK method called with its arguments maps to RunWith. The argument
// is stored in the task, so with a function that captures nothing the
// spawn is a single allocation:
//
//	t := ptask.RunWith(rt, span{lo, hi}, countPrimes)
//	n, err := t.Result()
package ptask

import (
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
// RunWith, RunAfter, Invoke, or the context-aware RunCtx (failure.go), or
// as part of a multi-task. Every constructor makes exactly one heap
// object: the handle holds its future by value, and RunWith and RunCtx
// embed the handle in the struct that carries their body.
type Task[T any] struct {
	rt    *Runtime
	state atomic.Int32
	// waitDeps counts the dependences that have not yet completed.
	waitDeps int32

	// tid is the trace task id, assigned at construction while a
	// recorder is attached (0 otherwise). The scheduler reuses it for
	// the submit/run/complete edges via TraceTaskID, so dependence edges
	// recorded here and scheduler edges name the same DAG node.
	tid uint64

	mu        sync.Mutex
	callbacks []func()
	// body is the computation, run at most once and dropped when the
	// task settles. The queued→running and →cancelled state CASes admit
	// exactly one settler, which alone reads and clears it.
	body body[T]
	// multi is the multi-task this is a sub-task of (nil otherwise);
	// the task reports its settlement to it directly.
	multi *MultiTask[T]

	fut core.Future[T]
}

// body is a task's computation: a function together with whatever it was
// spawned with. Run's closure, Invoke's void closure, and the RunWith and
// RunCtx structs that embed their Task all implement it, so the runtime
// has one path from submission to settlement.
type body[T any] interface {
	run() (T, error)
}

// fnBody is Run's and RunAfter's body: a closure over its arguments.
type fnBody[T any] func() (T, error)

func (f fnBody[T]) run() (T, error) { return f() }

// voidBody is Invoke's body. Holding the void closure directly spares a
// wrapper closure per void task.
type voidBody func() error

func (f voidBody) run() (struct{}, error) { return struct{}{}, f() }

// withTask is RunWith's task: the handle, the argument and the function
// in one allocation, the way a TASK method call carries its arguments.
// The argument stays reachable while the handle is.
type withTask[A, T any] struct {
	Task[T]
	arg A
	fn  func(A) (T, error)
}

func (w *withTask[A, T]) run() (T, error) { return w.fn(w.arg) }

// Run submits fn for asynchronous execution and returns its task handle.
func Run[T any](rt *Runtime, fn func() (T, error)) *Task[T] {
	return RunAfter(rt, nil, fn)
}

// RunWith submits fn(arg) for asynchronous execution and returns its task
// handle. It is Run for a function that takes its input as an argument
// rather than capturing it: the argument is stored in the task itself, so
// with a non-capturing fn the spawn allocates only the task.
func RunWith[A, T any](rt *Runtime, arg A, fn func(A) (T, error)) *Task[T] {
	t := with(rt, arg, fn)
	t.wireDeps(nil)
	return t
}

// with returns RunWith's task, waiting, without wiring it.
func with[A, T any](rt *Runtime, arg A, fn func(A) (T, error)) *Task[T] {
	w := &withTask[A, T]{arg: arg, fn: fn}
	w.rt, w.body = rt, w
	return &w.Task
}

// RunAfter submits fn to run only after every dependence in deps has
// completed, whether successfully, with an error, or cancelled: the
// dependent runs regardless and can inspect its dependences if it cares.
// A nil or empty deps behaves like Run.
func RunAfter[T any](rt *Runtime, deps []Dep, fn func() (T, error)) *Task[T] {
	t := &Task[T]{rt: rt, body: fnBody[T](fn)}
	t.wireDeps(deps)
	return t
}

// wireDeps arms the dependence countdown (or enqueues immediately when
// there are none). Shared by every constructor; a new task is in
// stateWaiting, the zero state.
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
	// the Runnable interface allocation-free.
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
		return // cancelled while queued: the body must not execute
	}
	b := t.body
	t.body = nil // the task owns at most one execution; release the closure
	var val T
	var err error
	if c, ok := b.(*ctxTask[T]); ok && c.ctx.Err() != nil {
		// The context expired between enqueue and execution; settle
		// without running the body.
		t.complete(b, stateCancelled, val, ctxError(c.ctx.Err()))
		return
	}
	pr := probe.Load()
	if perr := core.Catch(func() {
		if pr != nil {
			// Inside Catch: an injected panic surfaces as an error on
			// this future, never as a crashed worker.
			pr.Fire(probe.SiteTaskBody, -1, t.tid, 0)
		}
		val, err = b.run()
	}); perr != nil {
		err = perr
	}
	t.complete(b, stateDone, val, err)
}

// complete settles the task whose body was b and notifies everything
// waiting on it.
func (t *Task[T]) complete(b body[T], final int32, v T, err error) {
	t.state.Store(final)
	t.fut.Complete(v, err)
	if c, ok := b.(*ctxTask[T]); ok {
		c.unregister()
	}
	if t.multi != nil {
		t.multi.subDone()
	}
	t.mu.Lock()
	cbs := t.callbacks
	t.callbacks = nil
	t.mu.Unlock()
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
// for user cancels, a ctxError for expired contexts). The CAS against
// RunTask's queued→running transition is what guarantees a
// queued-then-cancelled task's body never executes.
func (t *Task[T]) cancelWith(err error) bool {
	if t.state.CompareAndSwap(stateWaiting, stateCancelled) ||
		t.state.CompareAndSwap(stateQueued, stateCancelled) {
		b := t.body
		t.body = nil // never runs; release captured state eagerly
		var zero T
		t.complete(b, stateCancelled, zero, err)
		return true
	}
	return false
}

// Cancelled reports whether the task was cancelled.
func (t *Task[T]) Cancelled() bool { return t.state.Load() == stateCancelled }

// Done returns a channel closed when the task completes (or is cancelled).
func (t *Task[T]) Done() <-chan struct{} { return t.fut.Done() }

// IsDone reports completion without blocking.
func (t *Task[T]) IsDone() bool { return t.fut.IsDone() }

// Result joins the task: it blocks until completion and returns the value
// and error. Called from inside another task it helps the pool, so
// arbitrary recursive joins are safe (see join).
func (t *Task[T]) Result() (T, error) { return join(t.rt, &t.fut) }

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
	rt    *Runtime
	tasks []*Task[T]
	// remaining counts unsettled sub-tasks, plus one that RunMulti holds
	// until every sub-task exists: the last to settle reads them all.
	remaining atomic.Int32

	// tid is the multi-task's own trace node id; the recorder links
	// it to every sub-task with a depend edge so the fan-out is visible
	// as one logical node in the DAG.
	tid uint64

	mu        sync.Mutex
	callbacks []func()

	agg core.Future[[]T]
}

// RunMulti launches fn(i) for every i in [0, n) as sub-tasks and returns
// the multi-task handle. Each sub-task is a RunWith task whose argument
// is its index. n <= 0 yields an immediately-complete empty handle (a
// negative n must not leave remaining below zero, or the aggregate
// future would never complete and Results would hang forever). Every
// sub-task runs to settlement; the aggregate error is the first sub-task
// error in element order.
func RunMulti[T any](rt *Runtime, n int, fn func(i int) (T, error)) *MultiTask[T] {
	m := &MultiTask[T]{rt: rt}
	if n <= 0 {
		m.agg.Complete(nil, nil)
		return m
	}
	m.remaining.Store(int32(n) + 1)
	m.tasks = make([]*Task[T], n)
	for i := range m.tasks {
		t := with(rt, i, fn)
		t.multi = m
		m.tasks[i] = t
		t.wireDeps(nil)
	}
	if pr := probe.Load(); pr != nil {
		m.tid = probe.NewTaskID(pr)
		for _, tk := range m.tasks {
			if tk.tid != 0 {
				pr.Fire(probe.SiteDepend, -1, m.tid, tk.tid)
			}
		}
	}
	m.subDone() // every sub-task exists: drop RunMulti's count
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
func (m *MultiTask[T]) Results() ([]T, error) { return join(m.rt, &m.agg) }

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
	t := &Task[struct{}]{rt: rt, body: voidBody(fn)}
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
