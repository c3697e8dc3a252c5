// Package core provides the shared parallel-runtime primitives that both
// reproduced programming models — Parallel Task (internal/ptask) and
// Pyjama (internal/pyjama) — are built on: a work-stealing worker pool
// with blocking-free joins ("helping"), futures with panic capture,
// a cyclic barrier, and iteration-range splitting.
//
// Keeping these in one substrate mirrors the PARC lab's architecture,
// where both tools share a runtime library beneath their language fronts.
package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"parc751/internal/metrics"
	"parc751/internal/probe"
	"parc751/internal/sched"
)

// PanicError wraps a recovered panic value with the stack at the point of
// recovery, so a task failure surfaces as an ordinary error on the future
// instead of killing a worker (the Parallel Task "asynchronous exception"
// model).
type PanicError struct {
	Value any
	Stack string
}

// Error implements the error interface.
func (e *PanicError) Error() string { return fmt.Sprintf("task panicked: %v", e.Value) }

// Unwrap exposes the panic value when it is itself an error, so callers
// can errors.Is/As through a captured panic (e.g. to an injected fault or
// a sentinel the panicking code chose deliberately).
//
//parcvet:ignore unused api errors.Is/As call it through interface{ Unwrap() error }, which package errors declares inside a function
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Catch runs fn, converting a panic into a *PanicError.
func Catch(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 8192)
			n := runtime.Stack(buf, false)
			err = &PanicError{Value: r, Stack: string(buf[:n])}
		}
	}()
	fn()
	return nil
}

// catchRunnable is Catch for a Runnable. The expression r.RunTask would
// materialise a method-value closure (one heap allocation per task), so
// the Runnable submission path gets its own capture body.
func catchRunnable(r Runnable) (err error) {
	defer func() {
		if v := recover(); v != nil {
			buf := make([]byte, 8192)
			n := runtime.Stack(buf, false)
			err = &PanicError{Value: v, Stack: string(buf[:n])}
		}
	}()
	r.RunTask()
	return nil
}

// latencySampleMask samples one in (mask+1) submissions into the
// submit→start latency histogram, keeping the probe cost off the common
// submit path.
const latencySampleMask = 63

// Runnable is the closure-free submission interface. A layer that
// already owns a long-lived object per task (ptask's Task handle) can
// implement RunTask on that object and pass it to SubmitRunnable: the
// hot path then carries two interface words through the queues instead
// of materialising a method-value closure per submission, which is a
// heap allocation the escape analyser can never elide.
type Runnable interface{ RunTask() }

// task is the pool's internal task envelope: the submitted function (or
// Runnable — exactly one of fn/r is set) plus the submit timestamp for
// the sampled latency probe (zero when this submission was not
// sampled). Envelopes are recycled through taskPool and passed by
// pointer through the deques and the global queue, so a steady-state
// Submit→run cycle performs no allocation — the envelope, the queue
// slot, and the wake are all reused storage. The old design
// heap-allocated a closure per sampled task and boxed every queue push.
type task struct {
	fn func()
	r  Runnable
	t0 time.Time
	// tid is the task's DAG node id, set only while a node-naming probe
	// is attached (0 otherwise — envelopes are always recycled with it
	// cleared, so a stale id can never leak across recordings).
	tid uint64
}

// taskPool recycles task envelopes across all pools. An envelope is
// private to the runtime from Submit until runTask strips it (before the
// user function runs), so recycling is invisible to callers.
var taskPool = sync.Pool{New: func() any { return new(task) }}

// Pool is a work-stealing worker pool: each worker owns a lock-free
// Chase–Lev deque (LIFO for its own spawns, FIFO for thieves) and falls
// back to a global FIFO for external submissions, matching the Parallel
// Task runtime's design. Submissions wake at most one parked worker
// (targeted wakeup); idle workers park on per-worker slots instead of
// polling.
//
// Lifecycle: NewPool starts the workers; Submit/Quiesce may be used
// from any goroutine while the pool is live; Shutdown drains all
// submitted work and stops the workers. After Shutdown the pool is dead:
// Submit panics (a silent submit would strand the task forever, since no
// worker will ever run it). Shutdown is idempotent — later calls are
// no-ops. ShutdownTimeout bounds the drain and abandons stragglers with
// an error instead of hanging forever.
type Pool struct {
	workers []*worker
	global  sched.FIFO[*task]
	victims *sched.RandomVictims

	queued        atomic.Int64 // advisory: enqueued but not yet taken
	inflight      atomic.Int64 // queued + running
	executed      atomic.Int64
	globalSubmits atomic.Int64
	down          atomic.Bool

	// Parking: idle is a hint list of park slots that have registered for
	// a wakeup. Ownership of a wake is decided by the slot's CAS state
	// machine, not by list membership — a parker that finds work retracts
	// with one CAS and simply leaves its stale entry behind for wakers to
	// skip (see parkSlot). nidle mirrors len(idle) so the submit fast
	// path can skip the mutex when nobody is (even possibly) parked.
	idleMu sync.Mutex
	idle   []*parkSlot
	nidle  atomic.Int32

	// Quiesce waiters park on qcond; runTask only broadcasts when
	// qwaiters says someone is listening.
	qmu      sync.Mutex
	qcond    *sync.Cond
	qwaiters atomic.Int32

	stop chan struct{}
	wg   sync.WaitGroup
	reg  workerRegistry

	latN atomic.Int64
	lat  metrics.LatencyHistogram

	// gaveUp is set by a ShutdownTimeout that expired before the pool
	// drained. Stats then reports Abandoned as the live inflight count —
	// tasks still queued or running that nothing will wait for — rather
	// than a value captured at the timeout instant, which a Submit racing
	// the shutdown could make stale (see the re-check in Submit).
	gaveUp atomic.Bool
}

// parkSlot states. A slot cycles free → parked (owner registers) →
// either free again (owner cancels: one CAS) or claimed (a waker wins
// the CAS and sends exactly one token). The CAS is the single point of
// arbitration: a wake token is sent if and only if the claim CAS
// succeeded, so a token can be neither lost (the claimer always sends)
// nor duplicated (at most one claimer per park cycle).
const (
	slotFree    int32 = iota // not registered for a wakeup
	slotParked               // registered; owner is parking or parked
	slotClaimed              // a waker owns this cycle; token in flight
)

// parkSlot is one parking place: a CAS-arbitrated state word, a one-slot
// wake channel, and the worker that owns it (nil for a Parker or a
// barrier party; only worker slots enter the pool's idle list). Every
// blocking wait in core parks on one: idle and joining workers, barrier
// parties, and Parker owners. A slot has a single owner, the only
// goroutine that registers, retracts or waits on it.
//
// Invariant: ch is empty whenever state is slotFree — the owner drains
// the in-flight token (park's receive, or cancelPark's) before the slot
// can be re-registered. Combined with the claim CAS this bounds the
// channel to at most one token, so the claimer's send never blocks.
type parkSlot struct {
	state atomic.Int32
	ch    chan struct{}
	w     *worker
}

// wake claims the slot's current park cycle and sends its token. It
// sends nothing when the slot is not parked or another waker already
// owns the cycle.
func (s *parkSlot) wake() {
	if s.state.CompareAndSwap(slotParked, slotClaimed) {
		// Never blocks: ch is empty whenever the slot is claimable (see
		// the parkSlot invariant), and the claim CAS admitted exactly
		// one sender.
		s.ch <- struct{}{}
	}
}

// retract withdraws the owner's registration. It reports true when a
// waker had already claimed the cycle; that waker's token is absorbed
// (it is guaranteed to arrive), so the slot is free and empty either way.
func (s *parkSlot) retract() (claimed bool) {
	if s.state.CompareAndSwap(slotParked, slotFree) {
		return false
	}
	<-s.ch
	s.state.Store(slotFree)
	return true
}

// wait blocks the owner until a waker claims the registered cycle.
func (s *parkSlot) wait() {
	<-s.ch
	s.state.Store(slotFree)
}

// Parker is a park slot for goroutines a Pool does not own: the same
// CAS-arbitrated free → parked → claimed word and one-token channel the
// pool's workers park on, for runtimes that keep long-lived goroutines of
// their own (Pyjama's persistent teams). The owner parks with ParkUntil;
// any goroutine may Wake it after making the owner's condition true.
type Parker struct{ s parkSlot }

// NewParker returns a free park slot.
func NewParker() *Parker { return &Parker{s: parkSlot{ch: make(chan struct{}, 1)}} }

// parkerYields is how many Gosched rounds ParkUntil tries before parking:
// a handoff that is about to happen is usually caught without the
// channel round trip.
const parkerYields = 4

// ParkUntil blocks the owner until cond holds. It registers, re-checks
// cond, and only then waits, so a Wake issued after cond became true is
// never lost; a Wake that finds the slot unregistered sends nothing, and
// a stale one only costs a re-check. cond must not block.
func (p *Parker) ParkUntil(cond func() bool) {
	for i := 0; i < parkerYields && !cond(); i++ {
		runtime.Gosched()
	}
	for !cond() {
		p.s.state.Store(slotParked)
		if cond() {
			p.s.retract()
			return
		}
		p.s.wait()
	}
}

// Wake wakes the owner if it is registered.
func (p *Parker) Wake() { p.s.wake() }

type worker struct {
	id    int
	deque *sched.Deque[task]
	pool  *Pool
	slot  *parkSlot
	parks atomic.Int64
	wakes atomic.Int64
}

// workerRegistry maps a goroutine to the pool worker running on it, so
// Submit can push onto the caller's own deque and a join can help. The
// key is GoroutineKey: the goroutine's g address where a getg stub
// exists (workerid_getg.go), its parsed id elsewhere
// (workerid_fallback.go). Workers are never pinned to OS threads. A
// lookup is an atomic load of a copy-on-write map plus one map access;
// the map is only rewritten when workers start or stop, and an empty
// registry answers nil without computing the key.
type workerRegistry struct {
	mu    sync.Mutex
	byKey atomic.Pointer[map[uint64]*worker]
}

// bind registers the calling goroutine as w and returns its unbind
// function. Must be called from w's goroutine before it runs any task,
// and unbind before that goroutine exits: once it has exited, the
// runtime may hand its key to a new goroutine.
func (r *workerRegistry) bind(w *worker) (unbind func()) {
	key := GoroutineKey()
	r.set(key, w)
	return func() { r.set(key, nil) }
}

func (r *workerRegistry) set(key uint64, w *worker) {
	r.mu.Lock()
	defer r.mu.Unlock()
	next := make(map[uint64]*worker)
	if old := r.byKey.Load(); old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	if w == nil {
		delete(next, key)
	} else {
		next[key] = w
	}
	r.byKey.Store(&next)
}

// current returns the worker bound to the calling goroutine, or nil for
// any other goroutine.
func (r *workerRegistry) current() *worker {
	m := r.byKey.Load()
	if m == nil || len(*m) == 0 {
		return nil
	}
	return (*m)[GoroutineKey()]
}

// NewPool starts a pool with n workers (n < 1 is treated as 1).
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{
		workers: make([]*worker, n),
		victims: sched.NewRandomVictims(n, 0x5157),
		stop:    make(chan struct{}),
	}
	p.qcond = sync.NewCond(&p.qmu)
	for i := range p.workers {
		w := &worker{id: i, deque: sched.NewDeque[task](64), pool: p}
		w.slot = &parkSlot{ch: make(chan struct{}, 1), w: w}
		p.workers[i] = w
	}
	p.wg.Add(n)
	for _, w := range p.workers {
		go w.run()
	}
	return p
}

// Size returns the number of workers.
func (p *Pool) Size() int { return len(p.workers) }

// Executed returns the number of tasks that have finished running.
func (p *Pool) Executed() int64 { return p.executed.Load() }

// Submit schedules fn. Called from a worker goroutine, the task goes on
// that worker's own deque (depth-first, cache-friendly); called from
// outside, it goes on the global queue. At most one parked worker is
// woken. Submit panics if the pool has been Shutdown.
//
// Steady-state Submit is allocation-free: the envelope comes from
// taskPool, the deque stores it by pointer, and the latency probe is a
// timestamp in the envelope rather than a wrapper closure.
func (p *Pool) Submit(fn func()) { p.submit(fn, nil) }

// SubmitRunnable schedules r.RunTask with the same semantics as Submit
// but without the caller having to form a closure: passing a pointer
// into the Runnable interface is allocation-free, so a layer that owns
// a per-task object (ptask) submits at zero additional allocations.
func (p *Pool) SubmitRunnable(r Runnable) { p.submit(nil, r) }

func (p *Pool) submit(fn func(), r Runnable) {
	if p.down.Load() {
		panic("core: Submit on a Pool after Shutdown (task would never run)")
	}
	p.inflight.Add(1)
	// queued is incremented before the task is visible in any queue and
	// decremented only after a successful take, so it never goes
	// negative; it may transiently over-count (a stale positive only
	// costs a spurious wakeup, never a missed one).
	p.queued.Add(1)
	// Re-check down after the counters: a concurrent ShutdownTimeout that
	// set down and then read inflight either saw this increment (the task
	// is counted in Abandoned) or set down before it — in which case this
	// load observes down, the counters are rolled back, and the task is
	// never enqueued. Without the re-check a racing submit could strand a
	// task in the queue that no leftover count ever accounts for.
	if p.down.Load() {
		p.queued.Add(-1)
		p.inflight.Add(-1)
		panic("core: Submit on a Pool after Shutdown (task would never run)")
	}
	t := taskPool.Get().(*task)
	t.fn = fn
	t.r = r
	w := p.reg.current()
	if pr := probe.Load(); pr != nil {
		// Reuse a pre-assigned id (ptask tags its handles) so the submit
		// edge and the task layer's dependence edges name the same node.
		var tid uint64
		if tagged, ok := r.(probe.Tagged); ok {
			tid = tagged.TraceTaskID()
		}
		if tid == 0 {
			tid = probe.NewTaskID(pr)
		}
		t.tid = tid
		pr.Fire(probe.SiteSubmit, workerID(w), tid, 0)
	}
	if p.latN.Add(1)&latencySampleMask == 0 {
		t.t0 = time.Now()
	}
	if w != nil {
		w.deque.PushBottom(t)
	} else {
		p.globalSubmits.Add(1)
		p.global.Push(t)
	}
	p.wakeOne()
}

// workerID is w's trace identity: its pool index, or -1 for an external
// goroutine.
func workerID(w *worker) int {
	if w == nil {
		return -1
	}
	return w.id
}

// wakeOne claims one parked slot and sends it a wake token. The nidle
// fast path means a submit into a busy pool never touches the idle
// mutex. Entries whose claim CAS fails are retractions the owner already
// cancelled (or re-registrations already claimed through a newer entry);
// they are discarded and the scan continues, so a wake is only consumed
// by a slot that is genuinely parked.
func (p *Pool) wakeOne() {
	if p.nidle.Load() == 0 {
		return
	}
	for {
		p.idleMu.Lock()
		n := len(p.idle)
		if n == 0 {
			p.idleMu.Unlock()
			return
		}
		s := p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
		p.nidle.Store(int32(n - 1))
		p.idleMu.Unlock()
		if s.state.CompareAndSwap(slotParked, slotClaimed) {
			s.w.wakes.Add(1)
			// Recorded by the waker, only after the claim CAS won —
			// mirroring the steal rule: no wake edge for a lost race.
			if pr := probe.Load(); pr != nil {
				pr.Fire(probe.SiteWake, s.w.id, 0, 0)
			}
			// Never blocks: ch is empty whenever the slot is claimable
			// (see the parkSlot invariant), and this cycle's claim CAS
			// admitted exactly one sender.
			s.ch <- struct{}{}
			return
		}
	}
}

// pushIdle registers worker slot s for a wakeup: mark it parked, then
// publish it on the hint list. The order matters — a waker that pops the
// entry must be able to win the claim CAS, so the parked state has to be
// visible first.
func (p *Pool) pushIdle(s *parkSlot) {
	s.state.Store(slotParked)
	p.idleMu.Lock()
	p.idle = append(p.idle, s)
	p.nidle.Store(int32(len(p.idle)))
	p.idleMu.Unlock()
}

// cancelPark retracts a registration made by pushIdle when the worker
// found work (or is leaving) on its own. One CAS decides the race: if it
// wins, the stale hint-list entry is left for wakeOne to skip; if a
// waker already claimed the slot, its token is absorbed — it is
// guaranteed to arrive — and, since that waker believed its task was now
// covered, the wake is passed on while work remains queued.
func (p *Pool) cancelPark(s *parkSlot) {
	if s.retract() && p.queued.Load() > 0 {
		p.wakeOne()
	}
}

func (w *worker) run() {
	p := w.pool
	unbind := p.reg.bind(w)
	defer func() {
		unbind()
		p.wg.Done()
	}()
	for {
		t, ok := p.findWork(w)
		if !ok {
			if p.park(w) {
				return
			}
			continue
		}
		p.runTask(w, t)
	}
}

// park blocks w until a submitter wakes it or the pool stops; it returns
// true when the worker should exit. The register-then-recheck order
// closes the missed-wakeup window: a submitter enqueues before checking
// for idlers, so either it sees this worker's registration, or the
// recheck here sees its task. The recheck must be findWorkFull — a
// random steal round can miss the one deque that holds the task, and a
// worker that parks after consuming the submitter's only wake token has
// lost it for good (the regression test TestNoLostWakeup hangs on
// exactly that with a random recheck).
func (p *Pool) park(w *worker) (exit bool) {
	s := w.slot
	p.pushIdle(s)
	if t, ok := p.findWorkFull(w); ok {
		p.cancelPark(s)
		p.runTask(w, t)
		return false
	}
	w.parks.Add(1)
	if pr := probe.Load(); pr != nil {
		pr.Fire(probe.SitePark, w.id, 0, 0)
	}
	select {
	case <-s.ch:
		s.state.Store(slotFree)
		return false
	case <-p.stop:
		p.cancelPark(s)
		return true
	}
}

// findWork implements the acquisition order: own deque, global queue, then
// one steal round over random victims. A successful steal is a batch
// steal (sched.StealInto): the first stolen task is returned for
// immediate execution and up to half the victim's remaining load lands in
// this worker's own deque, where siblings can re-steal it — one round
// trip rebalances a whole backlog instead of one task.
func (p *Pool) findWork(w *worker) (*task, bool) {
	if t, ok := w.deque.PopBottom(); ok {
		p.queued.Add(-1)
		return t, true
	}
	if t, ok := p.global.Pop(); ok {
		p.queued.Add(-1)
		return t, true
	}
	for i := 1; i < len(p.workers); i++ {
		v := p.victims.Next(w.id)
		if t, ok := p.steal(w, p.workers[v]); ok {
			return t, true
		}
	}
	return nil, false
}

// findWorkFull is findWork followed by a deterministic sweep over every
// worker's deque. The random round in findWork gives good contention
// behaviour but only probabilistic coverage; the sweep gives certainty,
// which the parking protocol needs: a worker may only go (or stay)
// parked after proving that no queue anywhere holds work.
func (p *Pool) findWorkFull(w *worker) (*task, bool) {
	if t, ok := p.findWork(w); ok {
		return t, true
	}
	for v := range p.workers {
		if v == w.id {
			continue
		}
		if t, ok := p.steal(w, p.workers[v]); ok {
			return t, true
		}
	}
	return nil, false
}

// steal takes work from victim on behalf of w. When a batch landed in w's
// deque, one sibling is woken to share it.
func (p *Pool) steal(w *worker, victim *worker) (*task, bool) {
	t, ok := victim.deque.StealInto(w.deque)
	if !ok {
		return nil, false
	}
	p.queued.Add(-1)
	// The steal event fires only here, after StealInto's CAS claim
	// landed: a lost race returns above and must never log a steal that
	// did not happen (TestStealTraceConservation pins logged == performed
	// against the deque's own steal counters).
	if pr := probe.Load(); pr != nil {
		pr.Fire(probe.SiteSteal, w.id, t.tid, uint64(victim.id))
	}
	// findWork only steals after w's own deque came up empty, so a
	// non-empty deque here means StealInto moved a batch.
	if w.deque.Len() > 0 {
		p.wakeOne()
	}
	return t, true
}

// runTask strips the envelope (recording the sampled latency probe),
// recycles it, and runs the task function under panic capture on worker
// w.
func (p *Pool) runTask(w *worker, t *task) {
	if !t.t0.IsZero() {
		p.lat.Observe(time.Since(t.t0))
	}
	fn := t.fn
	r := t.r
	tid := t.tid
	t.fn = nil
	t.r = nil
	t.t0 = time.Time{}
	t.tid = 0
	taskPool.Put(t)
	pr := probe.Load()
	if pr != nil {
		// A chaos Stall here wedges this worker before it executes the
		// task, modelling a stalled core: siblings must steal its queue.
		pr.Fire(probe.SiteRun, w.id, tid, 0)
	}
	// Panics are contained per-task; the task wrapper (e.g. a ptask
	// future) is responsible for recording them. A bare Submit that
	// panics must still not kill the worker.
	if r != nil {
		_ = catchRunnable(r)
	} else {
		_ = Catch(fn)
	}
	if pr != nil {
		// Same probe as the run event: a probe swapped mid-task must not
		// see a complete without its run.
		pr.Fire(probe.SiteComplete, w.id, tid, 0)
	}
	p.executed.Add(1)
	if p.inflight.Add(-1) == 0 && p.qwaiters.Load() > 0 {
		p.qmu.Lock()
		p.qcond.Broadcast()
		p.qmu.Unlock()
	}
}

// Joinable is a completion a helper can park on without a channel.
// *Future[T] implements it for every T; the unexported methods keep
// other implementations out.
type Joinable interface {
	IsDone() bool
	Done() <-chan struct{}
	watch(s *parkSlot) bool
	unwatch(s *parkSlot)
}

// HelpJoin runs queued tasks on the calling worker until j completes.
// This is how joins avoid deadlock: a worker waiting on a future keeps
// executing other tasks instead of blocking, so recursive decompositions
// complete on pools of any size. With no work available the helper
// registers its worker's park slot on j, and j's completion wakes that
// slot with the same claim CAS a submitter uses, so the join allocates
// nothing; if another helper already holds j's registration, this one
// falls back to j's Done channel. Called from a goroutine that is not one
// of p's workers, HelpJoin returns false at once and leaves the caller to
// block its own way; the one identity lookup serves as both the
// on-worker test and the helper's identity.
func (p *Pool) HelpJoin(j Joinable) (helped bool) {
	w := p.reg.current()
	if w == nil {
		return false
	}
	p.help(w, j)
	return true
}

// help is HelpJoin on behalf of worker w.
func (p *Pool) help(w *worker, j Joinable) {
	// A worker inside a join is not parked in its run loop, so its own
	// slot is free to reuse (and nested joins never have two live
	// registrations: the outer one is consumed before the task that
	// contains the inner join runs).
	s := w.slot
	defer j.unwatch(s)
	// done is j's Done channel once another helper holds j's
	// registration; nil (never ready) while this helper holds it.
	var done <-chan struct{}
	for {
		if j.IsDone() {
			return
		}
		if t, ok := p.findWork(w); ok {
			p.runTask(w, t)
			continue
		}
		// Register on the idle list, then on j: the parked state is
		// visible before j can see the slot, so a completion that takes
		// the registration also claims the cycle (or finds it claimed).
		p.pushIdle(s)
		if done == nil && !j.watch(s) {
			done = j.Done()
		}
		if t, ok := p.findWorkFull(w); ok {
			p.cancelPark(s)
			p.runTask(w, t)
			continue
		}
		// The re-check that pairs with Future.Complete: the completer
		// publishes before it reads the registration, this helper
		// registered before it reads the state, so one of them sees
		// the other.
		if j.IsDone() {
			p.cancelPark(s)
			return
		}
		w.parks.Add(1)
		select {
		case <-done:
			p.cancelPark(s)
			return
		case <-s.ch:
			s.state.Store(slotFree)
			// The token may have been a submitter's. If the join is
			// over as well, pass the wake on so the task that
			// triggered it is not stranded.
			if j.IsDone() {
				if p.queued.Load() > 0 {
					p.wakeOne()
				}
				return
			}
		}
	}
}

// Quiesce blocks until no tasks are queued or running. It must not be
// called from a worker. The wait is event-driven: the last finishing
// task signals waiters instead of waiters polling a timer.
func (p *Pool) Quiesce() {
	if p.inflight.Load() == 0 {
		return
	}
	p.qwaiters.Add(1)
	defer p.qwaiters.Add(-1)
	p.qmu.Lock()
	for p.inflight.Load() != 0 {
		p.qcond.Wait()
	}
	p.qmu.Unlock()
}

// Shutdown waits for all submitted work to finish, then stops the workers.
// The pool must not be used afterwards: a later Submit panics. Shutdown is
// idempotent: a second (or concurrent) call is a no-op that returns
// without waiting for the first caller's drain.
func (p *Pool) Shutdown() {
	if p.down.Load() {
		return
	}
	p.Quiesce()
	if p.down.CompareAndSwap(false, true) {
		close(p.stop) // exactly one caller closes
		p.wg.Wait()
	}
}

// ErrShutdownTimeout is returned (wrapped) by ShutdownTimeout when the
// pool failed to drain in time and stragglers were abandoned.
var ErrShutdownTimeout = errors.New("core: shutdown timed out")

// ShutdownTimeout is Shutdown with a bounded drain: it waits up to d for
// in-flight work to finish. On success it behaves exactly like Shutdown
// and returns nil. On timeout it stops the pool anyway — idle workers
// exit, queued tasks are abandoned unrun, and workers wedged inside a
// task are left behind rather than waited for — and returns an error
// wrapping ErrShutdownTimeout with the straggler count (also visible as
// Stats().Abandoned). Either way the pool is dead afterwards; a later
// Submit panics and a later Shutdown is a no-op.
func (p *Pool) ShutdownTimeout(d time.Duration) error {
	if p.down.Load() {
		return nil
	}
	drained := p.quiesceTimeout(d)
	if p.down.CompareAndSwap(false, true) {
		close(p.stop)
	}
	if drained {
		p.wg.Wait()
		return nil
	}
	p.gaveUp.Store(true)
	// down is set before this load, and Submit re-checks down after its
	// inflight increment, so every task that will ever be enqueued is
	// visible here; a racing submit that rolls back can only make this
	// instant's count high, never lose a task.
	n := p.inflight.Load()
	return fmt.Errorf("%w: abandoned %d task(s) still queued or running after %v",
		ErrShutdownTimeout, n, d)
}

// quiesceTimeout waits for the pool to drain, giving up after d. The wait
// itself is event-driven (the qcond waiter used by Quiesce); the timeout
// path broadcasts so the helper goroutine always exits promptly instead
// of leaking on a pool that never drains.
func (p *Pool) quiesceTimeout(d time.Duration) bool {
	if p.inflight.Load() == 0 {
		return true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	var timedOut atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.qwaiters.Add(1)
		defer p.qwaiters.Add(-1)
		p.qmu.Lock()
		for p.inflight.Load() != 0 && !timedOut.Load() {
			p.qcond.Wait()
		}
		p.qmu.Unlock()
	}()
	select {
	case <-done:
	case <-timer.C:
		timedOut.Store(true)
		p.qmu.Lock()
		p.qcond.Broadcast()
		p.qmu.Unlock()
		<-done
	}
	return p.inflight.Load() == 0
}

// Stats assembles a point-in-time scheduler snapshot: per-worker deque
// traffic and park/wake counts, global-queue activity, task accounting,
// and the sampled submit→start latency histogram.
func (p *Pool) Stats() sched.Snapshot {
	snap := sched.Snapshot{
		Workers:       make([]sched.WorkerSnapshot, len(p.workers)),
		GlobalDepth:   p.global.Len(),
		GlobalSubmits: p.globalSubmits.Load(),
		Queued:        p.queued.Load(),
		Inflight:      p.inflight.Load(),
		Executed:      p.executed.Load(),
		SubmitLatency: p.lat.Snapshot(),
	}
	if p.gaveUp.Load() {
		// Live count, not a snapshot from the timeout instant: leftover
		// tasks a wedged worker later finishes drop back out of it.
		snap.Abandoned = p.inflight.Load()
	}
	for i, w := range p.workers {
		snap.Workers[i] = sched.WorkerSnapshot{
			ID:         w.id,
			DequeStats: w.deque.Stats(),
			Parks:      w.parks.Load(),
			Wakes:      w.wakes.Load(),
		}
	}
	return snap
}

// Chunk is a half-open index range [Lo, Hi).
type Chunk struct{ Lo, Hi int }

// Len returns the number of indices in the chunk.
func (c Chunk) Len() int { return c.Hi - c.Lo }

// StaticBlock returns the i'th of p balanced contiguous chunks of [0, n):
// OpenMP's schedule(static) decomposition, whose block sizes differ by at
// most one, computed arithmetically for the static schedule's hot path.
// ok is false when party i gets no iterations (n < p, out-of-range i, or
// an empty range).
func StaticBlock(n, p, i int) (Chunk, bool) {
	if n <= 0 || p <= 0 || i < 0 || i >= p {
		return Chunk{}, false
	}
	if p > n {
		p = n
		if i >= p {
			return Chunk{}, false
		}
	}
	base, rem := n/p, n%p
	lo := i*base + rem
	size := base
	if i < rem {
		lo = i*base + i
		size++
	}
	return Chunk{lo, lo + size}, true
}
