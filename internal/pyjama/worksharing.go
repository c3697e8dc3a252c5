package pyjama

import (
	"fmt"
	"os"
	"sync/atomic"

	"parc751/internal/core"
)

// spmdDebug enables the SPMD-mismatch check on worksharing constructs
// (see SetDebug). It defaults to the PYJAMA_DEBUG environment variable.
var spmdDebug atomic.Bool

func init() { spmdDebug.Store(os.Getenv("PYJAMA_DEBUG") != "") }

// SetDebug toggles Pyjama's debug checks, currently the SPMD-mismatch
// detector: with debug on, a team member that reaches a worksharing
// construct with a different (n, schedule) than the slot's first arrival
// panics with a diagnostic instead of silently running the first
// arrival's loop. The initial value comes from the PYJAMA_DEBUG
// environment variable. It returns the previous setting.
//
//parcvet:ignore unused api Pyjama SPMD debug mode
func SetDebug(on bool) bool { return spmdDebug.Swap(on) }

// ScheduleKind selects the OpenMP loop schedule.
type ScheduleKind int

// The loop schedules of OpenMP 2.5, which is the feature level Pyjama
// implements.
const (
	KindStatic ScheduleKind = iota
	KindDynamic
	KindGuided
	KindAuto
	KindRuntime
)

// String names the schedule kind.
func (k ScheduleKind) String() string {
	switch k {
	case KindStatic:
		return "static"
	case KindDynamic:
		return "dynamic"
	case KindGuided:
		return "guided"
	case KindAuto:
		return "auto"
	case KindRuntime:
		return "runtime"
	default:
		return "unknown"
	}
}

// Schedule is a loop schedule: a kind plus a chunk size (0 means the
// kind's default — for static, one contiguous block per thread; for
// dynamic and guided, a minimum chunk of 1).
type Schedule struct {
	Kind  ScheduleKind
	Chunk int
}

// String renders the schedule in OpenMP clause form, e.g. "dynamic(64)".
func (s Schedule) String() string {
	if s.Chunk > 0 {
		return fmt.Sprintf("%s(%d)", s.Kind, s.Chunk)
	}
	return s.Kind.String()
}

// Static returns schedule(static, chunk); chunk 0 means block-per-thread.
func Static(chunk int) Schedule { return Schedule{KindStatic, chunk} }

// Dynamic returns schedule(dynamic, chunk).
func Dynamic(chunk int) Schedule { return Schedule{KindDynamic, chunk} }

// Guided returns schedule(guided, minChunk).
func Guided(minChunk int) Schedule { return Schedule{KindGuided, minChunk} }

// Auto returns schedule(auto): the runtime measures per-chunk cost over a
// calibration prefix of the loop and then picks static blocks (uniform
// work) or dynamic claiming with a computed chunk size (skewed work). See
// auto.go for the decision procedure.
func Auto() Schedule { return Schedule{KindAuto, 0} }

// Runtime returns schedule(runtime): the schedule set via
// SetRuntimeSchedule (OpenMP's OMP_SCHEDULE).
//
//parcvet:ignore unused api Pyjama schedule(runtime)
func Runtime() Schedule { return Schedule{KindRuntime, 0} }

var runtimeSchedule atomic.Value // Schedule

func init() { runtimeSchedule.Store(Static(0)) }

// SetRuntimeSchedule sets the schedule used by Runtime(), like the
// OMP_SCHEDULE environment variable. Kind Runtime itself is rejected to
// avoid recursion and maps to static.
//
//parcvet:ignore unused api Pyjama schedule(runtime)
func SetRuntimeSchedule(s Schedule) {
	if s.Kind == KindRuntime {
		s = Static(0)
	}
	runtimeSchedule.Store(s)
}

// RuntimeSchedule returns the schedule Runtime() currently resolves to.
func RuntimeSchedule() Schedule { return runtimeSchedule.Load().(Schedule) }

func (s Schedule) resolve() Schedule {
	if s.Kind == KindRuntime {
		return RuntimeSchedule()
	}
	return s
}

// loopState is the team-shared state of one worksharing loop instance.
// The claim counters live on their own cache lines: the dynamic cursor,
// the guided remaining-count, and the ordered-section state are each hot
// in different phases and must not false-share with one another or with
// the read-only header.
type loopState struct {
	n     int
	sched Schedule
	auto  *autoState // calibration + decision state; read for KindAuto only

	_    [64]byte
	next atomic.Int64 // dynamic (and auto): claim cursor

	_         [56]byte
	remaining atomic.Int64 // guided: iterations not yet claimed

	_     [56]byte
	onext atomic.Int64 // ordered: the iteration whose turn it is
}

// ready initialises a loop state for a loop of n iterations over a team
// of the given size. The state may be one the team kept from an earlier
// region (see stash), so steady-state dynamic and guided loops allocate
// nothing (the claim loop in forEachChunk is closure-free per chunk). A
// kept state keeps its auto-calibration state for reset; the stats
// snapshot has already copied the last decision out.
func (ls *loopState) ready(n int, sched Schedule, team int) {
	ls.n, ls.sched = n, sched
	ls.next.Store(0)
	ls.remaining.Store(int64(n))
	ls.onext.Store(0)
	if sched.Kind == KindAuto {
		if ls.auto == nil {
			ls.auto = new(autoState)
		}
		ls.auto.reset(n, team)
	}
}

// loop fetches or creates the shared state for this thread's next
// worksharing construct — a lock-free slot-table lookup; the first
// arrival's CAS wins. The SPMD contract requires all threads to pass the
// same (n, sched) for the same slot; with debug on (SetDebug /
// PYJAMA_DEBUG) a mismatching later arrival panics instead of silently
// adopting the first arrival's loop.
func (tc *TC) loop(n int, sched Schedule) *loopState {
	slot := tc.wsCount
	tc.wsCount++
	resolved := sched.resolve()
	ls, won := tc.reg.loopStash.get(&tc.reg.loops, slot, tc.id, func(ls *loopState) {
		ls.ready(n, resolved, tc.reg.n)
	})
	if !won && spmdDebug.Load() && (ls.n != n || ls.sched != resolved) {
		panic(fmt.Sprintf(
			"pyjama: SPMD mismatch at worksharing construct %d: thread %d passed (n=%d, %v) but the first-arriving member registered (n=%d, %v); every team member must encounter the same worksharing sequence",
			slot, tc.id, n, resolved, ls.n, ls.sched))
	}
	return ls
}

// For executes body(i) for every i in [0, n) distributed over the team
// per the schedule, then barriers — "#omp for". Every team member must
// call it (SPMD).
func (tc *TC) For(n int, sched Schedule, body func(i int)) {
	tc.ForNoWait(n, sched, body)
	tc.Barrier()
}

// ForNoWait is "#omp for nowait": no barrier at loop end.
func (tc *TC) ForNoWait(n int, sched Schedule, body func(i int)) {
	if c, fast := tc.staticFastChunk(n, sched); fast {
		for i := c.Lo; i < c.Hi; i++ {
			body(i)
		}
		return
	}
	tc.forEachChunk(n, sched, func(c core.Chunk) {
		for i := c.Lo; i < c.Hi; i++ {
			body(i)
		}
	})
}

// ForChunked hands the body whole chunks instead of single indices, so a
// loop body can amortise per-iteration overhead over its chunk: with a
// plain `for i := lo; i < hi; i++` inside, the body is one call per chunk
// and its loop can inline and keep values in registers. Implicit barrier.
func (tc *TC) ForChunked(n int, sched Schedule, body func(lo, hi int)) {
	tc.eachChunk(n, sched, body)
	tc.Barrier()
}

// eachChunk runs body once on each chunk of [0, n) this member gets
// under the schedule, with no barrier.
func (tc *TC) eachChunk(n int, sched Schedule, body func(lo, hi int)) {
	if c, fast := tc.staticFastChunk(n, sched); fast {
		if c.Len() > 0 {
			body(c.Lo, c.Hi)
		}
		return
	}
	tc.forEachChunk(n, sched, func(c core.Chunk) { body(c.Lo, c.Hi) })
}

// staticFastChunk is the allocation-free fast path for schedule(static)
// with the default block decomposition: each thread's block is pure
// arithmetic over (n, team, id), so no team-shared loop state is
// registered at all — no loopState allocation on first arrival, no
// slot-table traffic, and (because the caller runs the body directly
// instead of through forEachChunk's chunk closure) no per-call closure.
// fast is false when the schedule needs the general machinery. The slot
// is still consumed so later constructs pair correctly; Ordered creates
// the slot's state lazily if it needs the sequencing counter. Debug mode
// declines the fast path: the SPMD-mismatch check needs the registered
// (n, sched) to compare against.
func (tc *TC) staticFastChunk(n int, sched Schedule) (c core.Chunk, fast bool) {
	resolved := sched.resolve()
	if resolved.Kind != KindStatic || resolved.Chunk > 0 || spmdDebug.Load() {
		return core.Chunk{}, false
	}
	tc.wsCount++
	c, ok := core.StaticBlock(n, tc.reg.n, tc.id)
	if !ok {
		return core.Chunk{}, true // fast path, but no iterations for us
	}
	ctr := &tc.reg.counters[tc.id]
	ctr.chunks++
	ctr.iters += int64(c.Len())
	return c, true
}

func (tc *TC) forEachChunk(n int, sched Schedule, run func(core.Chunk)) {
	ls := tc.loop(n, sched)
	if n <= 0 {
		return
	}
	ctr := &tc.reg.counters[tc.id]
	claim := func(c core.Chunk) {
		ctr.chunks++
		ctr.iters += int64(c.Len())
		run(c)
	}
	switch ls.sched.Kind {
	case KindStatic:
		if ls.sched.Chunk <= 0 {
			// Block decomposition: at most one chunk per thread, computed
			// arithmetically (no per-call chunk-slice allocation).
			if c, ok := core.StaticBlock(n, tc.reg.n, tc.id); ok {
				claim(c)
			}
			return
		}
		// Block-cyclic: thread t takes chunks t, t+T, t+2T, ...
		chunk := ls.sched.Chunk
		nchunks := (n + chunk - 1) / chunk
		for ci := tc.id; ci < nchunks; ci += tc.reg.n {
			lo := ci * chunk
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			claim(core.Chunk{Lo: lo, Hi: hi})
		}
	case KindDynamic:
		chunk := ls.sched.Chunk
		if chunk <= 0 {
			chunk = 1
		}
		for {
			lo := int(ls.next.Add(int64(chunk))) - chunk
			if lo >= n {
				return
			}
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			claim(core.Chunk{Lo: lo, Hi: hi})
		}
	case KindGuided:
		// Contention-free guided: remaining is a single atomic and each
		// claim is one CAS; a failed CAS just retries with the fresher
		// remainder (no region or loop mutex on the claim path).
		minChunk := int64(ls.sched.Chunk)
		if minChunk <= 0 {
			minChunk = 1
		}
		team := int64(tc.reg.n)
		for {
			rem := ls.remaining.Load()
			if rem <= 0 {
				return
			}
			size := rem / team
			if size < minChunk {
				size = minChunk
			}
			if size > rem {
				size = rem
			}
			if ls.remaining.CompareAndSwap(rem, rem-size) {
				lo := ls.n - int(rem)
				claim(core.Chunk{Lo: lo, Hi: lo + int(size)})
			}
		}
	case KindAuto:
		tc.runAuto(ls, claim)
	default:
		panic("pyjama: unresolved schedule kind")
	}
}

// Ordered runs fn for iteration i strictly in iteration order across the
// team — the "#omp ordered" region. It must be called exactly once per
// iteration of an enclosing For whose body was given the iteration index,
// and iterations must reach it in increasing order within each thread
// (which all schedules here guarantee).
//
// A member waits for its turn on its own park slot; the member whose turn
// ends advances onext and wakes the team. A member's panic aborts the
// team's barrier and wakes every slot too, so a waiter whose turn can
// never come panics with core.ErrBarrierAborted instead of hanging.
//
//parcvet:ignore unused api Pyjama worksharing construct
func (tc *TC) Ordered(i int, fn func()) {
	// The ordered sequence is tied to the most recent worksharing loop
	// this thread entered; slot pairing gives all threads the same state.
	slot := tc.wsCount - 1
	if slot < 0 {
		panic("pyjama: Ordered outside a worksharing loop")
	}
	// getOrCreate, not get: a static block-decomposed loop takes the
	// registration-free fast path in forEachChunk, so the slot's shared
	// state may not exist yet. The first Ordered arrival creates it (only
	// the sequencing fields matter here) and slot pairing hands every
	// team member the same instance.
	ls, _ := tc.reg.loopStash.get(&tc.reg.loops, slot, tc.id, func(ls *loopState) {
		ls.ready(0, Static(0), tc.reg.n)
	})
	turn, b := int64(i), tc.reg.barrier
	tc.reg.parkers[tc.id].ParkUntil(func() bool { return ls.onext.Load() == turn || b.Aborted() })
	if ls.onext.Load() != turn {
		panic(core.ErrBarrierAborted)
	}
	fn()
	ls.onext.Store(turn + 1)
	tc.reg.wakeAll()
}

// ParallelFor is the combined "#omp parallel for" convenience: it runs a
// team of nthreads, workshares [0, n) with the schedule, and joins.
func ParallelFor(nthreads, n int, sched Schedule, body func(i int)) {
	runRegion(nthreads, work{n: n, sched: sched, loop: body}, nil)
}
