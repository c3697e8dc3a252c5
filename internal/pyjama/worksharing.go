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
// construct with a different (n, schedule) than the construct's first
// arrival panics with a diagnostic. Without it each member claims
// against its own bound, so a mismatched team silently runs some
// iterations twice or not at all. The initial value comes from the
// PYJAMA_DEBUG environment variable. It returns the previous setting.
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
// OMP_SCHEDULE environment variable. A region reads it once, when it is
// posted, so its members all resolve Runtime() alike. Kind Runtime itself
// is rejected to avoid recursion and maps to static.
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

// loopState is the team-shared state of one worksharing loop: the claim
// cursor of the dynamic, guided and auto schedules, the ordered turn,
// auto's calibration, and in debug mode the first arrival's (n,
// schedule). It holds nothing a member needs to find its share — every
// member claims against its own (n, schedule), which the SPMD contract
// makes the team's — so a schedule(static) loop never touches it. The
// cursor, the ordered turn and auto's accumulators are hot in different
// phases and are padded apart, from each other and from the next slot.
type loopState struct {
	next atomic.Int64 // claim cursor: the first iteration not yet claimed

	_     [56]byte
	onext atomic.Int64 // ordered: the iteration whose turn it is

	_    [56]byte
	auto autoState
	key  atomic.Pointer[spmdKey] // debug mode: the first arrival's (n, schedule)
	_    [56]byte
}

// spmdKey is the (n, schedule) a member passed to a worksharing
// construct, which debug mode compares across the team.
type spmdKey struct {
	n     int
	sched Schedule
}

// clearLoops readies a new segment of the team's loop table.
func clearLoops(seg []loopState) {
	for i := range seg {
		seg[i].clear()
	}
}

// clear readies a loop state for the loop that next gets its slot. The
// join runs it on every slot a region's loops reached, most of them
// static loops that never touched theirs, so each field is loaded before
// it is stored.
func (ls *loopState) clear() {
	if ls.next.Load() != 0 {
		ls.next.Store(0)
	}
	if ls.onext.Load() != 0 {
		ls.onext.Store(0)
	}
	if ls.key.Load() != nil {
		ls.key.Store(nil)
	}
	if ls.auto.calibEnd.Load() >= 0 {
		ls.auto.clear()
	}
}

// checkSPMD registers the first arrival's (n, sched) for loop slot and
// panics when a later arrival passed a different pair (debug mode).
func (ls *loopState) checkSPMD(slot, id, n int, sched Schedule) {
	k := &spmdKey{n, sched}
	if ls.key.CompareAndSwap(nil, k) {
		return
	}
	if first := ls.key.Load(); *first != *k {
		panic(fmt.Sprintf(
			"pyjama: SPMD mismatch at worksharing construct %d: thread %d passed (n=%d, %v) but the first-arriving member registered (n=%d, %v); every team member must encounter the same worksharing sequence",
			slot, id, n, sched, first.n, first.sched))
	}
}

// For executes body(i) for every i in [0, n) distributed over the team
// per the schedule, then barriers — "#omp for". Every team member must
// call it (SPMD).
func (tc *TC) For(n int, sched Schedule, body func(i int)) {
	tc.ForNoWait(n, sched, body)
	tc.Barrier()
}

// ForNoWait is "#omp for nowait": no barrier at loop end. It is
// eachChunk with a per-index body.
func (tc *TC) ForNoWait(n int, sched Schedule, body func(i int)) {
	tc.eachChunk(n, sched, func(lo, hi int) {
		for i := lo; i < hi; i++ {
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
// under the schedule, with no barrier. Static chunks are arithmetic over
// (n, team, id) and touch no shared state outside debug mode; the other
// schedules claim off the loop's slot in the team's table. With debug on
// (SetDebug / PYJAMA_DEBUG) every loop registers its (n, schedule), and a
// member that passed a different pair panics instead of claiming against
// its own.
func (tc *TC) eachChunk(n int, sched Schedule, body func(lo, hi int)) {
	r := tc.reg
	slot := tc.wsCount
	tc.wsCount++
	if sched.Kind == KindRuntime {
		sched = r.runtimeSched
	}
	debug := spmdDebug.Load()
	var ls *loopState
	if debug || sched.Kind != KindStatic {
		ls = r.loops.at(slot)
	}
	if debug {
		ls.checkSPMD(slot, tc.id, n, sched)
	}
	ctr := &r.counters[tc.id]
	claim := func(lo, hi int) {
		ctr.chunks++
		ctr.iters += int64(hi - lo)
		body(lo, hi)
	}
	team := r.n
	switch sched.Kind {
	case KindStatic:
		if sched.Chunk <= 0 {
			// Block decomposition: at most one chunk per member.
			if c, ok := core.StaticBlock(n, team, tc.id); ok {
				claim(c.Lo, c.Hi)
			}
			return
		}
		// Block-cyclic: member t takes chunks t, t+T, t+2T, ...
		chunk := sched.Chunk
		for lo := tc.id * chunk; lo < n; lo += team * chunk {
			claim(lo, min(lo+chunk, n))
		}
	case KindDynamic:
		ls.dynamic(n, max(sched.Chunk, 1), claim)
	case KindGuided:
		// Each claim is one CAS on the cursor, sized from what is left;
		// a failed CAS retries against the fresher cursor.
		minChunk := max(sched.Chunk, 1)
		for {
			lo := int(ls.next.Load())
			if lo >= n {
				return
			}
			hi := lo + min(max((n-lo)/team, minChunk), n-lo)
			if ls.next.CompareAndSwap(int64(lo), int64(hi)) {
				claim(lo, hi)
			}
		}
	case KindAuto:
		tc.runAuto(ls, n, claim)
	default:
		panic("pyjama: unresolved schedule kind")
	}
}

// dynamic claims chunk-sized pieces of [0, n) with one fetch-add each
// until the cursor passes n.
func (ls *loopState) dynamic(n, chunk int, claim func(lo, hi int)) {
	for {
		lo := int(ls.next.Add(int64(chunk))) - chunk
		if lo >= n {
			return
		}
		claim(lo, min(lo+chunk, n))
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
	ls := tc.reg.loops.at(slot)
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
