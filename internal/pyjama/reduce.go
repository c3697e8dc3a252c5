package pyjama

import "parc751/internal/reduction"

// redSlot is one thread's padded partial-result slot: each team member
// writes only its own slot, so the padding keeps concurrent stores off
// shared cache lines, and the barrier publishes them without a lock.
// v holds a *T box rather than the T itself (see ForChunkedReduce): the
// box stays with its state in the team's table across regions, so a
// steady-state reduction writes through a reused pointer instead of
// re-boxing the partial every construct.
type redSlot struct {
	v any
	_ [48]byte
}

// redState is the team-shared state of one reduction construct instance.
// There is no mutex: per-thread slots plus barrier publication make the
// partials race-free, and the combined result is written by exactly one
// thread (the barrier's serial thread) between the two barriers. It
// needs no clearing between regions: every member writes its partial
// before the barrier that lets anyone read it, and the serial thread
// writes the result before the barrier that publishes it. The boxes stay
// with the state deliberately — they are what makes the steady-state
// reduction allocation-free — at the cost of keeping the previous
// region's last values alive until overwritten, which for the scalar
// reductions the kernels use is noise.
type redState struct {
	partials []redSlot
	result   any
}

// sizePartials gives each state of a new segment of the team's
// reduction table its team-sized partials, cut from one backing array.
func sizePartials(seg []redState, team int) {
	backing := make([]redSlot, len(seg)*team)
	for i := range seg {
		seg[i].partials = backing[i*team : (i+1)*team : (i+1)*team]
	}
}

// red returns the shared state of this thread's next reduction
// construct: the team's members meet at the same slot.
func (tc *TC) red() *redState {
	rs := tc.reg.reds.at(tc.redCount)
	tc.redCount++
	return rs
}

// ForReduce is "#omp for reduction(op:var)": it workshares [0, n) over the
// team with the given schedule, folds each thread's iterations into a
// thread-private accumulator, combines the per-thread partials in
// deterministic thread order, and returns the combined value to every
// team member (with an implicit barrier). It is ForChunkedReduce with a
// per-index body.
//
// Because Go methods cannot carry type parameters, ForReduce is a free
// function over the thread context.
func ForReduce[T any](tc *TC, n int, sched Schedule, r reduction.Reducer[T], body func(i int, acc T) T) T {
	return ForChunkedReduce(tc, n, sched, r, func(lo, hi int, acc T) T {
		for i := lo; i < hi; i++ {
			acc = body(i, acc)
		}
		return acc
	})
}

// ForChunkedReduce is the range-body reduction, ForChunked's reducing
// twin: body folds a whole chunk [lo, hi) into the member's accumulator
// and returns it, so a hot loop is one call per chunk rather than one
// per iteration. Each member starts from r.Identity() and publishes its
// partial — the identity when it got no chunk — and the partials are
// combined in thread order and returned to every member (implicit
// barrier), as for ForReduce.
//
// The combine runs exactly once, on the barrier's serial thread — T-1
// combines total instead of the T² a combine-per-member scheme costs,
// which matters for the object reductions (map merges, set unions) the
// paper highlights. A second barrier publishes the result to the team.
func ForChunkedReduce[T any](tc *TC, n int, sched Schedule, r reduction.Reducer[T], body func(lo, hi int, acc T) T) T {
	rs := tc.red()
	acc := r.Identity()
	tc.eachChunk(n, sched, func(lo, hi int) { acc = body(lo, hi, acc) })
	// Publish the partial through a reusable *T box: storing a non-
	// pointer-shaped T directly in the interface word would heap-box it
	// on every construct, while writing through a retained pointer is
	// free once the box exists. A kept slot whose box came from a
	// reduction over a different type falls back to a fresh box.
	slot := &rs.partials[tc.id]
	box, ok := slot.v.(*T)
	if !ok {
		box = new(T)
		slot.v = box
	}
	*box = acc
	if tc.barrierSerial() {
		// Every partial is visible here (the barrier ordered the stores);
		// combine once in thread order for a deterministic value.
		combined := r.Identity()
		for id := 0; id < tc.reg.n; id++ {
			if p, ok := rs.partials[id].v.(*T); ok {
				combined = r.Combine(combined, *p)
			}
		}
		rbox, ok := rs.result.(*T)
		if !ok {
			rbox = new(T)
			rs.result = rbox
		}
		*rbox = combined
	}
	tc.Barrier() // publish the serial thread's combine to the team
	return *rs.result.(*T)
}

// ParallelForReduce is the combined "#omp parallel for reduction"
// convenience: team creation, worksharing, reduction, join.
func ParallelForReduce[T any](nthreads, n int, sched Schedule, r reduction.Reducer[T], body func(i int, acc T) T) T {
	var out T
	Parallel(nthreads, func(tc *TC) {
		v := ForReduce(tc, n, sched, r, body)
		tc.Master(func() { out = v })
	})
	return out
}
