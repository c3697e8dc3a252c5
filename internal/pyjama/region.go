// Package pyjama reproduces Pyjama, the PARC lab's OpenMP-like
// directive system for object-oriented languages (Vikas, Giacaman &
// Sinnen, Parallel Computing 2013; §IV-B of the reproduced paper).
// Where the Java original compiles //#omp directives, this Go
// reproduction provides the directive semantics as library calls:
//
//	pyjama.Parallel(4, func(tc *pyjama.TC) {     // #omp parallel
//	    tc.For(n, pyjama.Dynamic(16), func(i int) { work(i) })
//	    tc.Barrier()                             // #omp barrier
//	    tc.Single(func() { fmt.Println("once") })// #omp single
//	    tc.Critical("io", func() { log() })      // #omp critical(io)
//	})
//
// The SPMD contract of OpenMP carries over: every thread in a team
// executes the region body and encounters the worksharing constructs in
// the same sequence. Reductions — including the object-oriented
// reductions the paper highlights as a research outcome (§V-B) — live in
// reduce.go, and the GUI-aware region (Pyjama's freeguithread/virtual
// directives) in gui.go.
package pyjama

import (
	"errors"
	"sync"
	"sync/atomic"

	"parc751/internal/core"
	"parc751/internal/probe"
)

// TC is a thread context: the view one team member has of its parallel
// region. A TC is only valid inside the body it was passed to and must
// not be shared across team members.
type TC struct {
	id  int
	reg *region
	// wsCount numbers the worksharing constructs this thread has
	// encountered, pairing SPMD call sites across the team.
	wsCount int
	// singleCount numbers the single/sections constructs likewise.
	singleCount int
	// redCount numbers the reduction constructs likewise.
	redCount int
}

type region struct {
	n       int
	barrier *core.Barrier

	// Construct registries: lock-free append-only slot tables keyed by
	// each construct's SPMD sequence number, claimed first-arrival-wins.
	// Entering a For/Single/ForReduce never takes a region lock.
	loops   slotTable[loopState]
	singles slotTable[struct{}]
	reds    slotTable[redState]

	// Named critical sections are cold (each name resolves once per name,
	// then contends only on its own mutex), so a plain guarded map is fine.
	critMu   sync.Mutex
	critical map[string]*sync.Mutex

	// counters holds the per-thread worksharing tallies behind
	// RegionStats. Each slot is written only by its owning team member;
	// the region join publishes them to the stats reader.
	counters []threadCounters
}

// Parallel executes body on a team of nthreads concurrent members — the
// "#omp parallel num_threads(n)" construct, with the implicit join at the
// region end. The caller is member 0. nthreads < 1 is clamped to 1. A
// panic in any team member is re-raised on the caller after all members
// finish.
func Parallel(nthreads int, body func(tc *TC)) { runRegion(nthreads, work{body: body}, nil) }

// ParallelWithStats is Parallel plus observability: after the region
// joins, it returns the per-thread worksharing and barrier counters (the
// Pyjama counterpart of sched.Snapshot — see RegionStats).
func ParallelWithStats(nthreads int, body func(tc *TC)) (s RegionStats) {
	runRegion(nthreads, work{body: body}, &s)
	return s
}

// work is what a region runs on every member: body, or — for
// ParallelFor, which must not allocate a closure around its loop — a
// worksharing loop over [0, n).
type work struct {
	body  func(tc *TC)
	n     int
	sched Schedule
	loop  func(i int)
}

// team is a persistent Pyjama team (DESIGN.md §16). The caller of each
// region is member 0; members 1..n-1 are plain goroutines parked between
// regions on core park slots. They are not core.Pool tasks: barrier
// members must all be live at once, which a pool smaller than the team
// could not guarantee. The region object is embedded and reset at every
// join.
type team struct {
	region
	tcs     []TC
	errs    []error
	parkers []*core.Parker // [0] is the caller's join slot
	work    work
	epoch   atomic.Uint64 // regions posted; members run epoch by epoch
	pending atomic.Int32  // members still running the posted region
	quit    bool          // set before the dismissal epoch is posted
}

// idleTeams caches one parked team per size, 1 to 64. A caller takes
// its size's team with a swap; a nested or concurrent caller that finds
// the slot empty builds a fresh team. At the join a team is offered
// back, and one that finds the slot taken is dismissed.
var idleTeams [65]atomic.Pointer[team]

// acquireTeam takes the cached team of size n, or builds a fresh one and
// starts its members.
func acquireTeam(n int) *team {
	if n < len(idleTeams) {
		if t := idleTeams[n].Swap(nil); t != nil {
			return t
		}
	}
	t := &team{tcs: make([]TC, n), errs: make([]error, n), parkers: make([]*core.Parker, n)}
	t.n = n
	t.barrier = core.NewBarrier(n)
	t.counters = make([]threadCounters, n)
	for i := range t.parkers {
		t.parkers[i] = core.NewParker()
	}
	for i := 1; i < n; i++ {
		go t.serve(i)
	}
	return t
}

// release offers the team back to the idle cache and dismisses it when
// its size's slot is taken.
func (t *team) release() {
	if t.n < len(idleTeams) && idleTeams[t.n].CompareAndSwap(nil, t) {
		return
	}
	t.quit = true
	t.post()
}

// post publishes the next epoch and wakes every parked member.
func (t *team) post() {
	t.epoch.Add(1)
	for _, p := range t.parkers[1:] {
		p.Wake()
	}
}

// serve is member id's goroutine: park until the next epoch is posted,
// run it, report to the join, repeat until dismissed.
func (t *team) serve(id int) {
	for epoch := uint64(1); ; epoch++ {
		t.parkers[id].ParkUntil(func() bool { return t.epoch.Load() >= epoch })
		if t.quit {
			return
		}
		t.member(id)
		if t.pending.Add(-1) == 0 {
			t.parkers[0].Wake()
		}
	}
}

// member runs the posted work as member id. A panicking member aborts
// the barrier so siblings blocked there fail fast instead of waiting for
// an arrival that can never come.
func (t *team) member(id int) {
	tc := &t.tcs[id]
	*tc = TC{id: id, reg: &t.region}
	err := core.Catch(func() {
		if t.work.loop != nil {
			tc.ForNoWait(t.work.n, t.work.sched, t.work.loop)
		} else {
			t.work.body(tc)
		}
	})
	if err != nil {
		t.errs[id] = err
		t.barrier.Abort()
	}
}

// runRegion runs w on a team of nthreads with the caller as member 0,
// joins it, and re-raises a member's panic; with stats set it also
// snapshots the region's counters.
func runRegion(nthreads int, w work, stats *RegionStats) {
	if nthreads < 1 {
		nthreads = 1
	}
	t := acquireTeam(nthreads)
	pr := probe.Load()
	var regionID uint64
	if pr != nil {
		regionID = probe.NewTaskID(pr)
		pr.Fire(probe.SiteRegionStart, -1, regionID, uint64(nthreads))
	}
	t.work = w
	t.pending.Store(int32(nthreads))
	t.post()
	t.member(0)
	if t.pending.Add(-1) != 0 {
		t.parkers[0].ParkUntil(func() bool { return t.pending.Load() == 0 })
	}
	if pr != nil {
		// Fired before the panic scan, on the probe that saw the start,
		// so a faulted region still closes its node: region_start and
		// region_end counts stay conserved.
		pr.Fire(probe.SiteRegionEnd, -1, regionID, uint64(nthreads))
	}
	err := t.rootCause()
	c := t.constructs()
	if err == nil && stats != nil {
		*stats = t.statsSnapshot(c)
	}
	t.reset(err != nil, c)
	t.release()
	if err != nil {
		panic(err)
	}
}

// rootCause returns the panic to re-raise, preferring a member's own
// panic over the ErrBarrierAborted cascade it triggered in its siblings.
func (t *team) rootCause() error {
	var cascade error
	for _, err := range t.errs {
		if err == nil {
			continue
		}
		var pe *core.PanicError
		if !errors.As(err, &pe) || pe.Value != core.ErrBarrierAborted {
			return err
		}
		cascade = err
	}
	return cascade
}

// constructCounts bounds a region's slot tables: the highest
// worksharing, single and reduction counts any member reached.
type constructCounts struct{ loops, singles, reds int }

func (t *team) constructs() (c constructCounts) {
	for i := range t.tcs {
		tc := &t.tcs[i]
		c.loops = max(c.loops, tc.wsCount)
		c.singles = max(c.singles, tc.singleCount)
		c.reds = max(c.reds, tc.redCount)
	}
	return c
}

// reset readies the team for its next region. The join is the sole
// ownership point — every member has returned — so construct state can
// be recycled. A failed region's state is dropped instead (a member may
// have died holding an ordered section's lock), and its aborted barrier
// is replaced.
func (t *team) reset(failed bool, c constructCounts) {
	if failed {
		t.loops.drain(c.loops, dropSlot)
		t.reds.drain(c.reds, dropSlot)
		t.barrier = core.NewBarrier(t.n)
	} else {
		t.loops.drain(c.loops, releaseLoopState)
		t.reds.drain(c.reds, releaseRedState)
		t.barrier.ResetStats()
	}
	t.singles.drain(c.singles, dropSlot)
	clear(t.counters)
	clear(t.errs)
	t.critical = nil
	t.work = work{}
}

// dropSlot leaves a slot's value to the garbage collector.
func dropSlot[T any](*T) {}
