package core

import (
	"errors"
	"runtime"
	"sync/atomic"

	"parc751/internal/probe"
)

// ErrBarrierAborted is the panic value delivered to parties blocked in
// AwaitAs when the barrier is aborted (because a sibling died and can never
// arrive).
var ErrBarrierAborted = errors.New("core: barrier aborted")

// barrierFanIn is the arity of the combining tree: how many arrivals each
// tree node absorbs before forwarding one arrival to its parent. Four
// keeps the tree depth at two for team sizes up to 16 while spreading
// arrival traffic over multiple cache lines.
const barrierFanIn = 4

// barrierSpin is the busy-spin budget a waiter burns before yielding. On a
// single-P runtime spinning can only delay the arrivals being waited for,
// so the budget is zero there and waiters go straight to Gosched.
var barrierSpin = func() int {
	if runtime.GOMAXPROCS(0) > 1 {
		return 128
	}
	return 0
}()

// barrierYields is how many Gosched rounds a waiter tries after spinning
// and before parking on its park slot. On small machines the remaining
// arrivals usually complete within these yields, so the parking protocol
// (and its wakeup syscalls) is never touched.
const barrierYields = 4

// barrierNode is one combining-tree node, padded so concurrent arrivals at
// sibling nodes do not false-share.
type barrierNode struct {
	count  atomic.Int32 // arrivals still missing this generation
	init   int32        // arrivals expected per generation
	parent int32        // index into Barrier.nodes; -1 for the root
	_      [52]byte
}

// BarrierStats is one party's cumulative barrier interaction counters:
// how many times it arrived, how many releases it caught while
// spinning/yielding, and how many times it had to park on its park slot.
// SpinReleases + Parks counts the generations the party waited for (the
// remainder were generations it completed itself as the serial thread).
type BarrierStats struct {
	Waits        int64
	SpinReleases int64
	Parks        int64
}

// barrierParty is one party's padded state: the park slot it alone owns
// (allocated once at NewBarrier and reused every generation, so a barrier
// cycle allocates nothing) and the counters behind BarrierStats.
type barrierParty struct {
	slot  parkSlot
	waits atomic.Int64
	spins atomic.Int64
	parks atomic.Int64
	_     [16]byte
}

// Barrier is a reusable (cyclic) barrier for a fixed number of parties,
// implemented as a combining tree: arrivals count down at tree leaves and
// propagate upward, so parties contend on at most barrierFanIn-way shared
// counters instead of one central mutex. Waiters spin briefly, yield,
// then park on their own parkSlot — the register → re-check → wait
// protocol the pool's workers use; the releaser (the last arrival, which
// is also the generation's serial thread) resets the tree, advances the
// done generation counter, and wakes every parked party.
//
// Generations are identified by a monotonic counter: generation g is over
// exactly when done > g, a single integer comparison that cannot be
// confused by recycled state. A wake is only a hint to re-check it, so a
// releaser that reaches a slot late (after its owner moved on to the next
// generation and parked again) costs one spurious wake, never a wrong
// release.
//
// Every party has a stable identity id in [0, parties) and arrives through
// AwaitAs(id): a party always climbs from the same tree leaf and parks on
// the same slot, so each slot has a single owner.
//
// On 64-bit platforms the padding makes a Barrier 192 bytes, a size class
// whose objects are 64-byte aligned, so done (written every generation,
// spun on by every waiter) has a cache line of its own: apart from the
// slice headers every arrival reads, and from the parked/aborted line.
type Barrier struct {
	nodes []barrierNode
	party []barrierParty
	_     [16]byte

	// done counts completed generations; generation g is released once
	// done > g.
	done atomic.Int64
	_    [56]byte

	// parked counts parties that have registered (or are about to
	// register) their park slot. The releaser advances done first and
	// reads parked second, while a waiter increments parked before
	// registering and re-checks done after — the store/load pairing
	// guarantees that a releaser reading zero can only have missed
	// waiters whose re-check will observe the advanced done and retract.
	// This lets release skip the O(parties) slot scan entirely in the
	// common case where every waiter caught the release by spinning or
	// yielding, which is the dominant regime on small machines.
	parked atomic.Int64

	aborted atomic.Bool
	_       [52]byte
}

// NewBarrier creates a barrier for parties participants (minimum 1).
func NewBarrier(parties int) *Barrier {
	if parties < 1 {
		parties = 1
	}
	b := &Barrier{party: make([]barrierParty, parties)}
	for i := range b.party {
		b.party[i].slot.ch = make(chan struct{}, 1)
	}
	// Level sizes of the combining tree: level 0 absorbs the parties, each
	// further level absorbs the completions of the one below, until a
	// single root remains.
	sizes := []int{}
	arrivals := parties
	for {
		n := (arrivals + barrierFanIn - 1) / barrierFanIn
		sizes = append(sizes, n)
		if n == 1 {
			break
		}
		arrivals = n
	}
	total := 0
	for _, n := range sizes {
		total += n
	}
	b.nodes = make([]barrierNode, total)
	start := 0
	arrivals = parties
	for _, n := range sizes {
		for j := 0; j < n; j++ {
			in := barrierFanIn
			if j == n-1 {
				in = arrivals - barrierFanIn*(n-1)
			}
			nd := &b.nodes[start+j]
			nd.init = int32(in)
			nd.count.Store(int32(in))
			// Parent is the j/fanIn'th node of the next level (which
			// starts right after this one); the root overwrites below.
			nd.parent = int32(start + n + j/barrierFanIn)
		}
		start += n
		arrivals = n
	}
	b.nodes[total-1].parent = -1
	return b
}

// AwaitAs blocks party id (in [0, Parties())) until all parties have
// arrived, then releases them all. The ids of one generation's callers
// must form a permutation of [0, Parties()) — the SPMD team contract —
// and a party's wait behaviour is recorded under PartyStats(id). It
// returns the index of this barrier generation (0, 1, 2, ...), and true
// for exactly one caller per generation (the "serial thread", which
// OpenMP uses for single-after-barrier semantics).
// AwaitAs panics with ErrBarrierAborted (in every blocked or future
// caller) once Abort has been called, so a dead sibling cannot deadlock
// the team.
func (b *Barrier) AwaitAs(id int) (gen int, serial bool) {
	if b.aborted.Load() {
		panic(ErrBarrierAborted)
	}
	pt := &b.party[id]
	if pr := probe.Load(); pr != nil {
		// Chaos arrival delays perturb the order in which parties reach
		// the tree, the schedule dimension barrier bugs hide in.
		pr.Fire(probe.SiteBarrier, -1, 0, 0)
	}
	// The barrier contract serialises generations, so the count of
	// completed generations is also the index of the one being entered.
	g := b.done.Load()
	pt.waits.Add(1)
	// Climb: count down at the leaf; the last arrival at each node carries
	// one arrival to the parent. The party that completes the root is the
	// generation's last arrival and becomes releaser + serial thread.
	ni := id / barrierFanIn
	for {
		nd := &b.nodes[ni]
		if nd.count.Add(-1) > 0 {
			break
		}
		if nd.parent < 0 {
			b.release(g)
			return int(g), true
		}
		ni = int(nd.parent)
	}
	// Waiter: spin, then yield, then park, until the generation is over.
	caught := b.spin(g) || !b.park(pt, g)
	if b.done.Load() <= g {
		panic(ErrBarrierAborted) // aborted before the generation completed
	}
	if caught {
		pt.spins.Add(1)
	}
	return int(g), false
}

// over reports whether a waiter of generation g can stop waiting: g
// completed (done moved past it) or the barrier was aborted.
func (b *Barrier) over(g int64) bool {
	return b.done.Load() > g || b.aborted.Load()
}

// spin busy-waits, then yields, for generation g to be over, and reports
// whether it was within the budget.
func (b *Barrier) spin(g int64) bool {
	for i := 0; i < barrierSpin; i++ {
		if b.done.Load() > g {
			return true
		}
	}
	for i := 0; i < barrierYields; i++ {
		runtime.Gosched()
		if b.over(g) {
			return true
		}
	}
	return false
}

// park blocks party pt on its own slot until generation g is over, with
// the pool's handshake: register, re-check, and only then wait. It
// reports whether it waited (false when the first re-check found g over).
func (b *Barrier) park(pt *barrierParty, g int64) (waited bool) {
	s := &pt.slot
	// Announce intent before registering: a releaser that misses this
	// increment advanced done before it, so the re-check cannot miss the
	// release (see Barrier.parked). Abort sets aborted before it wakes
	// every slot, so the re-check covers it the same way.
	b.parked.Add(1)
	for {
		s.state.Store(slotParked)
		if b.over(g) {
			s.retract()
			break
		}
		if !waited {
			// Counted before the wait: an observer that sees it knows the
			// slot is registered, so an Abort will reach it.
			pt.parks.Add(1)
			waited = true
		}
		// A wake is a hint: the previous generation's releaser can reach
		// this slot late, after its owner registered for g, so the loop
		// re-checks and re-registers.
		s.wait()
	}
	b.parked.Add(-1)
	return waited
}

// release finishes generation g as its serial thread: reset the tree so
// the next generation can arrive, advance done (releasing spinners), then
// wake every parked party.
func (b *Barrier) release(g int64) {
	// Reset before publishing: no party can re-arrive until it observes
	// done advance, which happens after the counters are whole again.
	for i := range b.nodes {
		b.nodes[i].count.Store(b.nodes[i].init)
	}
	b.done.Store(g + 1)
	// Fast exit when no party is parked (they all caught the release by
	// spinning or yielding): the load is ordered after the done store,
	// so any waiter this misses increments parked only after the store
	// became visible and its own re-check retracts (see Barrier.parked).
	// Skipping the scan removes parties CAS probes from the serial
	// thread's critical path — measurable at T8 on a single-CPU host.
	if b.parked.Load() == 0 {
		return
	}
	b.wakeAll()
}

// wakeAll wakes every registered party slot.
func (b *Barrier) wakeAll() {
	for i := range b.party {
		b.party[i].slot.wake()
	}
}

// Abort permanently breaks the barrier: every party blocked in AwaitAs
// (and every later caller) panics with ErrBarrierAborted. Used when a
// party dies and can never arrive.
func (b *Barrier) Abort() {
	b.aborted.Store(true)
	b.wakeAll()
}

// ResetStats zeroes every party's counters, so a barrier reused for a
// new team run reports that run alone. Only legal while no party is
// inside the barrier.
func (b *Barrier) ResetStats() {
	for i := range b.party {
		pt := &b.party[i]
		pt.waits.Store(0)
		pt.spins.Store(0)
		pt.parks.Store(0)
	}
}

// PartyStats returns the cumulative wait counters recorded for party id by
// AwaitAs.
func (b *Barrier) PartyStats(id int) BarrierStats {
	if id < 0 || id >= len(b.party) {
		return BarrierStats{}
	}
	pt := &b.party[id]
	return BarrierStats{
		Waits:        pt.waits.Load(),
		SpinReleases: pt.spins.Load(),
		Parks:        pt.parks.Load(),
	}
}
