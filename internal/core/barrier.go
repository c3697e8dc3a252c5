package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"parc751/internal/probe"
)

// ErrBarrierAborted is the panic value delivered to parties blocked in
// Await when the barrier is aborted (because a sibling died and can never
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
// and before parking on its park word. On small machines the remaining
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

// barrierWaiter is one party's permanent park word: a claim/cancel CAS
// word plus a one-token wake channel, both allocated once at NewBarrier
// and reused every generation — a barrier cycle allocates nothing.
//
// gen holds 0 when the slot is empty and g+1 while the party is parked
// (or about to park) waiting for generation g. The +1 keeps 0 free as
// the empty sentinel. Exactly one of the releaser (claiming with
// CAS(g+1→0) before sending the token) and the waiter (cancelling with
// the same CAS when it sees the generation finished on its own) wins the
// word; the loser of a claimed cancellation consumes the in-flight
// token. ch is drained by its owner before every publication, so it
// never holds more than one token and the claimer's send cannot block.
type barrierWaiter struct {
	gen atomic.Int64
	ch  chan struct{}
	_   [40]byte
}

// BarrierStats is one party's cumulative barrier interaction counters:
// how many times it arrived, how many releases it caught while
// spinning/yielding, and how many times it had to park on its park word.
// SpinReleases + Parks counts the generations the party waited for (the
// remainder were generations it completed itself as the serial thread).
type BarrierStats struct {
	Waits        int64
	SpinReleases int64
	Parks        int64
}

// barrierCounters is the padded per-party storage behind BarrierStats.
type barrierCounters struct {
	waits atomic.Int64
	spins atomic.Int64
	parks atomic.Int64
	_     [40]byte
}

// Barrier is a reusable (cyclic) barrier for a fixed number of parties,
// implemented as a combining tree: arrivals count down at tree leaves and
// propagate upward, so parties contend on at most barrierFanIn-way shared
// counters instead of one central mutex. Waiters spin briefly, yield,
// then park on a per-party park word; the releaser (the last arrival,
// which is also the generation's serial thread) resets the tree, advances
// the done generation counter, and wakes every parked party.
//
// Generations are identified by a monotonic counter rather than the
// previous design's per-generation heap object: generation g is over
// exactly when done > g, a single integer comparison that cannot be
// confused by recycled state, and the park channels live for the life of
// the barrier — there is no lazily created channel whose publication
// could race a concurrent Abort or releaser (the bug this rewrite
// removes), and a full await/release cycle performs no allocation.
//
// Parties with a stable identity should use AwaitAs, which pins each party
// to a fixed tree leaf; anonymous parties use Await, which assigns leaf
// positions per generation from a ticket counter. The two styles must not
// be mixed on one barrier: both rely on the generation's positions forming
// an exact permutation of [0, parties).
type Barrier struct {
	parties int
	nodes   []barrierNode
	stats   []barrierCounters
	waiters []barrierWaiter

	// done counts completed generations; generation g is released once
	// done > g. tickets allocates arrival positions for anonymous Await:
	// the barrier contract serialises generations, so each generation
	// consumes a contiguous block of parties tickets and tickets mod
	// parties is a permutation of the leaf positions within it.
	done    atomic.Int64
	tickets atomic.Int64

	// parked counts parties that have published (or are about to
	// publish) a park word. The releaser advances done first and reads
	// parked second, while a waiter increments parked before publishing
	// and re-checks done after — the store/load pairing guarantees that
	// a releaser reading zero can only have missed waiters whose
	// re-check will observe the advanced done and retract. This lets
	// release skip the O(parties) park-word scan entirely in the common
	// case where every waiter caught the release by spinning or
	// yielding, which is the dominant regime on small machines.
	parked atomic.Int64

	aborted   atomic.Bool
	abortCh   chan struct{}
	abortOnce sync.Once
}

// NewBarrier creates a barrier for parties participants (minimum 1).
func NewBarrier(parties int) *Barrier {
	if parties < 1 {
		parties = 1
	}
	b := &Barrier{
		parties: parties,
		stats:   make([]barrierCounters, parties),
		waiters: make([]barrierWaiter, parties),
		abortCh: make(chan struct{}),
	}
	for i := range b.waiters {
		b.waiters[i].ch = make(chan struct{}, 1)
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

// Await blocks until all parties have called Await, then releases them
// all. It returns the index of this barrier generation (0, 1, 2, ...), and
// true for exactly one caller per generation (the "serial thread", which
// OpenMP uses for single-after-barrier semantics).
// Await panics with ErrBarrierAborted (in every blocked or future caller)
// once Abort has been called, so a dead sibling cannot deadlock the team.
func (b *Barrier) Await() (gen int, serial bool) {
	if b.aborted.Load() {
		panic(ErrBarrierAborted)
	}
	return b.await(int(b.tickets.Add(1)-1) % b.parties)
}

// AwaitAs is Await for a party with a stable identity id in
// [0, Parties()): the party always arrives at the same tree leaf, and its
// wait behaviour is recorded under PartyStats(id). The ids of one
// generation's callers must form a permutation of [0, Parties()) — the
// SPMD team contract. Out-of-range ids fall back to ticket assignment.
func (b *Barrier) AwaitAs(id int) (gen int, serial bool) {
	if b.aborted.Load() {
		panic(ErrBarrierAborted)
	}
	if id < 0 || id >= b.parties {
		id = int(b.tickets.Add(1)-1) % b.parties
	}
	return b.await(id)
}

func (b *Barrier) await(pos int) (int, bool) {
	if pr := probe.Load(); pr != nil {
		// Chaos arrival delays perturb the order in which parties reach
		// the tree, the schedule dimension barrier bugs hide in.
		pr.Fire(probe.SiteBarrier, -1, 0, 0)
	}
	// The barrier contract serialises generations, so the count of
	// completed generations is also the index of the one being entered.
	gen := b.done.Load()
	st := &b.stats[pos]
	st.waits.Add(1)
	// Climb: count down at the leaf; the last arrival at each node carries
	// one arrival to the parent. The party that completes the root is the
	// generation's last arrival and becomes releaser + serial thread.
	ni := pos / barrierFanIn
	for {
		nd := &b.nodes[ni]
		if nd.count.Add(-1) > 0 {
			break
		}
		if nd.parent < 0 {
			b.release(gen)
			return int(gen), true
		}
		ni = int(nd.parent)
	}
	// Waiter: spin, then yield, then park. The generation is over the
	// moment done moves past it.
	for i := 0; i < barrierSpin; i++ {
		if b.done.Load() > gen {
			st.spins.Add(1)
			return int(gen), false
		}
	}
	for i := 0; i < barrierYields; i++ {
		runtime.Gosched()
		if b.done.Load() > gen {
			st.spins.Add(1)
			return int(gen), false
		}
		if b.aborted.Load() {
			if b.done.Load() > gen {
				st.spins.Add(1)
				return int(gen), false
			}
			panic(ErrBarrierAborted)
		}
	}
	// Park on this party's permanent park word.
	wtr := &b.waiters[pos]
	// Drain a stale token from a generation whose release this party
	// caught by spinning: tokens are wake hints, done is the truth, and
	// the channel must be empty before a new claim can be published.
	select {
	case <-wtr.ch:
	default:
	}
	// Announce intent to park before publishing the word: a releaser
	// that misses this increment advanced done before it, so the
	// re-check below cannot miss the release (see Barrier.parked).
	b.parked.Add(1)
	wtr.gen.Store(gen + 1)
	// Publication/recheck handshake: the releaser advances done before
	// scanning the park words, so either it sees this publication (and a
	// token is guaranteed), or this recheck sees done advanced (and the
	// publication must be retracted before leaving).
	if b.done.Load() > gen {
		if !wtr.gen.CompareAndSwap(gen+1, 0) {
			<-wtr.ch // claimed: the token is in flight, consume it
		}
		b.parked.Add(-1)
		st.spins.Add(1)
		return int(gen), false
	}
	if b.aborted.Load() {
		if !wtr.gen.CompareAndSwap(gen+1, 0) {
			<-wtr.ch
		}
		b.parked.Add(-1)
		if b.done.Load() > gen {
			st.spins.Add(1)
			return int(gen), false
		}
		panic(ErrBarrierAborted)
	}
	st.parks.Add(1)
	select {
	case <-wtr.ch:
		// Only this generation's releaser can have claimed the word, and
		// it advanced done first.
		b.parked.Add(-1)
		return int(gen), false
	case <-b.abortCh:
		// Retract the publication; a racing releaser that already
		// claimed it owes a token that must not be left behind.
		if !wtr.gen.CompareAndSwap(gen+1, 0) {
			<-wtr.ch
		}
		b.parked.Add(-1)
		if b.done.Load() > gen {
			// The generation completed concurrently with the abort;
			// this party's barrier succeeded.
			return int(gen), false
		}
		panic(ErrBarrierAborted)
	}
}

// release finishes generation gen as its serial thread: reset the tree so
// the next generation can arrive, advance done (releasing spinners), then
// claim and wake every parked party.
func (b *Barrier) release(gen int64) {
	// Reset before publishing: no party can re-arrive until it observes
	// done advance, which happens after the counters are whole again.
	for i := range b.nodes {
		b.nodes[i].count.Store(b.nodes[i].init)
	}
	b.done.Store(gen + 1)
	// Fast exit when no party is parked (they all caught the release by
	// spinning or yielding): the load is ordered after the done store,
	// so any waiter this misses increments parked only after the store
	// became visible and its own re-check retracts (see Barrier.parked).
	// Skipping the scan removes parties CAS probes from the serial
	// thread's critical path — measurable at T8 on a single-CPU host.
	if b.parked.Load() == 0 {
		return
	}
	for i := range b.waiters {
		wtr := &b.waiters[i]
		if wtr.gen.CompareAndSwap(gen+1, 0) {
			// Claimed: this party is parked (or mid-recheck) for gen.
			// The send cannot block — the owner drained ch before
			// publishing and the claim CAS admits exactly one sender.
			wtr.ch <- struct{}{}
		}
	}
}

// Abort permanently breaks the barrier: every party blocked in Await (and
// every later caller) panics with ErrBarrierAborted. Used when a party
// dies and can never arrive.
func (b *Barrier) Abort() {
	b.aborted.Store(true)
	b.abortOnce.Do(func() { close(b.abortCh) })
}

// ResetStats zeroes every party's counters, so a barrier reused for a
// new team run reports that run alone. Only legal while no party is
// inside the barrier.
func (b *Barrier) ResetStats() {
	for i := range b.stats {
		st := &b.stats[i]
		st.waits.Store(0)
		st.spins.Store(0)
		st.parks.Store(0)
	}
}

// Parties returns the number of participants.
func (b *Barrier) Parties() int { return b.parties }

// PartyStats returns the cumulative wait counters recorded for party id by
// AwaitAs. Anonymous Await calls are credited to the per-generation ticket
// position, so aggregate totals remain meaningful either way.
func (b *Barrier) PartyStats(id int) BarrierStats {
	if id < 0 || id >= b.parties {
		return BarrierStats{}
	}
	st := &b.stats[id]
	return BarrierStats{
		Waits:        st.waits.Load(),
		SpinReleases: st.spins.Load(),
		Parks:        st.parks.Load(),
	}
}
