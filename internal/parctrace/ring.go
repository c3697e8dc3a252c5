package parctrace

import (
	"sync/atomic"

	"parc751/internal/probe"
)

// ring is a fixed-capacity lock-free event ring. Writers claim slots with
// a single fetch-add on pos; the slot's sequence word arbitrates between
// a slow writer and a faster lap overwriting the same slot. All event
// payload words are atomics, so a concurrent reader (a live /tracez dump)
// observes either a fully published event or detects the torn slot via
// the seq re-check and skips it — a seqlock per slot, race-detector clean.
//
// Sequence protocol for claim n (slot n&mask):
//
//	previous published value:  0 for the first lap, else (n-cap+1)<<1
//	writing marker:            previous | 1
//	published value:           (n+1)<<1
//
// A writer CASes previous→writing; a failed CAS means either a slower
// writer from the prior lap still owns the slot or a faster lap already
// passed this claim — both mean this event is lost, and write reports
// false so the recorder can account for it. Published values are even,
// strictly increasing, and unique per claim, so a reader comparing the
// seq word against the claim's expected value can never mistake another
// lap's event for this one.
type ring struct {
	mask  uint64
	pos   atomic.Uint64 // next claim index (total claims so far)
	slots []rslot
}

// rslot is one ring slot: the seq word plus the event payload split into
// four atomically written words (time, kind|worker, task, aux).
type rslot struct {
	seq atomic.Uint64
	t   atomic.Int64
	kw  atomic.Uint64 // Kind<<32 | uint32(Worker)
	tk  atomic.Uint64
	ax  atomic.Uint64
}

// newRing rounds capacity up to a power of two (minimum 2).
func newRing(capacity int) *ring {
	c := 2
	for c < capacity {
		c <<= 1
	}
	return &ring{mask: uint64(c - 1), slots: make([]rslot, c)}
}

func (r *ring) capacity() uint64 { return r.mask + 1 }

// wrapped reports whether the ring has started overwriting (claims
// exceed capacity) — the signal the recorder uses to begin sampling.
func (r *ring) wrapped() bool { return r.pos.Load() > r.mask }

// write claims the next slot and publishes ev. It returns false when the
// claim lost its slot to a lap race: the event is dropped whole, never
// half-written.
func (r *ring) write(ev Event) bool {
	n := r.pos.Add(1) - 1
	s := &r.slots[n&r.mask]
	var prev uint64
	if n > r.mask {
		prev = (n - r.capacity() + 1) << 1
	}
	if !s.seq.CompareAndSwap(prev, prev|1) {
		return false
	}
	s.t.Store(ev.TNs)
	s.kw.Store(uint64(ev.Kind)<<32 | uint64(uint32(ev.Worker)))
	s.tk.Store(ev.Task)
	s.ax.Store(ev.Aux)
	s.seq.Store((n + 1) << 1)
	return true
}

// snapshot returns the readable window in claim order plus the number of
// claims whose events are unavailable: overwritten by a later lap,
// dropped mid-write, or torn under a concurrent writer during this read.
func (r *ring) snapshot() (evs []Event, lost uint64) {
	hi := r.pos.Load()
	var lo uint64
	if c := r.capacity(); hi > c {
		lo = hi - c
		lost = lo
	}
	evs = make([]Event, 0, hi-lo)
	for i := lo; i < hi; i++ {
		s := &r.slots[i&r.mask]
		want := (i + 1) << 1
		if s.seq.Load() != want {
			lost++
			continue
		}
		ev := Event{TNs: s.t.Load()}
		kw := s.kw.Load()
		ev.Kind = probe.Site(kw >> 32)
		ev.Worker = int32(uint32(kw))
		ev.Task = s.tk.Load()
		ev.Aux = s.ax.Load()
		if s.seq.Load() != want {
			lost++
			continue
		}
		evs = append(evs, ev)
	}
	return evs, lost
}
