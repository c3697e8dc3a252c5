package pyjama

import (
	"math/bits"
	"sync/atomic"
)

// slotTable is a lock-free append-only table of construct slots, replacing
// the mutex-guarded maps a region previously kept for its worksharing
// loops, singles, and reductions. SPMD slot numbers are dense from zero
// (every thread counts the constructs it encounters), so the table is a
// segmented vector: segment k holds slotSegBase<<k entries and is
// allocated on demand with a CAS, and each entry is an atomic pointer
// claimed first-arrival-wins. Entering a worksharing construct therefore
// costs two atomic loads on the fast path and never takes a region lock.
type slotTable[T any] struct {
	segs [slotSegs]atomic.Pointer[[]atomic.Pointer[T]]
}

const (
	slotSegBase = 8
	slotSegs    = 28 // capacity slotSegBase*(2^slotSegs - 1): effectively unbounded
)

// slotIndex maps a slot number to its (segment, offset): slot i lives in
// the segment k with slotSegBase*(2^k - 1) <= i, found in O(1) from the
// bit length of i/slotSegBase + 1.
func slotIndex(i int) (seg, off int) {
	q := i/slotSegBase + 1
	seg = bits.Len(uint(q)) - 1
	off = i - slotSegBase*((1<<seg)-1)
	return seg, off
}

func (t *slotTable[T]) segment(seg int) *[]atomic.Pointer[T] {
	sp := t.segs[seg].Load()
	if sp == nil {
		ns := make([]atomic.Pointer[T], slotSegBase<<seg)
		if t.segs[seg].CompareAndSwap(nil, &ns) {
			sp = &ns
		} else {
			sp = t.segs[seg].Load()
		}
	}
	return sp
}

// get returns slot i's value, or nil if no thread has created it yet.
func (t *slotTable[T]) get(i int) *T {
	seg, off := slotIndex(i)
	sp := t.segs[seg].Load()
	if sp == nil {
		return nil
	}
	return (*sp)[off].Load()
}

// drain clears every created entry in slots [0, limit), handing each
// value to keep when keep is non-nil. It requires sole ownership of the
// table (the region join provides it: every team member has returned,
// so no lookup can race the clear). limit is the team's highest
// construct count; slot numbers below it may have gaps — fast-path
// constructs consume a number without creating an entry.
func (t *slotTable[T]) drain(limit int, keep func(*T)) {
	for i := 0; i < limit; i++ {
		seg, off := slotIndex(i)
		sp := t.segs[seg].Load()
		if sp == nil {
			continue
		}
		if v := (*sp)[off].Load(); v != nil {
			(*sp)[off].Store(nil)
			if keep != nil {
				keep(v)
			}
		}
	}
}

// entry returns slot i's cell, allocating its segment on first use.
func (t *slotTable[T]) entry(i int) *atomic.Pointer[T] {
	seg, off := slotIndex(i)
	return &(*t.segment(seg))[off]
}

// getOrCreate returns slot i's value, creating it with create if this call
// is the slot's first arrival. won reports whether this call created the
// value (losers' create results are discarded to the GC).
func (t *slotTable[T]) getOrCreate(i int, create func() *T) (v *T, won bool) {
	p := t.entry(i)
	if v := p.Load(); v != nil {
		return v, false
	}
	nv := create()
	if p.CompareAndSwap(nil, nv) {
		return nv, true
	}
	return p.Load(), false
}

// stash keeps a team's construct states from one region to the next, so
// a warm team's loops and reductions allocate nothing however often the
// GC runs in between; a sync.Pool would drop them at every second GC,
// and the next region would rebuild every construct's state. Members
// take states concurrently during a region; the join, as sole owner,
// puts back every state the region used.
type stash[T any] struct {
	free []*T
	top  atomic.Int64 // free[:top] have not been taken this region
	// spare[id] holds the states member id took for a slot another
	// member won; only member id appends to it during a region.
	spare [][]*T
}

// stashCap bounds what one team keeps per construct kind. A region needs
// one state per construct plus at most one spare per member, so one
// that runs up to about stashCap constructs of a kind allocates none
// once warm; one that runs more builds the rest fresh each time, and
// they go to the garbage collector at the join.
const stashCap = 512

func newStash[T any](members int) stash[T] { return stash[T]{spare: make([][]*T, members)} }

// get returns slot i of t. The first arrival fills the slot with a kept
// state, or a new one, after ready has initialised it; member is the
// caller's id. won reports whether this call filled the slot.
func (s *stash[T]) get(t *slotTable[T], i, member int, ready func(*T)) (v *T, won bool) {
	p := t.entry(i)
	if v := p.Load(); v != nil {
		return v, false
	}
	nv := s.take(member)
	ready(nv)
	if p.CompareAndSwap(nil, nv) {
		return nv, true
	}
	s.spare[member] = append(s.spare[member], nv)
	return p.Load(), false
}

// take returns a state for member to try a slot with: one it lost a
// race with earlier in this region, else a kept one, else a new one. It
// is safe for concurrent members: spares are the member's own, and each
// fetch-add on top hands out a distinct kept entry.
func (s *stash[T]) take(member int) *T {
	if sp := s.spare[member]; len(sp) > 0 {
		s.spare[member] = sp[:len(sp)-1]
		return sp[len(sp)-1]
	}
	if k := s.top.Add(-1); k >= 0 {
		return s.free[k]
	}
	return new(T)
}

// refill puts back the states a region used: the ones it created in
// table slots [0, limit) and the ones members took and lost a slot race
// with. It runs at the join, which owns the stash and the table.
func (s *stash[T]) refill(t *slotTable[T], limit int) {
	s.free = s.free[:max(s.top.Load(), 0)]
	for id, sp := range s.spare {
		for _, v := range sp {
			s.put(v)
		}
		s.spare[id] = sp[:0]
	}
	t.drain(limit, s.put)
	s.top.Store(int64(len(s.free)))
}

func (s *stash[T]) put(v *T) {
	if len(s.free) < stashCap {
		s.free = append(s.free, v)
	}
}
