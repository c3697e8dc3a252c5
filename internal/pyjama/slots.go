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

// drain hands every created value in slots [0, limit) to fn and clears
// its entry. It requires sole ownership of the table (the region join
// provides it: every team member has returned, so no lookup can race the
// clear). limit is the team's highest construct count; slot numbers
// below it may have gaps — fast-path constructs consume a number without
// creating an entry.
func (t *slotTable[T]) drain(limit int, fn func(*T)) {
	for i := 0; i < limit; i++ {
		seg, off := slotIndex(i)
		sp := t.segs[seg].Load()
		if sp == nil {
			continue
		}
		if v := (*sp)[off].Load(); v != nil {
			(*sp)[off].Store(nil)
			fn(v)
		}
	}
}

// getOrCreate returns slot i's value, creating it with create if this call
// is the slot's first arrival. won reports whether this call created the
// value (losers' create results are discarded to the GC).
func (t *slotTable[T]) getOrCreate(i int, create func() *T) (v *T, won bool) {
	seg, off := slotIndex(i)
	p := &(*t.segment(seg))[off]
	if v := p.Load(); v != nil {
		return v, false
	}
	nv := create()
	if p.CompareAndSwap(nil, nv) {
		return nv, true
	}
	return p.Load(), false
}
