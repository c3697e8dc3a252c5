package pyjama

import (
	"math/bits"
	"sync/atomic"
)

// slotTable holds a team's construct states, one per SPMD construct
// number: every member counts the constructs of a kind it encounters, so
// the members' k-th constructs meet at entry k. The table is a segmented
// vector: segment s holds slotSegBase<<s entries, is allocated on first
// use with one CAS after init has readied it, and then stays with the
// team from region to region. Entering a construct on a warm team is two
// atomic loads, with no lock and no allocation however often the GC
// runs; the join, as sole owner, readies the entries a region used for
// the next one (reset).
type slotTable[T any] struct {
	segs [slotSegs]atomic.Pointer[[]T]
	init func(seg []T) // readies a new segment before it is published; nil keeps it zeroed
}

const (
	slotSegBase = 8
	slotSegs    = 28 // capacity slotSegBase*(2^slotSegs - 1): effectively unbounded
	// keptSegs is how many segments a team keeps across regions
	// (slotSegBase*(2^keptSegs - 1) = 504 entries); reset drops the rest,
	// so a region that runs more constructs of a kind builds the excess
	// afresh instead of pinning it to the team.
	keptSegs = 6
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

// at returns entry i, allocating and readying its segment on first use.
// Concurrent first users race one CAS; the losers' segments go to the GC
// and every caller gets the published entry.
func (t *slotTable[T]) at(i int) *T {
	seg, off := slotIndex(i)
	sp := t.segs[seg].Load()
	if sp == nil {
		ns := make([]T, slotSegBase<<seg)
		if t.init != nil {
			t.init(ns)
		}
		if t.segs[seg].CompareAndSwap(nil, &ns) {
			sp = &ns
		} else {
			sp = t.segs[seg].Load()
		}
	}
	return &(*sp)[off]
}

// peek returns entry i, or nil when its segment has not been allocated.
func (t *slotTable[T]) peek(i int) *T {
	seg, off := slotIndex(i)
	if sp := t.segs[seg].Load(); sp != nil {
		return &(*sp)[off]
	}
	return nil
}

// reset readies the table for the team's next region: clear, when
// non-nil, runs on every allocated entry below limit, the highest
// construct count any member reached, and segments past keptSegs are
// dropped. It needs sole ownership of the table, which the region join
// provides: every member has returned.
func (t *slotTable[T]) reset(limit int, clear func(*T)) {
	for s, base := 0, 0; base < limit; s, base = s+1, base+slotSegBase<<s {
		sp := t.segs[s].Load()
		switch {
		case sp == nil:
		case s >= keptSegs:
			t.segs[s].Store(nil)
		case clear != nil:
			for i := range min(len(*sp), limit-base) {
				clear(&(*sp)[i])
			}
		}
	}
}
