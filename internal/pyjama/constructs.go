package pyjama

// The synchronisation constructs a team member calls on its TC — barrier,
// master, single, critical and sections — and thread-private storage.
// The worksharing loops are in worksharing.go, reductions in reduce.go.

import (
	"fmt"
	"sync"
)

// ThreadNum returns this member's index in [0, NumThreads) — OpenMP's
// omp_get_thread_num.
func (tc *TC) ThreadNum() int { return tc.id }

// NumThreads returns the team size — omp_get_num_threads.
func (tc *TC) NumThreads() int { return tc.reg.n }

// Barrier blocks until every team member reaches it — "#omp barrier".
// Each member arrives at its own leaf of the combining-tree barrier.
func (tc *TC) Barrier() { tc.reg.barrier.AwaitAs(tc.id) }

// barrierSerial is Barrier returning whether this member was the
// generation's serial thread (the last arrival), which worksharing
// constructs use for combine-once semantics.
func (tc *TC) barrierSerial() bool {
	_, serial := tc.reg.barrier.AwaitAs(tc.id)
	return serial
}

// Master runs fn on thread 0 only, with no implied barrier — "#omp master".
func (tc *TC) Master(fn func()) {
	if tc.id == 0 {
		fn()
	}
}

// Single runs fn on exactly one (the first-arriving) team member and then
// barriers the team — "#omp single".
//
//parcvet:ignore unused api Pyjama worksharing construct
func (tc *TC) Single(fn func()) {
	tc.SingleNoWait(fn)
	tc.Barrier()
}

// SingleNoWait is "#omp single nowait": exactly one member runs fn and the
// rest continue immediately. It reports whether this member was the one.
// The claim is one CAS k→k+1 on the team's count of claimed singles,
// where k is this member's single count. A member reaches its k-th
// single only after its CAS on every earlier one won or found the count
// past it, so the count is at least k, and exactly one CAS per k wins.
func (tc *TC) SingleNoWait(fn func()) bool {
	k := int64(tc.singleCount)
	tc.singleCount++
	if tc.reg.singles.CompareAndSwap(k, k+1) {
		fn()
		return true
	}
	return false
}

// Critical runs fn under the named region-wide lock — "#omp critical(name)".
// Different names are independent locks, as in OpenMP.
func (tc *TC) Critical(name string, fn func()) {
	tc.reg.critMu.Lock()
	m, ok := tc.reg.critical[name]
	if !ok {
		if tc.reg.critical == nil {
			tc.reg.critical = map[string]*sync.Mutex{}
		}
		m = &sync.Mutex{}
		tc.reg.critical[name] = m
	}
	tc.reg.critMu.Unlock()
	m.Lock()
	defer m.Unlock()
	fn()
}

// Sections distributes the given section bodies over the team, each
// executed exactly once, followed by the implicit barrier —
// "#omp sections". Sections are handed out dynamically.
//
//parcvet:ignore unused api Pyjama worksharing construct
func (tc *TC) Sections(fns ...func()) {
	tc.ForNoWait(len(fns), Dynamic(1), func(i int) { fns[i]() })
	tc.Barrier()
}

// ThreadPrivate is a fixed-size per-thread storage array — the pattern
// OpenMP's threadprivate clause provides. Index it with ThreadNum. The
// slots are padded to defeat false sharing on real hardware.
type ThreadPrivate[T any] struct {
	slots []paddedSlot[T]
}

type paddedSlot[T any] struct {
	v T
	_ [64]byte
}

// NewThreadPrivate allocates storage for a team of n threads.
func NewThreadPrivate[T any](n int) *ThreadPrivate[T] {
	return &ThreadPrivate[T]{slots: make([]paddedSlot[T], n)}
}

// Get returns a pointer to thread id's slot.
func (tp *ThreadPrivate[T]) Get(id int) *T { return &tp.slots[id].v }

// Len returns the number of slots.
func (tp *ThreadPrivate[T]) Len() int { return len(tp.slots) }

// Values returns a snapshot of all slots in thread order. Call only after
// the region (or at a barrier) — it does not synchronise.
func (tp *ThreadPrivate[T]) Values() []T {
	out := make([]T, len(tp.slots))
	for i := range tp.slots {
		out[i] = tp.slots[i].v
	}
	return out
}

// String implements fmt.Stringer for debugging.
func (tc *TC) String() string {
	return fmt.Sprintf("pyjama.TC(%d/%d)", tc.id, tc.reg.n)
}
