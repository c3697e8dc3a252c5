package sched

import "sync"

// FIFO is a mutex-protected unbounded FIFO queue: the "global queue"
// baseline that the work-stealing ablation (A1 in DESIGN.md) compares
// against, and the pool's landing spot for external submissions. Every
// worker contends on one lock, which is exactly the bottleneck the
// ablation demonstrates.
//
// Storage is a power-of-two circular buffer: head and tail chase each
// other around a ring that only grows when the live count exceeds the
// capacity, so a steady-state producer/consumer pair allocates nothing
// (the old slice-append form leaked an amortised allocation per
// compaction).
type FIFO[T any] struct {
	mu   sync.Mutex
	buf  []T // len(buf) is a power of two (or 0 before first Push)
	head int // index of the oldest element
	n    int // live element count
}

// Push appends v to the tail of the queue.
func (q *FIFO[T]) Push(v T) {
	q.mu.Lock()
	if q.n == len(q.buf) {
		q.growLocked()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
	q.mu.Unlock()
}

// growLocked doubles the ring (minimum 8), unwrapping the live elements
// to the front of the new buffer.
func (q *FIFO[T]) growLocked() {
	ncap := 2 * len(q.buf)
	if ncap < 8 {
		ncap = 8
	}
	nb := make([]T, ncap)
	for i := 0; i < q.n; i++ {
		nb[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = nb
	q.head = 0
}

// Pop removes the oldest element; ok is false when the queue is empty.
func (q *FIFO[T]) Pop() (v T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.n == 0 {
		var zero T
		return zero, false
	}
	v = q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // release the element to the GC
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v, true
}

// Len reports the number of queued elements.
func (q *FIFO[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// Victim selection: when a worker's own deque is empty it picks other
// workers to steal from. The PARC runtime uses randomized victim selection;
// RoundRobinVictims is the deterministic variant used by the simulator so
// simulated schedules are reproducible.
//
// Both pickers keep one state word per thief and take no lock: Next may
// run concurrently for distinct thieves, but never for the same thief
// from two goroutines. The pool calls it only from the thief worker's own
// goroutine, and the simulator is single-threaded.

// RoundRobinVictims cycles deterministically through workers, skipping the
// thief itself.
type RoundRobinVictims struct {
	n    int
	next []int
}

// NewRoundRobinVictims creates a picker for n workers. n must be >= 2 for
// Next to make sense; with n == 1 Next returns 0.
func NewRoundRobinVictims(n int) *RoundRobinVictims {
	return &RoundRobinVictims{n: n, next: make([]int, n)}
}

// Next returns the next victim index for thief, never equal to thief when
// more than one worker exists.
func (rr *RoundRobinVictims) Next(thief int) int {
	if rr.n <= 1 {
		return 0
	}
	v := rr.next[thief] % rr.n
	if v == thief {
		v = (v + 1) % rr.n
	}
	rr.next[thief] = v + 1
	return v
}

// RandomVictims picks victims pseudo-randomly from a per-thief stream; the
// streams are seeded deterministically so tests remain reproducible, but
// the order is uncorrelated between thieves like the PARC runtime's.
type RandomVictims struct {
	n      int
	states []uint64
}

// NewRandomVictims creates a random picker for n workers seeded from seed.
func NewRandomVictims(n int, seed uint64) *RandomVictims {
	rv := &RandomVictims{n: n, states: make([]uint64, n)}
	for i := range rv.states {
		rv.states[i] = seed + uint64(i)*0x9E3779B97F4A7C15 + 1
	}
	return rv
}

// Next returns a pseudo-random victim for thief, uniform over the other
// workers when more than one exists.
func (rv *RandomVictims) Next(thief int) int {
	if rv.n <= 1 {
		return 0
	}
	// xorshift64* step
	x := rv.states[thief]
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	rv.states[thief] = x
	// Draw from the n-1 other workers and step over the thief.
	v := int((x * 0x2545F4914F6CDD1D) >> 33 % uint64(rv.n-1))
	if v >= thief {
		v++
	}
	return v
}
