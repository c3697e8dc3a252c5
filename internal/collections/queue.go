// Package collections implements the concurrent data structures for two of
// the reproduced projects: the task-safe collection library (project 6 —
// counterparts to java.util.concurrent classes that remain correct under a
// tasking model) and the lock-strategy comparison set (project 9 —
// the same abstract structure implemented with coarse locks, reader/writer
// locks, sharding, atomics, and channels, so their throughput can be
// compared under different read/write mixes).
package collections

import (
	"sync"
	"sync/atomic"
)

// Queue is the abstract concurrent FIFO all queue variants implement.
type Queue[T any] interface {
	// Put appends v.
	Put(v T)
	// TryTake removes the oldest element; ok is false when empty.
	TryTake() (v T, ok bool)
	// Len reports the approximate number of elements.
	Len() int
}

// MutexQueue is the coarse-grained baseline: one lock around a slice ring.
type MutexQueue[T any] struct {
	mu   sync.Mutex
	buf  []T
	head int
}

// NewMutexQueue returns an empty coarse-locked queue.
func NewMutexQueue[T any]() *MutexQueue[T] { return &MutexQueue[T]{} }

// Put implements Queue.
func (q *MutexQueue[T]) Put(v T) {
	q.mu.Lock()
	q.buf = append(q.buf, v)
	q.mu.Unlock()
}

// TryTake implements Queue.
func (q *MutexQueue[T]) TryTake() (T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head == len(q.buf) {
		var zero T
		return zero, false
	}
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head > 64 && q.head*2 > len(q.buf) {
		q.buf = append([]T(nil), q.buf[q.head:]...)
		q.head = 0
	}
	return v, true
}

// Len implements Queue.
func (q *MutexQueue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buf) - q.head
}

// TwoLockQueue is the Michael & Scott two-lock linked queue: producers and
// consumers contend on separate locks, so a mixed workload pipelines.
type TwoLockQueue[T any] struct {
	headMu sync.Mutex // protects head (consumers)
	tailMu sync.Mutex // protects tail (producers)
	head   *tlNode[T] // dummy node
	tail   *tlNode[T]
	size   atomic.Int64
}

// tlNode's next pointer is atomic: when the queue holds only the dummy
// node, head == tail, so a producer storing next (under the tail lock)
// and a consumer loading it (under the head lock) touch the same word
// under *different* locks — correct in the original Michael & Scott
// formulation, but a data race under the Go memory model unless the
// pointer itself synchronises.
type tlNode[T any] struct {
	v    T
	next atomic.Pointer[tlNode[T]]
}

// NewTwoLockQueue returns an empty two-lock queue.
func NewTwoLockQueue[T any]() *TwoLockQueue[T] {
	dummy := &tlNode[T]{}
	return &TwoLockQueue[T]{head: dummy, tail: dummy}
}

// Put implements Queue.
func (q *TwoLockQueue[T]) Put(v T) {
	n := &tlNode[T]{v: v}
	q.tailMu.Lock()
	q.tail.next.Store(n)
	q.tail = n
	q.tailMu.Unlock()
	q.size.Add(1)
}

// TryTake implements Queue.
func (q *TwoLockQueue[T]) TryTake() (T, bool) {
	q.headMu.Lock()
	next := q.head.next.Load()
	if next == nil {
		q.headMu.Unlock()
		var zero T
		return zero, false
	}
	v := next.v
	var zero T
	next.v = zero // drop reference for GC; next becomes the new dummy
	q.head = next
	q.headMu.Unlock()
	q.size.Add(-1)
	return v, true
}

// Len implements Queue.
func (q *TwoLockQueue[T]) Len() int { return int(q.size.Load()) }

// LockFreeQueue is the Michael & Scott non-blocking queue built on
// compare-and-swap, the classic lock-free FIFO.
type LockFreeQueue[T any] struct {
	head atomic.Pointer[lfNode[T]]
	tail atomic.Pointer[lfNode[T]]
	size atomic.Int64
}

type lfNode[T any] struct {
	v    T
	next atomic.Pointer[lfNode[T]]
}

// NewLockFreeQueue returns an empty lock-free queue.
func NewLockFreeQueue[T any]() *LockFreeQueue[T] {
	q := &LockFreeQueue[T]{}
	dummy := &lfNode[T]{}
	q.head.Store(dummy)
	q.tail.Store(dummy)
	return q
}

// Put implements Queue.
func (q *LockFreeQueue[T]) Put(v T) {
	n := &lfNode[T]{v: v}
	for {
		tail := q.tail.Load()
		next := tail.next.Load()
		if tail != q.tail.Load() {
			continue // tail moved under us; retry
		}
		if next != nil {
			// Tail lagging: help advance it.
			q.tail.CompareAndSwap(tail, next)
			continue
		}
		if tail.next.CompareAndSwap(nil, n) {
			q.tail.CompareAndSwap(tail, n)
			q.size.Add(1)
			return
		}
	}
}

// TryTake implements Queue.
func (q *LockFreeQueue[T]) TryTake() (T, bool) {
	for {
		head := q.head.Load()
		tail := q.tail.Load()
		next := head.next.Load()
		if head != q.head.Load() {
			continue
		}
		if next == nil {
			var zero T
			return zero, false // empty
		}
		if head == tail {
			// Tail lagging behind a non-empty queue: help.
			q.tail.CompareAndSwap(tail, next)
			continue
		}
		v := next.v
		if q.head.CompareAndSwap(head, next) {
			q.size.Add(-1)
			return v, true
		}
	}
}

// Len implements Queue.
func (q *LockFreeQueue[T]) Len() int { return int(q.size.Load()) }

// ChannelQueue adapts a buffered channel to the Queue interface — the
// share-by-communicating variant in the project 9 comparison. Put on a
// full channel falls back to growing through an overflow list to preserve
// the unbounded Queue contract.
type ChannelQueue[T any] struct {
	ch       chan T
	mu       sync.Mutex
	overflow []T
}

// NewChannelQueue returns a channel-backed queue with the given buffer.
func NewChannelQueue[T any](buffer int) *ChannelQueue[T] {
	if buffer < 1 {
		buffer = 1
	}
	return &ChannelQueue[T]{ch: make(chan T, buffer)}
}

// Put implements Queue.
func (q *ChannelQueue[T]) Put(v T) {
	// Drain overflow first to preserve FIFO when the channel had filled.
	q.mu.Lock()
	if len(q.overflow) > 0 {
		q.overflow = append(q.overflow, v)
		q.drainLocked()
		q.mu.Unlock()
		return
	}
	q.mu.Unlock()
	select {
	case q.ch <- v:
	default:
		q.mu.Lock()
		q.overflow = append(q.overflow, v)
		q.drainLocked()
		q.mu.Unlock()
	}
}

func (q *ChannelQueue[T]) drainLocked() {
	for len(q.overflow) > 0 {
		select {
		case q.ch <- q.overflow[0]:
			q.overflow = q.overflow[1:]
		default:
			return
		}
	}
}

// TryTake implements Queue.
func (q *ChannelQueue[T]) TryTake() (T, bool) {
	select {
	case v := <-q.ch:
		q.mu.Lock()
		q.drainLocked()
		q.mu.Unlock()
		return v, true
	default:
		var zero T
		return zero, false
	}
}

// Len implements Queue.
func (q *ChannelQueue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.ch) + len(q.overflow)
}

// BoundedQueue is the task-safe bounded buffer (project 6). Java's
// BlockingQueue blocks the calling thread when full or empty; under a
// tasking runtime that can park every worker and deadlock the pool, so
// the task-safe counterpart is non-blocking: TryPut/TryTake report
// failure and let the task reschedule itself.
type BoundedQueue[T any] struct {
	mu       sync.Mutex
	buf      []T
	head, n  int
	capacity int
}

// NewBoundedQueue returns an empty bounded queue with the given capacity
// (minimum 1).
func NewBoundedQueue[T any](capacity int) *BoundedQueue[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &BoundedQueue[T]{buf: make([]T, capacity), capacity: capacity}
}

// TryPut appends v, reporting false when the queue is full.
func (q *BoundedQueue[T]) TryPut(v T) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.n == q.capacity {
		return false
	}
	q.buf[(q.head+q.n)%q.capacity] = v
	q.n++
	return true
}

// TryTake removes the oldest element, reporting false when empty.
func (q *BoundedQueue[T]) TryTake() (T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	var zero T
	if q.n == 0 {
		return zero, false
	}
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) % q.capacity
	q.n--
	return v, true
}

// Len reports the number of buffered elements.
func (q *BoundedQueue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}
