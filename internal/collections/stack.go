package collections

import (
	"sync"
	"sync/atomic"
)

// Stack is the abstract concurrent LIFO.
type Stack[T any] interface {
	// Push adds v on top.
	Push(v T)
	// TryPop removes the top element; ok is false when empty.
	TryPop() (v T, ok bool)
	// Len reports the approximate number of elements.
	Len() int
}

// MutexStack is the coarse-locked baseline stack.
type MutexStack[T any] struct {
	mu  sync.Mutex
	buf []T
}

// NewMutexStack returns an empty coarse-locked stack.
func NewMutexStack[T any]() *MutexStack[T] { return &MutexStack[T]{} }

// Push implements Stack.
func (s *MutexStack[T]) Push(v T) {
	s.mu.Lock()
	s.buf = append(s.buf, v)
	s.mu.Unlock()
}

// TryPop implements Stack.
func (s *MutexStack[T]) TryPop() (T, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.buf) == 0 {
		var zero T
		return zero, false
	}
	v := s.buf[len(s.buf)-1]
	var zero T
	s.buf[len(s.buf)-1] = zero
	s.buf = s.buf[:len(s.buf)-1]
	return v, true
}

// Len implements Stack.
func (s *MutexStack[T]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.buf)
}

// TreiberStack is Treiber's lock-free stack: a CAS loop on the head of a
// singly linked list.
type TreiberStack[T any] struct {
	head atomic.Pointer[tsNode[T]]
	size atomic.Int64
}

type tsNode[T any] struct {
	v    T
	next *tsNode[T]
}

// NewTreiberStack returns an empty lock-free stack.
func NewTreiberStack[T any]() *TreiberStack[T] { return &TreiberStack[T]{} }

// Push implements Stack.
func (s *TreiberStack[T]) Push(v T) {
	n := &tsNode[T]{v: v}
	for {
		old := s.head.Load()
		n.next = old
		if s.head.CompareAndSwap(old, n) {
			s.size.Add(1)
			return
		}
	}
}

// TryPop implements Stack.
func (s *TreiberStack[T]) TryPop() (T, bool) {
	for {
		old := s.head.Load()
		if old == nil {
			var zero T
			return zero, false
		}
		if s.head.CompareAndSwap(old, old.next) {
			s.size.Add(-1)
			return old.v, true
		}
	}
}

// Len implements Stack.
func (s *TreiberStack[T]) Len() int { return int(s.size.Load()) }
