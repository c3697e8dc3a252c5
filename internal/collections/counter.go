package collections

import (
	"sync"
	"sync/atomic"
)

// Counter is the abstract shared counter of the project 9 lock-strategy
// comparison: the minimal shared-state benchmark (the paper's students
// used it to study synchronized vs atomic variables vs locks).
type Counter interface {
	// Inc adds one.
	Inc()
	// Value returns the current count.
	Value() int64
}

// MutexCounter guards an int with a mutex ("synchronized").
type MutexCounter struct {
	mu sync.Mutex
	n  int64
}

// Inc implements Counter.
func (c *MutexCounter) Inc() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

// Value implements Counter.
func (c *MutexCounter) Value() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// AtomicCounter uses a hardware atomic add ("AtomicLong").
type AtomicCounter struct {
	n atomic.Int64
}

// Inc implements Counter.
func (c *AtomicCounter) Inc() { c.n.Add(1) }

// Value implements Counter.
func (c *AtomicCounter) Value() int64 { return c.n.Load() }

// ShardedCounter stripes the count over padded cells indexed by a caller-
// supplied stripe hint (typically the worker id), trading exactness of
// intermediate reads for contention-free increments ("LongAdder").
type ShardedCounter struct {
	cells []counterCell
}

type counterCell struct {
	n atomic.Int64
	_ [56]byte
}

// NewShardedCounter creates a counter with the given stripe count
// (minimum 1).
func NewShardedCounter(stripes int) *ShardedCounter {
	if stripes < 1 {
		stripes = 1
	}
	return &ShardedCounter{cells: make([]counterCell, stripes)}
}

// IncStripe adds one to the given stripe (stripe % stripes).
func (c *ShardedCounter) IncStripe(stripe int) {
	c.cells[stripe%len(c.cells)].n.Add(1)
}

// Inc implements Counter using stripe 0; prefer IncStripe with a worker id.
func (c *ShardedCounter) Inc() { c.IncStripe(0) }

// Value implements Counter by summing all stripes.
func (c *ShardedCounter) Value() int64 {
	var sum int64
	for i := range c.cells {
		sum += c.cells[i].n.Load()
	}
	return sum
}

// ChannelCounter serialises increments through a channel to a counting
// goroutine — the share-by-communicating strategy. Close it when done.
type ChannelCounter struct {
	ch   chan struct{}
	done chan struct{}
	n    atomic.Int64
	once sync.Once
}

// NewChannelCounter starts the counting goroutine.
func NewChannelCounter() *ChannelCounter {
	c := &ChannelCounter{ch: make(chan struct{}, 1024), done: make(chan struct{})}
	go func() {
		for range c.ch {
			c.n.Add(1)
		}
		close(c.done)
	}()
	return c
}

// Inc implements Counter.
func (c *ChannelCounter) Inc() { c.ch <- struct{}{} }

// Value implements Counter. It reflects increments processed so far; call
// Close first for an exact final value.
func (c *ChannelCounter) Value() int64 { return c.n.Load() }

// Close stops the counting goroutine after draining pending increments.
func (c *ChannelCounter) Close() {
	c.once.Do(func() {
		close(c.ch)
		<-c.done
	})
}
