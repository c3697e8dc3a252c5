package collections

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// ---- Queue conformance across every implementation ----

func queues() map[string]func() Queue[int] {
	return map[string]func() Queue[int]{
		"mutex":    func() Queue[int] { return NewMutexQueue[int]() },
		"twolock":  func() Queue[int] { return NewTwoLockQueue[int]() },
		"lockfree": func() Queue[int] { return NewLockFreeQueue[int]() },
		"channel":  func() Queue[int] { return NewChannelQueue[int](64) },
	}
}

func TestQueueFIFOOrder(t *testing.T) {
	for name, mk := range queues() {
		t.Run(name, func(t *testing.T) {
			q := mk()
			if _, ok := q.TryTake(); ok {
				t.Fatal("take from empty succeeded")
			}
			for i := 0; i < 100; i++ {
				q.Put(i)
			}
			if q.Len() != 100 {
				t.Fatalf("Len = %d", q.Len())
			}
			for i := 0; i < 100; i++ {
				v, ok := q.TryTake()
				if !ok || v != i {
					t.Fatalf("take %d = %d,%v", i, v, ok)
				}
			}
			if _, ok := q.TryTake(); ok {
				t.Fatal("drained queue still yields")
			}
		})
	}
}

func TestQueueConcurrentConservation(t *testing.T) {
	for name, mk := range queues() {
		t.Run(name, func(t *testing.T) {
			q := mk()
			const producers, perProducer = 4, 2000
			var taken sync.Map
			var count atomic.Int64
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for i := 0; i < perProducer; i++ {
						q.Put(p*perProducer + i)
					}
				}(p)
			}
			for c := 0; c < 4; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for count.Load() < producers*perProducer {
						if v, ok := q.TryTake(); ok {
							if _, dup := taken.LoadOrStore(v, true); dup {
								t.Errorf("duplicate %d", v)
							}
							count.Add(1)
						}
					}
				}()
			}
			wg.Wait()
			if count.Load() != producers*perProducer {
				t.Fatalf("conserved %d", count.Load())
			}
		})
	}
}

func TestQueuePerProducerOrder(t *testing.T) {
	// FIFO per producer must hold even under concurrency.
	for name, mk := range queues() {
		t.Run(name, func(t *testing.T) {
			q := mk()
			const n = 5000
			done := make(chan struct{})
			go func() {
				for i := 0; i < n; i++ {
					q.Put(i)
				}
				close(done)
			}()
			last := -1
			got := 0
			for got < n {
				if v, ok := q.TryTake(); ok {
					if v <= last {
						t.Fatalf("order violated: %d after %d", v, last)
					}
					last = v
					got++
				}
			}
			<-done
		})
	}
}

func TestChannelQueueOverflow(t *testing.T) {
	q := NewChannelQueue[int](2)
	for i := 0; i < 50; i++ {
		q.Put(i)
	}
	if q.Len() != 50 {
		t.Fatalf("Len = %d", q.Len())
	}
	for i := 0; i < 50; i++ {
		v, ok := q.TryTake()
		if !ok || v != i {
			t.Fatalf("overflowed queue broke FIFO: %d,%v at %d", v, ok, i)
		}
	}
}

func TestBoundedQueue(t *testing.T) {
	q := NewBoundedQueue[string](2)
	if q.capacity != 2 {
		t.Fatalf("capacity = %d", q.capacity)

	}
	if !q.TryPut("a") || !q.TryPut("b") {
		t.Fatal("puts under capacity failed")
	}
	if q.TryPut("c") {
		t.Fatal("put over capacity succeeded")
	}
	if v, ok := q.TryTake(); !ok || v != "a" {
		t.Fatalf("take = %q,%v", v, ok)
	}
	if !q.TryPut("c") {
		t.Fatal("put after take failed")
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d", q.Len())
	}
	// Wrap-around order.
	if v, _ := q.TryTake(); v != "b" {
		t.Fatalf("wrap order broke: %q", v)
	}
	if v, _ := q.TryTake(); v != "c" {
		t.Fatalf("wrap order broke: %q", v)
	}
	if _, ok := q.TryTake(); ok {
		t.Fatal("empty take succeeded")
	}
}

func TestBoundedQueueNeverExceedsCap(t *testing.T) {
	f := func(ops []uint8, capRaw uint8) bool {
		capacity := int(capRaw%8) + 1
		q := NewBoundedQueue[int](capacity)
		for _, op := range ops {
			if op%2 == 0 {
				q.TryPut(int(op))
			} else {
				q.TryTake()
			}
			if q.Len() > capacity || q.Len() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// ---- Stack conformance ----

func stacks() map[string]func() Stack[int] {
	return map[string]func() Stack[int]{
		"mutex":   func() Stack[int] { return NewMutexStack[int]() },
		"treiber": func() Stack[int] { return NewTreiberStack[int]() },
	}
}

func TestStackLIFO(t *testing.T) {
	for name, mk := range stacks() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			if _, ok := s.TryPop(); ok {
				t.Fatal("pop from empty succeeded")
			}
			for i := 0; i < 100; i++ {
				s.Push(i)
			}
			if s.Len() != 100 {
				t.Fatalf("Len = %d", s.Len())
			}
			for i := 99; i >= 0; i-- {
				v, ok := s.TryPop()
				if !ok || v != i {
					t.Fatalf("pop = %d,%v want %d", v, ok, i)
				}
			}
		})
	}
}

func TestStackConcurrentConservation(t *testing.T) {
	for name, mk := range stacks() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			const workers, per = 8, 1000
			var popped sync.Map
			var count atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						s.Push(w*per + i)
						if v, ok := s.TryPop(); ok {
							if _, dup := popped.LoadOrStore(v, true); dup {
								t.Errorf("duplicate %d", v)
							}
							count.Add(1)
						}
					}
				}(w)
			}
			wg.Wait()
			for {
				v, ok := s.TryPop()
				if !ok {
					break
				}
				if _, dup := popped.LoadOrStore(v, true); dup {
					t.Errorf("duplicate drained %d", v)
				}
				count.Add(1)
			}
			if count.Load() != workers*per {
				t.Fatalf("conserved %d of %d", count.Load(), workers*per)
			}
		})
	}
}

// ---- Map conformance ----

func maps_() map[string]func() Map[int, int] {
	return map[string]func() Map[int, int]{
		"mutex":   func() Map[int, int] { return NewMutexMap[int, int]() },
		"rwmutex": func() Map[int, int] { return NewRWMutexMap[int, int]() },
		"sharded": func() Map[int, int] { return NewShardedMap[int, int](16) },
		"syncmap": func() Map[int, int] { return NewSyncMap[int, int]() },
	}
}

func TestMapBasicOps(t *testing.T) {
	for name, mk := range maps_() {
		t.Run(name, func(t *testing.T) {
			m := mk()
			if _, ok := m.Get(1); ok {
				t.Fatal("get on empty map succeeded")
			}
			m.Put(1, 10)
			m.Put(2, 20)
			m.Put(1, 11) // overwrite
			if v, ok := m.Get(1); !ok || v != 11 {
				t.Fatalf("Get(1) = %d,%v", v, ok)
			}
			if m.Len() != 2 {
				t.Fatalf("Len = %d", m.Len())
			}
			m.Delete(1)
			if _, ok := m.Get(1); ok {
				t.Fatal("deleted key still present")
			}
			if m.Len() != 1 {
				t.Fatalf("Len after delete = %d", m.Len())
			}
		})
	}
}

func TestMapGetOrComputeAtomic(t *testing.T) {
	// The task-safe compound op: concurrent GetOrCompute on the same key
	// must observe exactly one stored value.
	for name, mk := range maps_() {
		t.Run(name, func(t *testing.T) {
			m := mk()
			const workers = 16
			results := make([]int, workers)
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					results[w] = m.GetOrCompute(7, func() int {
						return int(next.Add(1))
					})
				}(w)
			}
			wg.Wait()
			first := results[0]
			for w, r := range results {
				if r != first {
					t.Fatalf("worker %d saw %d, worker 0 saw %d", w, r, first)
				}
			}
			if v, _ := m.Get(7); v != first {
				t.Fatalf("stored %d, returned %d", v, first)
			}
		})
	}
}

func TestMapConcurrentMixedOps(t *testing.T) {
	for name, mk := range maps_() {
		t.Run(name, func(t *testing.T) {
			m := mk()
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 1000; i++ {
						k := i % 100
						switch i % 3 {
						case 0:
							m.Put(k, w)
						case 1:
							m.Get(k)
						case 2:
							m.Delete(k)
						}
					}
				}(w)
			}
			wg.Wait()
			if m.Len() < 0 || m.Len() > 100 {
				t.Fatalf("Len = %d out of plausible range", m.Len())
			}
		})
	}
}

func TestShardedMapShardCount(t *testing.T) {
	if got := NewShardedMap[int, int](10).Shards(); got != 16 {
		t.Fatalf("shards = %d, want next power of two 16", got)
	}
	if got := NewShardedMap[int, int](0).Shards(); got != 1 {
		t.Fatalf("shards = %d, want 1", got)
	}
}

func TestShardedMapSpreadsKeys(t *testing.T) {
	sm := NewShardedMap[int, int](8)
	for i := 0; i < 10000; i++ {
		sm.Put(i, i)
	}
	if sm.Len() != 10000 {
		t.Fatalf("Len = %d", sm.Len())
	}
	// No shard should hold everything.
	for i := range sm.shards {
		if len(sm.shards[i].m) == 10000 {
			t.Fatal("all keys landed in one shard")
		}
	}
}

// ---- Counters ----

func TestCountersExact(t *testing.T) {
	counters := map[string]Counter{
		"mutex":   &MutexCounter{},
		"atomic":  &AtomicCounter{},
		"sharded": NewShardedCounter(8),
	}
	for name, c := range counters {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			const workers, per = 8, 10000
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					if sc, ok := c.(*ShardedCounter); ok {
						for i := 0; i < per; i++ {
							sc.IncStripe(w)
						}
						return
					}
					for i := 0; i < per; i++ {
						c.Inc()
					}
				}(w)
			}
			wg.Wait()
			if c.Value() != workers*per {
				t.Fatalf("count = %d, want %d", c.Value(), workers*per)
			}
		})
	}
}

func TestChannelCounter(t *testing.T) {
	c := NewChannelCounter()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	c.Close()
	if c.Value() != 4000 {
		t.Fatalf("count = %d", c.Value())
	}
	c.Close() // idempotent
}

func BenchmarkQueues(b *testing.B) {
	for name, mk := range queues() {
		b.Run(name, func(b *testing.B) {
			q := mk()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if i%2 == 0 {
						q.Put(i)
					} else {
						q.TryTake()
					}
					i++
				}
			})
		})
	}
}

func BenchmarkMapsReadHeavy(b *testing.B) {
	for name, mk := range maps_() {
		b.Run(name, func(b *testing.B) {
			m := mk()
			for i := 0; i < 1000; i++ {
				m.Put(i, i)
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if i%10 == 0 {
						m.Put(i%1000, i)
					} else {
						m.Get(i % 1000)
					}
					i++
				}
			})
		})
	}
}

func BenchmarkCounters(b *testing.B) {
	b.Run("mutex", func(b *testing.B) {
		c := &MutexCounter{}
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c.Inc()
			}
		})
	})
	b.Run("atomic", func(b *testing.B) {
		c := &AtomicCounter{}
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c.Inc()
			}
		})
	})
}
