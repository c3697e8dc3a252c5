package core

import (
	"sync"
	"sync/atomic"
	"testing"
)

// Worker identity soundness. Identity is keyed on the goroutine (its g
// address, or its id on architectures without a getg stub), never on an
// OS thread, so these tests pin the properties thread pinning used to
// give for free: only a pool's own worker goroutines resolve to a worker,
// and a goroutine that inherits a dead worker's key passes for nobody.

// TestGoroutineKeyStable: a goroutine's key is nonzero and the same on
// every call, and two live goroutines never share one.
func TestGoroutineKeyStable(t *testing.T) {
	a, b := GoroutineKey(), GoroutineKey()
	if a != b || a == 0 {
		t.Fatalf("GoroutineKey unstable or zero: %#x, %#x", a, b)
	}
	ch := make(chan uint64)
	release := make(chan struct{})
	go func() { ch <- GoroutineKey(); <-release }()
	other := <-ch
	close(release)
	if other == a {
		t.Fatal("two live goroutines share a key")
	}
}

// TestOnWorkerExcludesPlainGoroutines checks that neither an external
// goroutine nor a plain goroutine started from inside a task (which may
// well run on the worker's OS thread) is taken for a worker.
func TestOnWorkerExcludesPlainGoroutines(t *testing.T) {
	p := NewPool(2)
	defer p.Shutdown()
	external := make(chan bool, 1)
	go func() { external <- p.reg.current() != nil }()
	if <-external {
		t.Fatal("external goroutine claims worker status")
	}
	type result struct{ task, spawned bool }
	res := make(chan result, 1)
	p.Submit(func() {
		spawned := make(chan bool, 1)
		go func() { spawned <- p.reg.current() != nil }()
		res <- result{task: p.reg.current() != nil, spawned: <-spawned}
	})
	r := <-res
	if !r.task {
		t.Fatal("task not recognised as on-worker")
	}
	if r.spawned {
		t.Fatal("goroutine started inside a task claims worker status")
	}
}

// TestOnWorkerIsPerPool checks that a worker of pool A is not a worker
// of pool B.
func TestOnWorkerIsPerPool(t *testing.T) {
	a, b := NewPool(2), NewPool(2)
	defer a.Shutdown()
	defer b.Shutdown()
	type result struct{ onA, onB bool }
	res := make(chan result, 1)
	a.Submit(func() { res <- result{a.reg.current() != nil, b.reg.current() != nil} })
	r := <-res
	if !r.onA || r.onB {
		t.Fatalf("task on pool A: on-worker A=%v B=%v, want true false", r.onA, r.onB)
	}
}

// TestWorkerIdentityNotReusedAfterShutdown churns pools so that their
// workers' goroutines exit, then starts fresh goroutines, which the
// runtime may build on the dead workers' recycled g structs. None of them
// may pass for a worker of any pool: workers unbind before they exit.
func TestWorkerIdentityNotReusedAfterShutdown(t *testing.T) {
	const cycles, fresh = 50, 1000
	pools := make([]*Pool, 0, cycles+1)
	for i := 0; i < cycles; i++ {
		p := NewPool(2)
		done := make(chan struct{})
		p.Submit(func() { close(done) }) // a worker has bound and run
		<-done
		p.Shutdown()
		pools = append(pools, p)
	}
	live := NewPool(2)
	defer live.Shutdown()
	pools = append(pools, live)

	var wg sync.WaitGroup
	var bad atomic.Int32
	wg.Add(fresh)
	for i := 0; i < fresh; i++ {
		go func() {
			defer wg.Done()
			for _, p := range pools {
				if p.reg.current() != nil {
					bad.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d identity checks from fresh goroutines answered true", n)
	}
}

// TestWorkerIdentityNestedHelpJoin checks that a nested HelpJoin still
// identifies its worker and helps from that worker's own deque: LIFO
// from the bottom, with no steals. A one-worker pool has no sibling to
// steal, so an unidentified helper would have to take its children from
// the top of the deque, first submitted first.
func TestWorkerIdentityNestedHelpJoin(t *testing.T) {
	p := NewPool(1)
	defer p.Shutdown()
	var order []int // written only by the single worker
	// spawn submits children base..base+2, each recording its id, and
	// joins the first submitted; body runs inside child base+2.
	var spawn func(base int, body func())
	spawn = func(base int, body func()) {
		first := NewFuture[int]()
		for i := 0; i < 3; i++ {
			id := base + i
			p.Submit(func() {
				order = append(order, id)
				if i == 2 && body != nil {
					body()
				}
				if i == 0 {
					first.Complete(id, nil)
				}
			})
		}
		if !p.HelpJoin(first) {
			t.Error("HelpJoin: task not recognised as on-worker")
		}
	}
	done := make(chan struct{})
	p.Submit(func() {
		defer close(done)
		spawn(10, func() { spawn(20, nil) })
	})
	<-done
	want := []int{12, 22, 21, 20, 11, 10}
	if len(order) != len(want) {
		t.Fatalf("run order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("run order %v, want %v (LIFO from the joining worker's deque)", order, want)
		}
	}
	if steals := p.Stats().Workers[0].DequeStats.Steals; steals != 0 {
		t.Fatalf("%d steals from the worker's deque, want 0", steals)
	}
}
