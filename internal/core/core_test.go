package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestCatchNoPanic(t *testing.T) {
	if err := Catch(func() {}); err != nil {
		t.Fatalf("err = %v", err)
	}
}

func TestCatchPanic(t *testing.T) {
	err := Catch(func() { panic("boom") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PanicError", err)
	}
	if pe.Value != "boom" {
		t.Errorf("Value = %v", pe.Value)
	}
	if pe.Stack == "" {
		t.Error("stack missing")
	}
	if pe.Error() == "" {
		t.Error("empty error text")
	}
}

func TestFutureCompleteAndGet(t *testing.T) {
	f := NewFuture[int]()
	if f.IsDone() {
		t.Fatal("new future claims done")
	}
	go f.Complete(42, nil)
	v, err := f.Get()
	if v != 42 || err != nil {
		t.Fatalf("Get = %d, %v", v, err)
	}
	if !f.IsDone() {
		t.Fatal("done future claims incomplete")
	}
}

func TestFutureWriteOnce(t *testing.T) {
	f := NewFuture[string]()
	f.Complete("first", nil)
	f.Complete("second", errors.New("late"))
	v, err := f.Get()
	if v != "first" || err != nil {
		t.Fatalf("second completion overwrote: %q, %v", v, err)
	}
}

func TestFutureError(t *testing.T) {
	f := NewFuture[int]()
	want := errors.New("failed")
	f.Complete(0, want)
	if _, err := f.Get(); err != want {
		t.Fatalf("err = %v", err)
	}
}

func TestPoolRunsAllTasks(t *testing.T) {
	p := NewPool(4)
	defer p.Shutdown()
	var n atomic.Int64
	const tasks = 1000
	for i := 0; i < tasks; i++ {
		p.Submit(func() { n.Add(1) })
	}
	p.Quiesce()
	if n.Load() != tasks {
		t.Fatalf("ran %d of %d", n.Load(), tasks)
	}
	if p.Executed() < tasks {
		t.Fatalf("Executed = %d", p.Executed())
	}
}

func TestPoolSizeClamp(t *testing.T) {
	p := NewPool(0)
	defer p.Shutdown()
	if p.Size() != 1 {
		t.Fatalf("Size = %d, want 1", p.Size())
	}
}

func TestPoolSurvivesPanickingTask(t *testing.T) {
	p := NewPool(2)
	defer p.Shutdown()
	p.Submit(func() { panic("task bug") })
	var ok atomic.Bool
	p.Submit(func() { ok.Store(true) })
	p.Quiesce()
	if !ok.Load() {
		t.Fatal("pool died after a panicking task")
	}
}

func TestOnWorker(t *testing.T) {
	p := NewPool(2)
	defer p.Shutdown()
	if p.reg.current() != nil {
		t.Fatal("test goroutine claims worker status")
	}
	res := make(chan bool, 1)
	p.Submit(func() { res <- p.reg.current() != nil })
	if !<-res {
		t.Fatal("task not recognised as on-worker")
	}
}

func TestSubmitFromWorkerUsesOwnDeque(t *testing.T) {
	// Nested submission must work and run everything.
	p := NewPool(2)
	defer p.Shutdown()
	var n atomic.Int64
	var wg sync.WaitGroup
	wg.Add(10 * 10)
	for i := 0; i < 10; i++ {
		p.Submit(func() {
			for j := 0; j < 10; j++ {
				p.Submit(func() {
					n.Add(1)
					wg.Done()
				})
			}
		})
	}
	wg.Wait()
	if n.Load() != 100 {
		t.Fatalf("nested tasks ran %d", n.Load())
	}
}

// TestHelpAvoidsJoinDeadlock is the critical runtime property: a
// single-worker pool running a task that blocks on child futures would
// deadlock without helping.
func TestHelpAvoidsJoinDeadlock(t *testing.T) {
	p := NewPool(1)
	defer p.Shutdown()
	result := make(chan int, 1)
	p.Submit(func() {
		child := NewFuture[int]()
		p.Submit(func() { child.Complete(7, nil) })
		p.HelpJoin(child)
		v, _ := child.Get()
		result <- v
	})
	select {
	case v := <-result:
		if v != 7 {
			t.Fatalf("child result = %d", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("join deadlocked on single-worker pool")
	}
}

func TestHelpRecursive(t *testing.T) {
	// Recursive fib-style decomposition on a 2-worker pool: every level
	// joins on children; helping must keep all of it moving.
	p := NewPool(2)
	defer p.Shutdown()
	var fib func(n int) int
	fib = func(n int) int {
		if n < 2 {
			return n
		}
		f := NewFuture[int]()
		p.Submit(func() { f.Complete(fib(n-1), nil) })
		b := fib(n - 2)
		p.HelpJoin(f)
		a, _ := f.Get()
		return a + b
	}
	done := make(chan int, 1)
	p.Submit(func() { done <- fib(12) })
	select {
	case v := <-done:
		if v != 144 {
			t.Fatalf("fib(12) = %d", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("recursive join deadlocked")
	}
}

func TestShutdownRunsBacklog(t *testing.T) {
	p := NewPool(2)
	var n atomic.Int64
	for i := 0; i < 500; i++ {
		p.Submit(func() { n.Add(1) })
	}
	p.Shutdown()
	if n.Load() != 500 {
		t.Fatalf("%d of 500 ran before shutdown", n.Load())
	}
}

func TestBarrierReleasesTogether(t *testing.T) {
	const parties = 4
	b := NewBarrier(parties)
	var before, after atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < parties; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			before.Add(1)
			b.AwaitAs(i)
			// By the time anyone passes, all must have arrived.
			if before.Load() != parties {
				t.Errorf("released with only %d arrived", before.Load())
			}
			after.Add(1)
		}(i)
	}
	wg.Wait()
	if after.Load() != parties {
		t.Fatalf("only %d passed", after.Load())
	}
}

func TestBarrierCyclic(t *testing.T) {
	const parties, rounds = 3, 5
	b := NewBarrier(parties)
	var wg sync.WaitGroup
	gens := make([][]int, parties)
	for i := 0; i < parties; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				g, _ := b.AwaitAs(i)
				gens[i] = append(gens[i], g)
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < parties; i++ {
		for r := 0; r < rounds; r++ {
			if gens[i][r] != r {
				t.Fatalf("party %d saw generation %d at round %d", i, gens[i][r], r)
			}
		}
	}
}

func TestBarrierSerialExactlyOne(t *testing.T) {
	const parties = 5
	b := NewBarrier(parties)
	var serials atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < parties; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, serial := b.AwaitAs(i); serial {
				serials.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if serials.Load() != 1 {
		t.Fatalf("%d serial parties, want 1", serials.Load())
	}
}

func TestBarrierSingleParty(t *testing.T) {
	b := NewBarrier(1)
	for r := 0; r < 3; r++ {
		g, serial := b.AwaitAs(0)
		if g != r || !serial {
			t.Fatalf("round %d: gen=%d serial=%v", r, g, serial)
		}
	}
	if len(NewBarrier(0).party) != 1 {

		t.Error("parties clamp failed")
	}
}

func TestBarrierAbortWakesWaiters(t *testing.T) {
	b := NewBarrier(3)
	panics := make(chan any, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			defer func() { panics <- recover() }()
			b.AwaitAs(i) // the third party never arrives
		}(i)
	}
	time.Sleep(5 * time.Millisecond)
	b.Abort()
	for i := 0; i < 2; i++ {
		select {
		case v := <-panics:
			if v != ErrBarrierAborted {
				t.Fatalf("waiter panicked with %v", v)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("abort did not wake waiter")
		}
	}
	// Later callers fail immediately too.
	defer func() {
		if recover() != ErrBarrierAborted {
			t.Fatal("post-abort AwaitAs did not panic")
		}
	}()
	b.AwaitAs(2)
}

func TestStaticBlockCoverage(t *testing.T) {
	f := func(nRaw, pRaw uint8) bool {
		n, p := int(nRaw), int(pRaw%32)+1
		prevHi, parties := 0, 0
		min, max := n+1, -1
		for i := 0; i < p; i++ {
			c, ok := StaticBlock(n, p, i)
			if !ok {
				// Only the parties beyond the iteration count get nothing.
				if c != (Chunk{}) || i < n {
					return false
				}
				continue
			}
			if c.Lo != prevHi || c.Len() < 1 {
				return false
			}
			if c.Len() < min {
				min = c.Len()
			}
			if c.Len() > max {
				max = c.Len()
			}
			prevHi = c.Hi
			parties++
		}
		if n == 0 {
			return parties == 0
		}
		return prevHi == n && max-min <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChunksDegenerate(t *testing.T) {
	for _, c := range []struct{ n, p, i int }{
		{-1, 4, 0}, {0, 4, 0}, {4, 0, 0}, {4, 4, -1}, {4, 4, 4}, {2, 8, 2},
	} {
		if _, ok := StaticBlock(c.n, c.p, c.i); ok {
			t.Errorf("StaticBlock(%d, %d, %d) gave a block", c.n, c.p, c.i)
		}
	}
	for i := 0; i < 2; i++ {
		if c, ok := StaticBlock(2, 8, i); !ok || c != (Chunk{i, i + 1}) {
			t.Errorf("n<p: party %d got %v, %v", i, c, ok)
		}
	}
}

// Regression: Submit after Shutdown must panic loudly instead of silently
// stranding the task (workers are gone; any join on it would deadlock).
func TestSubmitAfterShutdownPanics(t *testing.T) {
	p := NewPool(2)
	p.Shutdown()
	defer func() {
		if recover() == nil {
			t.Fatal("Submit after Shutdown did not panic")
		}
	}()
	p.Submit(func() {})
}

func TestShutdownIdempotent(t *testing.T) {
	p := NewPool(2)
	var ran atomic.Bool
	p.Submit(func() { ran.Store(true) })
	p.Shutdown()
	p.Shutdown() // second call must be a no-op, not a double channel close
	if !ran.Load() {
		t.Fatal("task did not run before shutdown")
	}
	// Concurrent callers racing the first close must also be safe.
	q := NewPool(2)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); q.Shutdown() }()
	}
	wg.Wait()
}

// Stress the Submit/findWork window under many external submitters and a
// tiny pool: the queued counter must never strand a parking worker (a
// missed wakeup here shows up as a hang). Run under -race in CI.
func TestSubmitStressNoMissedWakeup(t *testing.T) {
	p := NewPool(2)
	defer p.Shutdown()
	const submitters = 16
	const perSubmitter = 500
	var ran atomic.Int64
	done := make(chan struct{})
	go func() {
		var wg sync.WaitGroup
		for s := 0; s < submitters; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perSubmitter; i++ {
					p.Submit(func() { ran.Add(1) })
					if i%7 == 0 {
						// Mix in worker-side spawning via nested submits.
						p.Submit(func() {
							p.Submit(func() { ran.Add(1) })
						})
					}
				}
			}()
		}
		wg.Wait()
		p.Quiesce()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("stress run hung: ran=%d queued-ish inflight", ran.Load())
	}
	want := int64(submitters * (perSubmitter + (perSubmitter+6)/7))
	if ran.Load() != want {
		t.Fatalf("ran %d of %d tasks", ran.Load(), want)
	}
}

// The scheduler snapshot must conserve tasks: everything submitted is
// accounted for by deque pops, steals, and global-queue service.
func TestPoolStatsSnapshot(t *testing.T) {
	p := NewPool(4)
	defer p.Shutdown()
	const ext = 500
	var wg sync.WaitGroup
	wg.Add(ext)
	for i := 0; i < ext; i++ {
		p.Submit(func() {
			// Each external task spawns one child from the worker side.
			p.Submit(wg.Done)
		})
	}
	wg.Wait()
	p.Quiesce()
	s := p.Stats()
	if s.Executed != 2*ext {
		t.Fatalf("Executed = %d, want %d", s.Executed, 2*ext)
	}
	if s.Inflight != 0 || s.Queued != 0 || s.GlobalDepth != 0 {
		t.Fatalf("quiesced pool not settled: %+v", s)
	}
	if s.GlobalSubmits != ext {
		t.Fatalf("GlobalSubmits = %d, want %d", s.GlobalSubmits, ext)
	}
	if s.TotalPushes() != ext {
		t.Fatalf("worker-side pushes = %d, want %d", s.TotalPushes(), ext)
	}
	var served int64
	for _, w := range s.Workers {
		served += w.Pops + w.Steals
	}
	if served != s.TotalPushes() {
		t.Fatalf("deque served %d of %d pushes", served, s.TotalPushes())
	}
	if len(s.Workers) != 4 {
		t.Fatalf("snapshot has %d workers", len(s.Workers))
	}
	if s.SubmitLatency.Total == 0 {
		t.Fatal("latency sampler recorded nothing over 1000 submits")
	}
}

// Workers parked by idleness must be woken by later submissions — the
// park/wake counters prove the targeted-wakeup path actually runs.
func TestParkWakeCycle(t *testing.T) {
	p := NewPool(2)
	defer p.Shutdown()
	for round := 0; round < 20; round++ {
		p.Submit(func() {})
		p.Quiesce()
		time.Sleep(time.Millisecond) // let workers park between rounds
	}
	s := p.Stats()
	if s.TotalParks() == 0 {
		t.Fatal("no worker ever parked across idle rounds")
	}
}

func BenchmarkPoolSubmitFromWorker(b *testing.B) {
	p := NewPool(4)
	defer p.Shutdown()
	var wg sync.WaitGroup
	wg.Add(1)
	b.ResetTimer()
	p.Submit(func() {
		defer wg.Done()
		var inner sync.WaitGroup
		inner.Add(b.N)
		for i := 0; i < b.N; i++ {
			p.Submit(inner.Done) // hits the worker-identity fast path
		}
		inner.Wait()
	})
	wg.Wait()
}
