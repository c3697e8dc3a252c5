package eventloop

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestEventsRunInOrder(t *testing.T) {
	l := New()
	defer l.Close()
	var mu sync.Mutex
	var got []int
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		i := i
		if err := l.InvokeLater(func() {
			mu.Lock()
			got = append(got, i)
			mu.Unlock()
			wg.Done()
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	for i, v := range got {
		if v != i {
			t.Fatalf("event %d ran out of order (got %d)", i, v)
		}
	}
}

func TestEventsAreSerial(t *testing.T) {
	l := New()
	defer l.Close()
	var inHandler atomic.Int32
	var overlap atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		l.InvokeLater(func() {
			if inHandler.Add(1) > 1 {
				overlap.Add(1)
			}
			time.Sleep(100 * time.Microsecond)
			inHandler.Add(-1)
			wg.Done()
		})
	}
	wg.Wait()
	if overlap.Load() != 0 {
		t.Fatalf("%d events overlapped", overlap.Load())
	}
}

func TestOnDispatchThread(t *testing.T) {
	l := New()
	defer l.Close()
	if l.OnDispatchThread() {
		t.Fatal("test goroutine claims to be the dispatcher")
	}
	var inside bool
	l.InvokeAndWait(func() { inside = l.OnDispatchThread() })
	if !inside {
		t.Fatal("handler did not run on dispatch thread")
	}
}

// TestOnDispatchThreadAfterClose: once the dispatcher has exited, the
// runtime may build a fresh goroutine on its recycled g and so hand it
// the dispatcher's key. The loop forgets the key before it reports
// drained, so no fresh goroutine passes for the dispatcher, and
// InvokeAndWait from one returns ErrClosed instead of running inline.
func TestOnDispatchThreadAfterClose(t *testing.T) {
	const cycles, fresh = 50, 20
	for i := 0; i < cycles; i++ {
		l := New()
		l.Close()
		var wg sync.WaitGroup
		var bad atomic.Int32
		wg.Add(fresh)
		for j := 0; j < fresh; j++ {
			go func() {
				defer wg.Done()
				if l.OnDispatchThread() || !errors.Is(l.InvokeAndWait(func() {}), ErrClosed) {
					bad.Add(1)
				}
			}()
		}
		wg.Wait()
		if n := bad.Load(); n > 0 {
			t.Fatalf("cycle %d: %d fresh goroutines passed for a closed loop's dispatcher", i, n)
		}
	}
}

func TestInvokeAndWaitBlocksUntilDone(t *testing.T) {
	l := New()
	defer l.Close()
	var done atomic.Bool
	l.InvokeAndWait(func() {
		time.Sleep(5 * time.Millisecond)
		done.Store(true)
	})
	if !done.Load() {
		t.Fatal("InvokeAndWait returned before handler completed")
	}
}

func TestInvokeAndWaitFromDispatchThreadRunsInline(t *testing.T) {
	l := New()
	defer l.Close()
	finished := make(chan bool, 1)
	l.InvokeLater(func() {
		// Would deadlock if not run inline.
		ok := false
		l.InvokeAndWait(func() { ok = true })
		finished <- ok
	})
	select {
	case ok := <-finished:
		if !ok {
			t.Fatal("nested InvokeAndWait did not run")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("nested InvokeAndWait deadlocked")
	}
}

func TestCloseDrainsBacklog(t *testing.T) {
	l := New()
	var ran atomic.Int32
	for i := 0; i < 200; i++ {
		l.InvokeLater(func() { ran.Add(1) })
	}
	l.Close()
	if ran.Load() != 200 {
		t.Fatalf("only %d of 200 events ran before Close returned", ran.Load())
	}
	if err := l.InvokeLater(func() {}); err != ErrClosed {
		t.Fatalf("post after close = %v, want ErrClosed", err)
	}
}

func TestCloseIdempotent(t *testing.T) {
	l := New()
	l.Close()
	l.Close() // must not panic or hang
}

func TestDispatchedCounter(t *testing.T) {
	l := New()
	for i := 0; i < 10; i++ {
		l.InvokeLater(func() {})
	}
	l.Close()
	if got := l.Dispatched(); got != 10 {
		t.Fatalf("Dispatched = %d", got)
	}
}

func TestQueueLenAndMax(t *testing.T) {
	l := New()
	defer l.Close()
	block := make(chan struct{})
	l.InvokeLater(func() { <-block })
	for i := 0; i < 5; i++ {
		l.InvokeLater(func() {})
	}
	// Allow the first event to start so only the backlog remains.
	time.Sleep(5 * time.Millisecond)
	if q := l.QueueLen(); q != 5 {
		t.Errorf("QueueLen = %d, want 5", q)
	}
	close(block)

}

// TestProbeResponsiveWhenIdle is half of the paper's responsiveness story:
// an unblocked event thread services probes quickly.
func TestProbeResponsiveWhenIdle(t *testing.T) {
	l := New()
	defer l.Close()
	res := l.Probe(time.Millisecond, 20)
	if res.Dropped() != 0 {
		t.Fatalf("dropped %d probes", res.Dropped())
	}
	if res.Max() > 200*time.Millisecond {
		t.Errorf("idle loop latency %v implausibly high", res.Max())
	}
	if res.Summary().N() != 20 {
		t.Errorf("summary count = %d", res.Summary().N())
	}
}

// TestProbeDetectsBlockedLoop is the other half: doing the work ON the
// event thread (the anti-pattern the projects teach against) makes probe
// latency blow up.
func TestProbeDetectsBlockedLoop(t *testing.T) {
	l := New()
	defer l.Close()
	const block = 80 * time.Millisecond
	l.InvokeLater(func() { time.Sleep(block) })
	res := l.Probe(time.Millisecond, 5)
	if res.Max() < block/4 {
		t.Errorf("probe missed a blocked loop: max latency %v", res.Max())
	}
}

func TestProbeString(t *testing.T) {
	l := New()
	defer l.Close()
	res := l.Probe(0, 3)
	if s := res.String(); s == "" {
		t.Error("empty probe string")
	}
}

func BenchmarkInvokeLater(b *testing.B) {
	l := New()
	var wg sync.WaitGroup
	wg.Add(b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.InvokeLater(wg.Done)
	}
	wg.Wait()
	b.StopTimer()
	l.Close()
}

func BenchmarkInvokeAndWait(b *testing.B) {
	l := New()
	defer l.Close()
	for i := 0; i < b.N; i++ {
		l.InvokeAndWait(func() {})
	}
}
