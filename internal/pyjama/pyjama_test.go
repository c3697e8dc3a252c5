package pyjama

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"parc751/internal/eventloop"
	"parc751/internal/reduction"
)

func TestParallelTeamSize(t *testing.T) {
	var n atomic.Int32
	Parallel(5, func(tc *TC) {
		n.Add(1)
		if tc.NumThreads() != 5 {
			t.Errorf("NumThreads = %d", tc.NumThreads())
		}
		if tc.ThreadNum() < 0 || tc.ThreadNum() >= 5 {
			t.Errorf("ThreadNum = %d", tc.ThreadNum())
		}
	})
	if n.Load() != 5 {
		t.Fatalf("%d members ran", n.Load())
	}
}

func TestParallelClampsThreads(t *testing.T) {
	var n atomic.Int32
	Parallel(0, func(tc *TC) { n.Add(1) })
	if n.Load() != 1 {
		t.Fatalf("clamped team ran %d members", n.Load())
	}
}

func TestThreadNumsDistinct(t *testing.T) {
	seen := make([]atomic.Int32, 8)
	Parallel(8, func(tc *TC) { seen[tc.ThreadNum()].Add(1) })
	for i := range seen {
		if seen[i].Load() != 1 {
			t.Fatalf("thread %d ran %d times", i, seen[i].Load())
		}
	}
}

func TestPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("region panic not re-raised")
		}
	}()
	Parallel(3, func(tc *TC) {
		if tc.ThreadNum() == 1 {
			panic("member failed")
		}
	})
}

// TestPanicDoesNotDeadlockBarrier: a member that dies before a barrier
// must not hang the rest of the team; the region panics with the root
// cause instead.
func TestPanicDoesNotDeadlockBarrier(t *testing.T) {
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		Parallel(4, func(tc *TC) {
			if tc.ThreadNum() == 2 {
				panic("member 2 died")
			}
			tc.Barrier() // would deadlock without abort propagation
		})
	}()
	select {
	case v := <-done:
		if v == nil {
			t.Fatal("region did not panic")
		}
		if !strings.Contains(fmt.Sprint(v), "member 2 died") {
			t.Fatalf("root cause lost: %v", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("region deadlocked after member panic")
	}
}

// TestPanicDoesNotDeadlockWorksharingLoop: the implicit barrier at a
// loop's end must also abort.
func TestPanicDoesNotDeadlockWorksharingLoop(t *testing.T) {
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		Parallel(3, func(tc *TC) {
			tc.For(30, Dynamic(1), func(i int) {
				if i == 7 {
					panic("iteration 7 failed")
				}
			})
		})
	}()
	select {
	case v := <-done:
		if v == nil {
			t.Fatal("region did not panic")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worksharing loop deadlocked after body panic")
	}
}

func TestBarrierSynchronises(t *testing.T) {
	var phase1 atomic.Int32
	Parallel(4, func(tc *TC) {
		phase1.Add(1)
		tc.Barrier()
		if phase1.Load() != 4 {
			t.Errorf("thread %d passed barrier with %d arrivals", tc.ThreadNum(), phase1.Load())
		}
	})
}

func TestMasterOnlyThreadZero(t *testing.T) {
	var ran atomic.Int32
	var who atomic.Int32
	who.Store(-1)
	Parallel(4, func(tc *TC) {
		tc.Master(func() {
			ran.Add(1)
			who.Store(int32(tc.ThreadNum()))
		})
	})
	if ran.Load() != 1 || who.Load() != 0 {
		t.Fatalf("master ran %d times on thread %d", ran.Load(), who.Load())
	}
}

func TestSingleExactlyOnce(t *testing.T) {
	var ran atomic.Int32
	Parallel(6, func(tc *TC) {
		tc.Single(func() { ran.Add(1) })
		tc.Single(func() { ran.Add(1) }) // a second single construct
	})
	if ran.Load() != 2 {
		t.Fatalf("singles ran %d times, want 2", ran.Load())
	}
}

func TestSingleNoWaitReturnsTruth(t *testing.T) {
	var winners atomic.Int32
	Parallel(4, func(tc *TC) {
		if tc.SingleNoWait(func() {}) {
			winners.Add(1)
		}
	})
	if winners.Load() != 1 {
		t.Fatalf("%d winners", winners.Load())
	}
}

func TestCriticalMutualExclusion(t *testing.T) {
	counter := 0 // deliberately unsynchronised except via Critical
	Parallel(8, func(tc *TC) {
		for i := 0; i < 1000; i++ {
			tc.Critical("counter", func() { counter++ })
		}
	})
	if counter != 8000 {
		t.Fatalf("counter = %d (lost updates)", counter)
	}
}

func TestCriticalNamesIndependent(t *testing.T) {
	// A thread holding critical "a" must not block critical "b".
	aHeld := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	Parallel(2, func(tc *TC) {
		if tc.ThreadNum() == 0 {
			tc.Critical("a", func() {
				close(aHeld)
				<-release
			})
		} else {
			<-aHeld
			tc.Critical("b", func() { close(done) })
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				t.Error("critical(b) blocked by critical(a)")
			}
			close(release)
		}
	})
}

func coverageCheck(t *testing.T, nthreads, n int, sched Schedule) {
	t.Helper()
	counts := make([]atomic.Int32, n)
	Parallel(nthreads, func(tc *TC) {
		tc.For(n, sched, func(i int) { counts[i].Add(1) })
	})
	for i := range counts {
		if counts[i].Load() != 1 {
			t.Fatalf("%v: index %d executed %d times", sched, i, counts[i].Load())
		}
	}
}

func TestForCoverageAllSchedules(t *testing.T) {
	for _, sched := range []Schedule{
		Static(0), Static(1), Static(7), Dynamic(1), Dynamic(16),
		Guided(1), Guided(4), Auto(), Runtime(),
	} {
		coverageCheck(t, 4, 1000, sched)
	}
}

func TestForCoverageProperty(t *testing.T) {
	f := func(nRaw uint16, tRaw, kindRaw, chunkRaw uint8) bool {
		n := int(nRaw % 500)
		threads := int(tRaw%8) + 1
		kinds := []ScheduleKind{KindStatic, KindDynamic, KindGuided}
		sched := Schedule{kinds[int(kindRaw)%3], int(chunkRaw % 16)}
		counts := make([]atomic.Int32, n)
		Parallel(threads, func(tc *TC) {
			tc.For(n, sched, func(i int) { counts[i].Add(1) })
		})
		for i := range counts {
			if counts[i].Load() != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestForEmptyLoop(t *testing.T) {
	ran := false
	Parallel(3, func(tc *TC) {
		tc.For(0, Dynamic(4), func(i int) { ran = true })
	})
	if ran {
		t.Fatal("body ran for empty loop")
	}
}

func TestForStaticBlockAssignment(t *testing.T) {
	// schedule(static) with default chunk gives contiguous blocks in
	// thread order.
	owner := make([]int32, 100)
	Parallel(4, func(tc *TC) {
		tc.For(100, Static(0), func(i int) {
			atomic.StoreInt32(&owner[i], int32(tc.ThreadNum()))
		})
	})
	for i := 1; i < 100; i++ {
		if owner[i] < owner[i-1] {
			t.Fatalf("static block order broken at %d: %v -> %v", i, owner[i-1], owner[i])
		}
	}
}

func TestForStaticCyclicAssignment(t *testing.T) {
	// schedule(static,1) deals indices round-robin.
	owner := make([]int32, 64)
	Parallel(4, func(tc *TC) {
		tc.For(64, Static(1), func(i int) {
			atomic.StoreInt32(&owner[i], int32(tc.ThreadNum()))
		})
	})
	for i := range owner {
		if owner[i] != int32(i%4) {
			t.Fatalf("static,1: index %d owned by %d, want %d", i, owner[i], i%4)
		}
	}
}

func TestMultipleLoopsInOneRegion(t *testing.T) {
	var a, b atomic.Int64
	Parallel(3, func(tc *TC) {
		tc.For(100, Dynamic(8), func(i int) { a.Add(int64(i)) })
		tc.For(50, Static(0), func(i int) { b.Add(int64(i)) })
	})
	if a.Load() != 4950 || b.Load() != 1225 {
		t.Fatalf("a=%d b=%d", a.Load(), b.Load())
	}
}

func TestForChunked(t *testing.T) {
	var total atomic.Int64
	Parallel(4, func(tc *TC) {
		tc.ForChunked(1000, Dynamic(64), func(lo, hi int) {
			s := int64(0)
			for i := lo; i < hi; i++ {
				s += int64(i)
			}
			total.Add(s)
		})
	})
	if total.Load() != 499500 {
		t.Fatalf("total = %d", total.Load())
	}
}

func TestOrderedRunsInOrder(t *testing.T) {
	for _, sched := range []Schedule{Static(0), Static(3), Dynamic(5), Guided(2)} {
		var mu sync.Mutex
		var order []int
		Parallel(4, func(tc *TC) {
			tc.For(50, sched, func(i int) {
				tc.Ordered(i, func() {
					mu.Lock()
					order = append(order, i)
					mu.Unlock()
				})
			})
		})
		for i, v := range order {
			if v != i {
				t.Fatalf("%v: ordered broke at %d: %v", sched, i, order[:i+1])
			}
		}
		if len(order) != 50 {
			t.Fatalf("%v: %d ordered entries", sched, len(order))
		}
	}
}

func TestOrderedOutsideLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Parallel(1, func(tc *TC) { tc.Ordered(0, func() {}) })
}

func TestSectionsEachOnce(t *testing.T) {
	var a, b, c atomic.Int32
	Parallel(2, func(tc *TC) {
		tc.Sections(
			func() { a.Add(1) },
			func() { b.Add(1) },
			func() { c.Add(1) },
		)
	})
	if a.Load() != 1 || b.Load() != 1 || c.Load() != 1 {
		t.Fatalf("sections ran %d/%d/%d", a.Load(), b.Load(), c.Load())
	}
}

func TestParallelForConvenience(t *testing.T) {
	var sum atomic.Int64
	ParallelFor(4, 100, Dynamic(10), func(i int) { sum.Add(int64(i)) })
	if sum.Load() != 4950 {
		t.Fatalf("sum = %d", sum.Load())
	}
}

func TestThreadPrivate(t *testing.T) {
	tp := NewThreadPrivate[int](4)
	Parallel(4, func(tc *TC) {
		*tp.Get(tc.ThreadNum()) = tc.ThreadNum() * 10
	})
	vals := tp.Values()
	for i, v := range vals {
		if v != i*10 {
			t.Fatalf("slot %d = %d", i, v)
		}
	}
	if tp.Len() != 4 {
		t.Fatalf("Len = %d", tp.Len())
	}
}

func TestRuntimeScheduleSetting(t *testing.T) {
	old := RuntimeSchedule()
	defer SetRuntimeSchedule(old)
	SetRuntimeSchedule(Dynamic(4))
	if got := RuntimeSchedule(); got.Kind != KindDynamic || got.Chunk != 4 {
		t.Fatalf("runtime schedule = %v", got)
	}
	// Runtime kind must not self-reference.
	SetRuntimeSchedule(Runtime())
	if got := RuntimeSchedule(); got.Kind == KindRuntime {
		t.Fatal("runtime schedule stored KindRuntime")
	}
	coverageCheck(t, 3, 100, Runtime())
}

func TestScheduleKindString(t *testing.T) {
	for k, want := range map[ScheduleKind]string{
		KindStatic: "static", KindDynamic: "dynamic", KindGuided: "guided",
		KindAuto: "auto", KindRuntime: "runtime", ScheduleKind(99): "unknown",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}

func TestForReduceSum(t *testing.T) {
	var fromEveryThread sync.Map
	Parallel(4, func(tc *TC) {
		got := ForReduce(tc, 1000, Dynamic(32), reduction.Sum[int](),
			func(i int, acc int) int { return acc + i })
		fromEveryThread.Store(tc.ThreadNum(), got)
	})
	fromEveryThread.Range(func(k, v any) bool {
		if v.(int) != 499500 {
			t.Errorf("thread %v reduced to %v", k, v)
		}
		return true
	})
}

func TestForReduceMin(t *testing.T) {
	vals := []int{17, 3, 99, -4, 56}
	got := ParallelForReduce(3, len(vals), Static(0), reduction.Min[int](math.MaxInt),
		func(i int, acc int) int {
			if vals[i] < acc {
				return vals[i]
			}
			return acc
		})
	if got != -4 {
		t.Fatalf("min = %d", got)
	}
}

func TestForReduceObjectHistogram(t *testing.T) {
	words := make([]int, 600)
	for i := range words {
		words[i] = i % 6
	}
	got := ParallelForReduce(4, len(words), Guided(8), reduction.Histogram[int](),
		func(i int, acc map[int]int) map[int]int {
			acc[words[i]]++
			return acc
		})
	for k := 0; k < 6; k++ {
		if got[k] != 100 {
			t.Fatalf("histogram[%d] = %d", k, got[k])
		}
	}
}

func TestTwoReductionsOneRegion(t *testing.T) {
	var sum, count int
	Parallel(3, func(tc *TC) {
		s := ForReduce(tc, 100, Dynamic(7), reduction.Sum[int](),
			func(i, acc int) int { return acc + i })
		c := ForReduce(tc, 100, Static(0), reduction.Sum[int](),
			func(i, acc int) int { return acc + 1 })
		tc.Master(func() { sum, count = s, c })
	})
	if sum != 4950 || count != 100 {
		t.Fatalf("sum=%d count=%d", sum, count)
	}
}

func TestAsyncDeliversOnLoop(t *testing.T) {
	loop := eventloop.New()
	defer loop.Close()
	res := make(chan bool, 1)
	var sum atomic.Int64
	Async(loop, 3, func(tc *TC) {
		tc.ForNoWait(10, Dynamic(1), func(i int) { sum.Add(int64(i)) })
	}, func(err error) {
		res <- loop.OnDispatchThread() && err == nil && sum.Load() == 45
	})
	select {
	case ok := <-res:
		if !ok {
			t.Fatal("async completion wrong thread, error, or result")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("async never completed")
	}
}

func TestAsyncCapturesPanic(t *testing.T) {
	res := make(chan error, 1)
	Async(nil, 2, func(tc *TC) { panic("region bug") }, func(err error) { res <- err })
	select {
	case err := <-res:
		if err == nil {
			t.Fatal("panic not converted to error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("async panic handler never ran")
	}
}

func TestOnGUIVariants(t *testing.T) {
	loop := eventloop.New()
	defer loop.Close()
	var viaSync atomic.Bool
	OnGUISync(loop, func() { viaSync.Store(loop.OnDispatchThread()) })
	if !viaSync.Load() {
		t.Fatal("OnGUISync not on dispatch thread")
	}
	done := make(chan bool, 1)
	OnGUI(loop, func() { done <- loop.OnDispatchThread() })
	if !<-done {
		t.Fatal("OnGUI not on dispatch thread")
	}
	// nil-loop fallbacks run inline.
	inline := false
	OnGUI(nil, func() { inline = true })
	OnGUISync(nil, func() { inline = inline && true })
	if !inline {
		t.Fatal("nil-loop OnGUI skipped")
	}
}
