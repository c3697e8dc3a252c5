package ptask

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"parc751/internal/eventloop"
)

func newRT(t *testing.T, workers int) *Runtime {
	t.Helper()
	rt := NewRuntime(workers)
	t.Cleanup(rt.Shutdown)
	return rt
}

func TestRunAndResult(t *testing.T) {
	rt := newRT(t, 2)
	task := Run(rt, func() (int, error) { return 21 * 2, nil })
	v, err := task.Result()
	if v != 42 || err != nil {
		t.Fatalf("Result = %d, %v", v, err)
	}
	if !task.IsDone() {
		t.Error("IsDone false after Result")
	}
}

func TestRunError(t *testing.T) {
	rt := newRT(t, 1)
	want := errors.New("compute failed")
	task := Run(rt, func() (int, error) { return 0, want })
	if _, err := task.Result(); err != want {
		t.Fatalf("err = %v", err)
	}
}

func TestPanicBecomesError(t *testing.T) {
	rt := newRT(t, 1)
	task := Run(rt, func() (int, error) { panic("kaboom") })
	_, err := task.Result()
	if err == nil {
		t.Fatal("panic did not surface as error")
	}
	// Runtime must still be usable.
	v, err := Run(rt, func() (int, error) { return 1, nil }).Result()
	if v != 1 || err != nil {
		t.Fatal("runtime dead after panicking task")
	}
}

func TestDependencesOrdering(t *testing.T) {
	rt := newRT(t, 4)
	var order []string
	var mu sync.Mutex
	log := func(s string) {
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
	}
	a := Run(rt, func() (int, error) {
		time.Sleep(10 * time.Millisecond)
		log("a")
		return 1, nil
	})
	b := Run(rt, func() (int, error) {
		time.Sleep(5 * time.Millisecond)
		log("b")
		return 2, nil
	})
	c := RunAfter(rt, []Dep{a, b}, func() (int, error) {
		log("c")
		av, _ := a.Result()
		bv, _ := b.Result()
		return av + bv, nil
	})
	v, err := c.Result()
	if v != 3 || err != nil {
		t.Fatalf("c = %d, %v", v, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if order[len(order)-1] != "c" {
		t.Fatalf("dependent ran before dependences: %v", order)
	}
}

func TestDependenceOnCompletedTask(t *testing.T) {
	rt := newRT(t, 2)
	a := Run(rt, func() (int, error) { return 5, nil })
	a.Result()
	b := RunAfter(rt, []Dep{a}, func() (int, error) {
		v, _ := a.Result()
		return v * 2, nil
	})
	if v, _ := b.Result(); v != 10 {
		t.Fatalf("b = %d", v)
	}
}

func TestDiamondDAG(t *testing.T) {
	//    a
	//   / \
	//  b   c
	//   \ /
	//    d
	rt := newRT(t, 4)
	var aDone, bDone, cDone atomic.Bool
	a := Run(rt, func() (int, error) { aDone.Store(true); return 1, nil })
	b := RunAfter(rt, []Dep{a}, func() (int, error) {
		if !aDone.Load() {
			t.Error("b ran before a")
		}
		bDone.Store(true)
		return 2, nil
	})
	c := RunAfter(rt, []Dep{a}, func() (int, error) {
		if !aDone.Load() {
			t.Error("c ran before a")
		}
		cDone.Store(true)
		return 3, nil
	})
	d := RunAfter(rt, []Dep{b, c}, func() (int, error) {
		if !bDone.Load() || !cDone.Load() {
			t.Error("d ran before b and c")
		}
		return 4, nil
	})
	if v, err := d.Result(); v != 4 || err != nil {
		t.Fatalf("d = %d, %v", v, err)
	}
}

func TestDAGPropertyRandomChains(t *testing.T) {
	// Property: in a random linear chain, tasks observe strictly
	// increasing completion order.
	f := func(nRaw uint8) bool {
		n := int(nRaw%20) + 2
		rt := NewRuntime(4)
		defer rt.Shutdown()
		var last atomic.Int32
		last.Store(-1)
		tasks := make([]*Task[int], n)
		ok := true
		for i := 0; i < n; i++ {
			i := i
			var deps []Dep
			if i > 0 {
				deps = []Dep{tasks[i-1]}
			}
			tasks[i] = RunAfter(rt, deps, func() (int, error) {
				if !last.CompareAndSwap(int32(i-1), int32(i)) {
					ok = false
				}
				return i, nil
			})
		}
		tasks[n-1].Result()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCancelQueuedTask(t *testing.T) {
	rt := newRT(t, 1)
	block := make(chan struct{})
	// Occupy the only worker so the next task stays queued.
	busy := Run(rt, func() (int, error) { <-block; return 0, nil })
	victim := Run(rt, func() (int, error) {
		t.Error("cancelled task executed")
		return 0, nil
	})
	if !victim.Cancel() {
		t.Fatal("Cancel returned false for queued task")
	}
	if !victim.Cancelled() {
		t.Fatal("Cancelled() false")
	}
	if _, err := victim.Result(); err != ErrCancelled {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	close(block)
	busy.Result()
}

func TestCancelCompletedTaskFails(t *testing.T) {
	rt := newRT(t, 1)
	task := Run(rt, func() (int, error) { return 9, nil })
	task.Result()
	if task.Cancel() {
		t.Fatal("cancelled a completed task")
	}
	if v, err := task.Result(); v != 9 || err != nil {
		t.Fatal("completed result corrupted by Cancel attempt")
	}
}

func TestCancelWaitingTaskSkipsDependent(t *testing.T) {
	rt := newRT(t, 2)
	gate := make(chan struct{})
	a := Run(rt, func() (int, error) { <-gate; return 1, nil })
	b := RunAfter(rt, []Dep{a}, func() (int, error) { return 2, nil })
	if !b.Cancel() {
		t.Fatal("could not cancel waiting task")
	}
	close(gate)
	if _, err := b.Result(); err != ErrCancelled {
		t.Fatalf("err = %v", err)
	}
	a.Result()
}

func TestRecursiveJoinSingleWorker(t *testing.T) {
	// Quicksort-style recursion joining on children must not deadlock on
	// a one-worker pool (helping join).
	rt := newRT(t, 1)
	var fib func(n int) int
	fib = func(n int) int {
		if n < 2 {
			return n
		}
		child := Run(rt, func() (int, error) { return fib(n - 1), nil })
		b := fib(n - 2)
		a, _ := child.Result()
		return a + b
	}
	root := Run(rt, func() (int, error) { return fib(10), nil })
	done := make(chan struct{})
	var v int
	go func() { v, _ = root.Result(); close(done) }()
	select {
	case <-done:
		if v != 55 {
			t.Fatalf("fib(10) = %d", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("recursive join deadlocked")
	}
}

// TestRecursiveMultiJoinSingleWorker is TestRecursiveJoinSingleWorker for
// the other two joins: every level fans out with RunMulti and joins with
// Results, then waits for a pair of Invoke children with WaitAll. On one
// worker each join must help run its own children.
func TestRecursiveMultiJoinSingleWorker(t *testing.T) {
	rt := NewRuntime(1)
	defer func() {
		if !t.Failed() { // a deadlocked join would hang the drain
			rt.Shutdown()
		}
	}()
	var sum func(lo, hi int) int
	sum = func(lo, hi int) int {
		if hi-lo <= 2 {
			s := 0
			for i := lo; i < hi; i++ {
				s += i
			}
			return s
		}
		mid := (lo + hi) / 2
		halves, err := RunMulti(rt, 2, func(i int) (int, error) {
			if i == 0 {
				return sum(lo, mid), nil
			}
			return sum(mid, hi), nil
		}).Results()
		if err != nil {
			panic(err)
		}
		var a, b int
		WaitAll(rt,
			Invoke(rt, func() error { a = halves[0]; return nil }),
			Invoke(rt, func() error { b = halves[1]; return nil }))
		return a + b
	}
	root := Run(rt, func() (int, error) { return sum(0, 64), nil })
	done := make(chan struct{})
	var v int
	go func() { v, _ = root.Result(); close(done) }()
	select {
	case <-done:
		if v != 64*63/2 {
			t.Fatalf("sum(0, 64) = %d, want %d", v, 64*63/2)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("recursive Results/WaitAll join deadlocked")
	}
}

func TestMultiTaskResultsInOrder(t *testing.T) {
	rt := newRT(t, 4)
	m := RunMulti(rt, 50, func(i int) (int, error) {
		time.Sleep(time.Duration(50-i) * 10 * time.Microsecond)
		return i * i, nil
	})
	vals, err := m.Results()
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 50 {
		t.Fatalf("len = %d", len(vals))
	}
	for i, v := range vals {
		if v != i*i {
			t.Fatalf("vals[%d] = %d", i, v)
		}
	}
}

func TestMultiTaskEmpty(t *testing.T) {
	rt := newRT(t, 2)
	m := RunMulti(rt, 0, func(i int) (int, error) { return 0, nil })
	vals, err := m.Results()
	if err != nil || len(vals) != 0 {
		t.Fatalf("empty multi = %v, %v", vals, err)
	}
	if m.Tasks() != nil {
		t.Error("empty multi has tasks")
	}
}

func TestMultiTaskFirstError(t *testing.T) {
	rt := newRT(t, 4)
	m := RunMulti(rt, 10, func(i int) (int, error) {
		if i == 3 {
			return 0, fmt.Errorf("sub %d failed", i)
		}
		return i, nil
	})
	vals, err := m.Results()
	if err == nil {
		t.Fatal("error swallowed")
	}
	if len(vals) != 10 {
		t.Fatalf("partial results: %d", len(vals))
	}
	if vals[5] != 5 {
		t.Error("successful sub-results lost")
	}
}

func TestMultiTaskInterimResults(t *testing.T) {
	rt := newRT(t, 4)
	var mu sync.Mutex
	var seen []int
	m := RunMulti(rt, 20, func(i int) (int, error) { return i, nil })
	m.NotifyEach(func(i int, v int, err error) {
		mu.Lock()
		seen = append(seen, v)
		mu.Unlock()
	})
	m.Results()
	// NotifyEach handlers may still be in flight; wait briefly for all.
	deadline := time.After(2 * time.Second)
	for {
		mu.Lock()
		n := len(seen)
		mu.Unlock()
		if n == 20 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("only %d interim notifications", n)
		case <-time.After(time.Millisecond):
		}
	}
	sort.Ints(seen)
	for i, v := range seen {
		if v != i {
			t.Fatalf("missing interim result %d", i)
		}
	}
}

func TestNotifyRunsOnEventLoop(t *testing.T) {
	rt := newRT(t, 2)
	loop := eventloop.New()
	defer loop.Close()
	rt.SetEventLoop(loop)
	if rt.loop != loop {
		t.Fatal("event loop not recorded")
	}
	onLoop := make(chan bool, 1)
	task := Run(rt, func() (int, error) { return 8, nil })
	task.Notify(func(v int, err error) { onLoop <- loop.OnDispatchThread() })
	select {
	case ok := <-onLoop:
		if !ok {
			t.Fatal("Notify handler not on dispatch thread")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Notify never delivered")
	}
}

func TestNotifyAfterCompletion(t *testing.T) {
	rt := newRT(t, 1)
	task := Run(rt, func() (int, error) { return 3, nil })
	task.Result()
	got := make(chan int, 1)
	task.Notify(func(v int, err error) { got <- v })
	select {
	case v := <-got:
		if v != 3 {
			t.Fatalf("late notify v = %d", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("late notify never delivered")
	}
}

func TestMultiNotifyAggregate(t *testing.T) {
	rt := newRT(t, 2)
	m := RunMulti(rt, 5, func(i int) (int, error) { return i + 1, nil })
	got := make(chan []int, 1)
	m.Notify(func(vs []int, err error) { got <- vs })
	select {
	case vs := <-got:
		sum := 0
		for _, v := range vs {
			sum += v
		}
		if sum != 15 {
			t.Fatalf("aggregate sum = %d", sum)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("aggregate notify never delivered")
	}
}

func TestMultiTaskAsDependence(t *testing.T) {
	rt := newRT(t, 4)
	m := RunMulti(rt, 8, func(i int) (int, error) { return i, nil })
	after := RunAfter(rt, []Dep{m}, func() (int, error) {
		vs, _ := m.Results()
		sum := 0
		for _, v := range vs {
			sum += v
		}
		return sum, nil
	})
	if v, _ := after.Result(); v != 28 {
		t.Fatalf("sum after multi = %d", v)
	}
}

func TestMultiTaskCancelRemaining(t *testing.T) {
	rt := newRT(t, 1)
	block := make(chan struct{})
	// Occupy the single worker so most sub-tasks stay queued.
	busy := Invoke(rt, func() error { <-block; return nil })
	var ran atomic.Int32
	m := RunMulti(rt, 20, func(i int) (int, error) {
		ran.Add(1)
		return i, nil
	})
	cancelled := m.Cancel()
	close(block)
	busy.Result()
	vals, err := m.Results()
	if err != ErrCancelled {
		t.Fatalf("aggregate err = %v, want ErrCancelled", err)
	}
	if cancelled == 0 {
		t.Fatal("nothing was cancelled despite a blocked worker")
	}
	if int(ran.Load())+cancelled != 20 {
		t.Fatalf("ran %d + cancelled %d != 20", ran.Load(), cancelled)
	}
	if len(vals) != 20 {
		t.Fatalf("results length = %d", len(vals))
	}
}

func TestMultiTaskCancelAfterCompletion(t *testing.T) {
	rt := newRT(t, 2)
	m := RunMulti(rt, 5, func(i int) (int, error) { return i, nil })
	m.Results()
	if n := m.Cancel(); n != 0 {
		t.Fatalf("cancelled %d completed sub-tasks", n)
	}
	if _, err := m.Results(); err != nil {
		t.Fatalf("completed results corrupted: %v", err)
	}
}

func TestInvoke(t *testing.T) {
	rt := newRT(t, 1)
	var ran atomic.Bool
	task := Invoke(rt, func() error { ran.Store(true); return nil })
	if _, err := task.Result(); err != nil {
		t.Fatal(err)
	}
	if !ran.Load() {
		t.Fatal("Invoke body never ran")
	}
}

func TestThenChains(t *testing.T) {
	rt := newRT(t, 2)
	a := Run(rt, func() (int, error) { return 6, nil })
	b := Then(a, func(v int) (string, error) { return fmt.Sprintf("v=%d", v*7), nil })
	s, err := b.Result()
	if err != nil || s != "v=42" {
		t.Fatalf("Then = %q, %v", s, err)
	}
}

func TestThenPropagatesError(t *testing.T) {
	rt := newRT(t, 2)
	want := errors.New("upstream failed")
	a := Run(rt, func() (int, error) { return 0, want })
	ran := false
	b := Then(a, func(v int) (int, error) { ran = true; return v, nil })
	if _, err := b.Result(); err != want {
		t.Fatalf("err = %v", err)
	}
	if ran {
		t.Fatal("continuation ran despite upstream error")
	}
}

func TestThenChainsDeep(t *testing.T) {
	rt := newRT(t, 1)
	task := Run(rt, func() (int, error) { return 0, nil })
	for i := 0; i < 50; i++ {
		task = Then(task, func(v int) (int, error) { return v + 1, nil })
	}
	if v, _ := task.Result(); v != 50 {
		t.Fatalf("deep chain = %d", v)
	}
}

func TestWaitAll(t *testing.T) {
	rt := newRT(t, 4)
	var n atomic.Int32
	deps := make([]Dep, 10)
	for i := range deps {
		deps[i] = Invoke(rt, func() error { n.Add(1); return nil })
	}
	WaitAll(rt, deps...)
	if n.Load() != 10 {
		t.Fatalf("WaitAll returned with %d of 10 done", n.Load())
	}
	WaitAll(rt) // empty must not block
}

func TestManyConcurrentTasks(t *testing.T) {
	rt := newRT(t, 8)
	var sum atomic.Int64
	m := RunMulti(rt, 2000, func(i int) (struct{}, error) {
		sum.Add(int64(i))
		return struct{}{}, nil
	})
	if _, err := m.Results(); err != nil {
		t.Fatal(err)
	}
	want := int64(2000 * 1999 / 2)
	if sum.Load() != want {
		t.Fatalf("sum = %d, want %d", sum.Load(), want)
	}
}

func BenchmarkMultiTask100(b *testing.B) {
	rt := NewRuntime(4)
	defer rt.Shutdown()
	for i := 0; i < b.N; i++ {
		RunMulti(rt, 100, func(j int) (int, error) { return j, nil }).Results()
	}
}

func BenchmarkDependenceChain(b *testing.B) {
	rt := NewRuntime(4)
	defer rt.Shutdown()
	for i := 0; i < b.N; i++ {
		a := Run(rt, func() (int, error) { return 1, nil })
		c := RunAfter(rt, []Dep{a}, func() (int, error) { return 2, nil })
		c.Result()
	}
}

// Regression: RunMulti with negative n used to store a negative remaining
// counter, so the aggregate future never completed and Results hung
// forever. n <= 0 must behave as the empty multi-task.
func TestRunMultiNegativeN(t *testing.T) {
	rt := NewRuntime(2)
	defer rt.Shutdown()
	for _, n := range []int{0, -1, -100} {
		m := RunMulti(rt, n, func(i int) (int, error) { return i, nil })
		done := make(chan struct{})
		go func() {
			m.Results()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("RunMulti(n=%d).Results() hung", n)
		}
		vals, err := m.Results()
		if len(vals) != 0 || err != nil {
			t.Fatalf("RunMulti(n=%d) = %v, %v", n, vals, err)
		}
		if m.Tasks() != nil {
			t.Fatalf("RunMulti(n=%d) created sub-tasks", n)
		}
	}
}

// The runtime must expose the pool's scheduler snapshot.
func TestRuntimeSchedStats(t *testing.T) {
	rt := NewRuntime(3)
	defer rt.Shutdown()
	WaitAll(rt, RunMulti(rt, 64, func(i int) (int, error) { return i, nil }))
	// A task's future settles inside its body, before runTask counts it
	// as executed: drain the pool so every count has landed.
	rt.pool.Quiesce()
	s := rt.SchedStats()
	if len(s.Workers) != 3 {
		t.Fatalf("snapshot workers = %d", len(s.Workers))
	}
	if s.Executed < 64 {
		t.Fatalf("snapshot executed = %d, want >= 64", s.Executed)
	}
}

// TestTaskHandleSizeGuard pins the Task handle, the one allocation of
// every Run→Result cycle, at or below the 128-byte size class: one more
// field would move it to the 144-byte class and raise every task's
// allocation cost.
func TestTaskHandleSizeGuard(t *testing.T) {
	if got := unsafe.Sizeof(Task[int]{}); got > 128 {
		t.Fatalf("unsafe.Sizeof(Task[int]{}) = %d bytes, want <= 128", got)
	}
}
