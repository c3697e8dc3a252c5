package android

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newLooper(t *testing.T) *Looper {
	t.Helper()
	l := NewLooper()
	t.Cleanup(l.Quit)
	return l
}

func TestHandlerPostRunsOnLooper(t *testing.T) {
	l := newLooper(t)
	h := NewHandler(l)
	got := make(chan bool, 1)
	if !h.Post(func() { got <- l.IsCurrent() }) {
		t.Fatal("post rejected")
	}
	select {
	case ok := <-got:
		if !ok {
			t.Fatal("message ran off the looper thread")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message never ran")
	}
}

func TestHandlerPostAndWait(t *testing.T) {
	l := newLooper(t)
	h := NewHandler(l)
	ran := false
	if !h.PostAndWait(func() { ran = true }) {
		t.Fatal("postAndWait rejected")
	}
	if !ran {
		t.Fatal("postAndWait returned before running")
	}
}

func TestHandlerPostAfterQuit(t *testing.T) {
	l := NewLooper()
	h := NewHandler(l)
	l.Quit()
	if h.Post(func() {}) {
		t.Fatal("post accepted after quit")
	}
}

func TestLooperOrdering(t *testing.T) {
	l := newLooper(t)
	h := NewHandler(l)
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		h.Post(func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			wg.Done()
		})
	}
	wg.Wait()
	for i, v := range order {
		if v != i {
			t.Fatalf("message order broken: %v", order)
		}
	}
	// The loop counts a message after its handler returns, so wg.Wait
	// can return before the 50th is counted. A no-op posted behind them
	// runs only after that count.
	h.PostAndWait(func() {})
	if l.loop.Dispatched() < 50 {
		t.Fatalf("Dispatched = %d", l.loop.Dispatched())
	}
}

func TestAsyncTaskLifecycle(t *testing.T) {
	main := newLooper(t)
	var sequence []string
	var mu sync.Mutex
	log := func(s string, onMain bool) {
		mu.Lock()
		sequence = append(sequence, s)
		mu.Unlock()
		if !onMain {
			t.Errorf("%s ran off the main looper", s)
		}
	}
	task := NewAsyncTask[int, int, int](main)
	task.OnPreExecute = func() { log("pre", main.IsCurrent()) }
	task.OnProgressUpdate = func(p int) { log("progress", main.IsCurrent()) }
	task.OnPostExecute = func(r int) { log("post", main.IsCurrent()) }
	task.DoInBackground = func(tk *AsyncTask[int, int, int], p int) int {
		if main.IsCurrent() {
			t.Error("doInBackground ran on the main looper")
		}
		tk.PublishProgress(50)
		return p * 2
	}
	task.Execute(21)
	v, err := task.Get()
	if err != nil || v != 42 {
		t.Fatalf("Get = %d, %v", v, err)
	}
	// Wait for the trailing main-looper callbacks.
	NewHandler(main).PostAndWait(func() {})
	mu.Lock()
	defer mu.Unlock()
	if len(sequence) != 3 || sequence[0] != "pre" || sequence[2] != "post" {
		t.Fatalf("lifecycle sequence = %v", sequence)
	}
}

func TestAsyncTaskCancellation(t *testing.T) {
	main := newLooper(t)
	cancelled := make(chan struct{})
	task := NewAsyncTask[struct{}, int, int](main)
	task.OnCancelled = func() { close(cancelled) }
	task.OnPostExecute = func(int) { t.Error("onPostExecute after cancel") }
	started := make(chan struct{})
	task.DoInBackground = func(tk *AsyncTask[struct{}, int, int], _ struct{}) int {
		close(started)
		for !tk.IsCancelled() {
			time.Sleep(100 * time.Microsecond)
		}
		return -1
	}
	task.Execute(struct{}{})
	<-started
	if !task.Cancel() {
		t.Fatal("cancel rejected on running task")
	}
	if _, err := task.Get(); err != ErrCancelled {
		t.Fatalf("Get error = %v", err)
	}
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("onCancelled never ran")
	}
	if task.Cancel() {
		t.Fatal("cancel accepted on finished task")
	}
}

func TestAsyncTaskDoubleExecutePanics(t *testing.T) {
	main := newLooper(t)
	task := NewAsyncTask[int, int, int](main)
	task.DoInBackground = func(*AsyncTask[int, int, int], int) int { return 0 }
	task.Execute(1)
	task.Get()
	defer func() {
		if recover() == nil {
			t.Fatal("second Execute did not panic")
		}
	}()
	task.Execute(2)
}

func TestAsyncTaskMissingBodyPanics(t *testing.T) {
	main := newLooper(t)
	defer func() {
		if recover() == nil {
			t.Fatal("nil DoInBackground accepted")
		}
	}()
	NewAsyncTask[int, int, int](main).Execute(1)
}

func TestAsyncTaskProgressAfterCancelDropped(t *testing.T) {
	main := newLooper(t)
	var updates atomic.Int32
	task := NewAsyncTask[struct{}, int, int](main)
	task.OnProgressUpdate = func(int) { updates.Add(1) }
	task.DoInBackground = func(tk *AsyncTask[struct{}, int, int], _ struct{}) int {
		tk.PublishProgress(1)
		tk.Cancel()
		tk.PublishProgress(2) // must be dropped
		return 0
	}
	task.Execute(struct{}{})
	task.Get()
	NewHandler(main).PostAndWait(func() {})
	if updates.Load() > 1 {
		t.Fatalf("progress after cancel delivered: %d updates", updates.Load())
	}
}

func TestSerialExecutorIsSerialAndOrdered(t *testing.T) {
	e := NewSerialExecutor()
	var inside atomic.Int32
	var overlap atomic.Int32
	var mu sync.Mutex
	var order []int
	for i := 0; i < 30; i++ {
		i := i
		e.Submit(func() {
			if inside.Add(1) > 1 {
				overlap.Add(1)
			}
			time.Sleep(100 * time.Microsecond)
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			inside.Add(-1)
		})
	}
	e.Wait()
	if overlap.Load() != 0 {
		t.Fatalf("%d overlapping executions on the serial executor", overlap.Load())
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order broken: %v", order)
		}
	}
}

func TestSerialExecutorWaitIdle(t *testing.T) {
	e := NewSerialExecutor()
	e.Wait() // idle executor must not block
	done := false
	e.Submit(func() { done = true })
	e.Wait()
	if !done {
		t.Fatal("Wait returned before work finished")
	}
}

// TestSerialExecutorSerialisesAsyncTasks demonstrates the pitfall the
// paper-era Android students hit: AsyncTasks share SERIAL_EXECUTOR by
// default, so "parallel" work is serialised.
func TestSerialExecutorSerialisesAsyncTasks(t *testing.T) {
	e := NewSerialExecutor()
	var concurrent, peak atomic.Int32
	for i := 0; i < 8; i++ {
		e.Submit(func() {
			c := concurrent.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			time.Sleep(200 * time.Microsecond)
			concurrent.Add(-1)
		})
	}
	e.Wait()
	if peak.Load() != 1 {
		t.Fatalf("serial executor peak concurrency = %d", peak.Load())
	}
}

func BenchmarkHandlerPost(b *testing.B) {
	l := NewLooper()
	defer l.Quit()
	h := NewHandler(l)
	var wg sync.WaitGroup
	wg.Add(b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Post(wg.Done)
	}
	wg.Wait()
}

func BenchmarkAsyncTask(b *testing.B) {
	main := NewLooper()
	defer main.Quit()
	for i := 0; i < b.N; i++ {
		task := NewAsyncTask[int, int, int](main)
		task.DoInBackground = func(_ *AsyncTask[int, int, int], p int) int { return p }
		task.Execute(i)
		task.Get()
	}
}
