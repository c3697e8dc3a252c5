// Package android reproduces the Android concurrency primitives the
// paper's student projects compared Parallel Task against (§IV-C item 1:
// "investigated on Android, comparing Parallel Task to Android's AsyncTask
// and handlers/loopers"): Looper/Handler message passing and the AsyncTask
// doInBackground → onProgressUpdate → onPostExecute lifecycle. Both are
// built over the same event-loop substrate as the rest of the repository,
// so the comparison experiments run them side by side with Parallel Task.
package android

import (
	"errors"
	"sync"
	"sync/atomic"

	"parc751/internal/eventloop"
)

// Looper owns a message queue processed by a single goroutine — Android's
// Looper. The main ("UI") looper is just a Looper the app blesses.
type Looper struct {
	loop *eventloop.Loop
}

// NewLooper prepares and starts a looper.
func NewLooper() *Looper { return &Looper{loop: eventloop.New()} }

// Quit drains the queue and stops the looper (Looper.quitSafely).
func (l *Looper) Quit() { l.loop.Close() }

// IsCurrent reports whether the caller is running on this looper's thread
// (Looper.isCurrentThread).
func (l *Looper) IsCurrent() bool { return l.loop.OnDispatchThread() }

// Handler posts work to a Looper — Android's Handler.
type Handler struct {
	looper *Looper
}

// NewHandler binds a handler to a looper.
func NewHandler(l *Looper) *Handler { return &Handler{looper: l} }

// Post enqueues r on the looper (Handler.post). It reports whether the
// message was accepted (false after Quit).
func (h *Handler) Post(r func()) bool {
	return h.looper.loop.InvokeLater(r) == nil
}

// PostAndWait runs r on the looper and blocks until done (runWithScissors).
func (h *Handler) PostAndWait(r func()) bool {
	return h.looper.loop.InvokeAndWait(r) == nil
}

// ErrCancelled is returned by Get on a cancelled AsyncTask.
var ErrCancelled = errors.New("android: task cancelled")

// AsyncTask states mirror android.os.AsyncTask.Status.
const (
	statusPending int32 = iota
	statusRunning
	statusFinished
)

// AsyncTask reproduces the classic Android lifecycle: Execute runs
// DoInBackground on a background goroutine; PublishProgress from inside it
// delivers OnProgressUpdate on the main looper; completion delivers
// OnPostExecute (or OnCancelled) on the main looper. Like the original,
// an instance can be executed only once.
type AsyncTask[Param, Progress, Result any] struct {
	// DoInBackground is the background computation (required).
	DoInBackground func(t *AsyncTask[Param, Progress, Result], p Param) Result
	// OnPreExecute runs on the main looper before the background work.
	OnPreExecute func()
	// OnProgressUpdate receives published progress on the main looper.
	OnProgressUpdate func(Progress)
	// OnPostExecute receives the result on the main looper (skipped when
	// cancelled).
	OnPostExecute func(Result)
	// OnCancelled runs on the main looper instead of OnPostExecute when
	// the task was cancelled.
	OnCancelled func()

	main      *Looper
	status    atomic.Int32
	cancelled atomic.Bool
	done      chan struct{}
	mu        sync.Mutex
	result    Result
}

// NewAsyncTask creates a task bound to the main looper.
func NewAsyncTask[Param, Progress, Result any](main *Looper) *AsyncTask[Param, Progress, Result] {
	return &AsyncTask[Param, Progress, Result]{main: main, done: make(chan struct{})}
}

// Execute starts the task. It panics if executed twice or if
// DoInBackground is nil (matching AsyncTask's IllegalStateException).
func (t *AsyncTask[Param, Progress, Result]) Execute(p Param) *AsyncTask[Param, Progress, Result] {
	if t.DoInBackground == nil {
		panic("android: AsyncTask without DoInBackground")
	}
	if !t.status.CompareAndSwap(statusPending, statusRunning) {
		panic("android: AsyncTask executed twice")
	}
	if t.OnPreExecute != nil {
		t.main.loop.InvokeAndWait(t.OnPreExecute)
	}
	go func() {
		res := t.DoInBackground(t, p)
		t.mu.Lock()
		t.result = res
		t.mu.Unlock()
		t.status.Store(statusFinished)
		if t.cancelled.Load() {
			if t.OnCancelled != nil {
				t.main.loop.InvokeLater(t.OnCancelled)
			}
		} else if t.OnPostExecute != nil {
			r := res
			t.main.loop.InvokeLater(func() { t.OnPostExecute(r) })
		}
		close(t.done)
	}()
	return t
}

// PublishProgress delivers v to OnProgressUpdate on the main looper; call
// it from DoInBackground. Progress published after cancellation is
// dropped, as on Android.
func (t *AsyncTask[Param, Progress, Result]) PublishProgress(v Progress) {
	if t.cancelled.Load() || t.OnProgressUpdate == nil {
		return
	}
	t.main.loop.InvokeLater(func() { t.OnProgressUpdate(v) })
}

// Cancel requests cancellation. Cooperative, as on Android:
// DoInBackground must poll IsCancelled. Returns false if already finished.
func (t *AsyncTask[Param, Progress, Result]) Cancel() bool {
	if t.status.Load() == statusFinished {
		return false
	}
	t.cancelled.Store(true)
	return true
}

// IsCancelled reports a pending cancellation (poll from DoInBackground).
func (t *AsyncTask[Param, Progress, Result]) IsCancelled() bool {
	return t.cancelled.Load()
}

// Get blocks until the background work finishes and returns the result,
// or ErrCancelled when the task was cancelled.
func (t *AsyncTask[Param, Progress, Result]) Get() (Result, error) {
	<-t.done
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cancelled.Load() {
		var zero Result
		return zero, ErrCancelled
	}
	return t.result, nil
}

// SerialExecutor reproduces AsyncTask.SERIAL_EXECUTOR: tasks submitted to
// it run one at a time in submission order on one background goroutine —
// the post-Honeycomb default that surprised the paper-era students by
// serialising their "parallel" AsyncTasks.
type SerialExecutor struct {
	mu      sync.Mutex
	queue   []func()
	running bool
	idle    chan struct{} // closed and re-made around activity
}

// NewSerialExecutor creates an idle serial executor.
func NewSerialExecutor() *SerialExecutor {
	return &SerialExecutor{idle: make(chan struct{})}
}

// Submit enqueues fn; it runs after all previously submitted work.
func (e *SerialExecutor) Submit(fn func()) {
	e.mu.Lock()
	e.queue = append(e.queue, fn)
	if !e.running {
		e.running = true
		go e.drain()
	}
	e.mu.Unlock()
}

func (e *SerialExecutor) drain() {
	for {
		e.mu.Lock()
		if len(e.queue) == 0 {
			e.running = false
			close(e.idle)
			e.idle = make(chan struct{})
			e.mu.Unlock()
			return
		}
		fn := e.queue[0]
		e.queue = e.queue[1:]
		e.mu.Unlock()
		fn()
	}
}

// Wait blocks until the executor goes idle.
func (e *SerialExecutor) Wait() {
	e.mu.Lock()
	if !e.running {
		e.mu.Unlock()
		return
	}
	ch := e.idle
	e.mu.Unlock()
	<-ch
}
