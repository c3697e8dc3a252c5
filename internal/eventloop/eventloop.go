// Package eventloop provides a single-threaded GUI event-dispatch loop,
// the substrate that makes the paper's "concurrency versus parallelism"
// distinction (§IV-B) measurable. Parallel Task and Pyjama both exist to
// keep interactive applications responsive: long-running work must stay
// off the event-dispatch thread, and completion handlers must hop back
// onto it (like Swing's EDT or Android's main looper).
//
// The loop is a real dispatcher, not a mock: events run strictly
// sequentially on one goroutine, InvokeAndWait from inside the dispatch
// thread runs inline exactly as Swing's invokeAndWait would deadlock-avoid,
// and the Probe measures event-service latency so experiments can show the
// UI is (or is not) responsive while background work runs.
package eventloop

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"parc751/internal/core"
	"parc751/internal/metrics"
	"parc751/internal/probe"
)

// ErrClosed is returned when posting to a loop that has been closed.
var ErrClosed = errors.New("eventloop: loop is closed")

// Loop is a single-threaded event dispatcher. Create one with New; all
// methods are safe for concurrent use from any goroutine.
type Loop struct {
	mu         sync.Mutex
	cond       *sync.Cond
	queue      []event
	closed     bool
	drained    chan struct{}
	dispatched atomic.Int64
	dispatcher atomic.Uint64 // core.GoroutineKey of the dispatcher; 0 once it exits
}

type event struct {
	fn       func()
	enqueued time.Time
	latency  *time.Duration // if non-nil, receives service latency
}

// New starts an event loop. The caller must Close it when done.
func New() *Loop {
	l := &Loop{drained: make(chan struct{})}
	l.cond = sync.NewCond(&l.mu)
	started := make(chan struct{})
	go l.run(started)
	<-started
	return l
}

func (l *Loop) run(started chan struct{}) {
	l.dispatcher.Store(core.GoroutineKey())
	close(started)
	for {
		l.mu.Lock()
		for len(l.queue) == 0 && !l.closed {
			l.cond.Wait()
		}
		if len(l.queue) == 0 && l.closed {
			l.mu.Unlock()
			// A new goroutine may reuse this one's key once it exits.
			l.dispatcher.Store(0)
			close(l.drained)
			return
		}
		ev := l.queue[0]
		l.queue = l.queue[1:]
		l.mu.Unlock()

		if ev.latency != nil {
			*ev.latency = time.Since(ev.enqueued)
		}
		if pr := probe.Load(); pr != nil {
			// Chaos dispatch delays stretch event service times, the
			// failure mode a frozen GUI exhibits.
			pr.Fire(probe.SiteDispatch, -1, 0, 0)
		}
		ev.fn()
		l.dispatched.Add(1)
	}
}

// OnDispatchThread reports whether the calling goroutine is the loop's
// dispatcher. Handlers use this to assert UI-access discipline, exactly as
// SwingUtilities.isEventDispatchThread does.
func (l *Loop) OnDispatchThread() bool {
	return core.GoroutineKey() == l.dispatcher.Load()
}

// InvokeLater enqueues fn to run on the dispatch thread and returns
// immediately. It returns ErrClosed after Close.
func (l *Loop) InvokeLater(fn func()) error {
	return l.post(event{fn: fn, enqueued: time.Now()})
}

func (l *Loop) post(ev event) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.queue = append(l.queue, ev)
	l.cond.Signal()
	return nil
}

// InvokeAndWait runs fn on the dispatch thread and blocks until it
// completes. Called from the dispatch thread itself, fn runs inline (the
// behaviour a deadlock-free invokeAndWait must have).
func (l *Loop) InvokeAndWait(fn func()) error {
	if l.OnDispatchThread() {
		fn()
		return nil
	}
	done := make(chan struct{})
	err := l.post(event{fn: func() { fn(); close(done) }, enqueued: time.Now()})
	if err != nil {
		return err
	}
	<-done
	return nil
}

// Dispatched returns the number of events that have completed.
func (l *Loop) Dispatched() int64 { return l.dispatched.Load() }

// QueueLen returns the current backlog length.
func (l *Loop) QueueLen() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.queue)
}

// Close stops accepting events, waits for the backlog to drain, and shuts
// the dispatcher down. Close is idempotent.
func (l *Loop) Close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		<-l.drained
		return
	}
	l.closed = true
	l.cond.Signal()
	l.mu.Unlock()
	<-l.drained
}

// Probe measures UI responsiveness: it posts count no-op events, one every
// period, and records each event's service latency (time from enqueue to
// dispatch). Run it concurrently with a workload; if the workload blocks
// the dispatch thread, latencies blow past the period.
func (l *Loop) Probe(period time.Duration, count int) *ProbeResult {
	res := &ProbeResult{latencies: make([]time.Duration, count)}
	var wg sync.WaitGroup
	for i := 0; i < count; i++ {
		if i > 0 {
			time.Sleep(period)
		}
		wg.Add(1)
		idx := i
		err := l.post(event{
			fn:       wg.Done,
			enqueued: time.Now(),
			latency:  &res.latencies[idx],
		})
		if err != nil {
			wg.Done()
			res.dropped++
		}
	}
	wg.Wait()
	return res
}

// ProbeResult holds the latencies observed by Probe.
type ProbeResult struct {
	latencies []time.Duration
	dropped   int
}

// Summary folds the latencies into streaming statistics (seconds).
func (p *ProbeResult) Summary() *metrics.Summary {
	var s metrics.Summary
	for _, d := range p.latencies {
		s.AddDuration(d)
	}
	return &s
}

// Max returns the worst observed service latency.
func (p *ProbeResult) Max() time.Duration {
	var m time.Duration
	for _, d := range p.latencies {
		if d > m {
			m = d
		}
	}
	return m
}

// P95 returns the 95th-percentile latency.
func (p *ProbeResult) P95() time.Duration {
	xs := make([]float64, len(p.latencies))
	for i, d := range p.latencies {
		xs[i] = d.Seconds()
	}
	return time.Duration(metrics.Percentile(xs, 0.95) * float64(time.Second))
}

// Dropped reports probe events rejected because the loop closed.
func (p *ProbeResult) Dropped() int { return p.dropped }

// String renders the probe outcome for harness tables.
func (p *ProbeResult) String() string {
	return fmt.Sprintf("n=%d max=%v p95=%v", len(p.latencies), p.Max(), p.P95())
}
