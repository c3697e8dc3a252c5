// Package supervisor is a restart-on-failure task runner in the style of
// juju's cmd/jujud tasks runner (SNIPPETS.md Snippet 2): tasks are
// started under a Runner with a StartTask/Stop/Wait contract, and every
// exit — a crash, a failed start, even a clean return — restarts the
// task after an exponential, jittered backoff. The juju runner also
// classifies errors as fatal and lets a fatal one take the whole runner
// down; this one has no fatal path, because losing one node must never
// take the fleet down. On top of the juju shape it adds a crash-loop
// circuit: a task that fails K times inside a sliding window is declared
// dead and never restarted, so a node that can no longer start does not
// consume restart bandwidth forever — the fleet above observes the death
// and routes around it.
//
// parccluster runs every worker node under a Runner; the Clock is
// injectable so the restart-delay tests advance time manually instead of
// sleeping.
package supervisor

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"parc751/internal/xrand"
)

// Task is one supervised unit of work, the result of a StartFunc. Stop
// requests termination (it must be safe to call more than once and must
// cause Wait to return); Wait blocks until the task has exited and
// returns its exit error — nil for a clean exit.
type Task interface {
	Stop()
	Wait() error
}

// StartFunc creates and starts a task. It is called again on every
// restart, so all per-incarnation state (the process, the listener)
// belongs inside the returned Task.
type StartFunc func() (Task, error)

// ErrDead is wrapped into the error a crash-looping task is retired
// with; errors.Is(err, ErrDead) identifies it in the event log.
var ErrDead = errors.New("supervisor: task crash-looped and was declared dead")

// ErrStopped is returned by StartTask on a runner that is already dying.
var ErrStopped = errors.New("supervisor: runner is stopping")

// EventKind classifies a supervision event.
type EventKind uint8

const (
	// EventStarted: a task incarnation is running.
	EventStarted EventKind = iota
	// EventExited: a task incarnation exited (Err carries why).
	EventExited
	// EventRestarting: an exit scheduled a restart after Delay.
	EventRestarting
	// EventDead: the crash-loop circuit retired the task.
	EventDead
)

var eventNames = []string{"started", "exited", "restarting", "dead"}

// String returns the kind's short name.
func (k EventKind) String() string {
	if int(k) < len(eventNames) {
		return eventNames[k]
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// Event is one supervision state transition, delivered to the runner's
// OnEvent callback (the fleet's cluster event log subscribes here).
type Event struct {
	Kind   EventKind
	TaskID string
	Err    error
	Delay  time.Duration // EventRestarting only
}

// Config tunes a Runner. Zero values take the documented defaults.
type Config struct {
	// RestartDelay is the first backoff (default 100ms); MaxDelay caps
	// the exponential growth (default 5s).
	RestartDelay time.Duration
	MaxDelay     time.Duration
	// CrashLoopK and CrashLoopWindow set the circuit: K exits within the
	// window retires the task (defaults 5 / 30s). CrashLoopK <= 0
	// disables the circuit. A task incarnation that survives longer than
	// the window resets its backoff and failure history.
	CrashLoopK      int
	CrashLoopWindow time.Duration
	// Clock defaults to the wall clock; tests inject a ManualClock.
	Clock Clock
	// OnEvent, when set, observes every supervision transition. Called
	// from supervision goroutines — it must be safe for concurrent use
	// and must not block.
	OnEvent func(Event)
}

func (c *Config) fill() {
	if c.RestartDelay <= 0 {
		c.RestartDelay = 100 * time.Millisecond
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 5 * time.Second
	}
	if c.CrashLoopK == 0 {
		c.CrashLoopK = 5
	}
	if c.CrashLoopWindow <= 0 {
		c.CrashLoopWindow = 30 * time.Second
	}
	if c.Clock == nil {
		c.Clock = realClock{}
	}
}

// taskState is the runner's handle on one supervised task.
type taskState struct {
	id   string
	task Task // live incarnation, nil while down or backing off
	dead bool // crash-loop circuit fired
}

// Runner supervises a set of named tasks.
type Runner struct {
	cfg Config

	mu    sync.Mutex
	tasks map[string]*taskState
	dying bool

	dyingc chan struct{} // closed exactly once when the runner starts dying
	wg     sync.WaitGroup
}

// NewRunner builds a runner from cfg.
func NewRunner(cfg Config) *Runner {
	cfg.fill()
	return &Runner{
		cfg:    cfg,
		tasks:  map[string]*taskState{},
		dyingc: make(chan struct{}),
	}
}

// StartTask begins supervising a new task under id. It returns an error
// if the runner is stopping or the id is already supervised (a dead id
// may be reused — the circuit retired that incarnation, not the name).
func (r *Runner) StartTask(id string, start StartFunc) error {
	r.mu.Lock()
	if r.dying {
		r.mu.Unlock()
		return ErrStopped
	}
	if st, ok := r.tasks[id]; ok && !st.dead {
		r.mu.Unlock()
		return fmt.Errorf("supervisor: task %q already started", id)
	}
	st := &taskState{id: id}
	r.tasks[id] = st
	r.wg.Add(1)
	r.mu.Unlock()
	go r.supervise(st, start)
	return nil
}

// Stop kills every task and waits for the runner to die.
func (r *Runner) Stop() {
	r.kill()
	r.Wait()
}

// Wait blocks until Stop has been called and every supervision loop has
// exited.
func (r *Runner) Wait() {
	<-r.dyingc
	r.wg.Wait()
}

// Dead lists the tasks retired by the crash-loop circuit.
func (r *Runner) Dead() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for id, st := range r.tasks {
		if st.dead {
			out = append(out, id)
		}
	}
	return out
}

// kill starts the runner dying: closes dyingc once and stops every live
// incarnation.
func (r *Runner) kill() {
	r.mu.Lock()
	already := r.dying
	r.dying = true
	var live []Task
	for _, st := range r.tasks {
		if st.task != nil {
			live = append(live, st.task)
		}
	}
	r.mu.Unlock()
	if !already {
		close(r.dyingc)
	}
	for _, t := range live {
		t.Stop()
	}
}

func (r *Runner) event(kind EventKind, id string, err error, delay time.Duration) {
	if r.cfg.OnEvent != nil {
		r.cfg.OnEvent(Event{Kind: kind, TaskID: id, Err: err, Delay: delay})
	}
}

// isDying reports whether the runner has started dying.
func (r *Runner) isDying() bool {
	select {
	case <-r.dyingc:
		return true
	default:
		return false
	}
}

// supervise owns one task's whole lifecycle: start, wait, back off,
// restart — until the task is retired or the runner dies. Running the
// loop per task (rather than multiplexing one control goroutine) keeps
// each backoff an honest select that Stop can wake.
func (r *Runner) supervise(st *taskState, start StartFunc) {
	defer r.wg.Done()
	jitter := xrand.New(hashID(st.id))
	consecutive := 0
	var recent []time.Time
	for {
		t, err := start()
		if err == nil {
			r.mu.Lock()
			st.task = t
			r.mu.Unlock()
			if r.isDying() {
				// Stop raced the start: the new incarnation was never
				// registered when the stoppers swept live tasks.
				t.Stop()
			}
			// The run is timed from before EventStarted, so an observer
			// that moves the clock after the event ages this incarnation.
			startedAt := r.cfg.Clock.Now()
			r.event(EventStarted, st.id, nil, 0)
			err = t.Wait()
			r.mu.Lock()
			st.task = nil
			r.mu.Unlock()
			if r.cfg.Clock.Now().Sub(startedAt) >= r.cfg.CrashLoopWindow {
				// A long healthy run forgives history: back off from the
				// base again and restart the crash-loop count.
				consecutive = 0
				recent = recent[:0]
			}
		}
		r.event(EventExited, st.id, err, 0)

		if r.isDying() {
			return
		}

		// Any exit of a task that should still be running: crash-loop
		// circuit first, then backoff and restart.
		now := r.cfg.Clock.Now()
		kept := recent[:0]
		for _, ts := range recent {
			if now.Sub(ts) < r.cfg.CrashLoopWindow {
				kept = append(kept, ts)
			}
		}
		recent = append(kept, now)
		if r.cfg.CrashLoopK > 0 && len(recent) >= r.cfg.CrashLoopK {
			r.mu.Lock()
			st.dead = true
			r.mu.Unlock()
			r.event(EventDead, st.id, fmt.Errorf("%w (%d exits in %v, last: %v)",
				ErrDead, len(recent), r.cfg.CrashLoopWindow, err), 0)
			return
		}
		consecutive++
		delay := r.backoff(consecutive, jitter)
		r.event(EventRestarting, st.id, err, delay)
		select {
		case <-r.cfg.Clock.After(delay):
		case <-r.dyingc:
			return
		}
	}
}

// backoff returns the nth consecutive restart delay: exponential from
// RestartDelay, capped at MaxDelay, with deterministic ±25% jitter so
// simultaneous crashers do not restart in lockstep.
func (r *Runner) backoff(consecutive int, jitter *xrand.Rand) time.Duration {
	d := r.cfg.RestartDelay
	for i := 1; i < consecutive; i++ {
		d *= 2
		if d >= r.cfg.MaxDelay {
			d = r.cfg.MaxDelay
			break
		}
	}
	if d > r.cfg.MaxDelay {
		d = r.cfg.MaxDelay
	}
	// jitter in [-d/4, +d/4), quantised to avoid sub-ns silliness.
	j := time.Duration(jitter.Uint64()%uint64(d/2+1)) - d/4
	return d + j
}

// hashID folds a task id into its jitter seed (FNV-1a), so each task
// restarts on its own repeatable schedule.
func hashID(id string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return h
}
