// Restart-delay tests in the style of juju's runner_test.go (SNIPPETS.md
// Snippet 2): a test task whose death the test controls, assertions on
// started/stopped transitions, and — stricter than the original, which
// patched RestartDelay to zero — a ManualClock, so backoff behaviour is
// asserted exactly without any test ever sleeping through a real delay.
//
// These tests are written to fail against a no-op supervisor: restarts
// must actually happen (TestNonFatalRestart..., TestStartError...), and
// the crash-loop circuit must actually retire the task
// (TestCrashLoop...).
package supervisor

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// testTask is a controllable supervised task: the test makes it die by
// sending on die; Stop makes Wait return nil.
type testTask struct {
	die  chan error
	stop chan struct{}
	once sync.Once
}

func (t *testTask) Stop() { t.once.Do(func() { close(t.stop) }) }

func (t *testTask) Wait() error {
	select {
	case err := <-t.die:
		return err
	case <-t.stop:
		return nil
	}
}

// testStarter hands each started incarnation to the test.
type testStarter struct {
	mu       sync.Mutex
	startErr error
	starts   int
	started  chan *testTask
}

func newTestStarter() *testStarter {
	return &testStarter{started: make(chan *testTask, 16)}
}

func (s *testStarter) start() (Task, error) {
	s.mu.Lock()
	s.starts++
	err := s.startErr
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	t := &testTask{die: make(chan error), stop: make(chan struct{})}
	s.started <- t
	return t, nil
}

func (s *testStarter) startCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.starts
}

// assertStarted waits for the next incarnation.
func (s *testStarter) assertStarted(t *testing.T) *testTask {
	t.Helper()
	select {
	case tk := <-s.started:
		return tk
	case <-time.After(5 * time.Second):
		t.Fatal("task was not started")
		return nil
	}
}

// assertNotStarted asserts no new incarnation appears within a short
// grace period (the clock is manual, so nothing legitimate is pending).
func (s *testStarter) assertNotStarted(t *testing.T) {
	t.Helper()
	select {
	case <-s.started:
		t.Fatal("task was restarted before its backoff elapsed")
	case <-time.After(50 * time.Millisecond):
	}
}

// waitBackoffArmed blocks until the runner is parked in its backoff wait.
func waitBackoffArmed(t *testing.T, clk *ManualClock) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for clk.Waiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("runner never armed a backoff timer")
		}
		time.Sleep(time.Millisecond)
	}
}

const testDelay = 100 * time.Millisecond

func newTestRunner(clk *ManualClock, crashK int, onEvent func(Event)) *Runner {
	return NewRunner(Config{
		RestartDelay:    testDelay,
		MaxDelay:        time.Second,
		CrashLoopK:      crashK,
		CrashLoopWindow: 30 * time.Second,
		Clock:           clk,
		OnEvent:         onEvent,
	})
}

func TestOneTaskStartStop(t *testing.T) {
	clk := NewManualClock(time.Unix(0, 0))
	r := newTestRunner(clk, -1, nil)
	s := newTestStarter()
	if err := r.StartTask("id", s.start); err != nil {
		t.Fatal(err)
	}
	s.assertStarted(t)
	r.Stop()
	if got := s.startCount(); got != 1 {
		t.Fatalf("starts = %d, want 1", got)
	}
}

func TestNonFatalRestartAfterBackoff(t *testing.T) {
	clk := NewManualClock(time.Unix(0, 0))
	r := newTestRunner(clk, -1, nil)
	s := newTestStarter()
	if err := r.StartTask("id", s.start); err != nil {
		t.Fatal(err)
	}
	tk := s.assertStarted(t)

	tk.die <- errors.New("crash")
	waitBackoffArmed(t, clk)
	// Before the backoff elapses there must be no restart: advance well
	// under the jittered minimum (0.75 × delay).
	clk.Advance(testDelay / 2)
	s.assertNotStarted(t)
	// Past the jittered maximum (1.25 × delay) the restart must happen.
	clk.Advance(testDelay)
	s.assertStarted(t)
	if got := s.startCount(); got != 2 {
		t.Fatalf("starts = %d, want 2", got)
	}
	r.Stop()
}

func TestBackoffGrowsExponentially(t *testing.T) {
	clk := NewManualClock(time.Unix(0, 0))
	var mu sync.Mutex
	var delays []time.Duration
	r := newTestRunner(clk, -1, func(e Event) {
		if e.Kind == EventRestarting {
			mu.Lock()
			delays = append(delays, e.Delay)
			mu.Unlock()
		}
	})
	s := newTestStarter()
	if err := r.StartTask("id", s.start); err != nil {
		t.Fatal(err)
	}
	tk := s.assertStarted(t)
	for i := 0; i < 3; i++ {
		tk.die <- errors.New("crash")
		waitBackoffArmed(t, clk)
		clk.Advance(2 * time.Second) // past any jittered delay
		tk = s.assertStarted(t)
	}
	r.Stop()
	mu.Lock()
	defer mu.Unlock()
	if len(delays) != 3 {
		t.Fatalf("restarts = %d, want 3", len(delays))
	}
	// Nominal delays are d, 2d, 4d; jitter is ±25%, so consecutive
	// jittered delays must still be strictly increasing.
	for i := 1; i < len(delays); i++ {
		if delays[i] <= delays[i-1] {
			t.Fatalf("backoff did not grow: %v", delays)
		}
	}
	lo, hi := testDelay*3/4, testDelay*5/4
	if delays[0] < lo || delays[0] > hi {
		t.Fatalf("first delay %v outside jitter band [%v, %v]", delays[0], lo, hi)
	}
	// The jitter stream is seeded from the task id alone, so the exact
	// schedule is a fixed function of ("id", RestartDelay, MaxDelay).
	want := []time.Duration{115295253, 188567328, 426877836}
	for i := range want {
		if delays[i] != want[i] {
			t.Fatalf("delays = %v, want %v", delays, want)
		}
	}
}

// TestStartErrorRestartsAfterBackoff: a StartFunc that fails is an exit
// like any other — the runner backs off, tries again, and counts the
// failure toward the crash-loop circuit.
func TestStartErrorRestartsAfterBackoff(t *testing.T) {
	clk := NewManualClock(time.Unix(0, 0))
	dead := make(chan Event, 1)
	r := newTestRunner(clk, 3, func(e Event) {
		if e.Kind == EventDead {
			dead <- e
		}
	})
	s := newTestStarter()
	s.startErr = errors.New("cannot start test task")
	if err := r.StartTask("id", s.start); err != nil {
		t.Fatal(err)
	}
	waitBackoffArmed(t, clk)
	// Under the jittered minimum: no second attempt yet.
	clk.Advance(testDelay / 2)
	time.Sleep(50 * time.Millisecond)
	if got := s.startCount(); got != 1 {
		t.Fatalf("starts = %d before the backoff elapsed, want 1", got)
	}
	// Past the jittered maximum the start is retried.
	clk.Advance(testDelay)
	waitStarts(t, s, 2)
	// The third failed start inside the window trips the K=3 circuit.
	waitBackoffArmed(t, clk)
	clk.Advance(2 * time.Second)
	select {
	case e := <-dead:
		if !errors.Is(e.Err, ErrDead) {
			t.Fatalf("dead event error %v does not wrap ErrDead", e.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("failed starts never tripped the crash-loop circuit")
	}
	clk.Advance(time.Minute)
	time.Sleep(50 * time.Millisecond)
	if got := s.startCount(); got != 3 {
		t.Fatalf("starts = %d, want 3", got)
	}
	if ds := r.Dead(); len(ds) != 1 || ds[0] != "id" {
		t.Fatalf("Dead() = %v, want [id]", ds)
	}
	r.Stop()
}

// waitStarts blocks until the starter has been called n times.
func waitStarts(t *testing.T, s *testStarter, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.startCount() < n {
		if time.Now().After(deadline) {
			t.Fatalf("starts = %d, want %d", s.startCount(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestStopDuringBackoffWakesImmediately(t *testing.T) {
	clk := NewManualClock(time.Unix(0, 0))
	r := newTestRunner(clk, -1, nil)
	s := newTestStarter()
	if err := r.StartTask("id", s.start); err != nil {
		t.Fatal(err)
	}
	tk := s.assertStarted(t)
	tk.die <- errors.New("crash")
	waitBackoffArmed(t, clk)
	// The clock never advances: Stop alone must end the backoff wait.
	done := make(chan struct{})
	go func() {
		r.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop hung: backoff wait did not wake on Stop")
	}
	s.assertNotStarted(t)
}

func TestCrashLoopCircuitRetiresTask(t *testing.T) {
	clk := NewManualClock(time.Unix(0, 0))
	var mu sync.Mutex
	var dead []Event
	r := newTestRunner(clk, 3, func(e Event) {
		if e.Kind == EventDead {
			mu.Lock()
			dead = append(dead, e)
			mu.Unlock()
		}
	})
	s := newTestStarter()
	if err := r.StartTask("id", s.start); err != nil {
		t.Fatal(err)
	}
	// Three rapid crashes (the manual clock never moves, so all fall in
	// one window): two restarts, then the circuit retires the task.
	tk := s.assertStarted(t)
	for i := 0; i < 2; i++ {
		tk.die <- errors.New("crash")
		waitBackoffArmed(t, clk)
		clk.Advance(2 * time.Second)
		tk = s.assertStarted(t)
	}
	tk.die <- errors.New("crash")
	// Dead: no further restart, however far the clock advances.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(dead)
		mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("crash-loop circuit never fired")
		}
		time.Sleep(time.Millisecond)
	}
	clk.Advance(time.Minute)
	s.assertNotStarted(t)
	if got := s.startCount(); got != 3 {
		t.Fatalf("starts = %d, want 3", got)
	}
	if ds := r.Dead(); len(ds) != 1 || ds[0] != "id" {
		t.Fatalf("Dead() = %v, want [id]", ds)
	}
	mu.Lock()
	if !errors.Is(dead[0].Err, ErrDead) {
		t.Fatalf("dead event error %v does not wrap ErrDead", dead[0].Err)
	}
	mu.Unlock()
	// A dead id may be restarted fresh (new incarnation, clean history).
	if err := r.StartTask("id", s.start); err != nil {
		t.Fatalf("restarting a dead id: %v", err)
	}
	s.assertStarted(t)
	r.Stop()
}

func TestHealthyRunResetsCrashHistory(t *testing.T) {
	clk := NewManualClock(time.Unix(0, 0))
	var mu sync.Mutex
	var delays []time.Duration
	started := make(chan struct{}, 8)
	r := newTestRunner(clk, 3, func(e Event) {
		switch e.Kind {
		case EventRestarting:
			mu.Lock()
			delays = append(delays, e.Delay)
			mu.Unlock()
		case EventStarted:
			started <- struct{}{}
		}
	})
	s := newTestStarter()
	if err := r.StartTask("id", s.start); err != nil {
		t.Fatal(err)
	}
	tk := s.assertStarted(t)
	// Two crashes, then an incarnation that outlives the crash-loop
	// window: its death must restart from the base delay, not 4d, and
	// must not trip the K=3 circuit.
	for i := 0; i < 2; i++ {
		tk.die <- errors.New("crash")
		waitBackoffArmed(t, clk)
		clk.Advance(2 * time.Second)
		tk = s.assertStarted(t)
	}
	// The third incarnation's run must be timed before the clock jumps.
	for i := 0; i < 3; i++ {
		<-started
	}
	clk.Advance(31 * time.Second) // healthy run longer than the window
	tk.die <- errors.New("crash")
	waitBackoffArmed(t, clk)
	clk.Advance(2 * time.Second)
	s.assertStarted(t)
	r.Stop()
	mu.Lock()
	defer mu.Unlock()
	if len(delays) != 3 {
		t.Fatalf("restarts = %d, want 3 (circuit must not have fired)", len(delays))
	}
	lo, hi := testDelay*3/4, testDelay*5/4
	if delays[2] < lo || delays[2] > hi {
		t.Fatalf("post-healthy-run delay %v not reset to base band [%v, %v]", delays[2], lo, hi)
	}
}

func TestStartTaskAfterStopRefused(t *testing.T) {
	clk := NewManualClock(time.Unix(0, 0))
	r := newTestRunner(clk, -1, nil)
	r.Stop()
	if err := r.StartTask("id", newTestStarter().start); !errors.Is(err, ErrStopped) {
		t.Fatalf("StartTask after Stop = %v, want ErrStopped", err)
	}
}

func TestDuplicateStartRefused(t *testing.T) {
	clk := NewManualClock(time.Unix(0, 0))
	r := newTestRunner(clk, -1, nil)
	s := newTestStarter()
	if err := r.StartTask("id", s.start); err != nil {
		t.Fatal(err)
	}
	s.assertStarted(t)
	if err := r.StartTask("id", s.start); err == nil {
		t.Fatal("duplicate StartTask succeeded")
	}
	r.Stop()
}
