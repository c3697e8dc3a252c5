// Restart-policy tests in the style of juju's runner_test.go (SNIPPETS.md
// Snippet 2): node incarnations whose death the test controls,
// assertions on started/stopped transitions, and — stricter than the
// original, which patched RestartDelay to zero — a ManualClock, so
// backoff is asserted exactly without any test sleeping through a real
// delay.
//
// They fail against a fleet that never restarts: restarts must actually
// happen (TestNonFatalRestart..., TestStartError...), and the crash-loop
// circuit must actually retire the node (TestCrashLoop...).

package parccluster

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parc751/internal/xrand"
)

// ManualClock is a clock advanced explicitly by tests. Timers set with
// After fire when Advance moves the clock past their deadline; nothing
// fires on its own.
type ManualClock struct {
	mu     sync.Mutex
	now    time.Time
	timers []manualTimer
}

type manualTimer struct {
	at time.Time
	ch chan time.Time
}

// NewManualClock returns a manual clock starting at start.
func NewManualClock(start time.Time) *ManualClock {
	return &ManualClock{now: start}
}

// Now returns the clock's current instant.
func (c *ManualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// After returns a channel that receives once the clock has been advanced
// to or past d from now.
func (c *ManualClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch := make(chan time.Time, 1)
	at := c.now.Add(d)
	if d <= 0 {
		ch <- at
		return ch
	}
	c.timers = append(c.timers, manualTimer{at: at, ch: ch})
	return ch
}

// Advance moves the clock forward by d, firing every timer whose deadline
// it reaches.
func (c *ManualClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	kept := c.timers[:0]
	for _, t := range c.timers {
		if !t.at.After(c.now) {
			t.ch <- c.now
		} else {
			kept = append(kept, t)
		}
	}
	c.timers = kept
}

// Waiters reports how many After timers are pending — tests use it to
// synchronise on "the node is now in its backoff wait" without racing
// the supervise loop.
func (c *ManualClock) Waiters() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.timers)
}

// fakeNode is a controllable incarnation: the test makes it die by
// sending on die; Shutdown makes Wait return nil.
type fakeNode struct {
	url        string
	die        chan error
	stop       chan struct{}
	once       sync.Once
	onShutdown func() // when set, Shutdown calls it first
}

func (n *fakeNode) URL() string { return n.url }

func (n *fakeNode) Kill() error {
	select {
	case n.die <- errKilled:
	default:
	}
	return nil
}

func (n *fakeNode) Shutdown() error {
	if n.onShutdown != nil {
		n.onShutdown()
	}
	n.once.Do(func() { close(n.stop) })
	return nil
}

func (n *fakeNode) Wait() error {
	select {
	case err := <-n.die:
		return err
	case <-n.stop:
		return nil
	}
}

// fakeStarter hands each started incarnation to the test. Every node's
// URL points into one httptest server that answers /{id}/healthz with
// that node_id, so the fleet's identity check passes, /{id}/statz with
// a ready node holding 7 waiting jobs, and every job with a fixed 200.
type fakeStarter struct {
	health  *httptest.Server
	started chan *fakeNode

	mu       sync.Mutex
	startErr error
	gate     chan struct{} // when set, Start blocks until it is closed
	starts   int
}

func newFakeStarter(t *testing.T) *fakeStarter {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{id}/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "{\"node_id\":%q}\n", r.PathValue("id"))
	})
	mux.HandleFunc("GET /{id}/statz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "{\"node_id\":%q,\"ready\":true,\"admission\":{\"waiting\":7}}\n", r.PathValue("id"))
	})
	mux.HandleFunc("POST /{id}/jobs/{kind}", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "{\"kind\":%q,\"checksum\":1}\n", r.PathValue("kind"))
	})
	s := &fakeStarter{health: httptest.NewServer(mux), started: make(chan *fakeNode, 16)}
	t.Cleanup(s.health.Close)
	return s
}

func (s *fakeStarter) Start(id string) (NodeHandle, error) {
	s.mu.Lock()
	s.starts++
	err, gate := s.startErr, s.gate
	s.mu.Unlock()
	if gate != nil {
		<-gate
	}
	if err != nil {
		return nil, err
	}
	n := &fakeNode{url: s.health.URL + "/" + id, die: make(chan error, 1), stop: make(chan struct{})}
	s.started <- n
	return n, nil
}

func (s *fakeStarter) startCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.starts
}

// assertStarted waits for the next incarnation.
func (s *fakeStarter) assertStarted(t *testing.T) *fakeNode {
	t.Helper()
	select {
	case n := <-s.started:
		return n
	case <-time.After(5 * time.Second):
		t.Fatal("node was not started")
		return nil
	}
}

// assertNotStarted asserts no new incarnation appears within a short
// grace period (the clock is manual, so nothing legitimate is pending).
func (s *fakeStarter) assertNotStarted(t *testing.T) {
	t.Helper()
	select {
	case <-s.started:
		t.Fatal("node was restarted before its backoff elapsed")
	case <-time.After(50 * time.Millisecond):
	}
}

// waitStarts blocks until the starter has been called n times.
func waitStarts(t *testing.T, s *fakeStarter, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.startCount() < n {
		if time.Now().After(deadline) {
			t.Fatalf("starts = %d, want %d", s.startCount(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitBackoffArmed blocks until the supervise loop is parked in its
// backoff wait.
func waitBackoffArmed(t *testing.T, clk *ManualClock) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for clk.Waiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("fleet never armed a backoff timer")
		}
		time.Sleep(time.Millisecond)
	}
}

// waitEvents blocks until the log holds n events of type typ.
func waitEvents(t *testing.T, f *Fleet, typ string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for f.Events().Count(typ) < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d %s events, want %d: %v", f.Events().Count(typ), typ, n, f.Events().Events())
		}
		time.Sleep(time.Millisecond)
	}
}

// eventsOf returns the logged events of type typ, in order.
func eventsOf(f *Fleet, typ string) []ClusterEvent {
	var out []ClusterEvent
	for _, e := range f.Events().Events() {
		if e.Type == typ {
			out = append(out, e)
		}
	}
	return out
}

const testDelay = 100 * time.Millisecond

// newFakeFleet builds a one-node fleet over s on a manual clock.
func newFakeFleet(s *fakeStarter) (*Fleet, *ManualClock) {
	clk := NewManualClock(time.Unix(0, 0))
	f := NewFleet(FleetConfig{Nodes: 1, Starter: s, RestartDelay: testDelay})
	f.clock = clk
	return f, clk
}

// startFakeFleet starts a one-node fleet over a fresh fake starter and
// returns the running incarnation.
func startFakeFleet(t *testing.T) (*Fleet, *ManualClock, *fakeStarter, *fakeNode) {
	t.Helper()
	s := newFakeStarter(t)
	f, clk := newFakeFleet(s)
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	return f, clk, s, s.assertStarted(t)
}

func TestOneTaskStartStop(t *testing.T) {
	f, _, s, n := startFakeFleet(t)
	_ = f.Stop()
	select {
	case <-n.stop:
	default:
		t.Fatal("Stop did not shut the live incarnation down")
	}
	if got := s.startCount(); got != 1 {
		t.Fatalf("starts = %d, want 1", got)
	}
}

func TestNonFatalRestartAfterBackoff(t *testing.T) {
	f, clk, s, n := startFakeFleet(t)
	n.die <- errors.New("crash")
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
	_ = f.Stop()
}

func TestBackoffGrowsExponentially(t *testing.T) {
	f, clk, s, n := startFakeFleet(t)
	for i := 0; i < 3; i++ {
		n.die <- errors.New("crash")
		waitBackoffArmed(t, clk)
		clk.Advance(2 * time.Second) // past any jittered delay
		n = s.assertStarted(t)
	}
	_ = f.Stop()
	restarts := eventsOf(f, EvNodeRestart)
	if len(restarts) != 3 {
		t.Fatalf("restarts = %d, want 3", len(restarts))
	}
	// The logged delays are node0's own jitter stream.
	jitter := xrand.New(hash64("node0"))
	var delays []time.Duration
	for i, e := range restarts {
		d := restartBackoff(testDelay, i+1, jitter)
		if want := fmt.Sprintf("in %v after: crash", d); e.Detail != want {
			t.Fatalf("restart %d detail %q, want %q", i+1, e.Detail, want)
		}
		delays = append(delays, d)
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
	// The jitter stream is seeded from the node id alone, so the exact
	// schedule is a fixed function of ("id", RestartDelay).
	jitter = xrand.New(hash64("id"))
	want := []time.Duration{115295253, 188567328, 426877836}
	for i := range want {
		if got := restartBackoff(testDelay, i+1, jitter); got != want[i] {
			t.Fatalf("delay %d = %v, want %v", i+1, got, want[i])
		}
	}
}

// TestStartErrorRestartsAfterBackoff: a start that fails is an exit like
// any other — the fleet backs off, tries again, and counts the failure
// toward the crash-loop circuit. A node retired before it was ever ready
// fails Start.
func TestStartErrorRestartsAfterBackoff(t *testing.T) {
	s := newFakeStarter(t)
	s.startErr = errors.New("cannot start test node")
	f, clk := newFakeFleet(s)
	startErr := make(chan error, 1)
	go func() { startErr <- f.Start() }()
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
	// The fifth failed start inside the window trips the circuit.
	for i := 3; i <= crashLoopK; i++ {
		waitBackoffArmed(t, clk)
		clk.Advance(2 * time.Second)
		waitStarts(t, s, i)
	}
	select {
	case err := <-startErr:
		if err == nil || !strings.Contains(err.Error(), "retired") {
			t.Fatalf("Start = %v, want a retirement error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("failed starts never tripped the crash-loop circuit")
	}
	clk.Advance(time.Minute)
	time.Sleep(50 * time.Millisecond)
	if got := s.startCount(); got != crashLoopK {
		t.Fatalf("starts = %d, want %d", got, crashLoopK)
	}
	if dead := eventsOf(f, EvNodeDead); len(dead) != 1 || !strings.Contains(dead[0].Detail, "cannot start test node") {
		t.Fatalf("node-dead events %v, want one naming the start error", dead)
	}
	_ = f.Stop()
}

func TestStopDuringBackoffWakesImmediately(t *testing.T) {
	f, clk, s, n := startFakeFleet(t)
	n.die <- errors.New("crash")
	waitBackoffArmed(t, clk)
	// The clock never advances: Stop alone must end the backoff wait.
	done := make(chan struct{})
	go func() {
		_ = f.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop hung: backoff wait did not wake on Stop")
	}
	s.assertNotStarted(t)
}

// TestStopShutsDownIncarnationStartedDuringStop: an incarnation whose
// start was in flight when Stop swept the live nodes is shut down as
// soon as it is recorded, so Stop still returns.
func TestStopShutsDownIncarnationStartedDuringStop(t *testing.T) {
	s := newFakeStarter(t)
	s.gate = make(chan struct{})
	f, _ := newFakeFleet(s)
	go func() { _ = f.Start() }()
	waitStarts(t, s, 1)
	done := make(chan struct{})
	go func() {
		_ = f.Stop()
		close(done)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for !f.isStopping() {
		if time.Now().After(deadline) {
			t.Fatal("Stop never began")
		}
		time.Sleep(time.Millisecond)
	}
	close(s.gate)
	n := s.assertStarted(t)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop hung on an incarnation started during Stop")
	}
	select {
	case <-n.stop:
	default:
		t.Fatal("incarnation started during Stop was never shut down")
	}
}

// TestStopShutsDownNodesConcurrently: Stop drains every node at once, so
// each node's Shutdown is still running when the others enter theirs.
// Each fake Shutdown waits until all have entered or 2 s have passed; a
// Stop that shuts the nodes down one after another times the first ones out.
func TestStopShutsDownNodesConcurrently(t *testing.T) {
	const nodes = 3
	s := newFakeStarter(t)
	f := NewFleet(FleetConfig{Nodes: nodes, Starter: s, RestartDelay: testDelay})
	f.clock = NewManualClock(time.Unix(0, 0))
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	var entered, timedOut atomic.Int32
	all := make(chan struct{})
	for range nodes {
		s.assertStarted(t).onShutdown = func() {
			if entered.Add(1) == nodes {
				close(all)
			}
			select {
			case <-all:
			case <-time.After(2 * time.Second):
				timedOut.Add(1)
			}
		}
	}
	_ = f.Stop()
	if got := entered.Load(); got != nodes {
		t.Fatalf("Stop shut down %d nodes, want %d", got, nodes)
	}
	if got := timedOut.Load(); got != 0 {
		t.Fatalf("%d of %d Shutdown calls waited 2 s for the others: Stop shuts nodes down one at a time", got, nodes)
	}
}

func TestCrashLoopCircuitRetiresTask(t *testing.T) {
	f, clk, s, n := startFakeFleet(t)
	// crashLoopK rapid crashes (the clock moves 2s per restart, so all
	// fall in one window): K−1 restarts, then the circuit retires the
	// node.
	for i := 1; i < crashLoopK; i++ {
		n.die <- errors.New("crash")
		waitBackoffArmed(t, clk)
		clk.Advance(2 * time.Second)
		n = s.assertStarted(t)
	}
	n.die <- errors.New("crash")
	waitEvents(t, f, EvNodeDead, 1)
	// Dead: no further restart, however far the clock advances.
	clk.Advance(time.Minute)
	s.assertNotStarted(t)
	if got := s.startCount(); got != crashLoopK {
		t.Fatalf("starts = %d, want %d", got, crashLoopK)
	}
	dead := eventsOf(f, EvNodeDead)
	want := fmt.Sprintf("%d exits in %v", crashLoopK, crashLoopWindow)
	if len(dead) != 1 || dead[0].Node != "node0" || !strings.Contains(dead[0].Detail, want) {
		t.Fatalf("node-dead events %v, want one for node0 naming %q", dead, want)
	}
	if f.retired() != 1 {
		t.Fatalf("retired = %d, want 1", f.retired())
	}
	if len(f.Router().Nodes()) != 0 {
		t.Fatalf("retired node still routed: %v", f.Router().Nodes())
	}
	_ = f.Stop()
}

func TestHealthyRunResetsCrashHistory(t *testing.T) {
	f, clk, s, n := startFakeFleet(t)
	// K−1 crashes, then an incarnation that outlives the crash-loop
	// window: its death must restart from the base delay, not 2^(K−1)
	// times it, and must not trip the circuit.
	for i := 1; i < crashLoopK; i++ {
		n.die <- errors.New("crash")
		waitBackoffArmed(t, clk)
		clk.Advance(2 * time.Second)
		n = s.assertStarted(t)
	}
	// The last incarnation's run must be timed before the clock jumps.
	waitEvents(t, f, EvNodeReady, crashLoopK)
	clk.Advance(31 * time.Second) // healthy run longer than the window
	n.die <- errors.New("crash")
	waitBackoffArmed(t, clk)
	clk.Advance(2 * time.Second)
	s.assertStarted(t)
	_ = f.Stop()
	restarts := eventsOf(f, EvNodeRestart)
	if len(restarts) != crashLoopK || f.Events().Count(EvNodeDead) != 0 {
		t.Fatalf("restarts = %d, want %d (circuit must not have fired)", len(restarts), crashLoopK)
	}
	last := restarts[len(restarts)-1].Detail
	d, err := time.ParseDuration(strings.TrimPrefix(strings.TrimSuffix(last, " after: crash"), "in "))
	if err != nil {
		t.Fatalf("restart detail %q: %v", last, err)
	}
	lo, hi := testDelay*3/4, testDelay*5/4
	if d < lo || d > hi {
		t.Fatalf("post-healthy-run delay %v not reset to base band [%v, %v]", d, lo, hi)
	}
}
