package parccluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"parc751/internal/parcserve"
	"parc751/internal/parcserve/loadtest"
)

// startTestFleet brings up a supervised in-process fleet fronted by a
// real TCP router and returns both plus a cleanup-registered stop.
func startTestFleet(t *testing.T, nodes int, cfg FleetConfig) (*Fleet, *httptest.Server) {
	t.Helper()
	cfg.Nodes = nodes
	if cfg.Starter == nil {
		cfg.Starter = &LocalStarter{Config: parcserve.Config{
			Workers: 2, MaxConcurrent: 4, MaxQueue: 64,
			DrainGrace: 10 * time.Millisecond,
		}}
	}
	f := NewFleet(cfg)
	if err := f.Start(); err != nil {
		_ = f.Stop()
		t.Fatalf("fleet start: %v", err)
	}
	front := httptest.NewServer(f.Router())
	t.Cleanup(func() {
		front.Close()
		_ = f.Stop()
	})
	return f, front
}

// TestClusterKillNodeMidLoadZeroLost is the no-lost-jobs contract end to
// end: a 2-node supervised fleet under open-loop load has one node
// murdered mid-run; every request must still be answered (loadtest
// Dropped == 0), the ledger must balance exactly once traffic stops
// (Lost == 0), and the fleet must bring the victim back.
func TestClusterKillNodeMidLoadZeroLost(t *testing.T) {
	f, front := startTestFleet(t, 2, FleetConfig{
		RestartDelay: 50 * time.Millisecond,
		Router: RouterConfig{
			LoadPollEvery: 25 * time.Millisecond,
			VerifyRetries: true,
		},
	})

	var wg sync.WaitGroup
	var res *loadtest.Result
	wg.Add(1)
	go func() {
		defer wg.Done()
		res = loadtest.Run(loadtest.Config{
			BaseURL:  front.URL,
			Seed:     751,
			Requests: 120,
			Rate:     300,
			Mix: []loadtest.JobSpec{
				{Kind: "sort", Body: map[string]any{"seed": 7, "n": 400}, Weight: 3},
				{Kind: "spin", Body: map[string]any{"spin_ms": 5}, Weight: 2},
				{Kind: "matmul", Body: map[string]any{"seed": 7, "n": 12}, Weight: 1},
			},
		})
	}()

	// Let some load land, then murder node0 mid-run.
	time.Sleep(100 * time.Millisecond)
	if err := f.KillNode("node0"); err != nil {
		t.Fatalf("KillNode: %v", err)
	}
	wg.Wait()

	if res.Dropped != 0 {
		t.Fatalf("loadtest dropped %d requests — the cluster went silent: %v", res.Dropped, res.Codes)
	}
	led := f.Router().Ledger()
	if led.Lost != 0 {
		t.Fatalf("ledger lost %d jobs: %+v", led.Lost, led)
	}
	if led.Accepted != led.Completed+led.Rejected {
		t.Fatalf("ledger does not balance: %+v", led)
	}
	if led.Accepted < int64(res.Sent) {
		t.Fatalf("router accepted %d < sent %d", led.Accepted, res.Sent)
	}
	if led.Mismatch != 0 {
		t.Fatalf("retry verification mismatches: %+v", led)
	}
	if res.Codes[http.StatusOK] == 0 {
		t.Fatalf("no request succeeded at all: %v", res.Codes)
	}

	// The fleet must restart node0: poll until it is alive and ready
	// again in the router's membership.
	deadline := time.Now().Add(10 * time.Second)
	for {
		alive := false
		for _, n := range f.Router().Nodes() {
			if n.ID == "node0" && n.Alive && n.Ready {
				alive = true
			}
		}
		if alive {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("node0 never came back; events:\n%v", f.Events().Events())
		}
		time.Sleep(20 * time.Millisecond)
	}
	// And the restarted node must actually serve.
	if w := postJob(t, f.Router(), "sort", parcserve.JobRequest{Seed: 9, N: 100}); w.Code != http.StatusOK {
		t.Fatalf("post-restart job: %d %s", w.Code, w.Body)
	}

	ev := f.Events()
	if ev.Count(EvNodeKill) != 1 || ev.Count(EvNodeExit) == 0 || ev.Count(EvNodeRestart) == 0 {
		t.Fatalf("event log missing the kill/exit/restart story: %v", ev.Events())
	}
}

// TestChaosKillEndpointLogsOnce: POST /chaos/kill/{node} logs exactly one
// node-kill for a live node, and none for an unknown node, which gets
// 404.
func TestChaosKillEndpointLogsOnce(t *testing.T) {
	f, _ := startTestFleet(t, 1, FleetConfig{})
	kill := func(node string) int {
		w := httptest.NewRecorder()
		f.Router().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/chaos/kill/"+node, nil))
		return w.Code
	}
	if code := kill("node0"); code != http.StatusOK {
		t.Fatalf("kill node0: %d", code)
	}
	if n := f.Events().Count(EvNodeKill); n != 1 {
		t.Fatalf("%d node-kill events for one kill, want 1: %v", n, f.Events().Events())
	}
	if code := kill("node7"); code != http.StatusNotFound {
		t.Fatalf("kill of an unknown node: %d, want 404", code)
	}
	if n := f.Events().Count(EvNodeKill); n != 1 {
		t.Fatalf("%d node-kill events after an unknown-node kill, want 1: %v", n, f.Events().Events())
	}
}

// TestClusterGracefulStopDrains: Stop() takes the polite path — nodes
// drain, incarnations exit clean (no errKilled), no node is retired, and
// Stop returns nil.
func TestClusterGracefulStopDrains(t *testing.T) {
	f := NewFleet(FleetConfig{Nodes: 2, Starter: &LocalStarter{Config: parcserve.Config{
		Workers: 2, MaxConcurrent: 2,
	}}})
	if err := f.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	if w := postJob(t, f.Router(), "sort", parcserve.JobRequest{Seed: 1, N: 100}); w.Code != http.StatusOK {
		t.Fatalf("warm-up job: %d %s", w.Code, w.Body)
	}
	if err := f.Stop(); err != nil {
		t.Fatalf("graceful stop returned %v", err)
	}
	if n := f.Events().Count(EvNodeDead); n != 0 {
		t.Fatalf("%d nodes declared dead during a graceful stop", n)
	}
}

// TestClusterCrashLoopRetiresNode: a node whose incarnations die
// instantly on every start trips the crash-loop circuit; the fleet
// removes it from the ring and the survivor carries all shards.
func TestClusterCrashLoopRetiresNode(t *testing.T) {
	inner := &LocalStarter{Config: parcserve.Config{Workers: 2, MaxConcurrent: 2}}
	f, front := startTestFleet(t, 2, FleetConfig{
		Starter: &sabotageStarter{inner: inner, victim: "node1"},
		// Fast restarts so the circuit trips in test time.
		RestartDelay: time.Millisecond,
	})

	// Kill the victim once; every restart incarnation self-destructs, so
	// the circuit must retire it.
	if err := f.KillNode("node1"); err != nil {
		t.Fatalf("KillNode: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for f.Events().Count(EvNodeDead) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("crash-looping node never retired; events:\n%v", f.Events().Events())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Exactly one retirement, and its detail says why.
	dead := f.Events().Events()
	n := 0
	for _, e := range dead {
		if e.Type == EvNodeDead {
			n++
			if e.Node != "node1" || !strings.Contains(e.Detail, fmt.Sprintf("%d exits", crashLoopK)) {
				t.Fatalf("node-dead event %+v does not name node1's exit count", e)
			}
		}
	}
	if n != 1 {
		t.Fatalf("%d node-dead events, want 1: %v", n, dead)
	}

	// The dead node is out of the membership entirely…
	for _, n := range f.Router().Nodes() {
		if n.ID == "node1" {
			t.Fatal("retired node still in router membership")
		}
	}
	// …and every kind now shards to the survivor; jobs still complete.
	resp, err := http.Post(front.URL+"/jobs/sort", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("one-node cluster job: %d", resp.StatusCode)
	}
}

// sabotageStarter wraps a NodeStarter: after the victim's first
// incarnation, every restart dies immediately — a deterministic
// crash-looper.
type sabotageStarter struct {
	inner  NodeStarter
	victim string

	mu     sync.Mutex
	starts map[string]int
}

func (s *sabotageStarter) Start(id string) (NodeHandle, error) {
	s.mu.Lock()
	if s.starts == nil {
		s.starts = map[string]int{}
	}
	s.starts[id]++
	n := s.starts[id]
	s.mu.Unlock()
	h, err := s.inner.Start(id)
	if err != nil {
		return nil, err
	}
	if id == s.victim && n > 1 {
		// Let the incarnation pass its health check, then die — a fast
		// deterministic crash loop that doesn't stall the fleet's
		// readiness wait.
		go func() {
			time.Sleep(30 * time.Millisecond)
			_ = h.Kill()
		}()
	}
	return h, nil
}
