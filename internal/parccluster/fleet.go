package parccluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"parc751/internal/xrand"
)

// readyTimeout bounds the post-start wait for a node's /healthz to
// answer with the right identity, and the fleet's initial wait for every
// node to become routable.
const readyTimeout = 15 * time.Second

// Restart policy. A node's restart backoff doubles from
// FleetConfig.RestartDelay up to maxRestartDelay; crashLoopK exits
// within crashLoopWindow retire the node, and a run at least as long as
// the window forgives its history.
const (
	defaultRestartDelay = 100 * time.Millisecond
	maxRestartDelay     = 5 * time.Second
	crashLoopK          = 5
	crashLoopWindow     = 30 * time.Second
)

// FleetConfig sizes a supervised fleet.
type FleetConfig struct {
	// Nodes is how many worker nodes to run (default 2).
	Nodes int
	// Starter creates node incarnations (LocalStarter or ProcStarter).
	Starter NodeStarter
	// Router tunes the fronting router. The fleet wires its kill hook
	// (POST /chaos/kill/{node}) to KillNode.
	Router RouterConfig
	// RestartDelay is the first backoff before a crashed node restarts
	// (default 100ms).
	RestartDelay time.Duration
}

// clock is the time source of the restart policy; tests drive a manual
// one so backoff is asserted exactly without sleeping.
type clock interface {
	Now() time.Time
	After(d time.Duration) <-chan time.Time
}

type realClock struct{}

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// fleetNode is the fleet's one record of a node's life.
type fleetNode struct {
	handle  NodeHandle // live incarnation, nil while down or backing off
	retired bool       // the crash-loop circuit fired
}

// Fleet is a supervised set of parcserve worker nodes behind a Router.
// Start it, point load at Router(), Stop it; KillNode is the chaos
// entry the A11 ablation and the CI smoke use.
type Fleet struct {
	cfg    FleetConfig
	clock  clock
	events *EventLog
	router *Router

	mu    sync.Mutex
	nodes map[string]*fleetNode
	stopc chan struct{} // closed, under mu, when Stop begins
	wg    sync.WaitGroup
}

// NewFleet wires a fleet; nothing runs until Start.
func NewFleet(cfg FleetConfig) *Fleet {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 2
	}
	if cfg.Starter == nil {
		cfg.Starter = &LocalStarter{}
	}
	if cfg.RestartDelay <= 0 {
		cfg.RestartDelay = defaultRestartDelay
	}
	f := &Fleet{cfg: cfg, clock: realClock{}, nodes: map[string]*fleetNode{}, stopc: make(chan struct{})}
	f.router = newRouter(cfg.Router, f.KillNode)
	f.events = f.router.Events()
	return f
}

// Router returns the fleet's fronting router (an http.Handler).
func (f *Fleet) Router() *Router { return f.router }

// Events returns the shared cluster event log.
func (f *Fleet) Events() *EventLog { return f.events }

// Start launches and supervises every node, returning once all are
// ready and routable, or with an error once one is retired, Stop begins
// or the ready budget runs out.
func (f *Fleet) Start() error {
	f.mu.Lock()
	for i := 0; i < f.cfg.Nodes; i++ {
		id := fmt.Sprintf("node%d", i)
		f.nodes[id] = &fleetNode{}
		f.wg.Add(1)
		go f.supervise(id)
	}
	f.mu.Unlock()
	deadline := time.Now().Add(readyTimeout)
	for {
		ready := 0
		for _, n := range f.router.Nodes() {
			if n.Alive && n.Ready {
				ready++
			}
		}
		if ready == f.cfg.Nodes {
			return nil
		}
		if r := f.retired(); r > 0 {
			return fmt.Errorf("parccluster: %d/%d nodes retired before the fleet was ready",
				r, f.cfg.Nodes)
		}
		if f.isStopping() {
			return fmt.Errorf("parccluster: fleet stopped before it was ready")
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("parccluster: only %d/%d nodes ready within %v",
				ready, f.cfg.Nodes, readyTimeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// retired counts the nodes the crash-loop circuit has retired.
func (f *Fleet) retired() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, st := range f.nodes {
		if st.retired {
			n++
		}
	}
	return n
}

// supervise owns node id's whole life: run an incarnation, and after
// every exit (a crash, a failed start, even a clean return) either
// retire the node or restart it after a backoff, until Stop. One loop
// per node keeps each backoff a select that Stop can wake.
func (f *Fleet) supervise(id string) {
	defer f.wg.Done()
	jitter := xrand.New(hash64(id))
	consecutive := 0
	var exits []time.Time // exits inside the crash-loop window
	for {
		ran, err := f.incarnation(id)
		if ran >= crashLoopWindow {
			// A long healthy run forgives history: back off from the
			// base again and restart the crash-loop count.
			consecutive = 0
			exits = exits[:0]
		}
		if f.isStopping() {
			return
		}
		now := f.clock.Now()
		kept := exits[:0]
		for _, t := range exits {
			if now.Sub(t) < crashLoopWindow {
				kept = append(kept, t)
			}
		}
		exits = append(kept, now)
		if len(exits) >= crashLoopK {
			f.mu.Lock()
			f.nodes[id].retired = true
			f.mu.Unlock()
			f.router.RemoveNode(id)
			f.events.Add(EvNodeDead, id, fmt.Sprintf("crash loop: %d exits in %v, last: %v",
				len(exits), crashLoopWindow, err))
			return
		}
		consecutive++
		delay := restartBackoff(f.cfg.RestartDelay, consecutive, jitter)
		f.events.Add(EvNodeRestart, id, fmt.Sprintf("in %v after: %v", delay, err))
		select {
		case <-f.clock.After(delay):
		case <-f.stopc:
			return
		}
	}
}

// incarnation runs one life of node id: start it, wait for /healthz to
// answer with the right identity, route to it, and wait for it to exit.
// It returns how long the node was routable and why it ended; a failed
// start or health check is an exit like any other.
func (f *Fleet) incarnation(id string) (time.Duration, error) {
	h, err := f.cfg.Starter.Start(id)
	if err != nil {
		f.events.Add(EvNodeStart, id, "start failed: "+err.Error())
		return 0, err
	}
	f.events.Add(EvNodeStart, id, h.URL())
	if err := waitHealthy(f.router.transport, h.URL(), id); err != nil {
		_ = h.Kill()
		return 0, err
	}
	f.mu.Lock()
	f.nodes[id].handle = h
	stopping := f.isStopping()
	f.mu.Unlock()
	if stopping {
		// Stop swept the live handles before this one was recorded.
		_ = h.Shutdown()
	}
	f.router.SetNode(id, h.URL())
	// Timed before node-ready is logged, so an observer that moves the
	// clock after the event ages this incarnation.
	startedAt := f.clock.Now()
	f.events.Add(EvNodeReady, id, h.URL())

	err = h.Wait()
	ran := f.clock.Now().Sub(startedAt)
	why := "clean exit"
	if err != nil {
		why = err.Error()
	}
	f.router.MarkDown(id, why)
	f.events.Add(EvNodeExit, id, why)
	f.mu.Lock()
	f.nodes[id].handle = nil
	f.mu.Unlock()
	return ran, err
}

// restartBackoff returns the nth consecutive restart delay: doubling
// from base, capped at maxRestartDelay, with ±25% jitter drawn from the
// node's own stream so simultaneous crashers do not restart in
// lockstep.
func restartBackoff(base time.Duration, consecutive int, jitter *xrand.Rand) time.Duration {
	d := cappedDoubling(base, maxRestartDelay, consecutive)
	return d + time.Duration(jitter.Uint64()%uint64(d/2+1)) - d/4
}

// waitHealthy polls /healthz until it answers 200 with the expected
// node_id — the identity check that catches a port collision handing us
// somebody else's server. It goes through the router's transport, not
// its chaos wrapper, so the keep-alive connection a check leaves is the
// one the node's first forward reuses, and Router.Close closes it.
func waitHealthy(tr http.RoundTripper, url, id string) error {
	deadline := time.Now().Add(readyTimeout)
	client := &http.Client{Timeout: time.Second, Transport: tr}
	for {
		resp, err := client.Get(url + "/healthz")
		if err == nil {
			var body struct {
				NodeID string `json:"node_id"`
			}
			data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				if jerr := json.Unmarshal(data, &body); jerr == nil && body.NodeID == id {
					return nil
				}
				return fmt.Errorf("parccluster: %s answered /healthz with wrong identity %q", url, string(data))
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("parccluster: node %s not healthy within %v", id, readyTimeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// isStopping reports whether Stop has begun.
func (f *Fleet) isStopping() bool {
	select {
	case <-f.stopc:
		return true
	default:
		return false
	}
}

// KillNode abruptly kills a node's current incarnation — the chaos
// primitive. The node's supervise loop observes the death and restarts
// it with backoff; the router routes around it in the meantime.
func (f *Fleet) KillNode(id string) error {
	f.mu.Lock()
	var h NodeHandle
	if n := f.nodes[id]; n != nil {
		h = n.handle
	}
	f.mu.Unlock()
	if h == nil {
		return fmt.Errorf("parccluster: no live incarnation of %q", id)
	}
	f.events.Add(EvNodeKill, id, "KillNode")
	return h.Kill()
}

// Stop shuts the fleet down: supervision ends, every node drains, the
// router's poller stops. The nodes drain concurrently, so Stop takes as
// long as the slowest node, not the sum of them. It always returns nil;
// the error result is kept for callers that check it.
func (f *Fleet) Stop() error {
	f.events.Add(EvFleetStop, "", "")
	f.mu.Lock()
	if !f.isStopping() {
		close(f.stopc)
	}
	var live []NodeHandle
	for _, n := range f.nodes {
		if n.handle != nil {
			live = append(live, n.handle)
		}
	}
	f.mu.Unlock()
	var drained sync.WaitGroup
	for _, h := range live {
		drained.Add(1)
		go func() {
			defer drained.Done()
			_ = h.Shutdown()
		}()
	}
	drained.Wait()
	f.wg.Wait()
	f.router.Close()
	return nil
}
