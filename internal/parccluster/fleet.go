package parccluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"parc751/internal/parccluster/supervisor"
)

// readyTimeout bounds the post-start wait for a node's /healthz to
// answer with the right identity, and the fleet's initial wait for every
// node to become routable.
const readyTimeout = 15 * time.Second

// FleetConfig sizes a supervised fleet.
type FleetConfig struct {
	// Nodes is how many worker nodes to run (default 2).
	Nodes int
	// Starter creates node incarnations (LocalStarter or ProcStarter).
	Starter NodeStarter
	// Router tunes the fronting router. The fleet wires its kill hook
	// (POST /chaos/kill/{node}) to KillNode.
	Router RouterConfig
	// Supervisor tunes node restarts: a crashed node is always restarted
	// with backoff until the crash-loop circuit retires it. Its OnEvent
	// is overridden: the fleet mirrors supervision events into the
	// cluster event log and drops retired nodes from the ring.
	Supervisor supervisor.Config
}

// Fleet is a supervised set of parcserve worker nodes behind a Router.
// Start it, point load at Router(), Stop it; KillNode is the chaos
// entry the A11 ablation and the CI smoke use.
type Fleet struct {
	cfg    FleetConfig
	events *EventLog
	router *Router
	runner *supervisor.Runner

	mu      sync.Mutex
	handles map[string]NodeHandle
}

// NewFleet wires a fleet; nothing runs until Start.
func NewFleet(cfg FleetConfig) *Fleet {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 2
	}
	if cfg.Starter == nil {
		cfg.Starter = &LocalStarter{}
	}
	f := &Fleet{cfg: cfg, handles: map[string]NodeHandle{}}
	f.router = newRouter(cfg.Router, f.KillNode)
	f.events = f.router.Events()
	scfg := cfg.Supervisor
	scfg.OnEvent = f.onSupervisorEvent
	f.runner = supervisor.NewRunner(scfg)
	return f
}

// Router returns the fleet's fronting router (an http.Handler).
func (f *Fleet) Router() *Router { return f.router }

// Events returns the shared cluster event log.
func (f *Fleet) Events() *EventLog { return f.events }

// Start launches and supervises every node, returning once all are
// ready and routable.
func (f *Fleet) Start() error {
	for i := 0; i < f.cfg.Nodes; i++ {
		id := fmt.Sprintf("node%d", i)
		if err := f.runner.StartTask(id, f.starterFor(id)); err != nil {
			return err
		}
	}
	// Wait for initial readiness: every node routable or declared
	// unstartable within the ready budget.
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
		if time.Now().After(deadline) {
			return fmt.Errorf("parccluster: only %d/%d nodes ready within %v",
				ready, f.cfg.Nodes, readyTimeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// starterFor builds the supervisor StartFunc for one node id: start an
// incarnation, wait for /healthz to answer with the right identity,
// register it with the router.
func (f *Fleet) starterFor(id string) supervisor.StartFunc {
	return func() (supervisor.Task, error) {
		h, err := f.cfg.Starter.Start(id)
		if err != nil {
			f.events.Add(EvNodeStart, id, "start failed: "+err.Error())
			return nil, err
		}
		f.events.Add(EvNodeStart, id, h.URL())
		if err := waitHealthy(h.URL(), id); err != nil {
			_ = h.Kill()
			return nil, err
		}
		f.mu.Lock()
		f.handles[id] = h
		f.mu.Unlock()
		f.router.SetNode(id, h.URL())
		f.events.Add(EvNodeReady, id, h.URL())
		return &nodeTask{fleet: f, id: id, handle: h}, nil
	}
}

// waitHealthy polls /healthz until it answers 200 with the expected
// node_id — the identity check that catches a port collision handing us
// somebody else's server.
func waitHealthy(url, id string) error {
	deadline := time.Now().Add(readyTimeout)
	client := &http.Client{Timeout: time.Second}
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

// nodeTask adapts one incarnation to the supervisor's Task contract.
type nodeTask struct {
	fleet  *Fleet
	id     string
	handle NodeHandle
}

func (t *nodeTask) Stop() { _ = t.handle.Shutdown() }

func (t *nodeTask) Wait() error {
	err := t.handle.Wait()
	why := "clean exit"
	if err != nil {
		why = err.Error()
	}
	t.fleet.router.MarkDown(t.id, why)
	t.fleet.events.Add(EvNodeExit, t.id, why)
	t.fleet.mu.Lock()
	if t.fleet.handles[t.id] == t.handle {
		delete(t.fleet.handles, t.id)
	}
	t.fleet.mu.Unlock()
	return err
}

// onSupervisorEvent mirrors supervision transitions into the cluster
// event log and removes crash-looped nodes from the ring.
func (f *Fleet) onSupervisorEvent(e supervisor.Event) {
	switch e.Kind {
	case supervisor.EventRestarting:
		f.events.Add(EvNodeRestart, e.TaskID, fmt.Sprintf("in %v after: %v", e.Delay, e.Err))
	case supervisor.EventDead:
		f.router.RemoveNode(e.TaskID)
	}
}

// KillNode abruptly kills a node's current incarnation — the chaos
// primitive. The supervisor observes the death and restarts the node
// with backoff; the router routes around it in the meantime.
func (f *Fleet) KillNode(id string) error {
	f.mu.Lock()
	h := f.handles[id]
	f.mu.Unlock()
	if h == nil {
		return fmt.Errorf("parccluster: no live incarnation of %q", id)
	}
	f.events.Add(EvNodeKill, id, "KillNode")
	return h.Kill()
}

// Stop shuts the fleet down: supervision ends, every node drains, the
// router's poller stops. It always returns nil; the error result is kept
// for callers that check it.
func (f *Fleet) Stop() error {
	f.events.Add(EvFleetStop, "", "")
	f.runner.Stop()
	f.router.Close()
	return nil
}
