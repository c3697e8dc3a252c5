package parccluster

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Cluster event types, the vocabulary of the event log. Routing-decision
// events (spill, failover, saturated) are logged because they are rare
// and each one is a diagnosis clue; per-request routing is not.
const (
	EvNodeStart   = "node-start"   // fleet started an incarnation
	EvNodeReady   = "node-ready"   // node answered /healthz and joined the router
	EvNodeExit    = "node-exit"    // incarnation exited (detail: error)
	EvNodeRestart = "node-restart" // restart scheduled (detail: backoff)
	EvNodeDead    = "node-dead"    // crash-loop circuit retired the node (detail: why)
	EvNodeKill    = "node-kill"    // chaos: abrupt kill requested
	EvMarkDown    = "mark-down"    // router stopped routing to the node
	EvMarkUp      = "mark-up"      // router resumed routing to the node
	EvSpill       = "spill"        // 429 from a worker, job spilled onward
	EvFailover    = "failover"     // transport error, job retried elsewhere
	EvSaturated   = "saturated"    // every node 429'd, client sees 429
	EvVerify      = "verify"       // retry checksum verification (detail: ok/mismatch)
	EvFleetStop   = "fleet-stop"   // orderly shutdown began
)

// ClusterEvent is one entry in the cluster event log. AtMs is relative
// to log creation: convenient for humans, and deliberately not part of
// any determinism assertion — the replay coordinate for chaos runs is
// the faultinject trace, not wall time.
type ClusterEvent struct {
	Seq    int64  `json:"seq"`
	AtMs   int64  `json:"at_ms"`
	Type   string `json:"type"`
	Node   string `json:"node,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// EventLog is the append-only record of cluster lifecycle and routing
// anomalies — what the CI smoke uploads as an artifact when an assertion
// fails, so a red run carries its own post-mortem.
type EventLog struct {
	mu     sync.Mutex
	start  time.Time
	events []ClusterEvent
}

// NewEventLog returns an empty log.
func NewEventLog() *EventLog {
	return &EventLog{start: time.Now()}
}

// Add appends one event.
func (l *EventLog) Add(typ, node, detail string) {
	l.mu.Lock()
	l.events = append(l.events, ClusterEvent{
		Seq:    int64(len(l.events)),
		AtMs:   time.Since(l.start).Milliseconds(),
		Type:   typ,
		Node:   node,
		Detail: detail,
	})
	l.mu.Unlock()
}

// Events returns a copy of the log.
func (l *EventLog) Events() []ClusterEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]ClusterEvent(nil), l.events...)
}

// Count returns how many events of the given type were logged.
func (l *EventLog) Count(typ string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, e := range l.events {
		if e.Type == typ {
			n++
		}
	}
	return n
}

// WriteJSONL renders the log as JSON lines (one event per line — the
// artifact format, greppable and diffable).
func (l *EventLog) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range l.Events() {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}
