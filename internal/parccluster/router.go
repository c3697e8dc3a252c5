// Package parccluster is the horizontal-scale layer over parcserve: a
// router fronting N worker nodes (separate processes speaking HTTP on
// localhost) with consistent-hash sharding of job kinds, least-loaded
// spill on saturation, failover retry of idempotent seed→checksum jobs
// on node death, and a fleet that supervises each node in its own loop
// (juju runner style), restarting crashed nodes with backoff and
// retiring crash-loopers. This is ROADMAP item 1 — the "millions of
// users" layer: parcserve bounds one process's admission; parccluster
// makes the admission bound a per-node property and survivability a
// cluster one.
//
// The no-lost-jobs contract (ablation A11): every request the router
// accepts is eventually answered exactly once, either 200 (completed) or
// an explicit rejection — the ledger accepted == completed + rejected
// balances once traffic stops. Node death mid-job converts into a
// failover retry when the job is idempotent (every kind except webfetch:
// the response is a pure function of seed and parameters, so re-running
// it on another node provably returns the same checksum) and into an
// explicit 502 when it is not.
//
// Chaos enters through the router's own transport: it is wrapped in
// faultinject.RoundTripper, so a seeded plan can partition
// (Error), stall (Delay/Stall) or wedge (Hang) the router→node path on
// exact event ordinals, and the same seed replays the same fault
// schedule bit-for-bit (the faultinject determinism model, applied to
// routing).
package parccluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"parc751/internal/faultinject"
	"parc751/internal/parcserve"
)

// Routing constants. ringReplicas is the virtual-node count per worker
// on the hash ring. retryMax bounds how many alternative nodes one
// request may be routed to after its first. retryBackoff and
// retryBackoffMax shape the capped exponential backoff between failover
// attempts after a transport error; spills on 429 do not back off — the
// whole point of a spill is that another node has capacity now.
const (
	ringReplicas    = 64
	retryMax        = 3
	retryBackoff    = 10 * time.Millisecond
	retryBackoffMax = 250 * time.Millisecond
)

// forwardHeaderTimeout bounds how long a forward waits for a node's
// response headers once its request is written (DESIGN.md §14, "Router
// transport"). maxForwardBody caps a buffered node answer. statzTimeout
// bounds one load poll, start to finish.
const (
	forwardHeaderTimeout = 2 * time.Minute
	maxForwardBody       = 4 << 20
	statzTimeout         = 2 * time.Second
)

// jobHeader is every forward's request header and jsonContentType the
// relayed answer's Content-Type. Both are shared and read-only: a
// RoundTripper must not modify its request, and relay assigns the slice
// rather than appending to it.
var (
	jsonContentType = []string{"application/json"}
	jobHeader       = http.Header{"Content-Type": jsonContentType}
)

// RouterConfig tunes the router. Zero values take the defaults.
type RouterConfig struct {
	// Injector, when set, is wired into the router's HTTP transport via
	// faultinject.RoundTripper — the chaos hook of the replay
	// catalogue's partition scenario.
	Injector *faultinject.Injector
	// VerifyRetries makes the router double-check every successful
	// failover: the job is re-executed on a different node and the two
	// checksums compared (event + counter on mismatch). Expensive —
	// meant for chaos tests and the A11 ablation, not production.
	VerifyRetries bool
	// LoadPollEvery, when > 0, starts a background /statz poller that
	// refreshes per-node queue depths and readiness (the fleet sets
	// this; bare test routers call RefreshLoad themselves).
	LoadPollEvery time.Duration
}

// nodeState is the router's view of one worker node. alive tracks
// process-level reachability (fleet exit notifications, transport
// failures); ready tracks the node's own /readyz intent (drain). Both
// must hold for the node to receive work.
type nodeState struct {
	id    string
	idHdr []string // relay's X-Parccluster-Node value
	url   string
	// jobURLs holds url's POST /jobs/{kind} target for every served
	// kind, parsed once per SetNode; forward parses any other kind.
	jobURLs map[string]*url.URL
	alive   bool
	ready   bool
	depth   int64 // waiting + running from the last /statz refresh
}

// Ledger is the router's accounting: Accepted requests split exactly
// into Completed (200 relayed) and Rejected (any explicit non-200
// answer). Lost = Accepted − Completed − Rejected is in-flight work at
// snapshot time and must be zero once traffic stops — the A11 invariant.
type Ledger struct {
	Accepted  int64 `json:"accepted"`
	Completed int64 `json:"completed"`
	Rejected  int64 `json:"rejected"`
	Lost      int64 `json:"lost"`
	Spills    int64 `json:"spills"`
	Failovers int64 `json:"failovers"`
	Saturated int64 `json:"saturated"`
	Verified  int64 `json:"verified"`
	Mismatch  int64 `json:"verify_mismatches"`
}

// Router fronts the worker fleet. NewFleet creates one; it implements
// http.Handler with the same POST /jobs/{kind} surface as a single
// parcserve node, so parcload and the loadtest package drive it
// unchanged.
type Router struct {
	cfg RouterConfig
	// transport carries every forward; hop wraps it in the chaos
	// injector. Each forward is exactly one hop.RoundTrip.
	transport *http.Transport
	hop       faultinject.RoundTripper
	// sleep is the failover backoff sleeper; tests silence it.
	sleep  func(time.Duration)
	events *EventLog
	mux    *http.ServeMux
	// onKill, when set (by NewFleet), enables POST /chaos/kill/{node} —
	// the scripted chaos surface the CI smoke uses to murder a node.
	onKill func(node string) error

	mu    sync.RWMutex
	nodes map[string]*nodeState
	ring  *ring

	accepted  atomic.Int64
	completed atomic.Int64
	rejected  atomic.Int64
	spills    atomic.Int64
	failovers atomic.Int64
	saturated atomic.Int64
	verified  atomic.Int64
	mismatch  atomic.Int64

	pollStop chan struct{}
	pollDone chan struct{}
}

// newRouter builds a router with no members; add nodes with SetNode.
// onKill is the fleet's kill hook, nil for a router outside a fleet.
func newRouter(cfg RouterConfig, onKill func(node string) error) *Router {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.ResponseHeaderTimeout = forwardHeaderTimeout
	rt := &Router{
		cfg:       cfg,
		sleep:     time.Sleep,
		transport: tr,
		hop:       faultinject.RoundTripper{Base: tr, Injector: cfg.Injector},
		events:    NewEventLog(),
		mux:       http.NewServeMux(),
		onKill:    onKill,
		nodes:     map[string]*nodeState{},
		ring:      newRing(ringReplicas),
	}
	rt.mux.HandleFunc("POST /jobs/{kind}", rt.handleJob)
	rt.mux.HandleFunc("GET /statz", rt.handleStatz)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /eventz", rt.handleEventz)
	if onKill != nil {
		rt.mux.HandleFunc("POST /chaos/kill/{node}", rt.handleKill)
	}
	if cfg.LoadPollEvery > 0 {
		rt.pollStop = make(chan struct{})
		rt.pollDone = make(chan struct{})
		go rt.pollLoop(cfg.LoadPollEvery)
	}
	return rt
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// Events returns the router's event log.
func (rt *Router) Events() *EventLog { return rt.events }

// Close stops the background poller (if any) and closes the idle
// keep-alive connections to the nodes. It does not touch nodes.
func (rt *Router) Close() {
	if rt.pollStop != nil {
		select {
		case <-rt.pollStop:
		default:
			close(rt.pollStop)
			<-rt.pollDone
		}
	}
	rt.transport.CloseIdleConnections()
}

// SetNode adds a node or updates its URL, marking it alive and ready.
// The ring gains the node on first sight and keeps it across mark-downs
// so a restarted node reclaims its old shard arcs.
func (rt *Router) SetNode(id, nodeURL string) {
	jobURLs := make(map[string]*url.URL, len(parcserve.Kinds()))
	for _, k := range parcserve.Kinds() {
		if u, err := jobURL(nodeURL, string(k)); err == nil {
			jobURLs[string(k)] = u
		}
	}
	rt.mu.Lock()
	st, ok := rt.nodes[id]
	if !ok {
		st = &nodeState{id: id, idHdr: []string{id}}
		rt.nodes[id] = st
		rt.ring.add(id)
	}
	st.url = nodeURL
	st.jobURLs = jobURLs
	st.alive = true
	st.ready = true
	rt.mu.Unlock()
	rt.events.Add(EvMarkUp, id, nodeURL)
}

// RemoveNode deletes a node entirely (crash-looped dead): its shard
// arcs redistribute to the survivors. The fleet logs the retirement.
func (rt *Router) RemoveNode(id string) {
	rt.mu.Lock()
	delete(rt.nodes, id)
	rt.ring.remove(id)
	rt.mu.Unlock()
}

// MarkDown stops routing to a node without removing it from the ring.
func (rt *Router) MarkDown(id, why string) {
	rt.mu.Lock()
	st, ok := rt.nodes[id]
	changed := ok && st.alive
	if ok {
		st.alive = false
	}
	rt.mu.Unlock()
	if changed {
		rt.events.Add(EvMarkDown, id, why)
	}
}

// Nodes returns a point-in-time copy of the membership.
func (rt *Router) Nodes() []nodeSnapshot {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make([]nodeSnapshot, 0, len(rt.nodes))
	for _, st := range rt.nodes {
		out = append(out, nodeSnapshot{ID: st.id, URL: st.url, Alive: st.alive,
			Ready: st.ready, Depth: st.depth})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

type nodeSnapshot struct {
	ID    string `json:"id"`
	URL   string `json:"url"`
	Alive bool   `json:"alive"`
	Ready bool   `json:"ready"`
	Depth int64  `json:"depth"`
}

// Ledger returns the routing ledger snapshot.
func (rt *Router) Ledger() Ledger {
	l := Ledger{
		Accepted:  rt.accepted.Load(),
		Completed: rt.completed.Load(),
		Rejected:  rt.rejected.Load(),
		Spills:    rt.spills.Load(),
		Failovers: rt.failovers.Load(),
		Saturated: rt.saturated.Load(),
		Verified:  rt.verified.Load(),
		Mismatch:  rt.mismatch.Load(),
	}
	l.Lost = l.Accepted - l.Completed - l.Rejected
	return l
}

// RefreshLoad polls every alive node's /statz, updating queue depth and
// readiness, and resurrecting mark-downed nodes that answer again. Polls
// go through the router's transport but deliberately bypass its chaos
// wrapper: control-plane probes are not the traffic under test, and they
// must not move the wrapper's transport ordinals.
func (rt *Router) RefreshLoad() {
	rt.mu.RLock()
	targets := make([]*nodeState, 0, len(rt.nodes))
	for _, st := range rt.nodes {
		targets = append(targets, st)
	}
	rt.mu.RUnlock()
	for _, st := range targets {
		rt.mu.RLock()
		url := st.url
		rt.mu.RUnlock()
		stz, err := rt.fetchStatz(url)
		rt.mu.Lock()
		if err != nil {
			st.depth = 1 << 30 // unknown load sorts last among spill targets
			rt.mu.Unlock()
			continue
		}
		wasDown := !st.alive
		st.alive = true
		st.ready = stz.Ready
		st.depth = stz.Admission.Waiting + int64(stz.Admission.Running)
		rt.mu.Unlock()
		if wasDown {
			rt.events.Add(EvMarkUp, st.id, "statz answered")
		}
	}
}

// fetchStatz is one GET of a node's /statz on the router's transport,
// so Close also closes the keep-alive connection a poll leaves.
func (rt *Router) fetchStatz(url string) (*parcserve.Statz, error) {
	ctx, cancel := context.WithTimeout(context.Background(), statzTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/statz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := rt.transport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st parcserve.Statz
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

func (rt *Router) pollLoop(every time.Duration) {
	defer close(rt.pollDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			rt.RefreshLoad()
		case <-rt.pollStop:
			return
		}
	}
}

// pickFirst returns the first routable node met walking the ring from
// kind's primary; pickSpill returns the least-loaded routable node not
// yet tried. Together they implement the routing policy: shard by kind,
// spill by load.
func (rt *Router) pickFirst(kind string) *nodeState {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	pts := rt.ring.points
	start := rt.ring.first(kind)
	for i := range pts {
		if st := rt.nodes[pts[(start+i)%len(pts)].node]; st != nil && st.alive && st.ready {
			return st
		}
	}
	return nil
}

func (rt *Router) pickSpill(tried map[string]bool) *nodeState {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	var best *nodeState
	for _, st := range rt.nodes {
		if tried[st.id] || !st.alive || !st.ready {
			continue
		}
		if best == nil || st.depth < best.depth ||
			(st.depth == best.depth && st.id < best.id) {
			best = st
		}
	}
	return best
}

// forwarded is one attempt's outcome.
type forwarded struct {
	status     int
	body       []byte
	retryAfter int
}

// jobURL is the node at base's POST /jobs/{kind} target.
func jobURL(base, kind string) (*url.URL, error) { return url.Parse(base + "/jobs/" + kind) }

// jobBody is a forward's request body: the buffered job, closable as
// the transport requires, in one allocation.
type jobBody struct{ bytes.Reader }

func (*jobBody) Close() error { return nil }

// forward sends the job to one node and reads the full answer (the body
// must be buffered anyway — it may be replayed on another node). It is
// one RoundTrip on the router's own transport, cancelled by the inbound
// request's context; an http.Client's timeout would cost a timer and a
// goroutine per request around the chaos wrapper (DESIGN.md §14). A
// RoundTrip error reads as http.Client's would: Post "<url>": <cause>.
func (rt *Router) forward(r *http.Request, node *nodeState, kind string, body []byte) (forwarded, error) {
	rt.mu.RLock()
	base, u := node.url, node.jobURLs[kind]
	rt.mu.RUnlock()
	if u == nil {
		var err error
		if u, err = jobURL(base, kind); err != nil {
			return forwarded{}, err
		}
	}
	req := (&http.Request{
		Method:        http.MethodPost,
		URL:           u,
		Header:        jobHeader,
		Body:          http.NoBody,
		ContentLength: int64(len(body)),
	}).WithContext(r.Context())
	if len(body) > 0 {
		b := new(jobBody)
		b.Reset(body)
		req.Body = b
	}
	resp, err := rt.hop.RoundTrip(req)
	if err != nil {
		return forwarded{}, &url.Error{Op: "Post", URL: u.String(), Err: err}
	}
	defer resp.Body.Close()
	out := forwarded{status: resp.StatusCode}
	if n := resp.ContentLength; n >= 0 && n <= maxForwardBody {
		out.body = make([]byte, n)
		_, err = io.ReadFull(resp.Body, out.body)
	} else {
		out.body, err = io.ReadAll(io.LimitReader(resp.Body, maxForwardBody))
	}
	if err != nil {
		return forwarded{}, err
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		out.retryAfter, _ = strconv.Atoi(ra)
	}
	return out, nil
}

// idempotentKind reports whether a kind's jobs may be safely re-executed
// after an ambiguous failure. Every canned kind is a pure function of
// (seed, params) — same input, same checksum — except webfetch, whose
// body touches the outside world.
func idempotentKind(kind string) bool { return kind != string(parcserve.KindWebFetch) }

// handleJob is the routing loop: primary by shard, spill on 429, retry
// on transport death, bounded attempts, explicit final answer. Exactly
// one of completed/rejected is incremented per accepted request — that
// is the whole ledger argument.
func (rt *Router) handleJob(w http.ResponseWriter, r *http.Request) {
	kind := r.PathValue("kind")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		rt.accepted.Add(1)
		rt.reject(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}
	rt.accepted.Add(1)

	node := rt.pickFirst(kind)
	if node == nil {
		rt.reject(w, http.StatusServiceUnavailable, "no routable nodes")
		return
	}

	tried := map[string]bool{}
	maxRetryAfter := 0
	sawNon429 := false
	transportErrs := 0
	failedOver := false
	var firstNode string = node.id
	for attempt := 0; ; attempt++ {
		tried[node.id] = true
		fwd, ferr := rt.forward(r, node, kind, body)
		switch {
		case ferr != nil:
			if r.Context().Err() != nil {
				// The CLIENT gave up (disconnect or its own deadline) —
				// the node is innocent. Settle as an explicit rejection
				// and do not poison the membership.
				rt.reject(w, http.StatusBadGateway, "client gone: "+r.Context().Err().Error())
				return
			}
			// Transport failure: the node is dead, partitioned, or the
			// chaos injector said so. Ambiguous — the job may or may not
			// have executed — so only idempotent kinds are retried.
			rt.MarkDown(node.id, "transport: "+ferr.Error())
			if !idempotentKind(kind) {
				rt.events.Add(EvFailover, node.id,
					fmt.Sprintf("%s: non-idempotent %s not retried", ferr, kind))
				rt.reject(w, http.StatusBadGateway,
					fmt.Sprintf("node %s failed mid-job and %s is not idempotent: %v", node.id, kind, ferr))
				return
			}
			transportErrs++
			rt.failovers.Add(1)
			rt.events.Add(EvFailover, node.id, ferr.Error())
			failedOver = true
			sawNon429 = true
		case fwd.status == http.StatusTooManyRequests:
			// The worker is saturated: spill to the least-loaded peer
			// instead of surfacing 429 — the client only sees 429 when
			// the whole cluster is saturated.
			rt.spills.Add(1)
			rt.events.Add(EvSpill, node.id, "429 from worker")
			if fwd.retryAfter > maxRetryAfter {
				maxRetryAfter = fwd.retryAfter
			}
		case fwd.status == http.StatusServiceUnavailable:
			// Draining: not an error, just not a destination.
			rt.events.Add(EvSpill, node.id, "503 draining")
			sawNon429 = true
		default:
			// A definitive answer (200 or a real worker error): relay it.
			rt.relay(w, r, kind, node, firstNode, fwd, body, failedOver, tried)
			return
		}
		if attempt >= retryMax {
			break
		}
		next := rt.pickSpill(tried)
		if next == nil {
			break
		}
		if ferr != nil {
			// Back off only after transport errors: the replacement node
			// is healthy but the cluster just lost capacity, and a
			// stampede of instant retries is how thundering herds start.
			rt.sleep(retryDelay(transportErrs))
		}
		node = next
	}

	// Out of nodes or attempts. If every answer was "saturated", the
	// client gets the honest cluster-wide 429 with the largest
	// Retry-After any worker suggested.
	if !sawNon429 && maxRetryAfter > 0 {
		rt.saturated.Add(1)
		rt.events.Add(EvSaturated, "", fmt.Sprintf("all %d nodes 429", len(tried)))
		w.Header().Set("Retry-After", strconv.Itoa(maxRetryAfter))
		rt.reject(w, http.StatusTooManyRequests, "cluster saturated")
		return
	}
	rt.reject(w, http.StatusBadGateway,
		fmt.Sprintf("no node could run the job (%d tried)", len(tried)))
}

// retryDelay is the capped exponential failover backoff before the nth
// transport-error retry.
func retryDelay(n int) time.Duration { return cappedDoubling(retryBackoff, retryBackoffMax, n) }

// cappedDoubling returns min(base·2^(n−1), limit), doubling no further
// than the cap so a large n cannot overflow.
func cappedDoubling(base, limit time.Duration, n int) time.Duration {
	d := base
	for i := 1; i < n && d < limit; i++ {
		d *= 2
	}
	return min(d, limit)
}

// relay copies a worker's definitive answer to the client and settles
// the ledger. A successful failed-over job optionally gets its checksum
// re-verified on a different node (VerifyRetries).
func (rt *Router) relay(w http.ResponseWriter, r *http.Request, kind string, node *nodeState, firstNode string,
	fwd forwarded, body []byte, failedOver bool, tried map[string]bool) {
	if fwd.status == http.StatusOK && failedOver && rt.cfg.VerifyRetries {
		rt.verifyRetry(r, kind, node.id, fwd, body, tried)
	}
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["X-Parccluster-Node"] = node.idHdr
	if failedOver {
		h.Set("X-Parccluster-Retried", "1")
		h.Set("X-Parccluster-First-Node", firstNode)
	}
	w.WriteHeader(fwd.status)
	_, _ = w.Write(fwd.body)
	if fwd.status == http.StatusOK {
		rt.completed.Add(1)
	} else {
		rt.rejected.Add(1)
	}
}

// verifyRetry re-executes a failed-over job on yet another node and
// compares checksums — the runtime proof that a retried job is the same
// answer. Mismatches are counted, logged, and (in the A11 ablation)
// fatal to the experiment.
func (rt *Router) verifyRetry(r *http.Request, kind, nodeID string, fwd forwarded, body []byte, tried map[string]bool) {
	var got struct {
		Checksum uint64 `json:"checksum"`
	}
	if err := json.Unmarshal(fwd.body, &got); err != nil {
		return
	}
	other := rt.pickSpill(tried)
	if other == nil || other.id == nodeID {
		return
	}
	fwd2, err := rt.forward(r, other, kind, body)
	if err != nil || fwd2.status != http.StatusOK {
		return // verification is best-effort; the answer already stands
	}
	var again struct {
		Checksum uint64 `json:"checksum"`
	}
	if err := json.Unmarshal(fwd2.body, &again); err != nil {
		return
	}
	rt.verified.Add(1)
	if again.Checksum != got.Checksum {
		rt.mismatch.Add(1)
		rt.events.Add(EvVerify, other.id,
			fmt.Sprintf("MISMATCH kind=%s %d != %d", kind, again.Checksum, got.Checksum))
		return
	}
	rt.events.Add(EvVerify, other.id, "ok kind="+kind)
}

// reject answers a request with an explicit error and settles it as
// rejected — the "explicitly-rejected" half of the no-lost-jobs ledger.
func (rt *Router) reject(w http.ResponseWriter, code int, msg string) {
	rt.rejected.Add(1)
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{msg})
}

// ClusterStatz is the router's /statz document.
type ClusterStatz struct {
	Nodes  []nodeSnapshot    `json:"nodes"`
	Ledger Ledger            `json:"ledger"`
	Shards map[string]string `json:"shards"`
}

// Statz assembles the router snapshot, including the current shard
// primary for every known kind (the operator's view of the hash ring).
func (rt *Router) Statz() ClusterStatz {
	st := ClusterStatz{Nodes: rt.Nodes(), Ledger: rt.Ledger(), Shards: map[string]string{}}
	rt.mu.RLock()
	for _, k := range parcserve.Kinds() {
		st.Shards[string(k)] = rt.ring.primary(string(k))
	}
	rt.mu.RUnlock()
	return st
}

func (rt *Router) handleStatz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(rt.Statz())
}

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "{\"status\":\"ok\",\"role\":\"router\"}\n")
}

func (rt *Router) handleEventz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/jsonl")
	_ = rt.events.WriteJSONL(w)
}

func (rt *Router) handleKill(w http.ResponseWriter, r *http.Request) {
	node := r.PathValue("node")
	if err := rt.onKill(node); err != nil {
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprintf(w, "{\"error\":%q}\n", err.Error())
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "{\"killed\":%q}\n", node)
}
