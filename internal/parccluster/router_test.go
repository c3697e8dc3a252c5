package parccluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parc751/internal/parcserve"
)

// fakeWorker is a scriptable stand-in for a parcserve node: it answers
// every POST /jobs/{kind} with a fixed status (and optional Retry-After)
// so router policy can be tested without running real pools.
type fakeWorker struct {
	mu         sync.Mutex
	status     int
	retryAfter int
	checksum   uint64
	hits       atomic.Int64
	srv        *httptest.Server
}

func newFakeWorker(status int) *fakeWorker {
	f := &fakeWorker{status: status}
	f.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.hits.Add(1)
		f.mu.Lock()
		status, ra, sum := f.status, f.retryAfter, f.checksum
		f.mu.Unlock()
		if ra > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(ra))
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		if status == http.StatusOK {
			_ = json.NewEncoder(w).Encode(parcserve.JobResult{Kind: "sort", Checksum: sum})
		} else {
			_ = json.NewEncoder(w).Encode(map[string]string{"error": "scripted"})
		}
	}))
	return f
}

func (f *fakeWorker) set(status, retryAfter int) {
	f.mu.Lock()
	f.status = status
	f.retryAfter = retryAfter
	f.mu.Unlock()
}

// newQuietRouter is a router outside a fleet whose failover backoff is
// silenced, so tests run instantly.
func newQuietRouter(cfg RouterConfig) *Router {
	rt := newRouter(cfg, nil)
	rt.sleep = func(time.Duration) {}
	return rt
}

// newTestRouter fronts the fakes with backoff sleeping disabled and
// returns the router plus the ring's walk order for kind, so each
// test can script the primary and the spill target by position rather
// than guessing which id hashes first.
func newTestRouter(t *testing.T, kind string, fakes map[string]*fakeWorker) (*Router, []string) {
	t.Helper()
	rt := newQuietRouter(RouterConfig{})
	for id, f := range fakes {
		rt.SetNode(id, f.srv.URL)
	}
	rt.mu.RLock()
	pref := walkOrder(rt.ring, kind)
	rt.mu.RUnlock()
	if len(pref) != len(fakes) {
		t.Fatalf("walk order %v does not cover all %d nodes", pref, len(fakes))
	}
	return rt, pref
}

func postJob(t *testing.T, h http.Handler, kind string, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/jobs/"+kind, bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestRouterSpillOn429 is the satellite regression: the shard primary
// answering 429 must not surface to the client while a peer has
// capacity — the router spills and the client sees 200.
func TestRouterSpillOn429(t *testing.T) {
	fakes := map[string]*fakeWorker{
		"a": newFakeWorker(http.StatusOK),
		"b": newFakeWorker(http.StatusOK),
	}
	for _, f := range fakes {
		defer f.srv.Close()
	}
	rt, pref := newTestRouter(t, "sort", fakes)
	defer rt.Close()
	fakes[pref[0]].set(http.StatusTooManyRequests, 3) // saturate the primary

	w := postJob(t, rt, "sort", parcserve.JobRequest{Seed: 1, N: 10})
	if w.Code != http.StatusOK {
		t.Fatalf("client saw %d, want 200 via spill; body %s", w.Code, w.Body)
	}
	if got := w.Header().Get("X-Parccluster-Node"); got != pref[1] {
		t.Fatalf("answered by %q, want spill target %q", got, pref[1])
	}
	led := rt.Ledger()
	if led.Spills == 0 {
		t.Fatal("spill not recorded in ledger")
	}
	if led.Completed != 1 || led.Rejected != 0 || led.Lost != 0 {
		t.Fatalf("ledger off: %+v", led)
	}
	if fakes[pref[0]].hits.Load() == 0 {
		t.Fatal("primary was never offered the job — sharding bypassed")
	}
}

// TestRouterClusterSaturated429: when every node answers 429, the client
// gets one honest 429 carrying the LARGEST Retry-After any worker
// suggested — never a silent drop, never the smallest hint.
func TestRouterClusterSaturated429(t *testing.T) {
	fakes := map[string]*fakeWorker{
		"a": newFakeWorker(http.StatusTooManyRequests),
		"b": newFakeWorker(http.StatusTooManyRequests),
	}
	for _, f := range fakes {
		defer f.srv.Close()
	}
	fakes["a"].set(http.StatusTooManyRequests, 3)
	fakes["b"].set(http.StatusTooManyRequests, 7)
	rt, _ := newTestRouter(t, "sort", fakes)
	defer rt.Close()

	w := postJob(t, rt, "sort", parcserve.JobRequest{Seed: 1, N: 10})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("client saw %d, want cluster-wide 429; body %s", w.Code, w.Body)
	}
	if ra := w.Header().Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After = %q, want the max (7)", ra)
	}
	led := rt.Ledger()
	if led.Saturated != 1 {
		t.Fatalf("saturated counter = %d, want 1", led.Saturated)
	}
	if led.Rejected != 1 || led.Completed != 0 || led.Lost != 0 {
		t.Fatalf("ledger off: %+v", led)
	}
}

// TestRouterNoNodes: a router with no routable members answers 503
// explicitly (rejected in the ledger), it does not hang or 500.
func TestRouterNoNodes(t *testing.T) {
	rt := newQuietRouter(RouterConfig{})
	defer rt.Close()
	w := postJob(t, rt, "sort", parcserve.JobRequest{})
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("got %d, want 503", w.Code)
	}
	led := rt.Ledger()
	if led.Accepted != 1 || led.Rejected != 1 || led.Lost != 0 {
		t.Fatalf("ledger off: %+v", led)
	}
}

// TestRouterFailoverOnTransportError: the primary is dead at the TCP
// level; an idempotent job fails over to the survivor and the client
// sees 200 plus the retried/first-node headers.
func TestRouterFailoverOnTransportError(t *testing.T) {
	fakes := map[string]*fakeWorker{
		"a": newFakeWorker(http.StatusOK),
		"b": newFakeWorker(http.StatusOK),
	}
	rt, pref := newTestRouter(t, "sort", fakes)
	defer rt.Close()
	fakes[pref[0]].srv.Close() // primary dies: connection refused
	defer fakes[pref[1]].srv.Close()

	w := postJob(t, rt, "sort", parcserve.JobRequest{Seed: 1, N: 10})
	if w.Code != http.StatusOK {
		t.Fatalf("client saw %d, want 200 via failover; body %s", w.Code, w.Body)
	}
	if w.Header().Get("X-Parccluster-Retried") != "1" {
		t.Fatal("missing X-Parccluster-Retried header")
	}
	if got := w.Header().Get("X-Parccluster-First-Node"); got != pref[0] {
		t.Fatalf("X-Parccluster-First-Node = %q, want %q", got, pref[0])
	}
	led := rt.Ledger()
	if led.Failovers == 0 {
		t.Fatal("failover not recorded")
	}
	if led.Completed != 1 || led.Lost != 0 {
		t.Fatalf("ledger off: %+v", led)
	}
	// The dead node must now be marked down…
	for _, n := range rt.Nodes() {
		if n.ID == pref[0] && n.Alive {
			t.Fatalf("dead node %s still alive in membership", pref[0])
		}
	}
	// …so the next job for the same kind skips it entirely.
	before := fakes[pref[1]].hits.Load()
	if w := postJob(t, rt, "sort", parcserve.JobRequest{Seed: 2, N: 10}); w.Code != http.StatusOK {
		t.Fatalf("post-markdown job saw %d", w.Code)
	}
	if fakes[pref[1]].hits.Load() != before+1 {
		t.Fatal("survivor did not take the follow-up job directly")
	}
}

// TestRouterNonIdempotentNotRetried: a webfetch job that dies in
// transit is ambiguous — it may have hit the outside world — so the
// router answers an explicit 502 instead of re-executing it.
func TestRouterNonIdempotentNotRetried(t *testing.T) {
	fakes := map[string]*fakeWorker{
		"a": newFakeWorker(http.StatusOK),
		"b": newFakeWorker(http.StatusOK),
	}
	rt, pref := newTestRouter(t, "webfetch", fakes)
	defer rt.Close()
	fakes[pref[0]].srv.Close() // primary for webfetch dies
	defer fakes[pref[1]].srv.Close()

	w := postJob(t, rt, "webfetch", parcserve.JobRequest{})
	if w.Code != http.StatusBadGateway {
		t.Fatalf("client saw %d, want explicit 502; body %s", w.Code, w.Body)
	}
	if fakes[pref[1]].hits.Load() != 0 {
		t.Fatal("non-idempotent job was re-executed on another node")
	}
	led := rt.Ledger()
	if led.Failovers != 0 {
		t.Fatalf("failovers = %d, want 0 for non-idempotent kind", led.Failovers)
	}
	if led.Rejected != 1 || led.Lost != 0 {
		t.Fatalf("ledger off: %+v", led)
	}
}

// TestRouterDrainingNodeSkipped: a 503 from a draining worker spills to
// a peer without counting as saturation.
func TestRouterDrainingNodeSkipped(t *testing.T) {
	fakes := map[string]*fakeWorker{
		"a": newFakeWorker(http.StatusOK),
		"b": newFakeWorker(http.StatusOK),
	}
	for _, f := range fakes {
		defer f.srv.Close()
	}
	rt, pref := newTestRouter(t, "sort", fakes)
	defer rt.Close()
	fakes[pref[0]].set(http.StatusServiceUnavailable, 0)

	w := postJob(t, rt, "sort", parcserve.JobRequest{Seed: 1, N: 10})
	if w.Code != http.StatusOK {
		t.Fatalf("client saw %d, want 200 via peer; body %s", w.Code, w.Body)
	}
	led := rt.Ledger()
	if led.Saturated != 0 {
		t.Fatalf("draining node counted as saturation: %+v", led)
	}
}

// TestRouterStatzShardsAndRefresh: /statz exposes the shard primary per
// kind, and RefreshLoad resurrects a mark-downed node whose /statz
// answers again (restart reclaims its arcs — the node was never removed
// from the ring).
func TestRouterStatzShardsAndRefresh(t *testing.T) {
	srv := parcserve.NewServer(parcserve.Config{NodeID: "real0", Workers: 2, MaxConcurrent: 2})
	hs := httptest.NewServer(srv)
	defer hs.Close()
	defer func() { _ = srv.Drain(5 * time.Second) }()

	rt := newQuietRouter(RouterConfig{})
	defer rt.Close()
	rt.SetNode("real0", hs.URL)

	st := rt.Statz()
	for _, k := range parcserve.Kinds() {
		if st.Shards[string(k)] != "real0" {
			t.Fatalf("shard primary for %s = %q, want real0", k, st.Shards[string(k)])
		}
	}

	rt.MarkDown("real0", "test")
	if w := postJob(t, rt, "sort", parcserve.JobRequest{}); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("marked-down node still routable: %d", w.Code)
	}
	rt.RefreshLoad() // node's /statz answers → resurrection
	for _, n := range rt.Nodes() {
		if n.ID == "real0" && !n.Alive {
			t.Fatal("RefreshLoad did not resurrect an answering node")
		}
	}
	if w := postJob(t, rt, "sort", parcserve.JobRequest{Seed: 3, N: 8}); w.Code != http.StatusOK {
		t.Fatalf("resurrected node not routable: %d %s", w.Code, w.Body)
	}
}

// TestRouterWorkerErrorRelayedVerbatim: a definitive worker rejection
// (400 for a bad kind) is relayed as-is, not retried on a peer — only
// transport death and saturation trigger rerouting.
func TestRouterWorkerErrorRelayed(t *testing.T) {
	fakes := map[string]*fakeWorker{
		"a": newFakeWorker(http.StatusBadRequest),
		"b": newFakeWorker(http.StatusBadRequest),
	}
	for _, f := range fakes {
		defer f.srv.Close()
	}
	rt, pref := newTestRouter(t, "sort", fakes)
	defer rt.Close()

	w := postJob(t, rt, "sort", parcserve.JobRequest{})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("got %d, want relayed 400", w.Code)
	}
	if fakes[pref[1]].hits.Load() != 0 {
		t.Fatal("definitive worker error was retried on a peer")
	}
	led := rt.Ledger()
	if led.Rejected != 1 || led.Completed != 0 || led.Lost != 0 {
		t.Fatalf("ledger off: %+v", led)
	}
}

// TestRouterEventzAndHealthz exercises the observability endpoints.
func TestRouterEventzAndHealthz(t *testing.T) {
	rt := newQuietRouter(RouterConfig{})
	defer rt.Close()
	rt.SetNode("n0", "http://127.0.0.1:1") // unreachable, just membership

	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("router /healthz = %d", w.Code)
	}

	req = httptest.NewRequest(http.MethodGet, "/eventz", nil)
	w = httptest.NewRecorder()
	rt.ServeHTTP(w, req)
	if w.Code != http.StatusOK || !bytes.Contains(w.Body.Bytes(), []byte(EvMarkUp)) {
		t.Fatalf("router /eventz = %d body %s", w.Code, w.Body)
	}
}

// TestRouterRetryDelay pins the failover backoff: doubling from 10ms per
// consecutive transport error, capped at 250ms.
func TestRouterRetryDelay(t *testing.T) {
	ms := time.Millisecond
	for n, want := range []time.Duration{10 * ms, 20 * ms, 40 * ms, 80 * ms, 160 * ms, 250 * ms, 250 * ms} {
		if got := retryDelay(n + 1); got != want {
			t.Errorf("retryDelay(%d) = %v, want %v", n+1, got, want)
		}
	}
}
