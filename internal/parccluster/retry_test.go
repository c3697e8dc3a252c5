package parccluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"parc751/internal/faultinject"
	"parc751/internal/parcserve"
	"parc751/internal/probe"
)

// retryCase is one row of the idempotency table: a kind plus fixed
// (seed, params). The claim under test is the contract idempotentKind
// rests on — the answer is a pure function of the request, so executing
// it on ANY node, any number of times, yields the same checksum.
type retryCase struct {
	kind string
	req  parcserve.JobRequest
}

func retryTable() []retryCase {
	return []retryCase{
		{"sort", parcserve.JobRequest{Seed: 42, N: 500}},
		{"textsearch", parcserve.JobRequest{Seed: 42, N: 4}},
		{"pdfsearch", parcserve.JobRequest{Seed: 42, N: 3}},
		{"thumbs", parcserve.JobRequest{Seed: 42, N: 2}},
		{"matmul", parcserve.JobRequest{Seed: 42, N: 16}},
		{"spin", parcserve.JobRequest{Seed: 42, SpinMs: 5}},
	}
}

// nodeCfg is the small per-node sizing every retry test uses.
func nodeCfg(id string) parcserve.Config {
	return parcserve.Config{NodeID: id, Workers: 2, MaxConcurrent: 4}
}

// referenceChecksum executes the job on a standalone parcserve (no
// router, no chaos) — the ground truth the failed-over answer must match.
func referenceChecksum(t *testing.T, kind string, req parcserve.JobRequest) uint64 {
	t.Helper()
	srv := parcserve.NewServer(nodeCfg("ref"))
	defer func() { _ = srv.Drain(10 * time.Second) }()
	w := postJob(t, srv, kind, req)
	if w.Code != http.StatusOK {
		t.Fatalf("reference %s job failed: %d %s", kind, w.Code, w.Body)
	}
	var res parcserve.JobResult
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	return res.Checksum
}

func decodeChecksum(t *testing.T, body []byte) uint64 {
	t.Helper()
	var res parcserve.JobResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("decoding job result: %v (%s)", err, body)
	}
	return res.Checksum
}

// TestRetryIdempotencyAcrossNodes: for every idempotent kind, partition
// the router→primary path on the request's first transport event (the
// job never reaches the node), and assert the failed-over execution on a
// different node returns the reference checksum. Three nodes plus
// VerifyRetries makes the router itself re-execute the retried job on
// the third node and compare — Verified must count, Mismatch must not.
func TestRetryIdempotencyAcrossNodes(t *testing.T) {
	for _, tc := range retryTable() {
		t.Run(tc.kind, func(t *testing.T) {
			want := referenceChecksum(t, tc.kind, tc.req)

			inj := faultinject.New(faultinject.Plan{
				Name: "partition-first",
				Rules: []faultinject.Rule{{
					Site: probe.SiteTransport, Kind: faultinject.Error, Nth: 0, Count: 1,
				}},
			})
			rt := newRouter(RouterConfig{Sleep: noSleep, Injector: inj, VerifyRetries: true}, nil)
			defer rt.Close()

			// Three real nodes; the injected Error fires before the request
			// reaches any transport, so the primary provably never executes
			// the first attempt — this is the pure partition case (the
			// execute-then-die case is TestRetryDoubleExecutionWindow).
			for _, id := range []string{"a", "b", "c"} {
				srv := parcserve.NewServer(nodeCfg(id))
				defer func() { _ = srv.Drain(10 * time.Second) }()
				hs := httptest.NewServer(srv)
				defer hs.Close()
				rt.SetNode(id, hs.URL)
			}

			w := postJob(t, rt, tc.kind, tc.req)
			if w.Code != http.StatusOK {
				t.Fatalf("failed-over %s job: %d %s", tc.kind, w.Code, w.Body)
			}
			if w.Header().Get("X-Parccluster-Retried") != "1" {
				t.Fatal("response not marked as retried")
			}
			if got := decodeChecksum(t, w.Body.Bytes()); got != want {
				t.Fatalf("failed-over checksum %d != reference %d", got, want)
			}
			led := rt.Ledger()
			if led.Failovers != 1 {
				t.Fatalf("failovers = %d, want 1", led.Failovers)
			}
			if led.Mismatch != 0 {
				t.Fatalf("verify mismatches: %+v", led)
			}
			if led.Verified != 1 {
				t.Fatalf("verified = %d, want 1 (third node re-executed the retry)", led.Verified)
			}
			if led.Lost != 0 || led.Completed != 1 {
				t.Fatalf("ledger off: %+v", led)
			}
			if inj.FiredAt(probe.SiteTransport, faultinject.Error) != 1 {
				t.Fatalf("injected faults fired = %d, want 1", inj.Fired())
			}
		})
	}
}

// TestRetryDoubleExecutionWindow is the nastier half of the idempotency
// argument: the primary EXECUTES the job to completion and then dies
// before the response escapes — the router cannot tell this from a node
// that never got the request. The retry therefore executes the job a
// second time on another node; the test proves both executions produced
// the identical checksum, which is exactly why re-execution is safe for
// idempotent kinds.
func TestRetryDoubleExecutionWindow(t *testing.T) {
	for _, tc := range retryTable() {
		t.Run(tc.kind, func(t *testing.T) {
			want := referenceChecksum(t, tc.kind, tc.req)

			// The treacherous node: runs the job for real, records the
			// checksum it computed, then aborts the connection instead of
			// answering.
			var executed atomic.Int64
			var firstSum atomic.Uint64
			srvA := parcserve.NewServer(nodeCfg("a"))
			defer func() { _ = srvA.Drain(10 * time.Second) }()
			hsA := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if !strings.HasPrefix(r.URL.Path, "/jobs/") {
					srvA.ServeHTTP(w, r)
					return
				}
				rec := httptest.NewRecorder()
				srvA.ServeHTTP(rec, r)
				if rec.Code == http.StatusOK {
					executed.Add(1)
					firstSum.Store(decodeChecksum(t, rec.Body.Bytes()))
					panic(http.ErrAbortHandler) // die AFTER completing, BEFORE responding
				}
				w.WriteHeader(rec.Code)
				_, _ = w.Write(rec.Body.Bytes())
			}))
			defer hsA.Close()

			srvB := parcserve.NewServer(nodeCfg("b"))
			defer func() { _ = srvB.Drain(10 * time.Second) }()
			hsB := httptest.NewServer(srvB)
			defer hsB.Close()

			rt := newRouter(RouterConfig{Sleep: noSleep}, nil)
			defer rt.Close()
			// Register the treacherous server as the shard primary for this
			// kind, whichever id that is.
			scratch := newRing(64)
			scratch.add("a")
			scratch.add("b")
			if scratch.primary(tc.kind) == "a" {
				rt.SetNode("a", hsA.URL)
				rt.SetNode("b", hsB.URL)
			} else {
				rt.SetNode("a", hsB.URL)
				rt.SetNode("b", hsA.URL)
			}

			w := postJob(t, rt, tc.kind, tc.req)
			if w.Code != http.StatusOK {
				t.Fatalf("%s after double-execution window: %d %s", tc.kind, w.Code, w.Body)
			}
			if executed.Load() != 1 {
				t.Fatalf("primary executed %d times, want exactly 1 — the window never opened", executed.Load())
			}
			got := decodeChecksum(t, w.Body.Bytes())
			if got != want {
				t.Fatalf("retried checksum %d != reference %d", got, want)
			}
			if first := firstSum.Load(); first != got {
				t.Fatalf("two executions disagreed: first node computed %d, retry returned %d", first, got)
			}
			if w.Header().Get("X-Parccluster-Retried") != "1" {
				t.Fatal("response not marked as retried")
			}
			led := rt.Ledger()
			if led.Failovers != 1 || led.Completed != 1 || led.Lost != 0 {
				t.Fatalf("ledger off: %+v", led)
			}
		})
	}
}

// TestRetryWebfetchNeverDoubleExecutes pins the non-idempotent side of
// the table: a webfetch whose node dies mid-response must NOT run again
// — the second node sees zero data-plane traffic and the client gets an
// explicit 502.
func TestRetryWebfetchNeverDoubleExecutes(t *testing.T) {
	// The primary aborts every /jobs request without executing (webfetch
	// would touch the network; aborting first keeps the test hermetic —
	// the router can't distinguish abort-before from abort-after anyway).
	hsA := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	defer hsA.Close()
	var peerHits atomic.Int64
	hsB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		peerHits.Add(1)
		w.WriteHeader(http.StatusOK)
	}))
	defer hsB.Close()

	rt := newRouter(RouterConfig{Sleep: noSleep}, nil)
	defer rt.Close()
	scratch := newRing(64)
	scratch.add("a")
	scratch.add("b")
	if scratch.primary("webfetch") == "a" {
		rt.SetNode("a", hsA.URL)
		rt.SetNode("b", hsB.URL)
	} else {
		rt.SetNode("a", hsB.URL)
		rt.SetNode("b", hsA.URL)
	}

	w := postJob(t, rt, "webfetch", parcserve.JobRequest{URLs: []string{"http://127.0.0.1:1/x"}})
	if w.Code != http.StatusBadGateway {
		t.Fatalf("got %d, want explicit 502", w.Code)
	}
	if peerHits.Load() != 0 {
		t.Fatalf("webfetch re-executed %d times on the peer", peerHits.Load())
	}
	led := rt.Ledger()
	if led.Failovers != 0 || led.Rejected != 1 || led.Lost != 0 {
		t.Fatalf("ledger off: %+v", led)
	}
}
