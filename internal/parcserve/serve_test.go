// The serve conformance suite: every test here is named TestServe* so
// the CI serve-smoke step (`go test -race -run 'TestServe|TestConformance'`)
// picks up exactly this file plus the ptask conformance table. The tests
// drive the server over real HTTP (httptest) because the disciplines
// under test — admission, deadlines, drain — live in the interaction
// between handler goroutines and the runtime, not in any one function.
package parcserve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parc751/internal/parcserve/loadtest"
	"parc751/internal/workload"
)

// newTestServer builds a Server + httptest front end and registers
// cleanup that drains both.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		_ = s.Drain(5 * time.Second)
		ts.Close()
	})
	return s, ts
}

// postJob POSTs one job and returns the status code plus decoded body.
func postJob(t *testing.T, base string, kind Kind, req JobRequest) (int, *JobResult, map[string]any) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(fmt.Sprintf("%s/jobs/%s", base, kind), "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", kind, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusOK {
		var res JobResult
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatalf("decode result: %v (%s)", err, raw)
		}
		return resp.StatusCode, &res, nil
	}
	var errBody map[string]any
	_ = json.Unmarshal(raw, &errBody)
	return resp.StatusCode, nil, errBody
}

// TestServeLoadSmoke is the headline invariant: under a seeded open-loop
// mix the server answers every request (zero transport drops), answers
// them all 200 when capacity suffices, and keeps tail latency bounded.
func TestServeLoadSmoke(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:       4,
		MaxConcurrent: 8,
		MaxQueue:      256,
	})
	res := loadtest.Run(loadtest.Config{
		BaseURL:  ts.URL,
		Seed:     751,
		Requests: 120,
		Rate:     600,
		Mix: []loadtest.JobSpec{
			{Kind: "sort", Body: map[string]any{"n": 2000}, Weight: 5},
			{Kind: "spin", Body: map[string]any{"spin_ms": 2}, Weight: 3},
			{Kind: "thumbs", Body: map[string]any{"n": 6}, Weight: 1},
			{Kind: "textsearch", Body: map[string]any{"n": 20}, Weight: 1},
		},
	})
	if res.Dropped != 0 {
		t.Fatalf("dropped %d responses, want 0 (%s)", res.Dropped, res.Summary())
	}
	if got := res.Codes[http.StatusOK]; got != res.Sent {
		t.Fatalf("OK responses = %d of %d sent (%s)", got, res.Sent, res.Summary())
	}
	// Generous tail bound: the point is "bounded", not "fast" — CI boxes
	// under -race are slow, but an unbounded queue would show seconds.
	if p99 := res.Latency.Quantile(0.99); p99 > 10*time.Second {
		t.Fatalf("p99 = %v, want bounded (%s)", p99, res.Summary())
	}
}

// TestServeSaturation429 overloads a one-slot server and checks the
// admission contract: the wait queue never exceeds MaxQueue, overflow is
// answered 429 with Retry-After, and nothing is silently dropped.
func TestServeSaturation429(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers:       2,
		MaxConcurrent: 1,
		MaxQueue:      2,
	})

	// Sample the admission gauge throughout the storm: bounded queueing
	// must hold at every instant, not just at the end.
	stop := make(chan struct{})
	var maxWaiting atomic.Int64
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if w := s.Statz().Admission.Waiting; w > maxWaiting.Load() {
				maxWaiting.Store(w)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	res := loadtest.Run(loadtest.Config{
		BaseURL:  ts.URL,
		Seed:     7,
		Requests: 12,
		Rate:     10_000, // near-simultaneous arrivals
		Mix: []loadtest.JobSpec{
			{Kind: "spin", Body: map[string]any{"spin_ms": 120, "deadline_ms": 5000}, Weight: 1},
		},
	})
	close(stop)
	sampler.Wait()

	if res.Dropped != 0 {
		t.Fatalf("dropped %d responses, want 0 (%s)", res.Dropped, res.Summary())
	}
	if res.Codes[http.StatusTooManyRequests] == 0 {
		t.Fatalf("no 429 under 12x overload of a 1-slot/2-queue server (%s)", res.Summary())
	}
	if res.RetryAfterSeen != res.Codes[http.StatusTooManyRequests] {
		t.Fatalf("Retry-After on %d of %d 429s, want all", res.RetryAfterSeen, res.Codes[http.StatusTooManyRequests])
	}
	// Presence is not enough: a client backs off by parsing the value, so
	// every Retry-After must be a whole number of seconds >= 1.
	if res.RetryAfterValid != res.RetryAfterSeen {
		t.Fatalf("Retry-After parsed as seconds>=1 on %d of %d headers, want all", res.RetryAfterValid, res.RetryAfterSeen)
	}
	if res.Codes[http.StatusOK] == 0 {
		t.Fatalf("no request succeeded (%s)", res.Summary())
	}
	if w := maxWaiting.Load(); w > int64(s.cfg.MaxQueue) {
		t.Fatalf("admission queue reached %d, bound is %d", w, s.cfg.MaxQueue)
	}
	if got := s.Statz().Admission.Rejected; got != int64(res.Codes[http.StatusTooManyRequests]) {
		t.Fatalf("rejected counter = %d, 429 responses = %d", got, res.Codes[http.StatusTooManyRequests])
	}
}

// TestServeBatching checks that small sorts are no longer coalesced:
// concurrent small sorts each take their own admission slot, no batch
// counter is filled, and every checksum is bit-identical to the one
// computed from a sequential sort.
func TestServeBatching(t *testing.T) {
	const jobs = 8
	s, ts := newTestServer(t, Config{Workers: 4, MaxConcurrent: 2})

	// The ground truth every served sort must reproduce.
	want := func(seed uint64, n int) uint64 {
		xs := workload.IntArray(seed, n, n*4)
		sort.Ints(xs)
		var sum uint64
		for i := 0; i < len(xs); i += 1 + len(xs)/64 {
			sum = fnv1a(sum, uint64(xs[i]))
		}
		return sum
	}(9, 512)

	var wg sync.WaitGroup
	results := make([]*JobResult, jobs)
	codes := make([]int, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], results[i], _ = postJob(t, ts.URL, KindSort, JobRequest{Seed: 9, N: 512})
		}(i)
	}
	wg.Wait()

	for i := 0; i < jobs; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("job %d: status %d", i, codes[i])
		}
		if results[i].Checksum != want {
			t.Errorf("job %d: checksum %#x, want %#x from a sequential sort", i, results[i].Checksum, want)
		}
	}
	st := s.Statz()
	if st.Admission.Admitted != jobs {
		t.Fatalf("admitted = %d for %d jobs, want one admission per job", st.Admission.Admitted, jobs)
	}
	if len(st.Batch) != 0 {
		t.Fatalf("batch stats filled: %+v", st.Batch)
	}
}

// TestServeDeadline504 checks both deadline paths: a running job that
// overruns its budget is cut off by its context, and a job that expires
// while still waiting for an admission slot never executes. Both answer
// 504.
func TestServeDeadline504(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:       2,
		MaxConcurrent: 1,
		MaxQueue:      4,
	})

	// Running overrun: 400ms of work on a 50ms budget.
	code, _, errBody := postJob(t, ts.URL, KindSpin, JobRequest{SpinMs: 400, DeadlineMs: 50})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("overrunning spin: status %d (%v), want 504", code, errBody)
	}

	// Queued expiry: occupy the single slot, then submit with a budget
	// shorter than the occupant — the victim times out in admission.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postJob(t, ts.URL, KindSpin, JobRequest{SpinMs: 400, DeadlineMs: 2000})
	}()
	time.Sleep(50 * time.Millisecond) // let the occupant take the slot
	code, _, errBody = postJob(t, ts.URL, KindSpin, JobRequest{SpinMs: 5, DeadlineMs: 100})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("queued-expired spin: status %d (%v), want 504", code, errBody)
	}
	wg.Wait()
}

// TestServeHangupLeavesQueue: a client that hangs up while its job waits
// for a slot gives up its queue position at once, long before its
// deadline and while the slot's occupant is still running.
func TestServeHangupLeavesQueue(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, MaxConcurrent: 1, MaxQueue: 4})
	waitFor := func(what string, cond func(AdmissionStats) bool) {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Second); !cond(s.Statz().Admission); {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: %+v", what, s.Statz().Admission)
			}
			time.Sleep(time.Millisecond)
		}
	}

	occupant := make(chan struct{})
	go func() {
		defer close(occupant)
		postJob(t, ts.URL, KindSpin, JobRequest{SpinMs: 1000, DeadlineMs: 10_000})
	}()
	waitFor("the occupant to take the slot", func(a AdmissionStats) bool { return a.Running == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/jobs/spin",
		strings.NewReader(`{"spin_ms":1,"deadline_ms":10000}`))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	waitFor("the second job to queue", func(a AdmissionStats) bool { return a.Waiting == 1 })
	cancel()
	waitFor("the hung-up job to leave the queue", func(a AdmissionStats) bool { return a.Waiting == 0 })
	if a := s.Statz().Admission; a.Running != 1 || a.Admitted != 1 {
		t.Fatalf("after the hang-up: %+v, want the occupant alone running and admitted", a)
	}
	<-occupant
}

// TestServeGracefulDrain checks the shutdown contract: in-flight jobs
// complete with 200, new intake answers 503, Drain returns nil, and the
// pool is left with no queued, running, or abandoned task.
func TestServeGracefulDrain(t *testing.T) {
	const inflight = 4
	s, ts := newTestServer(t, Config{
		Workers:       4,
		MaxConcurrent: inflight,
	})

	var wg sync.WaitGroup
	codes := make([]int, inflight)
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _, _ = postJob(t, ts.URL, KindSpin, JobRequest{SpinMs: 200, DeadlineMs: 5000})
		}(i)
	}
	// Wait until all four hold slots so none can race the drain flag.
	deadline := time.Now().Add(2 * time.Second)
	for s.Statz().Admission.Running < inflight {
		if time.Now().After(deadline) {
			t.Fatal("jobs never occupied the slots")
		}
		time.Sleep(time.Millisecond)
	}

	if err := s.Drain(5 * time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("in-flight job %d answered %d during drain, want 200", i, c)
		}
	}

	// Intake is closed...
	code, _, _ := postJob(t, ts.URL, KindSpin, JobRequest{SpinMs: 1})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request: status %d, want 503", code)
	}
	// ...and the pool is empty: nothing queued, running, or abandoned.
	snap := s.Runtime().SchedStats()
	if snap.Inflight != 0 || snap.Abandoned != 0 {
		t.Fatalf("post-drain pool: inflight=%d abandoned=%d, want 0/0", snap.Inflight, snap.Abandoned)
	}
	// Idempotent.
	if err := s.Drain(time.Second); err != nil {
		t.Fatalf("second Drain: %v", err)
	}
}

// TestServeStatz checks the observability surface end to end over HTTP:
// scheduler snapshot, endpoint histograms, breaker state,
// and the Pyjama region snapshot after a kernel job.
func TestServeStatz(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:       4,
		MaxConcurrent: 4,
	})
	// One sort, one kernel job, one spin.
	if code, _, e := postJob(t, ts.URL, KindSort, JobRequest{N: 50_000}); code != 200 {
		t.Fatalf("sort: %d (%v)", code, e)
	}
	if code, _, e := postJob(t, ts.URL, KindMatMul, JobRequest{N: 64}); code != 200 {
		t.Fatalf("matmul: %d (%v)", code, e)
	}
	if code, _, e := postJob(t, ts.URL, KindSpin, JobRequest{SpinMs: 1}); code != 200 {
		t.Fatalf("spin: %d (%v)", code, e)
	}

	resp, err := http.Get(ts.URL + "/statz")
	if err != nil {
		t.Fatalf("GET /statz: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/statz status %d", resp.StatusCode)
	}
	var st Statz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode /statz: %v", err)
	}

	if len(st.Sched.Workers) != 4 {
		t.Errorf("sched snapshot has %d workers, want 4", len(st.Sched.Workers))
	}
	if st.Sched.Executed == 0 {
		t.Errorf("sched snapshot reports 0 executed tasks")
	}
	for _, kind := range []Kind{KindSort, KindMatMul, KindSpin} {
		ep, ok := st.Endpoints[string(kind)]
		if !ok {
			t.Errorf("no endpoint stats for %s", kind)
			continue
		}
		if ep.Count == 0 || ep.Codes["200"] == 0 {
			t.Errorf("%s: count=%d codes=%v, want a 200 recorded", kind, ep.Count, ep.Codes)
		}
		if len(ep.Buckets) == 0 {
			t.Errorf("%s: empty latency buckets", kind)
		}
		if ep.P99Ns < ep.P50Ns {
			t.Errorf("%s: p99 %d < p50 %d", kind, ep.P99Ns, ep.P50Ns)
		}
	}
	if st.Region == nil {
		t.Error("no Pyjama region stats after a matmul job")
	} else if len(st.Region.Threads) != 4 {
		t.Errorf("region has %d thread records, want 4 (one per worker)", len(st.Region.Threads))
	}
	if st.Breaker.State != "closed" {
		t.Errorf("breaker state %q, want closed", st.Breaker.State)
	}
	if st.Admission.MaxConcurrent != 4 {
		t.Errorf("admission max_concurrent = %d, want 4", st.Admission.MaxConcurrent)
	}
}

// TestServeHealthReadyIdentity covers the cluster-facing surface:
// /healthz is pure liveness (200 even while draining), /readyz flips 503
// at the start of drain — before intake closes (DrainGrace) — and both
// /statz and the probes carry the configured node_id.
func TestServeHealthReadyIdentity(t *testing.T) {
	s := NewServer(Config{
		Workers:       2,
		MaxConcurrent: 2,
		NodeID:        "node-test-7",
		DrainGrace:    300 * time.Millisecond,
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	get := func(path string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var body map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&body)
		return resp.StatusCode, body
	}

	if code, body := get("/healthz"); code != 200 || body["node_id"] != "node-test-7" {
		t.Fatalf("/healthz = %d %v, want 200 with node_id", code, body)
	}
	if code, body := get("/readyz"); code != 200 || body["status"] != "ready" {
		t.Fatalf("/readyz = %d %v, want 200 ready", code, body)
	}
	var st Statz
	resp, err := http.Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.NodeID != "node-test-7" || !st.Ready || st.Draining {
		t.Fatalf("statz identity = %q ready=%v draining=%v, want node-test-7/true/false",
			st.NodeID, st.Ready, st.Draining)
	}

	// Begin drain in the background; DrainGrace keeps intake open after
	// readiness flips.
	drainDone := make(chan error, 1)
	go func() { drainDone <- s.Drain(10 * time.Second) }()
	// Readiness must flip promptly (well inside the grace window).
	flipDeadline := time.Now().Add(250 * time.Millisecond)
	for {
		code, _ := get("/readyz")
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(flipDeadline) {
			t.Fatal("/readyz did not flip 503 at the start of drain")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Liveness must NOT flip — a supervisor would otherwise kill a
	// politely draining node.
	if code, _ := get("/healthz"); code != 200 {
		t.Fatalf("/healthz = %d during drain, want 200 (liveness != readiness)", code)
	}
	// Intake is still open during the grace window: a job submitted now
	// must be accepted and execute, not bounce with 503.
	if code, res, e := postJob(t, ts.URL, KindSpin, JobRequest{SpinMs: 1}); code != 200 || res == nil {
		t.Fatalf("job during DrainGrace = %d (%v), want 200: readyz must flip before intake closes", code, e)
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// After drain completes, intake is closed and readiness still 503.
	if code, _, _ := postJob(t, ts.URL, KindSpin, JobRequest{SpinMs: 1}); code != http.StatusServiceUnavailable {
		t.Fatalf("job after drain = %d, want 503", code)
	}
	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after drain = %d, want 503", code)
	}
	if code, _ := get("/healthz"); code != 200 {
		t.Fatalf("/healthz after drain = %d, want 200", code)
	}
}

// TestServeWebFetch runs the one non-hermetic kind against a local
// upstream and checks fetch accounting plus breaker reporting.
func TestServeWebFetch(t *testing.T) {
	var hits atomic.Int64
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		fmt.Fprint(w, "payload-for-", r.URL.Path)
	}))
	defer upstream.Close()

	_, ts := newTestServer(t, Config{Workers: 4, MaxConcurrent: 4})
	urls := []string{upstream.URL + "/a", upstream.URL + "/b", upstream.URL + "/c"}
	code, res, errBody := postJob(t, ts.URL, KindWebFetch, JobRequest{URLs: urls})
	if code != http.StatusOK {
		t.Fatalf("webfetch: status %d (%v)", code, errBody)
	}
	if got := res.Summary["fetched"].(float64); int(got) != len(urls) {
		t.Fatalf("fetched %v of %d urls", got, len(urls))
	}
	if hits.Load() != int64(len(urls)) {
		t.Fatalf("upstream saw %d hits, want %d", hits.Load(), len(urls))
	}
	if res.Summary["breaker"] != "closed" {
		t.Fatalf("breaker state %v, want closed", res.Summary["breaker"])
	}
}

// TestServeBadRequest checks the 400 vocabulary: unknown kind, invalid
// JSON, and kind-specific parameter errors.
func TestServeBadRequest(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, MaxConcurrent: 2})

	resp, err := http.Post(ts.URL+"/jobs/nosuchkind", "application/json", bytes.NewReader([]byte("{}")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown kind: status %d, want 400", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/jobs/spin", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: status %d, want 400", resp.StatusCode)
	}

	code, _, _ := postJob(t, ts.URL, KindWebFetch, JobRequest{})
	if code != http.StatusBadRequest {
		t.Fatalf("webfetch without urls: status %d, want 400", code)
	}
}

// TestServeDeterminism: the same request yields the same checksum on
// repeat — the property every experiment in this repo leans on, now
// holding across the serving layer too.
func TestServeDeterminism(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, MaxConcurrent: 4})
	for _, kind := range []Kind{KindSort, KindTextSearch, KindPDFSearch, KindThumbs, KindMatMul} {
		req := JobRequest{Seed: 42, N: 100}
		if kind == KindSort {
			req.N = 9000
		}
		code1, res1, e1 := postJob(t, ts.URL, kind, req)
		code2, res2, e2 := postJob(t, ts.URL, kind, req)
		if code1 != 200 || code2 != 200 {
			t.Fatalf("%s: statuses %d/%d (%v %v)", kind, code1, code2, e1, e2)
		}
		if res1.Checksum != res2.Checksum {
			t.Errorf("%s: checksums differ across identical requests: %#x vs %#x", kind, res1.Checksum, res2.Checksum)
		}
		if res1.Checksum == 0 {
			t.Errorf("%s: zero checksum", kind)
		}
	}
}
