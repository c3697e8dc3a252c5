// Package parcserve is the job-serving front end over the parallel
// runtime: an HTTP service that executes the paper's student workloads
// (quicksort, text/PDF search, thumbnails, kernels, web access) on the
// shared ptask/pyjama substrate. It is the layer that turns the
// reproduction into a servable system — and the realistic load generator
// every performance PR can be measured against (loadtest/, ablation A9).
//
// The serving disciplines, in one place (DESIGN.md §11):
//
//   - admission control: at most MaxConcurrent jobs execute at once and
//     at most MaxQueue wait; beyond that the server answers 429 with a
//     Retry-After estimate instead of queueing unboundedly;
//   - deadlines: every job runs under one context whose deadline is
//     fixed at request arrival, so admission wait, queue time and
//     execution all draw on one budget; an expired job that never
//     started is never executed (answer: 504);
//   - graceful drain: Drain stops intake (503), waits for in-flight
//     jobs, then stops the pool via ShutdownTimeout;
//   - observability: /statz exports the scheduler snapshot, Pyjama
//     region stats, circuit-breaker state, admission counters, and
//     per-endpoint latency histograms.
package parcserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"parc751/internal/metrics"
	"parc751/internal/ptask"
	"parc751/internal/pyjama"
	"parc751/internal/webfetch"
)

// The webfetch kind's connection bound and circuit breaker: at most
// fetchConns concurrent connections; breakerThreshold consecutive
// failures open the breaker for breakerCooldown.
const (
	fetchConns       = 8
	breakerThreshold = 5
	breakerCooldown  = 10 * time.Second
)

// Job deadlines: defaultDeadline applies when a request names none
// (deadline_ms); maxDeadline caps what a request may ask for.
const (
	defaultDeadline = 10 * time.Second
	maxDeadline     = time.Minute
)

// Config sizes the server. Zero values take the documented defaults.
type Config struct {
	// Workers is the ptask pool size and the Pyjama team size of kernel
	// jobs (default GOMAXPROCS).
	Workers int
	// MaxConcurrent bounds jobs executing at once (default 2×Workers).
	MaxConcurrent int
	// MaxQueue bounds jobs waiting for a slot; beyond it requests are
	// rejected with 429 (default 4×MaxConcurrent).
	MaxQueue int
	// NodeID names this server instance in /statz, /healthz and /readyz —
	// the identity the parccluster fleet and router key on. Default
	// "solo" (a standalone server).
	NodeID string
	// DrainGrace is how long /readyz advertises 503 before Drain actually
	// closes intake (default 0). A fronting router that polls readiness
	// gets that long to stop routing here, so in-flight routing decisions
	// do not race the intake cutoff.
	DrainGrace time.Duration
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2 * c.Workers
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxConcurrent
	}
	if c.NodeID == "" {
		c.NodeID = "solo"
	}
}

// endpointStats is one kind's serving record: request count, status-code
// tallies, and the end-to-end latency histogram (admission wait included
// — that is the latency a client sees).
type endpointStats struct {
	count atomic.Int64
	lat   metrics.LatencyHistogram
	codes [len(trackedCodes)]atomic.Int64
}

// trackedCodes is the fixed status vocabulary of the server.
var trackedCodes = [...]int{
	http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
	http.StatusTooManyRequests, http.StatusInternalServerError,
	http.StatusServiceUnavailable, http.StatusGatewayTimeout,
}

func codeSlot(code int) int {
	for i, c := range trackedCodes {
		if c == code {
			return i
		}
	}
	return len(trackedCodes) - 1 // fold unknowns into the last slot
}

func (e *endpointStats) record(code int, d time.Duration) {
	e.count.Add(1)
	e.codes[codeSlot(code)].Add(1)
	e.lat.Observe(d)
}

// Server is the job-serving front end. Create with NewServer; it
// implements http.Handler. A Server must be Drained when done — it owns
// a live worker pool.
type Server struct {
	cfg     Config
	rt      *ptask.Runtime
	fetcher *webfetch.Fetcher
	breaker *webfetch.Breaker
	mux     *http.ServeMux
	started time.Time

	// Admission: slots is the execution semaphore, waiting the bounded
	// queue occupancy. rejected counts 429s.
	slots    chan struct{}
	waiting  atomic.Int64
	admitted atomic.Int64
	rejected atomic.Int64

	// Drain: drainOnce makes Drain idempotent; notReady flips first (the
	// /readyz surface, so a fronting router stops routing here), then —
	// after DrainGrace — draining flips once under drainMu, which
	// handlers read-lock around the check-then-register step so a handler
	// can never slip past jobs.Wait (the classic Add-racing-Wait hazard).
	drainMu   sync.RWMutex
	drainOnce atomic.Bool
	notReady  atomic.Bool
	draining  atomic.Bool
	jobs      sync.WaitGroup

	eps map[Kind]*endpointStats

	regionMu   sync.Mutex
	lastRegion *pyjama.RegionStats

	// trace is the /tracez recorder state (tracez.go).
	trace tracezState
}

// NewServer starts the runtime and wires the HTTP surface.
func NewServer(cfg Config) *Server {
	cfg.fill()
	s := &Server{
		cfg:     cfg,
		rt:      ptask.NewRuntime(cfg.Workers),
		breaker: webfetch.NewBreaker(breakerThreshold, breakerCooldown),
		mux:     http.NewServeMux(),
		started: time.Now(),
		slots:   make(chan struct{}, cfg.MaxConcurrent),
		eps:     map[Kind]*endpointStats{},
	}
	s.fetcher = webfetch.NewFetcher(s.rt, nil, fetchConns)
	s.fetcher.SetBreaker(s.breaker)
	for _, k := range Kinds() {
		s.eps[k] = &endpointStats{}
	}
	s.mux.HandleFunc("POST /jobs/{kind}", s.handleJob)
	s.mux.HandleFunc("GET /statz", s.handleStatz)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /tracez", s.handleTracez)
	s.mux.HandleFunc("GET /tracez/trace.json", s.handleTracezJSON)
	s.mux.HandleFunc("POST /tracez/start", s.handleTracezStart)
	s.mux.HandleFunc("POST /tracez/stop", s.handleTracezStop)
	return s
}

// Runtime exposes the underlying ptask runtime (tests and experiments).
func (s *Server) Runtime() *ptask.Runtime { return s.rt }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// retryAfter estimates how long a rejected client should back off: the
// full queue's worth of work spread over the execution slots, floored at
// one second — deliberately coarse, it only needs the right magnitude.
func (s *Server) retryAfter() int {
	backlog := int(s.waiting.Load()) + s.cfg.MaxConcurrent
	secs := backlog / s.cfg.MaxConcurrent
	if secs < 1 {
		secs = 1
	}
	return secs
}

// acquire claims an execution slot, waiting in the bounded admission
// queue until ctx ends. It returns 0 on success — the caller then owes
// one release — or the HTTP status to answer with (429 queue full, 504
// deadline expired or client gone while waiting).
func (s *Server) acquire(ctx context.Context) int {
	if s.waiting.Add(1) > int64(s.cfg.MaxQueue) {
		s.waiting.Add(-1)
		s.rejected.Add(1)
		return http.StatusTooManyRequests
	}
	select {
	case s.slots <- struct{}{}:
		s.waiting.Add(-1)
		s.admitted.Add(1)
		return 0
	case <-ctx.Done():
		s.waiting.Add(-1)
		return http.StatusGatewayTimeout
	}
}

// release frees the execution slot a successful acquire claimed.
func (s *Server) release() { <-s.slots }

// deadlineFor resolves a request's deadline against the default and cap.
func deadlineFor(req *JobRequest) time.Duration {
	d := time.Duration(req.DeadlineMs) * time.Millisecond
	if d <= 0 {
		d = defaultDeadline
	}
	if d > maxDeadline {
		d = maxDeadline
	}
	return d
}

// handleJob serves POST /jobs/{kind}.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	kind := Kind(r.PathValue("kind"))
	ep, known := s.eps[kind]
	if !known {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown kind %q", kind))
		return
	}
	start := time.Now()
	code := http.StatusInternalServerError
	defer func() { ep.record(code, time.Since(start)) }()

	s.drainMu.RLock()
	if s.draining.Load() {
		s.drainMu.RUnlock()
		w.Header().Set("Connection", "close")
		code = http.StatusServiceUnavailable
		writeError(w, code, "draining")
		return
	}
	s.jobs.Add(1)
	s.drainMu.RUnlock()
	defer s.jobs.Done()

	// The request rides a pooled struct; by the time the deferred release
	// runs the job has settled, so no task body can still reference it
	// (see pool.go for the webfetch URLs caveat).
	req := acquireJobRequest()
	defer releaseJobRequest(req)
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(req); err != nil && !errors.Is(err, io.EOF) {
		code = http.StatusBadRequest
		writeError(w, code, "bad JSON: "+err.Error())
		return
	}
	res, err, code := s.runSingle(r, start, kind, req)
	if err != nil {
		if code == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", itoaSmall(s.retryAfter()))
		}
		writeError(w, code, err.Error())
		return
	}
	res.ElapsedMs = float64(time.Since(start)) / float64(time.Millisecond)
	code = http.StatusOK
	writeJSON(w, code, res)
	releaseJobResult(res)
}

// runSingle admits and executes one job as its own context-aware task.
// One context carries the deadline, fixed at request arrival: admission
// wait, pool queue time, and execution all draw on it, and a client that
// hangs up gives up its place in the queue.
func (s *Server) runSingle(r *http.Request, start time.Time, kind Kind, req *JobRequest) (*JobResult, error, int) {
	deadline := deadlineFor(req)
	ctx, cancel := context.WithDeadline(r.Context(), start.Add(deadline))
	defer cancel()
	if status := s.acquire(ctx); status != 0 {
		if status == http.StatusTooManyRequests {
			return nil, errSaturated, status
		}
		return nil, fmt.Errorf("no slot within the %v deadline: %w", deadline, ctx.Err()), status
	}
	defer s.release()
	// A job whose context expires while still queued is never executed
	// and settles with ErrDeadline (the §10 conformance row).
	t := ptask.RunCtx(s.rt, ctx, func(ctx context.Context) (*JobResult, error) {
		return s.execute(ctx, kind, req)
	})
	res, err := t.Result()
	if err != nil {
		return nil, err, statusFor(err)
	}
	return res, nil, http.StatusOK
}

// errSaturated is the admission controller's rejection: the execution
// slots are full and the wait queue is at its bound.
var errSaturated = errors.New("parcserve: admission queue full")

// statusFor maps an execution error to the HTTP vocabulary.
func statusFor(err error) int {
	switch {
	case errors.Is(err, errBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, ptask.ErrDeadline), errors.Is(err, context.DeadlineExceeded):
		// Which settle wins is racy when a running body returns ctx.Err()
		// itself while the deadline watcher cancels the task; both spell
		// "the job's time budget ran out".
		return http.StatusGatewayTimeout
	case errors.Is(err, ptask.ErrCancelled), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// recordRegion keeps the most recent Pyjama region snapshot for /statz.
func (s *Server) recordRegion(st pyjama.RegionStats) {
	s.regionMu.Lock()
	s.lastRegion = &st
	s.regionMu.Unlock()
}

// handleHealthz is liveness: it answers 200 for as long as the process
// can serve HTTP at all, draining included. A supervisor restarts a node
// whose /healthz stops answering; it must NOT restart one that is merely
// draining — that distinction is exactly liveness vs readiness.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "{\"status\":\"ok\",\"node_id\":%q}\n", s.cfg.NodeID)
}

// handleReadyz is readiness: 503 from the moment Drain begins — before
// intake actually closes (Config.DrainGrace) — so a router polling it
// stops sending work here without ever racing a 503 on a job it already
// committed to this node.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.notReady.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "{\"status\":\"draining\",\"node_id\":%q}\n", s.cfg.NodeID)
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "{\"status\":\"ready\",\"node_id\":%q}\n", s.cfg.NodeID)
}

// NodeID returns the server's configured identity.
func (s *Server) NodeID() string { return s.cfg.NodeID }

// Ready reports whether the server is still accepting routed work (it
// flips false at the start of Drain, DrainGrace before intake closes).
func (s *Server) Ready() bool { return !s.notReady.Load() }

// Drain gracefully stops the server: new jobs are refused with 503,
// in-flight jobs run to completion, and
// the worker pool is stopped. The budget d bounds the whole sequence;
// on a clean drain the pool is left with no queued or running task and
// the error is nil. Drain is idempotent.
func (s *Server) Drain(d time.Duration) error {
	if !s.drainOnce.CompareAndSwap(false, true) {
		return nil
	}
	deadline := time.Now().Add(d)
	// Readiness flips first: /readyz answers 503 while intake is still
	// open, giving a fronting router DrainGrace to route around this
	// node before jobs start bouncing.
	s.notReady.Store(true)
	if s.cfg.DrainGrace > 0 {
		grace := s.cfg.DrainGrace
		if until := time.Until(deadline); grace > until/2 {
			grace = until / 2 // never spend the whole budget being polite
		}
		time.Sleep(grace)
	}
	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()
	// A recording left running must not outlive the server that attached
	// it: detach and keep the dump, as /tracez/stop would.
	s.trace.mu.Lock()
	if s.trace.rec != nil {
		s.stopTraceLocked()
	}
	s.trace.mu.Unlock()
	// The pool stops only after no handler can submit another task.
	done := make(chan struct{})
	go func() {
		s.jobs.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Until(deadline)):
	}
	rem := time.Until(deadline)
	if rem < time.Millisecond {
		rem = time.Millisecond
	}
	return s.rt.ShutdownTimeout(rem)
}
