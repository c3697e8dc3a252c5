package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"parc751/internal/kernels"
	"parc751/internal/parccluster"
	"parc751/internal/parcserve"
	"parc751/internal/sched"
	"parc751/internal/workload"
	"parc751/internal/xrand"
)

// serveMix is the serving workloads' request mix: the smallest job of
// each compute kind, in equal shares. sort n=256 is under the server's
// small-sort threshold, so it takes the batcher path.
var serveMix = []struct {
	kind string
	n    int
}{{"sort", 256}, {"textsearch", 1}, {"thumbs", 1}, {"matmul", 16}, {"pdfsearch", 1}}

const (
	specsPerKind  = 256
	serveSetup    = 21  // set-ups per run; setup_s is their median
	serveWarm     = 400 // untimed warm-up requests
	loadPollEvery = 100 * time.Millisecond
	fleetNodes    = 2
)

// jobSpec is one distinct request: its kind, body, and the checksum a
// standalone server answers it with.
type jobSpec struct {
	kindIdx int
	seed    uint64
	n       int
	path    string
	body    []byte
	want    uint64
}

func genSpecs(seed uint64) [][]jobSpec {
	r := xrand.New(seed)
	specs := make([][]jobSpec, len(serveMix))
	for k, m := range serveMix {
		for i := 0; i < specsPerKind; i++ {
			s := r.Uint64()>>1 | 1 // a zero seed would select the server's default
			specs[k] = append(specs[k], jobSpec{
				kindIdx: k, seed: s, n: m.n,
				path: "/jobs/" + m.kind,
				body: []byte(fmt.Sprintf(`{"seed":%d,"n":%d}`, s, m.n)),
			})
		}
	}
	return specs
}

// referenceChecksums answers every spec on a standalone in-process
// server, without a network, and stores the checksums as the expected
// answers for both serving workloads.
func referenceChecksums(procs int, specs [][]jobSpec) error {
	srv := parcserve.NewServer(parcserve.Config{Workers: procs})
	defer func() { _ = srv.Drain(10 * time.Second) }()
	for k := range specs {
		for i := range specs[k] {
			sp := &specs[k][i]
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, sp.path, bytes.NewReader(sp.body)))
			sum, err := decodeAnswer(rec.Code, rec.Body.Bytes())
			if err != nil {
				return fmt.Errorf("reference %s: %w", sp.path, err)
			}
			sp.want = sum
		}
	}
	return nil
}

func decodeAnswer(code int, body []byte) (uint64, error) {
	if code != http.StatusOK {
		return 0, fmt.Errorf("status %d: %s", code, bytes.TrimSpace(body))
	}
	var res struct {
		Checksum uint64 `json:"checksum"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		return 0, fmt.Errorf("decode answer: %w", err)
	}
	return res.Checksum, nil
}

// target is one running serving stack: a solo server or a fleet, behind
// a loopback listener.
type target struct {
	url     string
	hs      *http.Server
	servers func() []*parcserve.Server // live node servers
	fleet   *parccluster.Fleet         // nil for a solo server
}

// tracer holds the span recorders and the switch that turns them on.
type tracer struct {
	on     atomic.Bool
	outer  *spans // the handler the client talks to: solo server or router
	node   *spans // node servers behind a router (fleet only)
	client *spans
	kinds  []atomic.Int32 // kind index per request id
	nextID atomic.Int64
}

func newTracer() *tracer {
	return &tracer{outer: newSpans(), node: newSpans(), client: newSpans(), kinds: make([]atomic.Int32, maxSpans)}
}

func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: h}
	go func() { _ = hs.Serve(ln) }() // returns ErrServerClosed on Shutdown
	return hs, "http://" + ln.Addr().String(), nil
}

func startSolo(procs int, tr *tracer) (*target, error) {
	srv := parcserve.NewServer(parcserve.Config{Workers: procs})
	var h http.Handler = srv
	if tr != nil {
		h = &timedHandler{inner: srv, on: &tr.on, rec: tr.outer}
	}
	hs, url, err := listen(h)
	if err != nil {
		_ = srv.Drain(time.Second)
		return nil, err
	}
	return &target{url: url, hs: hs, servers: func() []*parcserve.Server { return []*parcserve.Server{srv} }}, nil
}

func startFleet(procs int, tr *tracer) (*target, error) {
	workers := procs / fleetNodes
	if workers < 1 {
		workers = 1
	}
	st := &benchStarter{cfg: parcserve.Config{Workers: workers}, tr: tr}
	f := parccluster.NewFleet(parccluster.FleetConfig{
		Nodes:   fleetNodes,
		Starter: st,
		Router:  parccluster.RouterConfig{LoadPollEvery: loadPollEvery},
	})
	if err := f.Start(); err != nil {
		_ = f.Stop()
		return nil, fmt.Errorf("start fleet: %w", err)
	}
	var h http.Handler = f.Router()
	if tr != nil {
		h = &timedHandler{inner: f.Router(), on: &tr.on, rec: tr.outer}
	}
	hs, url, err := listen(h)
	if err != nil {
		_ = f.Stop()
		return nil, err
	}
	return &target{url: url, hs: hs, servers: st.live, fleet: f}, nil
}

// stop shuts the listener, then the servers behind it, and checks the
// router's ledger once no traffic is left.
func (t *target) stop(rep *report) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = t.hs.Shutdown(ctx) // idle keep-alive connections only; no traffic is in flight
	if t.fleet != nil {
		checkLedger(rep, t.fleet.Router().Ledger())
		if err := t.fleet.Stop(); err != nil {
			rep.fail("fleet stop: %v", err)
		}
		return
	}
	for _, s := range t.servers() {
		if err := s.Drain(10 * time.Second); err != nil {
			rep.fail("server drain: %v", err)
		}
	}
}

// checkLedger enforces the router's no-lost-jobs identity.
func checkLedger(rep *report, l parccluster.Ledger) {
	if l.Accepted != l.Completed+l.Rejected || l.Lost != 0 {
		rep.Attempted++
		rep.fail("router ledger unbalanced: accepted %d completed %d rejected %d lost %d",
			l.Accepted, l.Completed, l.Rejected, l.Lost)
	}
}

// benchStarter is the fleet's NodeStarter: an in-process parcserve node
// behind its own loopback listener, as parccluster.LocalStarter builds
// one, with the node's handler timed in traced phases.
type benchStarter struct {
	cfg parcserve.Config
	tr  *tracer

	mu      sync.Mutex
	servers map[string]*parcserve.Server
}

func (s *benchStarter) Start(id string) (parccluster.NodeHandle, error) {
	cfg := s.cfg
	cfg.NodeID = id
	srv := parcserve.NewServer(cfg)
	var h http.Handler = srv
	if s.tr != nil {
		h = &timedHandler{inner: srv, on: &s.tr.on, rec: s.tr.node}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Drain(time.Second)
		return nil, fmt.Errorf("listen: %w", err)
	}
	n := &benchNode{srv: srv, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		_ = n.hs.Serve(ln)
		close(n.done)
	}()
	s.mu.Lock()
	if s.servers == nil {
		s.servers = map[string]*parcserve.Server{}
	}
	s.servers[id] = srv
	s.mu.Unlock()
	return n, nil
}

// live returns the current incarnation of every node, in id order.
func (s *benchStarter) live() []*parcserve.Server {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*parcserve.Server, 0, len(s.servers))
	for _, id := range sortedKeys(s.servers) {
		out = append(out, s.servers[id])
	}
	return out
}

type benchNode struct {
	srv      *parcserve.Server
	hs       *http.Server
	url      string
	done     chan struct{}
	graceful atomic.Bool
	once     sync.Once
}

func (n *benchNode) URL() string { return n.url }

func (n *benchNode) Kill() error {
	var err error
	n.once.Do(func() {
		err = n.hs.Close()
		_ = n.srv.Drain(5 * time.Second) // the node is already gone for the fleet
	})
	return err
}

func (n *benchNode) Shutdown() error {
	var err error
	n.once.Do(func() {
		n.graceful.Store(true)
		err = n.srv.Drain(30 * time.Second)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if serr := n.hs.Shutdown(ctx); err == nil {
			err = serr
		}
	})
	return err
}

func (n *benchNode) Wait() error {
	<-n.done
	if n.graceful.Load() {
		return nil
	}
	return fmt.Errorf("node %s exited without shutdown", n.url)
}

// client is one closed-loop load client with its own connection.
type client struct {
	hc   *http.Client
	url  string
	rng  *xrand.Rand
	next int    // round-robin position in serveMix
	buf  []byte // traced request body
	// per-phase results
	jobs, attempted int64
	lat             []float64
	problems        []string
	failed          int64
}

func newClients(procs int, seed uint64) []*client {
	r := xrand.New(seed ^ 0x5eed)
	cs := make([]*client, procs)
	for i := range cs {
		tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
		cs[i] = &client{hc: &http.Client{Transport: tr, Timeout: time.Minute}, rng: r.Split(), next: i % len(serveMix)}
	}
	return cs
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends the client's next request: kinds in turn, a random spec of
// each.
func (c *client) do(specs [][]jobSpec, tr *tracer) {
	k := c.next
	c.next = (c.next + 1) % len(serveMix)
	c.send(&specs[k][c.rng.Intn(specsPerKind)], tr)
}

// send sends one request and checks the answer against the reference.
func (c *client) send(sp *jobSpec, tr *tracer) {
	k := sp.kindIdx
	body, id := sp.body, -1
	if tr != nil && tr.on.Load() {
		id = int(tr.nextID.Add(1))
		c.buf = withBenchID(c.buf, sp.body, id)
		body = c.buf
		if id < maxSpans {
			tr.kinds[id].Store(int32(k))
		}
	}
	c.attempted++
	start := time.Now()
	resp, err := c.hc.Post(c.url+sp.path, "application/json", bytes.NewReader(body))
	if err != nil {
		c.fail("%s: %v", sp.path, err)
		return
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	if err != nil {
		c.fail("%s: read answer: %v", sp.path, err)
		return
	}
	sum, err := decodeAnswer(resp.StatusCode, data)
	if err != nil {
		c.fail("%s: %v", sp.path, err)
		return
	}
	if sum != sp.want {
		c.fail("%s seed %d: checksum %d, reference %d", sp.path, sp.seed, sum, sp.want)
		return
	}
	c.jobs++
	c.lat = append(c.lat, durMs(elapsed))
	if id >= 0 {
		tr.client.put(id, elapsed)
	}
}

func (c *client) fail(format string, args ...any) {
	c.failed++
	if len(c.problems) < 5 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// flush moves the client's attempt and failure counts into rep and
// starts a new phase.
func (c *client) flush(rep *report) {
	rep.Attempted += c.attempted
	for i := int64(0); i < c.failed; i++ {
		msg := "request failed"
		if int(i) < len(c.problems) {
			msg = c.problems[i]
		}
		rep.fail("%s", msg)
	}
	c.jobs, c.attempted, c.failed, c.lat, c.problems = 0, 0, 0, c.lat[:0], nil
}

// firstJob sends the same textsearch request until one succeeds (the end
// of set-up), giving up after a few failures. A fixed, unbatched job
// keeps set-up free of the batcher's flush timer.
func (c *client) firstJob(specs [][]jobSpec) bool {
	for try := 0; try < 10 && c.jobs == 0; try++ {
		c.send(&specs[1][0], nil) // serveMix[1] is textsearch
	}
	return c.jobs > 0
}

// drive runs every client in a closed loop until the deadline (or, with
// count > 0, until count requests were sent in total) and merges their
// results into rep and a phase.
func drive(rep *report, cs []*client, specs [][]jobSpec, tr *tracer, d time.Duration, count int64) phase {
	var p phase
	var sent atomic.Int64
	p.from = sampleUsage()
	end := p.from.wall.Add(d)
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if count > 0 {
					if sent.Add(1) > count {
						return
					}
				} else if !time.Now().Before(end) {
					return
				}
				c.do(specs, tr)
			}
		}()
	}
	wg.Wait()
	p.to = sampleUsage()
	p.elapsed = p.to.wall.Sub(p.from.wall)
	for _, c := range cs {
		p.jobs += c.jobs
		p.lat = append(p.lat, c.lat...)
		c.flush(rep)
	}
	return p
}

// runServe is the serve_small workload (fleet false) and the fleet_small
// workload (fleet true): procs closed-loop clients over loopback HTTP.
func runServe(cfg config, fleet bool) (*report, error) {
	rep := newReport()
	specs := genSpecs(cfg.seed)
	if err := referenceChecksums(cfg.procs, specs); err != nil {
		return nil, err
	}
	start := startSolo
	if fleet {
		start = startFleet
		rep.Diag["load_poll_every_ms"] = loadPollEvery.Milliseconds()
		rep.Diag["fleet_nodes"] = fleetNodes
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	// Set-up: a fresh stack through its first checked job, several times;
	// the last one is kept for the timed phase.
	var tgt *target
	cs := newClients(cfg.procs, cfg.seed)
	defer func() {
		for _, c := range cs {
			c.close()
		}
	}()
	setups := make([]setupSample, serveSetup)
	for i := range setups {
		if tgt != nil {
			for _, c := range cs {
				c.close()
			}
			tgt.stop(rep)
		}
		sw := startStopwatch()
		var err error
		if tgt, err = start(cfg.procs, tr); err != nil {
			return nil, err
		}
		for _, c := range cs {
			c.url = tgt.url
		}
		ok := cs[0].firstJob(specs)
		setups[i] = sw.sample()
		cs[0].flush(rep)
		if !ok {
			tgt.stop(rep)
			return rep, nil
		}
	}
	drive(rep, cs, specs, nil, 0, serveWarm)

	if !cfg.trace {
		rep.endToEnd(drive(rep, cs, specs, nil, cfg.duration(), 0), setups)
		tgt.stop(rep)
		return rep, nil
	}

	plain := drive(rep, cs, specs, tr, cfg.duration()/2, 0)
	rep.endToEnd(plain, setups)
	statz0 := statzOf(tgt)
	ledger0 := routerLedger(tgt)
	tr.on.Store(true)
	sampler := startStealSampler(time.Second)
	traced := drive(rep, cs, specs, tr, cfg.duration()/2, 0)
	rep.Diag["steal_windows"] = sampler.Stop()
	tr.on.Store(false)
	statz1 := statzOf(tgt)
	ledger1 := routerLedger(tgt)
	overheadLayer(rep, plain, traced)
	servingLayers(rep, tr, fleet, statz0, statz1, traced.jobs)
	if fleet {
		acc := float64(ledger1.Accepted - ledger0.Accepted)
		rep.layer("parccluster.spill_ratio", "ratio", ratio(float64(ledger1.Spills-ledger0.Spills), acc))
		rep.layer("parccluster.failovers", "count", float64(ledger1.Failovers-ledger0.Failovers))
	}
	runtimeProbes(rep, cfg.procs, tgt.servers()[0].Runtime())
	genProbes(rep, specs)
	tgt.stop(rep)
	if fleet {
		rep.layer("parccluster.lost", "count", float64(routerLedger(tgt).Lost))
	} else if err := rep.borrow(cfg, "fleet_small", "parccluster."); err != nil {
		return nil, err
	}
	err := rep.borrow(cfg, "compute", "kernels.", "sortalgo.", "thumbs.", "pyjama.barrier_park_ratio")
	return rep, err
}

func statzOf(t *target) []parcserve.Statz {
	var out []parcserve.Statz
	for _, s := range t.servers() {
		out = append(out, s.Statz())
	}
	return out
}

func routerLedger(t *target) parccluster.Ledger {
	if t.fleet == nil {
		return parccluster.Ledger{}
	}
	return t.fleet.Router().Ledger()
}

// servingLayers joins the traced phase's spans per request and reports
// the request-path layers, the batcher and admission counters, and the
// scheduler deltas summed over every node.
func servingLayers(rep *report, tr *tracer, fleet bool, from, to []parcserve.Statz, jobs int64) {
	// One span series per request-path part, overall and per kind.
	type parts struct{ rt, handler, router, net, hop []float64 }
	var all parts
	kinds := make([]parts, len(serveMix))
	n := int(tr.nextID.Load())
	for id := 1; id <= n && id < maxSpans; id++ {
		c, ok1 := tr.client.get(id)
		outer, ok2 := tr.outer.get(id)
		if !ok1 || !ok2 {
			continue
		}
		h := outer
		if fleet {
			var ok bool
			if h, ok = tr.node.get(id); !ok {
				continue
			}
		}
		k := &kinds[tr.kinds[id].Load()]
		for _, p := range []*parts{&all, k} {
			p.rt = append(p.rt, durMs(c))
			p.handler = append(p.handler, durMs(h))
			p.net = append(p.net, durMs(c-outer))
			p.router = append(p.router, durMs(outer))
			p.hop = append(p.hop, durMs(outer-h))
		}
	}
	rep.Diag["traced_requests_joined"] = len(all.rt)
	rep.layer("client.roundtrip_ms", "ms", median(all.rt))
	rep.layer("parcserve.handler_ms", "ms", median(all.handler))
	rep.layer("net.http_ms", "ms", median(all.net))
	if fleet {
		rep.layer("parccluster.router_ms", "ms", median(all.router))
		rep.layer("parccluster.hop_ms", "ms", median(all.hop))
	}
	// Per request the parts add up exactly. Medians of a mix of kinds
	// whose handler times differ tenfold do not, so the accounting check
	// compares medians within each kind and reports the worst kind.
	var worst float64
	for k, m := range serveMix {
		p := kinds[k]
		rep.layer("parcserve.handler_ms."+m.kind, "ms", median(p.handler))
		sum := median(p.net) + median(p.handler) + median(p.hop)
		if gap := ratio(sum-median(p.rt), median(p.rt)); math.Abs(gap) > math.Abs(worst) {
			worst = gap
		}
	}
	rep.layer("trace.accounting_gap_pct", "%", 100*worst)

	var batches, items, timer, admitted, rejected int64
	var s0, s1 []sched.Snapshot
	for i := range to {
		b0, b1 := from[i].Batch["sort"], to[i].Batch["sort"]
		batches += b1.Batches - b0.Batches
		items += b1.Items - b0.Items
		timer += b1.TimerFlushes - b0.TimerFlushes
		admitted += to[i].Admission.Admitted - from[i].Admission.Admitted
		rejected += to[i].Admission.Rejected - from[i].Admission.Rejected
		s0 = append(s0, from[i].Sched)
		s1 = append(s1, to[i].Sched)
	}
	rep.layer("parcserve.batch_mean_size", "count", ratio(float64(items), float64(batches)))
	rep.layer("parcserve.batch_timer_flush_ratio", "ratio", ratio(float64(timer), float64(batches)))
	rep.layer("parcserve.rejected_ratio", "ratio", ratio(float64(rejected), float64(admitted+rejected)))
	schedLayer(rep, sumSched(s0), sumSched(s1), jobs)
}

// genProbes times the public workload generators with each served job's
// parameters: the part of a handler's time spent synthesising inputs.
func genProbes(rep *report, specs [][]jobSpec) {
	gen := map[string]func(seed uint64, n int){
		"sort": func(seed uint64, n int) { workload.IntArray(seed, n, n*4) },
		"textsearch": func(seed uint64, n int) {
			fs := workload.DefaultFolderSpec(seed)
			fs.NumFiles = n
			workload.GenFolder(fs)
		},
		"thumbs": func(seed uint64, n int) { workload.GenImageSet(seed, n, 64, 256) },
		"matmul": func(seed uint64, n int) {
			kernels.RandomMatrix(seed, n, n)
			kernels.RandomMatrix(seed+1, n, n)
		},
		"pdfsearch": func(seed uint64, n int) {
			ds := workload.DefaultDocSpec(seed)
			ds.NumDocs = n
			workload.GenDocs(ds)
		},
	}
	for k, m := range serveMix {
		var ds []float64
		for round := 0; round < 4; round++ {
			for _, sp := range specs[k] {
				t0 := time.Now()
				gen[m.kind](sp.seed, sp.n)
				ds = append(ds, durUs(time.Since(t0)))
			}
		}
		rep.layer("workload.gen_us."+m.kind, "us", median(ds))
	}
}
