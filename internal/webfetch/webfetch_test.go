package webfetch

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"parc751/internal/ptask"
	"parc751/internal/workload"
)

func equalPages(n, size int) []workload.Page {
	pages := make([]workload.Page, n)
	for i := range pages {
		pages[i] = workload.Page{URL: fmt.Sprintf("u%d", i), Bytes: size}
	}
	return pages
}

// ---- Simulation ----

func TestSimulateSingleConnSerial(t *testing.T) {
	cfg := SimConfig{RTT: 0.1, Bandwidth: 1000, ConnOverhead: 0}
	pages := equalPages(4, 100)
	res := Simulate(pages, 1, cfg)
	// Each page: 0.1 latency + 100/1000 transfer = 0.2; serial => 0.8.
	if math.Abs(res.Makespan-0.8) > 1e-9 {
		t.Fatalf("makespan = %g, want 0.8", res.Makespan)
	}
	if res.TotalBytes != 400 {
		t.Fatalf("bytes = %d", res.TotalBytes)
	}
}

func TestSimulateLatencyOverlap(t *testing.T) {
	// With as many connections as pages and tiny bodies, latency fully
	// overlaps: makespan ~ RTT + transfer, regardless of page count.
	cfg := SimConfig{RTT: 0.1, Bandwidth: 1e9, ConnOverhead: 0}
	res := Simulate(equalPages(50, 10), 50, cfg)
	if res.Makespan > 0.11 {
		t.Fatalf("makespan = %g, latency not overlapped", res.Makespan)
	}
}

func TestSimulateBandwidthSharing(t *testing.T) {
	// Two pages, two connections, no latency: both share the pipe, so
	// the makespan equals the serial transfer time of all bytes.
	cfg := SimConfig{RTT: 0, Bandwidth: 1000, ConnOverhead: 0}
	res := Simulate(equalPages(2, 500), 2, cfg)
	if math.Abs(res.Makespan-1.0) > 1e-9 {
		t.Fatalf("makespan = %g, want 1.0", res.Makespan)
	}
}

func TestSimulateNeverBeatsLowerBound(t *testing.T) {
	cfg := DefaultSimConfig()
	pages := workload.GenPages(3, 200, 1000, 100000)
	lb := LowerBound(pages, cfg)
	for _, k := range []int{1, 2, 4, 8, 16, 64, 256} {
		res := Simulate(pages, k, cfg)
		if res.Makespan < lb-1e-9 {
			t.Fatalf("k=%d makespan %g beats lower bound %g", k, res.Makespan, lb)
		}
	}
}

func TestSweepHasKneeShape(t *testing.T) {
	// The project's headline result: makespan falls steeply as
	// connections are added, then flattens at the bandwidth floor.
	cfg := DefaultSimConfig()
	pages := workload.GenPages(5, 300, 2000, 50000)
	conns := []int{1, 2, 4, 8, 16, 32, 64}
	results := Sweep(pages, conns, cfg)
	if results[1].Makespan >= results[0].Makespan {
		t.Fatalf("2 conns (%g) not faster than 1 (%g)", results[1].Makespan, results[0].Makespan)
	}
	if results[2].Makespan >= results[1].Makespan {
		t.Fatalf("4 conns (%g) not faster than 2 (%g)", results[2].Makespan, results[1].Makespan)
	}
	// The tail is flat: going 32 -> 64 saves (almost) nothing.
	gainHead := results[0].Makespan - results[2].Makespan
	gainTail := results[5].Makespan - results[6].Makespan
	if gainTail > gainHead/10 {
		t.Fatalf("no knee: head gain %g, tail gain %g", gainHead, gainTail)
	}
}

func TestBestConnectionsInInterior(t *testing.T) {
	cfg := DefaultSimConfig()
	pages := workload.GenPages(7, 200, 2000, 50000)
	best := BestConnections(pages, []int{1, 2, 4, 8, 16, 32, 64, 128}, cfg)
	if best <= 1 {
		t.Fatalf("best connections = %d; latency hiding should pay off", best)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	cfg := DefaultSimConfig()
	pages := workload.GenPages(9, 150, 1000, 80000)
	a := Simulate(pages, 12, cfg)
	b := Simulate(pages, 12, cfg)
	if a != b {
		t.Fatalf("simulation not deterministic: %+v vs %+v", a, b)
	}
}

func TestSimulateEdgeCases(t *testing.T) {
	cfg := DefaultSimConfig()
	if res := Simulate(nil, 4, cfg); res.Makespan != 0 || res.TotalBytes != 0 {
		t.Fatalf("empty simulation = %+v", res)
	}
	res := Simulate(equalPages(3, 100), 0, cfg) // conns clamped to 1
	if res.Makespan <= 0 {
		t.Fatal("clamped conns produced no time")
	}
}

func TestThroughputConsistent(t *testing.T) {
	cfg := DefaultSimConfig()
	pages := equalPages(20, 50000)
	res := Simulate(pages, 8, cfg)
	if math.Abs(res.Throughput-float64(res.TotalBytes)/res.Makespan) > 1e-6 {
		t.Fatalf("throughput inconsistent: %+v", res)
	}
	if res.Throughput > cfg.Bandwidth+1e-6 {
		t.Fatalf("throughput %g exceeds bandwidth %g", res.Throughput, cfg.Bandwidth)
	}
}

func TestJitterDeterministicAndBounded(t *testing.T) {
	cfg := DefaultSimConfig()
	cfg.Jitter = 0.05
	cfg.JitterSeed = 9
	pages := workload.GenPages(11, 100, 1000, 50000)
	a := Simulate(pages, 8, cfg)
	b := Simulate(pages, 8, cfg)
	if a != b {
		t.Fatal("jittered simulation not deterministic")
	}
	// Jitter only adds latency: the jittered run cannot be faster than
	// the jitter-free one, and cannot exceed it by more than the total
	// jitter budget.
	noJitter := cfg
	noJitter.Jitter = 0
	base := Simulate(pages, 8, noJitter)
	if a.Makespan < base.Makespan {
		t.Fatalf("jitter made the run faster: %g < %g", a.Makespan, base.Makespan)
	}
	if a.Makespan > base.Makespan+float64(len(pages))*cfg.Jitter {
		t.Fatalf("jitter exceeded its budget: %g vs %g", a.Makespan, base.Makespan)
	}
}

func TestJitterKneeShapeSurvives(t *testing.T) {
	cfg := DefaultSimConfig()
	cfg.Jitter = 0.04
	cfg.JitterSeed = 13
	pages := workload.GenPages(15, 200, 2000, 50000)
	rs := Sweep(pages, []int{1, 4, 16, 64}, cfg)
	if rs[1].Makespan >= rs[0].Makespan || rs[2].Makespan >= rs[1].Makespan {
		t.Fatalf("knee head gone under jitter: %v", rs)
	}
}

// ---- Real loopback fetcher ----

func newTestServer(t *testing.T, latency time.Duration) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(latency)
		// Body size comes from the path: /page/<bytes>.
		parts := strings.Split(r.URL.Path, "/")
		n, _ := strconv.Atoi(parts[len(parts)-1])
		if n <= 0 {
			n = 16
		}
		w.Write(make([]byte, n))
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestFetchAllGetsEveryPage(t *testing.T) {
	srv := newTestServer(t, 0)
	rt := ptask.NewRuntime(4)
	defer rt.Shutdown()
	f := NewFetcher(rt, srv.Client(), 8)
	urls := make([]string, 30)
	for i := range urls {
		urls[i] = fmt.Sprintf("%s/page/%d", srv.URL, 100+i)
	}
	results := f.FetchAll(urls, nil)
	if len(results) != 30 {
		t.Fatalf("results = %d", len(results))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("url %d error: %v", i, r.Err)
		}
		if r.Bytes != 100+i {
			t.Fatalf("url %d bytes = %d, want %d (order broken?)", i, r.Bytes, 100+i)
		}
	}
}

func TestFetchStreamsResults(t *testing.T) {
	srv := newTestServer(t, 0)
	rt := ptask.NewRuntime(2)
	defer rt.Shutdown()
	f := NewFetcher(rt, srv.Client(), 4)
	urls := []string{srv.URL + "/page/64", srv.URL + "/page/128"}
	got := make(chan FetchResult, 2)
	f.FetchAll(urls, func(r FetchResult) { got <- r })
	for i := 0; i < 2; i++ {
		select {
		case r := <-got:
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("streamed result never arrived")
		}
	}
}

func TestFetchReportsErrors(t *testing.T) {
	rt := ptask.NewRuntime(2)
	defer rt.Shutdown()
	f := NewFetcher(rt, &http.Client{Timeout: 200 * time.Millisecond}, 2)
	results := f.FetchAll([]string{"http://127.0.0.1:1/nothing-listens-here"}, nil)
	if results[0].Err == nil {
		t.Fatal("unreachable server produced no error")
	}
}

func TestFetchReportsHTTPStatus(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.NotFound(w, r)
	}))
	defer srv.Close()
	rt := ptask.NewRuntime(1)
	defer rt.Shutdown()
	f := NewFetcher(rt, srv.Client(), 1)
	results := f.FetchAll([]string{srv.URL + "/missing"}, nil)
	if results[0].Err == nil {
		t.Fatal("404 produced no error")
	}
}

func TestConcurrencyBeatsSerialWithLatency(t *testing.T) {
	// The real-network analogue of the project result: with injected
	// latency, 8 connections finish much sooner than 1.
	const latency = 20 * time.Millisecond
	srv := newTestServer(t, latency)
	rt := ptask.NewRuntime(8)
	defer rt.Shutdown()
	urls := make([]string, 16)
	for i := range urls {
		urls[i] = srv.URL + "/page/64"
	}
	serialF := NewFetcher(rt, srv.Client(), 1)
	_, serial := serialF.TimedFetchAll(urls)
	parF := NewFetcher(rt, srv.Client(), 8)
	_, par := parF.TimedFetchAll(urls)
	if par >= serial {
		t.Fatalf("8 conns (%v) not faster than 1 (%v)", par, serial)
	}
}

func TestFetcherClamps(t *testing.T) {
	rt := ptask.NewRuntime(1)
	defer rt.Shutdown()
	if f := NewFetcher(rt, nil, 0); cap(f.sem) != 1 {
		t.Fatalf("connection budget = %d", cap(f.sem))
	}
}

func BenchmarkSimulateSweep(b *testing.B) {
	cfg := DefaultSimConfig()
	pages := workload.GenPages(1, 200, 1000, 100000)
	conns := []int{1, 2, 4, 8, 16, 32, 64}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Sweep(pages, conns, cfg)
	}
}
