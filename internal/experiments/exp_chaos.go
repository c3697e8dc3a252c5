package experiments

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"time"

	"parc751/internal/faultinject"
	"parc751/internal/metrics"
	"parc751/internal/probe"
	"parc751/internal/ptask"
	"parc751/internal/pyjama"
	"parc751/internal/sortalgo"
	"parc751/internal/thumbs"
	"parc751/internal/webfetch"
	"parc751/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "A8",
		Title: "Chaos harness: deterministic fault injection across the runtime",
		Paper: "DESIGN.md §10 (A8); failure semantics + faultinject",
		Run:   runA8,
	})
}

// quiesceDeadline bounds every chaos run: a faulted runtime that cannot
// drain within this budget has deadlocked or lost a future, which is
// exactly the regression A8 exists to catch.
const quiesceDeadline = 30 * time.Second

// runA8 replays seeded fault plans over three of the paper's projects and
// checks the failure-semantics invariants: no deadlock, no lost future,
// the pool quiesces within its deadline, every injected fault surfaces as
// exactly one error, and — the determinism contract — the same seed
// produces the same injected schedule (trace) and the same surfaced
// errors on every run.
func runA8(cfg Config) *Result {
	res := &Result{ID: "A8", Title: "Chaos harness: deterministic fault injection"}
	tab := metrics.NewTable("Chaos plans (each executed twice; traces must match)",
		"project", "plan", "faults", "replayed", "invariants")

	seeds := []uint64{cfg.Seed, cfg.Seed + 101, cfg.Seed + 202}
	for pi, seed := range seeds {
		name := fmt.Sprintf("qs-%d", pi+1)
		t1, ok1 := chaosQuicksort(cfg, seed)
		t2, ok2 := chaosQuicksort(cfg, seed)
		replay := t1 == t2
		fired := len(strings.Fields(t1))
		res.ok(fmt.Sprintf("quicksort %s: invariants hold", name), ok1 && ok2)
		res.ok(fmt.Sprintf("quicksort %s: trace replays", name), replay)
		res.ok(fmt.Sprintf("quicksort %s: faults fired", name), fired > 0)
		tab.AddRow("quicksort", name, fired, replay, ok1 && ok2)
	}
	for pi, seed := range seeds {
		name := fmt.Sprintf("thumb-%d", pi+1)
		t1, ok1 := chaosThumbs(cfg, seed)
		t2, ok2 := chaosThumbs(cfg, seed)
		replay := t1 == t2
		fired := len(strings.Fields(t1))
		res.ok(fmt.Sprintf("thumbnails %s: every injected fault is exactly one error", name), ok1 && ok2)
		res.ok(fmt.Sprintf("thumbnails %s: trace replays", name), replay)
		tab.AddRow("thumbnails", name, fired, replay, ok1 && ok2)
	}
	webPlans := []struct {
		name string
		run  func(cfg Config, seed uint64) (string, bool)
	}{
		{"retry", chaosWebRetry},
		{"hang", chaosWebHang},
		{"breaker", chaosWebBreaker},
	}
	for pi, wp := range webPlans {
		seed := seeds[pi]
		t1, ok1 := wp.run(cfg, seed)
		t2, ok2 := wp.run(cfg, seed)
		replay := t1 == t2
		fired := len(strings.Fields(t1))
		res.ok(fmt.Sprintf("webfetch %s: invariants hold", wp.name), ok1 && ok2)
		res.ok(fmt.Sprintf("webfetch %s: trace replays", wp.name), replay)
		res.ok(fmt.Sprintf("webfetch %s: faults fired", wp.name), fired > 0)
		tab.AddRow("webfetch", wp.name, fired, replay, ok1 && ok2)
	}

	passed := 0
	for _, ok := range res.Findings {
		if ok {
			passed++
		}
	}
	res.metric("plans", float64(len(seeds)*2+len(webPlans)))
	res.metric("checks_passed", float64(passed))

	var b strings.Builder
	b.WriteString(header(res, "DESIGN.md §10 (A8)"))
	b.WriteString(tab.String())
	b.WriteString("\nEach plan is derived from a seed; 'replayed' means two independent runs\n" +
		"injected the identical (site, ordinal) fault schedule and surfaced the same\n" +
		"errors. Invariants: results correct, no deadlock, pool quiesces in time.\n")
	res.Output = b.String()
	return res
}

// chaosQuicksort runs project 2 (quicksort) under a seeded delay/stall
// plan covering the pool's submit and run hooks plus Pyjama barrier
// arrivals. Faults here are purely temporal, so the invariant is that the
// outputs stay correct and the runtime drains cleanly.
func chaosQuicksort(cfg Config, seed uint64) (trace string, ok bool) {
	n, threshold, phases := 40000, 1024, 8
	if cfg.Quick {
		n, threshold, phases = 8000, 512, 4
	}
	workers := cfg.Workers
	if workers < 2 {
		workers = 2
	}
	plan := faultinject.Plan{Name: fmt.Sprintf("quicksort-%d", seed), Seed: seed}
	plan.Rules = append(plan.Rules,
		faultinject.Scatter(seed, probe.SiteSubmit, faultinject.Delay, 4, 30, 200*time.Microsecond)...)
	plan.Rules = append(plan.Rules,
		faultinject.Rule{Site: probe.SiteRun, Kind: faultinject.Stall,
			Nth: seed % 16, Count: 1, Dur: 2 * time.Millisecond})
	plan.Rules = append(plan.Rules,
		faultinject.Scatter(seed, probe.SiteBarrier, faultinject.Delay, 6, phases*workers, 300*time.Microsecond)...)
	in := faultinject.New(plan)
	if !probe.CompareAndSwap(nil, in) {
		return "", false // another probe holds the seam: the plan cannot run alone
	}
	defer probe.CompareAndSwap(in, nil)

	ok = true
	rt := ptask.NewRuntime(workers)
	xs := workload.IntArray(seed, n, 1<<30)
	done := make(chan struct{})
	go func() { sortalgo.PTask(rt, xs, threshold); close(done) }()
	select {
	case <-done:
	case <-time.After(quiesceDeadline):
		return "", false // deadlocked under injection
	}
	ok = ok && sort.IntsAreSorted(xs)
	ok = ok && rt.ShutdownTimeout(quiesceDeadline) == nil

	// The Pyjama leg: a barrier-phased sweep under arrival delays (the
	// attached injector reaches the team barrier).
	base := workload.IntArray(seed+1, 4096, 100)
	acc := append([]int(nil), base...)
	for p := 0; p < phases; p++ {
		pyjama.Parallel(workers, func(tc *pyjama.TC) {
			tc.For(len(acc), pyjama.Static(0), func(i int) { acc[i]++ })
		})
	}
	for i, v := range acc {
		if v != base[i]+phases {
			ok = false
			break
		}
	}
	return in.TraceString(), ok
}

// chaosThumbs runs project 3 (thumbnails) with seeded panic-on-Nth-task
// faults under the collect-all policy: exactly the injected tasks must
// fail, each with its own attributable *InjectedPanic, and every other
// thumbnail must render.
func chaosThumbs(cfg Config, seed uint64) (trace string, ok bool) {
	nImgs, kFaults := 96, 5
	if cfg.Quick {
		nImgs, kFaults = 32, 3
	}
	workers := cfg.Workers
	if workers < 2 {
		workers = 2
	}
	plan := faultinject.Plan{Name: fmt.Sprintf("thumbs-%d", seed), Seed: seed,
		Rules: faultinject.Scatter(seed, probe.SiteTaskBody, faultinject.Panic, kFaults, nImgs, 0)}
	in := faultinject.New(plan)
	if !probe.CompareAndSwap(nil, in) {
		return "", false
	}
	defer probe.CompareAndSwap(in, nil)

	rt := ptask.NewRuntime(workers)
	imgs := workload.GenImageSet(seed, nImgs, 32, 64)
	m := ptask.RunMultiPolicy(rt, nImgs, ptask.MultiCollectAll, func(i int) (*workload.Image, error) {
		return thumbs.Scale(imgs[i], 16, 16), nil
	})
	select {
	case <-m.Done():
	case <-time.After(quiesceDeadline):
		return "", false
	}
	vals, aggErr := m.Results()
	ok = rt.ShutdownTimeout(quiesceDeadline) == nil

	// Exactly-once accounting: the set of surfaced panic ordinals must
	// equal the set of injected ordinals, and every non-faulted thumbnail
	// must have rendered.
	surfaced := map[uint64]int{}
	rendered := 0
	for i, tk := range m.Tasks() {
		_, err := tk.Result()
		if err == nil {
			if vals[i] == nil {
				ok = false
			}
			rendered++
			continue
		}
		var ip *faultinject.InjectedPanic
		if errors.As(err, &ip) {
			surfaced[ip.Ordinal]++
		} else {
			ok = false // a fault we did not inject
		}
	}
	if rendered != nImgs-kFaults || len(surfaced) != kFaults {
		ok = false
	}
	for _, c := range surfaced {
		if c != 1 {
			ok = false
		}
	}
	injected := map[uint64]bool{}
	for _, ev := range in.Trace() {
		if ev.Site == probe.SiteTaskBody {
			injected[ev.Ordinal] = true
		}
	}
	if len(injected) != kFaults {
		ok = false
	}
	for o := range surfaced {
		if !injected[o] {
			ok = false
		}
	}
	if aggErr == nil && kFaults > 0 {
		ok = false // collect-all lost the failures
	}
	return in.TraceString(), ok
}

// chaosWebServer is the loopback origin for the webfetch plans.
func chaosWebServer() *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(make([]byte, 256))
	}))
}

// chaosWebURLs builds nURLs distinct paths against srv.
func chaosWebURLs(srv *httptest.Server, n int) []string {
	urls := make([]string, n)
	for i := range urls {
		urls[i] = fmt.Sprintf("%s/p/%d", srv.URL, i)
	}
	return urls
}

// chaosWebRetry injects transport errors on seeded request ordinals and
// gives the fetcher a retry budget large enough to absorb all of them:
// every URL must still succeed, proving injected transport failures are
// contained by the retry layer.
func chaosWebRetry(cfg Config, seed uint64) (trace string, ok bool) {
	const nURLs, kFaults = 12, 3
	srv := chaosWebServer()
	defer srv.Close()
	in := faultinject.New(faultinject.Plan{Name: fmt.Sprintf("web-retry-%d", seed), Seed: seed,
		Rules: faultinject.Scatter(seed, probe.SiteTransport, faultinject.Error, kFaults, nURLs, 0)})

	rt := ptask.NewRuntime(2)
	client := &http.Client{Transport: &faultinject.RoundTripper{
		Base: srv.Client().Transport, Injector: in}}
	f := webfetch.NewFetcher(rt, client, 1)
	f.SetTimeout(10 * time.Second)
	// Budget > kFaults: even if one request's retries keep landing on
	// faulted ordinals, it can absorb every injected error.
	f.SetRetryBudget(ptask.RetryPolicy{MaxAttempts: kFaults + 1, Base: time.Millisecond, Seed: seed})
	res := f.FetchAll(chaosWebURLs(srv, nURLs), nil)
	ok = rt.ShutdownTimeout(quiesceDeadline) == nil
	for _, r := range res {
		if r.Err != nil {
			ok = false
		}
	}
	ok = ok && in.Fired() == kFaults && f.Retries() >= int64(kFaults)
	return in.TraceString(), ok
}

// chaosWebHang wedges one seeded request on a transport hang; the
// per-request timeout must cut it loose so exactly one URL fails (with a
// deadline error) and the fetch as a whole still completes promptly.
func chaosWebHang(cfg Config, seed uint64) (trace string, ok bool) {
	const nURLs = 12
	srv := chaosWebServer()
	defer srv.Close()
	in := faultinject.New(faultinject.Plan{Name: fmt.Sprintf("web-hang-%d", seed), Seed: seed,
		Rules: []faultinject.Rule{{Site: probe.SiteTransport, Kind: faultinject.Hang,
			Nth: seed % nURLs, Count: 1}}})

	rt := ptask.NewRuntime(2)
	client := &http.Client{Transport: &faultinject.RoundTripper{
		Base: srv.Client().Transport, Injector: in}}
	f := webfetch.NewFetcher(rt, client, 2)
	f.SetTimeout(100 * time.Millisecond)
	start := time.Now()
	res := f.FetchAll(chaosWebURLs(srv, nURLs), nil)
	took := time.Since(start)
	ok = rt.ShutdownTimeout(quiesceDeadline) == nil && took < quiesceDeadline
	failed := 0
	for _, r := range res {
		if r.Err != nil {
			failed++
			if !errors.Is(r.Err, context.DeadlineExceeded) {
				ok = false // the hang must be cut loose by the deadline
			}
		}
	}
	ok = ok && failed == 1 && in.Fired() == 1
	return in.TraceString(), ok
}

// chaosWebBreaker fails every transport attempt and checks the circuit
// breaker takes the origin out of rotation after its threshold: only
// `threshold` requests reach the transport, the rest are refused
// immediately with ErrCircuitOpen.
func chaosWebBreaker(cfg Config, seed uint64) (trace string, ok bool) {
	const nURLs, threshold = 12, 3
	in := faultinject.New(faultinject.Plan{Name: fmt.Sprintf("web-breaker-%d", seed), Seed: seed,
		Rules: []faultinject.Rule{{Site: probe.SiteTransport, Kind: faultinject.Error, Every: 1}}})

	rt := ptask.NewRuntime(2)
	f := webfetch.NewFetcher(rt, &http.Client{Transport: &faultinject.RoundTripper{Injector: in}}, 1)
	b := webfetch.NewBreaker(threshold, time.Hour)
	f.SetBreaker(b)
	urls := make([]string, nURLs)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://127.0.0.1:0/p/%d", i)
	}
	res := f.FetchAll(urls, nil)
	ok = rt.ShutdownTimeout(quiesceDeadline) == nil
	refused, injected := 0, 0
	for _, r := range res {
		switch {
		case errors.Is(r.Err, webfetch.ErrCircuitOpen):
			refused++
		case errors.Is(r.Err, faultinject.ErrInjected):
			injected++
		default:
			ok = false // nothing should have succeeded
		}
	}
	ok = ok && injected == threshold && refused == nURLs-threshold &&
		in.Seen(probe.SiteTransport) == threshold && b.Trips() == 1
	return in.TraceString(), ok
}
