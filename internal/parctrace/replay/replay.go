// Package replay is the catalogue of seeded chaos scenarios and the
// schedule-replay debugger built on it. A scenario is a workload kind
// over one of the paper's projects or the layer that serves them: its
// default fault plan (DefaultPlan), its default size (Normalize), and
// its invariants, checked inside its run function so every recording
// asserts them.
//
// A dump carries the workload spec and the faultinject plan that
// produced it, which together are a complete schedule coordinate: the
// fault schedule is pinned to per-site event ordinals (deterministic by
// construction, DESIGN.md §10) and the task DAG is pinned by the seeded
// workload.
// Record executes a spec under its default plan with a fresh recorder;
// Replay re-executes a dump under the dump's own plan, so editing the
// catalogue never stops an older dump from replaying; Verify asserts the
// two recordings' canonical projections are bit-identical and surfaced
// the same fault ordinals — the reproduce-a-production-failure contract
// of DESIGN.md §15, which experiment A12 checks for every kind.
package replay

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"time"

	"parc751/internal/faultinject"
	"parc751/internal/parccluster"
	"parc751/internal/parcserve"
	"parc751/internal/parctrace"
	"parc751/internal/probe"
	"parc751/internal/ptask"
	"parc751/internal/pyjama"
	"parc751/internal/sortalgo"
	"parc751/internal/thumbs"
	"parc751/internal/webfetch"
	"parc751/internal/workload"
)

// quiesceDeadline bounds every recorded run: a workload that cannot
// drain within it has deadlocked or lost a future, which is itself the
// bug to surface.
const quiesceDeadline = 30 * time.Second

// Workload kinds Record understands.
const (
	KindQuicksort = "quicksort"
	KindBarrier   = "barrier"
	KindThumbs    = "thumbs"
	KindWebfetch  = "webfetch"
	KindWebRetry  = "webretry"
	KindWebHang   = "webhang"
	KindPartition = "partition"
)

// scenario is one catalogue entry: a default size, a quick size for
// smoke runs, the seeded rules its chaos plan injects, and the run
// function that executes the workload under a plan and checks its
// invariants.
type scenario struct {
	kind     string
	n, quick int
	rules    func(spec parctrace.WorkloadSpec) []faultinject.Rule
	run      func(spec parctrace.WorkloadSpec, plan faultinject.Plan, in *faultinject.Injector) error
}

// The default sizes reach the rule branches the quick sizes miss:
// quicksort's 1024-element leaves (N ≥ 20000) and thumbs' five panics
// (N ≥ 96).
var catalogue = []scenario{
	{KindQuicksort, 40000, 3000, quicksortRules, runQuicksort},
	{KindBarrier, 8, 2, barrierRules, runBarrier},
	{KindThumbs, 96, 10, thumbsRules, runThumbs},
	{KindWebfetch, 12, 6, breakerRules, runBreaker},
	{KindWebRetry, 12, 6, transportErrors(webFaults), runRetry},
	{KindWebHang, 12, 6, hangRules, runHang},
	{KindPartition, 40, 20, transportErrors(4), runPartition},
}

func lookup(kind string) (scenario, bool) {
	for _, sc := range catalogue {
		if sc.kind == kind {
			return sc, true
		}
	}
	return scenario{}, false
}

// Kinds lists the supported workload kinds in catalogue order.
func Kinds() []string {
	kinds := make([]string, len(catalogue))
	for i, sc := range catalogue {
		kinds[i] = sc.kind
	}
	return kinds
}

// QuickN is a kind's quick-scale size, small enough for smoke runs under
// -race yet large enough that every seeded plan fires (0 for an unknown
// kind).
func QuickN(kind string) int {
	sc, _ := lookup(kind)
	return sc.quick
}

// DefaultPlan derives the chaos plan Record runs a spec under. Without
// Chaos the plan is empty (named and seeded, so the coordinate stays
// complete).
func DefaultPlan(spec parctrace.WorkloadSpec) faultinject.Plan {
	plan := faultinject.Plan{
		Name: fmt.Sprintf("replay-%s-%d", spec.Kind, spec.Seed),
		Seed: spec.Seed,
	}
	if sc, ok := lookup(spec.Kind); ok && spec.Chaos {
		plan.Rules = sc.rules(spec)
	}
	return plan
}

// Normalize fills a spec's defaults and returns it, so Record and a
// later Replay of its dump agree on the exact coordinate.
func Normalize(spec parctrace.WorkloadSpec) (parctrace.WorkloadSpec, error) {
	sc, ok := lookup(spec.Kind)
	if !ok {
		return spec, fmt.Errorf("replay: unknown workload kind %q (have %s)",
			spec.Kind, strings.Join(Kinds(), ", "))
	}
	if spec.N <= 0 {
		spec.N = sc.n
	}
	if spec.Seed == 0 {
		spec.Seed = 751
	}
	if spec.Workers < 2 {
		spec.Workers = 2
	}
	return spec, nil
}

// Record executes spec under its DefaultPlan with a fresh recorder and
// returns the dump, stamped with the spec, the plan, and the
// fault-ordinal trace. laneCap sizes the per-worker rings (0 = default).
// A violated scenario invariant is an error.
func Record(spec parctrace.WorkloadSpec, laneCap int) (*parctrace.Dump, error) {
	spec, err := Normalize(spec)
	if err != nil {
		return nil, err
	}
	return record(spec, DefaultPlan(spec), laneCap)
}

// Replay re-executes a dump's recorded coordinate — its workload spec
// under its own stored plan — and returns the new recording. Use Verify
// to compare the two.
func Replay(d *parctrace.Dump, laneCap int) (*parctrace.Dump, error) {
	if d.Workload == nil || d.Plan == nil {
		return nil, fmt.Errorf("replay: dump %q carries no workload spec or plan — not replayable", d.Name)
	}
	spec, err := Normalize(*d.Workload)
	if err != nil {
		return nil, err
	}
	return record(spec, *d.Plan, laneCap)
}

func record(spec parctrace.WorkloadSpec, plan faultinject.Plan, laneCap int) (*parctrace.Dump, error) {
	sc, _ := lookup(spec.Kind)
	in := faultinject.New(plan)
	rec := parctrace.NewRecorder(parctrace.Config{Workers: spec.Workers, LaneCap: laneCap})
	pr := probe.Fan(in, rec)
	if !probe.CompareAndSwap(nil, pr) {
		return nil, fmt.Errorf("replay: another probe is attached; a recording needs the seam to itself")
	}
	defer probe.CompareAndSwap(pr, nil)

	err := sc.run(spec, plan, in)
	probe.CompareAndSwap(pr, nil) // detach before snapshotting: the window is final
	if err != nil {
		return nil, err
	}
	var faults []string
	for _, ev := range in.Trace() {
		faults = append(faults, ev.String())
	}
	return rec.Snapshot(parctrace.Meta{
		Name:     plan.Name,
		Seed:     spec.Seed,
		Workload: &spec,
		Plan:     &plan,
		Faults:   faults,
	}), nil
}

// Verify asserts the replay contract between two recordings of the same
// coordinate: byte-identical canonical projections (schema, coordinate,
// deterministic event counts, sorted fault list). A nil error means the
// replay reproduced the recording.
func Verify(recorded, replayed *parctrace.Dump) error {
	a, b := recorded.Canonical(), replayed.Canonical()
	if string(a) != string(b) {
		return fmt.Errorf("replay: canonical traces differ:\n recorded: %s\n replayed: %s", a, b)
	}
	return nil
}

// drain runs f and fails if it has not returned within quiesceDeadline.
func drain(kind string, f func()) error {
	done := make(chan struct{})
	go func() { f(); close(done) }()
	select {
	case <-done:
		return nil
	case <-time.After(quiesceDeadline):
		return fmt.Errorf("replay: %s deadlocked under plan", kind)
	}
}

// quicksortThreshold is runQuicksort's leaf size for an n-element sort.
func quicksortThreshold(n int) int {
	if n >= 20000 {
		return 1024
	}
	return 512
}

// quicksortRules jitters the pool's submit path and stalls one run,
// scattered over the fewest tasks the sort can run: it submits one task
// per leaf range, and a leaf holds at most threshold elements, so at
// least ceil(N/threshold) tasks are submitted and run, and every planned
// rule fires at any N.
func quicksortRules(spec parctrace.WorkloadSpec) []faultinject.Rule {
	threshold := quicksortThreshold(spec.N)
	tasks := max(1, (spec.N+threshold-1)/threshold)
	return append(faultinject.Scatter(spec.Seed, probe.SiteSubmit, faultinject.Delay, 4, tasks, 200*time.Microsecond),
		faultinject.Rule{Site: probe.SiteRun, Kind: faultinject.Stall,
			Nth: spec.Seed % uint64(tasks), Count: 1, Dur: 2 * time.Millisecond})
}

// runQuicksort is the paper's project-2 workload: recursive task-parallel
// quicksort over a seeded array. Its faults are purely temporal, so the
// output must stay sorted and the runtime must drain.
func runQuicksort(spec parctrace.WorkloadSpec, _ faultinject.Plan, _ *faultinject.Injector) error {
	threshold := quicksortThreshold(spec.N)
	rt := ptask.NewRuntime(spec.Workers)
	xs := workload.IntArray(spec.Seed, spec.N, 1<<30)
	if err := drain(spec.Kind, func() { sortalgo.PTask(rt, xs, threshold) }); err != nil {
		return err
	}
	if !sort.IntsAreSorted(xs) {
		return fmt.Errorf("replay: quicksort output not sorted")
	}
	return rt.ShutdownTimeout(quiesceDeadline)
}

// barrierRules delays barrier arrivals across every phase's parties.
func barrierRules(spec parctrace.WorkloadSpec) []faultinject.Rule {
	return faultinject.Scatter(spec.Seed, probe.SiteBarrier, faultinject.Delay, 6,
		spec.N*spec.Workers, 300*time.Microsecond)
}

// runBarrier is a Pyjama phased sweep: N parallel regions, each a
// worksharing loop ending at the team barrier. The sweep reaches every
// scattered arrival ordinal, so every planned delay must fire, and every
// element must be bumped exactly once per phase however the arrivals
// were skewed.
func runBarrier(spec parctrace.WorkloadSpec, plan faultinject.Plan, in *faultinject.Injector) error {
	base := workload.IntArray(spec.Seed+1, 4096, 100)
	acc := append([]int(nil), base...)
	if err := drain(spec.Kind, func() {
		for p := 0; p < spec.N; p++ {
			pyjama.Parallel(spec.Workers, func(tc *pyjama.TC) {
				tc.For(len(acc), pyjama.Static(0), func(i int) { acc[i]++ })
			})
		}
	}); err != nil {
		return err
	}
	for i, v := range acc {
		if v != base[i]+spec.N {
			return fmt.Errorf("replay: barrier sweep element %d is %d, want %d", i, v, base[i]+spec.N)
		}
	}
	if in.Fired() != len(plan.Rules) {
		return fmt.Errorf("replay: barrier fired %d of %d planned delays", in.Fired(), len(plan.Rules))
	}
	return nil
}

// thumbsRules panics k seeded task bodies (k = 3, 1 below 8 images, 5
// from 96).
func thumbsRules(spec parctrace.WorkloadSpec) []faultinject.Rule {
	k := 3
	switch {
	case spec.N < 8:
		k = 1
	case spec.N >= 96:
		k = 5
	}
	return faultinject.Scatter(spec.Seed, probe.SiteTaskBody, faultinject.Panic, k, spec.N, 0)
}

// runThumbs is the thumbnail fan-out (project 3): one multi-task over a
// seeded image set. Every planned panic must fire, exactly the injected
// tasks must fail, each once with its own attributable *InjectedPanic
// read from the sub-task itself, every other thumbnail must render, and
// the aggregate must fail exactly when something was injected.
func runThumbs(spec parctrace.WorkloadSpec, plan faultinject.Plan, in *faultinject.Injector) error {
	rt := ptask.NewRuntime(spec.Workers)
	imgs := workload.GenImageSet(spec.Seed, spec.N, 32, 64)
	m := ptask.RunMulti(rt, spec.N, func(i int) (*workload.Image, error) {
		return thumbs.Scale(imgs[i], 16, 16), nil
	})
	if err := drain(spec.Kind, func() { <-m.Done() }); err != nil {
		return err
	}
	vals, aggErr := m.Results()
	surfaced := map[uint64]int{}
	for i, tk := range m.Tasks() {
		_, err := tk.Result()
		var ip *faultinject.InjectedPanic
		switch {
		case err == nil && vals[i] != nil:
		case errors.As(err, &ip):
			surfaced[ip.Ordinal]++
		default:
			return fmt.Errorf("replay: thumbs image %d: not rendered and no injected panic (%v)", i, err)
		}
	}
	injected := 0
	for _, ev := range in.Trace() {
		if ev.Site == probe.SiteTaskBody && ev.Kind == faultinject.Panic {
			injected++
			if surfaced[ev.Ordinal] != 1 {
				return fmt.Errorf("replay: thumbs panic %v surfaced %d times", ev, surfaced[ev.Ordinal])
			}
		}
	}
	if injected != len(plan.Rules) || len(surfaced) != injected || (aggErr != nil) != (injected > 0) {
		return fmt.Errorf("replay: thumbs surfaced %d panics (aggregate %v) for %d injected of %d planned",
			len(surfaced), aggErr, injected, len(plan.Rules))
	}
	return rt.ShutdownTimeout(quiesceDeadline)
}

// breakerThreshold is the consecutive failures that trip the webfetch
// kind's circuit breaker.
const breakerThreshold = 3

// breakerRules fails every transport attempt.
func breakerRules(parctrace.WorkloadSpec) []faultinject.Rule {
	return []faultinject.Rule{{Site: probe.SiteTransport, Kind: faultinject.Error, Every: 1}}
}

// runBreaker is the circuit-breaker workload: N fetches against an
// unreachable origin through a serialized connection. Only the first
// breakerThreshold requests reach the transport and fail, each with the
// injected error when the plan has its rule; the breaker trips once and
// refuses the rest with ErrCircuitOpen.
func runBreaker(spec parctrace.WorkloadSpec, plan faultinject.Plan, in *faultinject.Injector) error {
	rt := ptask.NewRuntime(spec.Workers)
	f := webfetch.NewFetcher(rt, &http.Client{
		Transport: &faultinject.RoundTripper{Injector: in},
	}, 1)
	b := webfetch.NewBreaker(breakerThreshold, time.Hour)
	f.SetBreaker(b)
	urls := make([]string, spec.N)
	for i := range urls {
		// Port 0 is unroutable: without an injected error the dial fails
		// immediately, so the run needs no origin server either way.
		urls[i] = fmt.Sprintf("http://127.0.0.1:0/p/%d", i)
	}
	refused, injected := 0, 0
	for _, r := range f.FetchAll(urls, nil) {
		switch {
		case r.Err == nil:
			return fmt.Errorf("replay: webfetch %s succeeded against an unreachable origin", r.URL)
		case errors.Is(r.Err, webfetch.ErrCircuitOpen):
			refused++
		case errors.Is(r.Err, faultinject.ErrInjected):
			injected++
		}
	}
	reached := min(spec.N, breakerThreshold)
	want := 0
	if len(plan.Rules) > 0 {
		want = reached
	}
	if refused != spec.N-reached || injected != want || in.Fired() != want ||
		in.Seen(probe.SiteTransport) != uint64(reached) || (b.Trips() == 1) != (spec.N >= breakerThreshold) {
		return fmt.Errorf("replay: webfetch breaker: %d refused, %d injected (%d fired, want %d), %d reached the transport, %d trips",
			refused, injected, in.Fired(), want, in.Seen(probe.SiteTransport), b.Trips())
	}
	return rt.ShutdownTimeout(quiesceDeadline)
}

// webFaults is how many transport errors the webretry plan scatters.
const webFaults = 3

// origin is the loopback server the webretry and webhang kinds fetch from.
func origin(n int) (*httptest.Server, []string) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(make([]byte, 256))
	}))
	urls := make([]string, n)
	for i := range urls {
		urls[i] = fmt.Sprintf("%s/p/%d", srv.URL, i)
	}
	return srv, urls
}

// transportErrors fails k seeded transport attempts among the first N;
// every item makes at least one attempt, so all k fire at any N.
func transportErrors(k int) func(parctrace.WorkloadSpec) []faultinject.Rule {
	return func(spec parctrace.WorkloadSpec) []faultinject.Rule {
		return faultinject.Scatter(spec.Seed, probe.SiteTransport, faultinject.Error, k, spec.N, 0)
	}
}

// runRetry gives the fetcher a retry budget large enough to absorb every
// injected transport error: every planned error must fire, every URL
// must still succeed, and each injected error must have cost a retry.
func runRetry(spec parctrace.WorkloadSpec, plan faultinject.Plan, in *faultinject.Injector) error {
	srv, urls := origin(spec.N)
	defer srv.Close()
	rt := ptask.NewRuntime(spec.Workers)
	f := webfetch.NewFetcher(rt, &http.Client{Transport: &faultinject.RoundTripper{
		Base: srv.Client().Transport, Injector: in}}, 1)
	f.SetTimeout(10 * time.Second)
	// Budget > webFaults: even if one request's retries keep landing on
	// faulted ordinals, it can absorb every injected error.
	f.SetRetryBudget(webfetch.RetryPolicy{MaxAttempts: webFaults + 1, Base: time.Millisecond, Seed: spec.Seed})
	for _, r := range f.FetchAll(urls, nil) {
		if r.Err != nil {
			return fmt.Errorf("replay: webretry %s failed despite the retry budget: %v", r.URL, r.Err)
		}
	}
	if k := len(plan.Rules); in.Fired() != k || f.Retries() < int64(k) {
		return fmt.Errorf("replay: webretry made %d retries for %d injected errors of %d planned",
			f.Retries(), in.Fired(), k)
	}
	return rt.ShutdownTimeout(quiesceDeadline)
}

// hangRules wedges one seeded transport attempt.
func hangRules(spec parctrace.WorkloadSpec) []faultinject.Rule {
	return []faultinject.Rule{{Site: probe.SiteTransport, Kind: faultinject.Hang,
		Nth: spec.Seed % uint64(spec.N), Count: 1}}
}

// runHang checks the per-request timeout cuts every hung request loose:
// every planned hang fires, each fails with a deadline error, every
// other URL succeeds, and the fetch as a whole completes promptly.
func runHang(spec parctrace.WorkloadSpec, plan faultinject.Plan, in *faultinject.Injector) error {
	srv, urls := origin(spec.N)
	defer srv.Close()
	rt := ptask.NewRuntime(spec.Workers)
	f := webfetch.NewFetcher(rt, &http.Client{Transport: &faultinject.RoundTripper{
		Base: srv.Client().Transport, Injector: in}}, 2)
	f.SetTimeout(100 * time.Millisecond)
	start := time.Now()
	failed := 0
	for _, r := range f.FetchAll(urls, nil) {
		if r.Err != nil {
			failed++
			if !errors.Is(r.Err, context.DeadlineExceeded) {
				return fmt.Errorf("replay: webhang %s failed without a deadline: %v", r.URL, r.Err)
			}
		}
	}
	if took := time.Since(start); took >= quiesceDeadline {
		return fmt.Errorf("replay: webhang took %v", took)
	}
	if hung := in.FiredAt(probe.SiteTransport, faultinject.Hang); hung != len(plan.Rules) || failed != hung {
		return fmt.Errorf("replay: webhang: %d deadline errors for %d hung requests of %d planned",
			failed, hung, len(plan.Rules))
	}
	return rt.ShutdownTimeout(quiesceDeadline)
}

// runPartition is the serving layer with its router→node path
// partitioned on the plan's transport ordinals: N sequential idempotent
// spin jobs through a 2-node in-process fleet. Sequential requests, no
// load poller and a RefreshLoad after each request (which resurrects any
// node a fault marked down, off the chaos transport) keep every ordinal
// a function of the plan. Under any plan every request is answered 200
// or 502 (rejected, never lost), the ledger balances, each injected
// error cost exactly one failover, and exactly the completed jobs ran.
func runPartition(spec parctrace.WorkloadSpec, _ faultinject.Plan, in *faultinject.Injector) error {
	fleet := parccluster.NewFleet(parccluster.FleetConfig{
		Nodes:   2,
		Starter: &parccluster.LocalStarter{Config: parcserve.Config{Workers: spec.Workers}},
		Router:  parccluster.RouterConfig{Injector: in},
	})
	defer fleet.Stop()
	if err := fleet.Start(); err != nil {
		return err
	}
	front := httptest.NewServer(fleet.Router())
	defer front.Close()
	for i := 0; i < spec.N; i++ {
		resp, err := http.Post(front.URL+"/jobs/spin", "application/json", strings.NewReader(`{"spin_ms":1}`))
		if err != nil {
			return fmt.Errorf("replay: partition request %d dropped: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusBadGateway {
			return fmt.Errorf("replay: partition request %d answered %d", i, resp.StatusCode)
		}
		fleet.Router().RefreshLoad()
	}
	led := fleet.Router().Ledger()
	injected, ran := in.FiredAt(probe.SiteTransport, faultinject.Error), in.Seen(probe.SiteRun)
	if led.Accepted != int64(spec.N) || led.Completed+led.Rejected != led.Accepted || led.Lost != 0 ||
		led.Failovers != int64(injected) || ran != uint64(led.Completed) {
		return fmt.Errorf("replay: partition ledger %+v for %d requests, %d injected errors, %d jobs run",
			led, spec.N, injected, ran)
	}
	return nil
}
