// Package replay turns a parctrace dump back into an execution: a dump
// carries the workload spec and the faultinject plan that produced it,
// which together are a complete schedule coordinate — the fault schedule
// is pinned to per-site event ordinals (deterministic by construction,
// A8) and the task DAG is pinned by the seeded workload. Record executes
// a coordinate under a fresh recorder; Replay re-executes a dump's
// coordinate; Verify asserts the two recordings' canonical projections
// are bit-identical and surfaced the same fault ordinals — the
// reproduce-a-production-failure contract of DESIGN.md §15 and A12.
package replay

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"parc751/internal/faultinject"
	"parc751/internal/parctrace"
	"parc751/internal/probe"
	"parc751/internal/ptask"
	"parc751/internal/sortalgo"
	"parc751/internal/thumbs"
	"parc751/internal/webfetch"
	"parc751/internal/workload"
)

// quiesceDeadline bounds every recorded run: a workload that cannot
// drain within it has deadlocked, which is itself the bug to surface.
const quiesceDeadline = 30 * time.Second

// Workload kinds Record understands.
const (
	KindQuicksort = "quicksort"
	KindThumbs    = "thumbs"
	KindWebfetch  = "webfetch"
)

// Kinds lists the supported workload kinds.
func Kinds() []string { return []string{KindQuicksort, KindThumbs, KindWebfetch} }

// DefaultPlan derives the chaos plan for a workload spec: the same
// seeded rule shapes the A8 gauntlet uses, so a recorded chaos run is a
// realistic production failure. Without Chaos the plan is empty (named
// and seeded, so the coordinate stays complete).
func DefaultPlan(spec parctrace.WorkloadSpec) faultinject.Plan {
	plan := faultinject.Plan{
		Name: fmt.Sprintf("replay-%s-%d", spec.Kind, spec.Seed),
		Seed: spec.Seed,
	}
	if !spec.Chaos {
		return plan
	}
	switch spec.Kind {
	case KindQuicksort:
		plan.Rules = append(plan.Rules,
			faultinject.Scatter(spec.Seed, probe.SiteSubmit, faultinject.Delay, 4, 30, 200*time.Microsecond)...)
		plan.Rules = append(plan.Rules, faultinject.Rule{
			Site: probe.SiteRun, Kind: faultinject.Stall,
			Nth: spec.Seed % 16, Count: 1, Dur: 2 * time.Millisecond,
		})
	case KindThumbs:
		k := 3
		if spec.N < 8 {
			k = 1
		}
		plan.Rules = faultinject.Scatter(spec.Seed, probe.SiteTaskBody, faultinject.Panic, k, spec.N, 0)
	case KindWebfetch:
		plan.Rules = []faultinject.Rule{{
			Site: probe.SiteTransport, Kind: faultinject.Error, Every: 1,
		}}
	}
	return plan
}

// Normalize fills a spec's defaults in place and returns it, so Record
// and a later Replay of its dump agree on the exact coordinate.
func Normalize(spec parctrace.WorkloadSpec) (parctrace.WorkloadSpec, error) {
	switch spec.Kind {
	case KindQuicksort:
		if spec.N <= 0 {
			spec.N = 6000
		}
	case KindThumbs:
		if spec.N <= 0 {
			spec.N = 32
		}
	case KindWebfetch:
		if spec.N <= 0 {
			spec.N = 12
		}
	default:
		return spec, fmt.Errorf("replay: unknown workload kind %q (have %s)",
			spec.Kind, strings.Join(Kinds(), ", "))
	}
	if spec.Seed == 0 {
		spec.Seed = 751
	}
	if spec.Workers < 2 {
		spec.Workers = 2
	}
	return spec, nil
}

// Record executes spec under a fresh recorder and returns the dump,
// stamped with the spec, the plan, and the fault-ordinal trace. laneCap
// sizes the per-worker rings (0 = default).
func Record(spec parctrace.WorkloadSpec, laneCap int) (*parctrace.Dump, error) {
	spec, err := Normalize(spec)
	if err != nil {
		return nil, err
	}
	plan := DefaultPlan(spec)
	in := faultinject.New(plan)
	rec := parctrace.NewRecorder(parctrace.Config{Workers: spec.Workers, LaneCap: laneCap})
	pr := probe.Fan(in, rec)
	if !probe.CompareAndSwap(nil, pr) {
		return nil, fmt.Errorf("replay: another probe is attached; a recording needs the seam to itself")
	}
	defer probe.CompareAndSwap(pr, nil)

	switch spec.Kind {
	case KindQuicksort:
		err = runQuicksort(spec)
	case KindThumbs:
		err = runThumbs(spec, in)
	case KindWebfetch:
		err = runWebfetch(spec, in)
	}
	probe.CompareAndSwap(pr, nil) // detach before snapshotting: the window is final
	if err != nil {
		return nil, err
	}
	d := rec.Snapshot(parctrace.Meta{
		Name:     plan.Name,
		Seed:     spec.Seed,
		Workload: &spec,
		Plan:     parctrace.SpecFromPlan(plan),
		Faults:   strings.Fields(in.TraceString()),
	})
	return d, nil
}

// Replay re-executes a dump's recorded coordinate and returns the new
// recording. Use Verify to compare the two.
func Replay(d *parctrace.Dump, laneCap int) (*parctrace.Dump, error) {
	if d.Workload == nil {
		return nil, fmt.Errorf("replay: dump %q carries no workload spec — not replayable", d.Name)
	}
	return Record(*d.Workload, laneCap)
}

// Verify asserts the replay contract between two recordings of the same
// coordinate: byte-identical canonical projections (schema, coordinate,
// deterministic event counts, fault trace) and identical fault-ordinal
// sets. A nil error means the replay reproduced the recording.
func Verify(recorded, replayed *parctrace.Dump) error {
	a, b := recorded.Canonical(), replayed.Canonical()
	if string(a) != string(b) {
		return fmt.Errorf("replay: canonical traces differ:\n recorded: %s\n replayed: %s", a, b)
	}
	fa, fb := recorded.FaultSet(), replayed.FaultSet()
	if len(fa) != len(fb) {
		return fmt.Errorf("replay: fault sets differ: %d recorded vs %d replayed", len(fa), len(fb))
	}
	for f := range fa {
		if !fb[f] {
			return fmt.Errorf("replay: fault %s recorded but not replayed", f)
		}
	}
	return nil
}

// runQuicksort is the paper's project-2 workload: recursive task-parallel
// quicksort over a seeded array, optionally under delay/stall chaos.
func runQuicksort(spec parctrace.WorkloadSpec) error {
	threshold := 512
	if spec.N >= 20000 {
		threshold = 1024
	}
	rt := ptask.NewRuntime(spec.Workers)
	xs := workload.IntArray(spec.Seed, spec.N, 1<<30)
	done := make(chan struct{})
	go func() { sortalgo.PTask(rt, xs, threshold); close(done) }()
	select {
	case <-done:
	case <-time.After(quiesceDeadline):
		return fmt.Errorf("replay: quicksort deadlocked under plan")
	}
	if !sort.IntsAreSorted(xs) {
		return fmt.Errorf("replay: quicksort output not sorted")
	}
	return rt.ShutdownTimeout(quiesceDeadline)
}

// runThumbs is the thumbnail fan-out (project 3): one multi-task over a
// seeded image set under the collect-all policy, optionally with seeded
// task-body panics. Injected panics are expected failures, not errors —
// they are exactly what the recording exists to reproduce.
func runThumbs(spec parctrace.WorkloadSpec, in *faultinject.Injector) error {
	rt := ptask.NewRuntime(spec.Workers)
	imgs := workload.GenImageSet(spec.Seed, spec.N, 32, 64)
	m := ptask.RunMultiPolicy(rt, spec.N, ptask.MultiCollectAll, func(i int) (*workload.Image, error) {
		return thumbs.Scale(imgs[i], 16, 16), nil
	})
	select {
	case <-m.Done():
	case <-time.After(quiesceDeadline):
		return fmt.Errorf("replay: thumbs deadlocked under plan")
	}
	vals, _ := m.Results()
	rendered := 0
	for _, v := range vals {
		if v != nil {
			rendered++
		}
	}
	faulted := in.FiredAt(probe.SiteTaskBody, faultinject.Panic)
	if rendered != spec.N-faulted {
		return fmt.Errorf("replay: thumbs rendered %d of %d with %d injected panics",
			rendered, spec.N, faulted)
	}
	return rt.ShutdownTimeout(quiesceDeadline)
}

// runWebfetch is the circuit-breaker workload: N fetches against an
// unreachable origin through a serialized connection, with the chaos
// plan failing every transport attempt, so the breaker trips after its
// threshold and refuses the rest — a deterministic failure cascade.
func runWebfetch(spec parctrace.WorkloadSpec, in *faultinject.Injector) error {
	const threshold = 3
	rt := ptask.NewRuntime(spec.Workers)
	f := webfetch.NewFetcher(rt, &http.Client{
		Transport: &faultinject.RoundTripper{Injector: in},
	}, 1)
	f.SetBreaker(webfetch.NewBreaker(threshold, time.Hour))
	urls := make([]string, spec.N)
	for i := range urls {
		// Port 0 is unroutable: without an injected error the dial fails
		// immediately, so the run needs no origin server either way.
		urls[i] = fmt.Sprintf("http://127.0.0.1:0/p/%d", i)
	}
	res := f.FetchAll(urls, nil)
	for _, r := range res {
		if r.Err == nil {
			return fmt.Errorf("replay: webfetch %s succeeded against an unreachable origin", r.URL)
		}
	}
	return rt.ShutdownTimeout(quiesceDeadline)
}
