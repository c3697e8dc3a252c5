package probe_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"parc751/internal/eventloop"
	"parc751/internal/probe"
	"parc751/internal/ptask"
	"parc751/internal/pyjama"
)

// counter is a probe that counts every event per site.
type counter struct{ n [probe.NumSites]atomic.Uint64 }

func (c *counter) Fire(s probe.Site, _ int, _, _ uint64) { c.n[s].Add(1) }

// namer is a counter that also names DAG nodes.
type namer struct {
	counter
	ids atomic.Uint64
}

func (n *namer) NewTaskID() uint64 { return n.ids.Add(1) }

// TestCompareAndSwapOwnership pins the attach discipline: attach only to
// an empty seam, detach only the probe that is attached.
func TestCompareAndSwapOwnership(t *testing.T) {
	a, b := &counter{}, &counter{}
	if probe.Load() != nil {
		t.Fatal("seam not empty at test start")
	}
	if !probe.CompareAndSwap(nil, a) {
		t.Fatal("attach to an empty seam refused")
	}
	if probe.CompareAndSwap(nil, b) {
		t.Fatal("second attach displaced the first")
	}
	if probe.CompareAndSwap(b, nil) {
		t.Fatal("detach of a probe that is not attached succeeded")
	}
	if probe.Load() != a {
		t.Fatal("attached probe changed")
	}
	if !probe.CompareAndSwap(a, nil) || probe.Load() != nil {
		t.Fatal("owner could not detach")
	}
}

// TestFanDeliversAndNames: a fan-out delivers each event to every member
// and names nodes through the first member that can.
func TestFanDeliversAndNames(t *testing.T) {
	plain, named := &counter{}, &namer{}
	f := probe.Fan(plain, named)
	f.Fire(probe.SiteSubmit, -1, 0, 0)
	if plain.n[probe.SiteSubmit].Load() != 1 || named.n[probe.SiteSubmit].Load() != 1 {
		t.Fatal("fan-out did not reach every member")
	}
	if id := probe.NewTaskID(f); id != 1 {
		t.Fatalf("fan-out node id = %d, want 1 from the naming member", id)
	}
	if id := probe.NewTaskID(plain); id != 0 {
		t.Fatalf("a non-naming probe named a node: %d", id)
	}
}

// TestProbeConformance attaches a counting probe across a fixed workload
// — a ptask fan-out, one Pyjama region with barriers, and event-loop
// posts — and checks every runtime reports each site the number of
// times the workload implies.
func TestProbeConformance(t *testing.T) {
	const fanout, parties, generations, posts = 32, 3, 4, 10
	c := &counter{}
	if !probe.CompareAndSwap(nil, c) {
		t.Fatal("a probe is already attached")
	}
	defer probe.CompareAndSwap(c, nil)

	rt := ptask.NewRuntime(2)
	ptask.WaitAll(rt, ptask.RunMulti(rt, fanout, func(i int) (int, error) { return i, nil }))
	rt.Shutdown() // drained: every run has completed

	pyjama.Parallel(parties, func(tc *pyjama.TC) {
		for g := 0; g < generations; g++ {
			tc.Barrier()
		}
	})

	l := eventloop.New()
	var wg sync.WaitGroup
	wg.Add(posts)
	for i := 0; i < posts; i++ {
		if err := l.InvokeLater(wg.Done); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	l.Close()

	got := func(s probe.Site) uint64 { return c.n[s].Load() }
	if s, r, d := got(probe.SiteSubmit), got(probe.SiteRun), got(probe.SiteComplete); s != fanout || r != s || d != s {
		t.Errorf("submit/run/complete = %d/%d/%d, want %d each", s, r, d, fanout)
	}
	if b := got(probe.SiteTaskBody); b != fanout {
		t.Errorf("taskbody = %d, want %d", b, fanout)
	}
	if rs, re := got(probe.SiteRegionStart), got(probe.SiteRegionEnd); rs != 1 || re != 1 {
		t.Errorf("region_start/region_end = %d/%d, want 1/1", rs, re)
	}
	if b := got(probe.SiteBarrier); b != parties*generations {
		t.Errorf("barrier arrivals = %d, want parties×generations = %d", b, parties*generations)
	}
	if d := got(probe.SiteDispatch); d != posts {
		t.Errorf("dispatch = %d, want %d", d, posts)
	}
}
