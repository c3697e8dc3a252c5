package pyjama

import (
	"testing"
	"time"

	"parc751/internal/faultinject"
	"parc751/internal/probe"
)

// TestRegionBarrierInjection attaches an injector to the probe seam and
// runs a barrier-heavy region: arrival delays must skew the schedule
// without breaking worksharing results.
func TestRegionBarrierInjection(t *testing.T) {
	in := faultinject.New(faultinject.Plan{Rules: []faultinject.Rule{
		{Site: probe.SiteBarrier, Kind: faultinject.Delay, Nth: 1, Every: 7,
			Dur: 500 * time.Microsecond},
	}})
	if !probe.CompareAndSwap(nil, in) {
		t.Fatal("a probe is already attached")
	}
	defer probe.CompareAndSwap(in, nil)

	const n = 4
	sum := 0
	part := NewThreadPrivate[int](n)
	Parallel(n, func(tc *TC) {
		tc.For(100, Static(0), func(i int) { *part.Get(tc.ThreadNum()) += i })
		tc.Barrier()
		tc.Single(func() {
			for _, v := range part.Values() {
				sum += v
			}
		})
	})
	if sum != 4950 {
		t.Fatalf("sum = %d, want 4950 (injection corrupted worksharing)", sum)
	}
	if in.Seen(probe.SiteBarrier) == 0 {
		t.Error("region barrier never reached the injector")
	}
	if in.Fired() == 0 {
		t.Error("no arrival delays fired")
	}
}

// TestRegionInjectorDetaches checks that regions started after the
// injector detaches run clean.
func TestRegionInjectorDetaches(t *testing.T) {
	in := faultinject.New(faultinject.Plan{Rules: []faultinject.Rule{
		{Site: probe.SiteBarrier, Kind: faultinject.Delay, Every: 1, Dur: time.Microsecond},
	}})
	if !probe.CompareAndSwap(nil, in) || !probe.CompareAndSwap(in, nil) {
		t.Fatal("attach/detach round trip failed")
	}
	Parallel(2, func(tc *TC) { tc.Barrier() })
	if in.Seen(probe.SiteBarrier) != 0 {
		t.Error("detached injector observed barrier arrivals")
	}
}
