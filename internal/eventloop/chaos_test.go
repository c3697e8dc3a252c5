package eventloop

import (
	"sync/atomic"
	"testing"
	"time"

	"parc751/internal/faultinject"
	"parc751/internal/probe"
)

func TestDispatchHookCountsAndDelays(t *testing.T) {
	in := faultinject.New(faultinject.Plan{Rules: []faultinject.Rule{
		{Site: probe.SiteDispatch, Kind: faultinject.Delay, Nth: 3, Count: 1,
			Dur: 30 * time.Millisecond},
	}})
	l := New()
	defer l.Close()
	if !probe.CompareAndSwap(nil, in) {
		t.Fatal("a probe is already attached")
	}
	defer probe.CompareAndSwap(in, nil)

	var ran atomic.Int32
	for i := 0; i < 10; i++ {
		if err := l.InvokeLater(func() { ran.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	l.InvokeAndWait(func() {})
	if ran.Load() != 10 {
		t.Fatalf("ran %d events, want 10 (faults must not drop events)", ran.Load())
	}
	if in.Seen(probe.SiteDispatch) != 11 {
		t.Errorf("dispatch events seen = %d, want 11", in.Seen(probe.SiteDispatch))
	}
	if in.Fired() != 1 {
		t.Errorf("fired = %d, want 1 (%v)", in.Fired(), in.Trace())
	}

	// Detached again, dispatch proceeds untouched.
	probe.CompareAndSwap(in, nil)
	if err := l.InvokeAndWait(func() { ran.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if in.Seen(probe.SiteDispatch) != 11 {
		t.Error("detached injector still observed dispatches")
	}
}
