package faultinject

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"parc751/internal/probe"
)

func TestRuleMatches(t *testing.T) {
	oneShot := Rule{Nth: 3}
	for n, want := range map[uint64]bool{0: false, 2: false, 3: true, 4: false, 6: false} {
		if oneShot.matches(n) != want {
			t.Errorf("one-shot matches(%d) = %v, want %v", n, !want, want)
		}
	}
	periodic := Rule{Nth: 2, Every: 5}
	for n, want := range map[uint64]bool{0: false, 2: true, 5: false, 7: true, 12: true, 13: false} {
		if periodic.matches(n) != want {
			t.Errorf("periodic matches(%d) = %v, want %v", n, !want, want)
		}
	}
}

// TestScatterPinnedPerSite pins Scatter's drawn ordinals for one seed at
// every chaos site. The site's numeric value salts the draw, so moving a
// site in the probe vocabulary would silently change every seeded plan
// (and every recorded replay coordinate); this catches it.
func TestScatterPinnedPerSite(t *testing.T) {
	want := map[probe.Site][]uint64{
		probe.SiteSubmit:    {97, 463, 708, 986},
		probe.SiteSteal:     {148, 164, 530, 899},
		probe.SiteRun:       {340, 475, 716, 738},
		probe.SiteBarrier:   {486, 541, 698, 901},
		probe.SiteDispatch:  {550, 767, 778, 943},
		probe.SiteTaskBody:  {52, 105, 504, 896},
		probe.SiteTransport: {229, 740, 802, 935},
	}
	if len(want) != int(probe.NumChaosSites) {
		t.Fatalf("pinned %d sites, vocabulary has %d chaos sites", len(want), probe.NumChaosSites)
	}
	for site, ns := range want {
		var got []uint64
		for _, r := range Scatter(751, site, Delay, 4, 1000, 0) {
			got = append(got, r.Nth)
		}
		if !reflect.DeepEqual(got, ns) {
			t.Errorf("Scatter(751, %s) ordinals = %v, want %v", site, got, ns)
		}
	}
}

func TestScatterDeterministicAndDistinct(t *testing.T) {
	a := Scatter(42, probe.SiteTaskBody, Panic, 5, 100, 0)
	b := Scatter(42, probe.SiteTaskBody, Panic, 5, 100, 0)
	if len(a) != 5 {
		t.Fatalf("got %d rules, want 5", len(a))
	}
	seen := map[uint64]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different rules: %+v vs %+v", a[i], b[i])
		}
		if seen[a[i].Nth] {
			t.Fatalf("duplicate ordinal %d", a[i].Nth)
		}
		seen[a[i].Nth] = true
	}
	c := Scatter(43, probe.SiteTaskBody, Panic, 5, 100, 0)
	same := true
	for i := range a {
		if a[i].Nth != c[i].Nth {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical ordinals")
	}
	if got := Scatter(1, probe.SiteRun, Delay, 10, 4, 0); len(got) != 4 {
		t.Errorf("count clamped to span: got %d rules, want 4", len(got))
	}
}

// TestFireExactlyOncePerOrdinal drives a one-shot rule from many
// goroutines: the ordinal coordinate guarantees exactly one firing no
// matter the interleaving.
func TestFireExactlyOncePerOrdinal(t *testing.T) {
	in := New(Plan{Rules: []Rule{{Site: probe.SiteRun, Kind: Delay, Nth: 7, Count: 1}}})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				in.Fire(probe.SiteRun, -1, 0, 0)
			}
		}()
	}
	wg.Wait()
	if in.Fired() != 1 {
		t.Fatalf("fired %d times, want 1", in.Fired())
	}
	tr := in.Trace()
	if tr[0].Site != probe.SiteRun || tr[0].Ordinal != 7 {
		t.Fatalf("trace = %v, want run@7", tr)
	}
	if in.Seen(probe.SiteRun) != 800 {
		t.Fatalf("seen = %d, want 800", in.Seen(probe.SiteRun))
	}
}

func TestCountCapUnderConcurrency(t *testing.T) {
	// A periodic rule with a cap must fire exactly Count times even when
	// every event matches and many goroutines race.
	in := New(Plan{Rules: []Rule{{Site: probe.SiteSubmit, Kind: Delay, Every: 1, Count: 3}}})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				in.Fire(probe.SiteSubmit, -1, 0, 0)
			}
		}()
	}
	wg.Wait()
	if in.Fired() != 3 {
		t.Fatalf("fired %d times, want 3", in.Fired())
	}
}

func TestReplayProducesEqualTraces(t *testing.T) {
	plan := Plan{Seed: 9, Rules: Scatter(9, probe.SiteTaskBody, Panic, 4, 64, 0)}
	run := func() []Event {
		in := New(plan)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 16; i++ {
					func() {
						defer func() { recover() }()
						in.Fire(probe.SiteTaskBody, -1, 0, 0)
					}()
				}
			}()
		}
		wg.Wait()
		return in.Trace()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("replay diverged:\n  %v\n  %v", a, b)
	}
}

func TestTaskBodyPanicCarriesOrdinal(t *testing.T) {
	in := New(Plan{Rules: []Rule{{Site: probe.SiteTaskBody, Kind: Panic, Nth: 1, Count: 1}}})
	in.Fire(probe.SiteTaskBody, -1, 0, 0) // ordinal 0: no fault
	var got *InjectedPanic
	func() {
		defer func() {
			r := recover()
			p, ok := r.(*InjectedPanic)
			if !ok {
				t.Fatalf("recovered %T, want *InjectedPanic", r)
			}
			got = p
		}()
		in.Fire(probe.SiteTaskBody, -1, 0, 0)
	}()
	if got == nil || got.Ordinal != 1 {
		t.Fatalf("injected panic = %+v, want ordinal 1", got)
	}
}

func TestPanicRuleDegradesToDelayAtPoolSites(t *testing.T) {
	// A Panic rule at a pool site must not panic (it would kill a worker
	// outside any future's capture); it degrades to its delay.
	in := New(Plan{Rules: []Rule{{Site: probe.SiteRun, Kind: Panic, Nth: 0, Count: 1}}})
	in.Fire(probe.SiteRun, -1, 0, 0) // must not panic
	if in.Fired() != 1 {
		t.Fatal("degraded rule did not record a firing")
	}
}

func TestTransportErrorAndHang(t *testing.T) {
	in := New(Plan{Rules: []Rule{
		{Site: probe.SiteTransport, Kind: Error, Nth: 0, Count: 1},
		{Site: probe.SiteTransport, Kind: Hang, Nth: 1, Count: 1},
	}})
	if err := in.Transport(context.Background()); !errors.Is(err, ErrInjected) {
		t.Fatalf("error fault: got %v, want ErrInjected", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := in.Transport(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hang fault: got %v, want deadline exceeded", err)
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Error("hang returned before the context deadline")
	}
	if err := in.Transport(context.Background()); err != nil {
		t.Fatalf("ordinal 2 should be clean, got %v", err)
	}
}

func TestRoundTripperInjectsAndPassesThrough(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer srv.Close()

	in := New(Plan{Rules: []Rule{{Site: probe.SiteTransport, Kind: Error, Nth: 0, Count: 1}}})
	client := &http.Client{Transport: &RoundTripper{Injector: in}}
	if _, err := client.Get(srv.URL); err == nil {
		t.Fatal("first request should carry the injected error")
	}
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatalf("second request failed: %v", err)
	}
	resp.Body.Close()

	// A nil injector must be transparent.
	clean := &http.Client{Transport: &RoundTripper{}}
	resp, err = clean.Get(srv.URL)
	if err != nil {
		t.Fatalf("nil-injector round trip failed: %v", err)
	}
	resp.Body.Close()
}

func TestDelaySleeps(t *testing.T) {
	in := New(Plan{Rules: []Rule{{Site: probe.SiteDispatch, Kind: Delay, Nth: 0, Count: 1, Dur: 10 * time.Millisecond}}})
	start := time.Now()
	in.Fire(probe.SiteDispatch, -1, 0, 0)
	if d := time.Since(start); d < 8*time.Millisecond {
		t.Fatalf("delay slept %v, want >= 10ms", d)
	}
}
