package webfetch

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"parc751/internal/faultinject"
	"parc751/internal/probe"
	"parc751/internal/ptask"
)

func TestPerRequestTimeout(t *testing.T) {
	srv := newTestServer(t, 300*time.Millisecond)
	rt := ptask.NewRuntime(2)
	defer rt.Shutdown()
	f := NewFetcher(rt, srv.Client(), 2)
	f.SetTimeout(30 * time.Millisecond)
	res := f.FetchAll([]string{srv.URL + "/page/64"}, nil)
	if res[0].Err == nil {
		t.Fatal("slow server beat a 30ms timeout")
	}
	if !errors.Is(res[0].Err, context.DeadlineExceeded) {
		t.Fatalf("timeout error = %v, want a DeadlineExceeded chain", res[0].Err)
	}
}

func TestDefaultTimeoutInstalled(t *testing.T) {
	rt := ptask.NewRuntime(1)
	defer rt.Shutdown()
	if f := NewFetcher(rt, nil, 1); f.timeout != DefaultTimeout {
		t.Fatalf("default timeout = %v, want %v", f.timeout, DefaultTimeout)
	}
}

func TestFetchAllCtxCancelAbortsAndSkips(t *testing.T) {
	srv := newTestServer(t, 100*time.Millisecond)
	rt := ptask.NewRuntime(2)
	defer rt.Shutdown()
	f := NewFetcher(rt, srv.Client(), 1) // 1 connection: the rest queue
	urls := make([]string, 8)
	for i := range urls {
		urls[i] = srv.URL + "/page/64"
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond) // first request is in flight
		cancel()
	}()
	start := time.Now()
	res := f.FetchAllCtx(ctx, urls, nil)
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("cancelled FetchAllCtx still took %v", took)
	}
	if len(res) != len(urls) {
		t.Fatalf("results = %d, want %d (positional even when cancelled)", len(res), len(urls))
	}
	failed := 0
	for i, r := range res {
		if r.Err != nil {
			failed++
			if r.URL != urls[i] {
				t.Errorf("result %d lost its URL: %q", i, r.URL)
			}
		}
	}
	if failed == 0 {
		t.Fatal("cancellation produced no failed results")
	}
}

func TestRetryBudgetRecoversInjectedErrors(t *testing.T) {
	srv := newTestServer(t, 0)
	rt := ptask.NewRuntime(2)
	defer rt.Shutdown()

	// Every URL's first attempt fails (injected transport error); the
	// retry budget absorbs it so the fetch as a whole succeeds.
	in := faultinject.New(faultinject.Plan{Rules: []faultinject.Rule{
		{Site: probe.SiteTransport, Kind: faultinject.Error, Nth: 0, Every: 2, Count: 4},
	}})
	client := &http.Client{Transport: &faultinject.RoundTripper{
		Base: srv.Client().Transport, Injector: in,
	}}
	f := NewFetcher(rt, client, 1)
	f.SetRetryBudget(RetryPolicy{MaxAttempts: 3, Base: time.Millisecond, Seed: 7})

	urls := make([]string, 4)
	for i := range urls {
		urls[i] = fmt.Sprintf("%s/page/%d", srv.URL, 64+i)
	}
	res := f.FetchAll(urls, nil)
	for i, r := range res {
		if r.Err != nil {
			t.Errorf("url %d failed despite retry budget: %v", i, r.Err)
		}
	}
	if got := f.Retries(); got == 0 {
		t.Error("no retries recorded, injector should have forced some")
	}
	if in.Fired() == 0 {
		t.Error("injector never fired")
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	rt := ptask.NewRuntime(1)
	defer rt.Shutdown()
	// Every attempt fails: all URLs error out after MaxAttempts tries.
	in := faultinject.New(faultinject.Plan{Rules: []faultinject.Rule{
		{Site: probe.SiteTransport, Kind: faultinject.Error, Every: 1},
	}})
	f := NewFetcher(rt, &http.Client{Transport: &faultinject.RoundTripper{Injector: in}}, 1)
	f.SetRetryBudget(RetryPolicy{MaxAttempts: 3, Base: time.Millisecond, Seed: 1})
	res := f.FetchAll([]string{"http://127.0.0.1:0/x"}, nil)
	if !errors.Is(res[0].Err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want injected error after budget exhausted", res[0].Err)
	}
	if got := f.Retries(); got != 2 {
		t.Errorf("retries = %d, want 2 (3 attempts total)", got)
	}
}

// TestRetryBackoffSaturates: once Base<<attempt would overflow, the step
// stays at the cap or the largest Duration instead of wrapping, so it
// never decreases and no attempt's Backoff is zero or negative.
func TestRetryBackoffSaturates(t *testing.T) {
	for _, base := range []time.Duration{time.Nanosecond, time.Millisecond, time.Second} {
		for _, max := range []time.Duration{0, 10 * time.Millisecond} {
			p := RetryPolicy{MaxAttempts: 2, Base: base, Max: max, Seed: 1}
			var prev time.Duration
			for k := 0; k <= 100; k++ {
				step := p.step(k)
				if step < prev {
					t.Fatalf("Base %v Max %v: step(%d) = %v < step(%d) = %v", base, max, k, step, k-1, prev)
				}
				if b := p.Backoff(k); b <= 0 {
					t.Fatalf("Base %v Max %v: Backoff(%d) = %v, want > 0", base, max, k, b)
				}
				prev = step
			}
		}
	}
}

func TestTimeoutBoundsInjectedHang(t *testing.T) {
	rt := ptask.NewRuntime(1)
	defer rt.Shutdown()
	in := faultinject.New(faultinject.Plan{Rules: []faultinject.Rule{
		{Site: probe.SiteTransport, Kind: faultinject.Hang, Nth: 0, Count: 1},
	}})
	f := NewFetcher(rt, &http.Client{Transport: &faultinject.RoundTripper{Injector: in}}, 1)
	f.SetTimeout(30 * time.Millisecond)
	start := time.Now()
	res := f.FetchAll([]string{"http://127.0.0.1:0/x"}, nil)
	if res[0].Err == nil {
		t.Fatal("hung transport produced no error")
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("hang escaped the timeout: %v", took)
	}
}

func TestBreakerTripsAfterConsecutiveFailures(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(3, time.Minute)
	b.now = func() time.Time { return now }

	fail := errors.New("boom")
	for i := 0; i < 2; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("closed breaker refused request %d", i)
		}
		b.Report(fail)
	}
	if b.State() != BreakerClosed {
		t.Fatal("breaker tripped before threshold")
	}
	b.Allow()
	b.Report(fail) // third consecutive failure
	if b.State() != BreakerOpen {
		t.Fatal("breaker did not trip at threshold")
	}
	if err := b.Allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open breaker allowed a request (%v)", err)
	}
	if b.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", b.Trips())
	}

	// Cooldown elapses: exactly one probe goes through.
	now = now.Add(2 * time.Minute)
	if err := b.Allow(); err != nil {
		t.Fatal("half-open breaker refused the probe")
	}
	if err := b.Allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	// Probe fails: back to open for another cooldown.
	b.Report(fail)
	if b.State() != BreakerOpen {
		t.Fatal("failed probe did not re-open the breaker")
	}
	if b.Trips() != 2 {
		t.Fatalf("trips = %d, want 2", b.Trips())
	}

	// Next cooldown: the probe succeeds and the circuit closes.
	now = now.Add(2 * time.Minute)
	if err := b.Allow(); err != nil {
		t.Fatal("second probe refused")
	}
	b.Report(nil)
	if b.State() != BreakerClosed {
		t.Fatal("successful probe did not close the breaker")
	}
	if err := b.Allow(); err != nil {
		t.Fatal("closed breaker refused a request after recovery")
	}
	b.Report(nil)
}

func TestBreakerSuccessResetsCount(t *testing.T) {
	b := NewBreaker(3, time.Minute)
	fail := errors.New("boom")
	for i := 0; i < 10; i++ {
		b.Allow()
		b.Report(fail)
		b.Allow()
		b.Report(nil) // success between failures: never 3 in a row
	}
	if b.State() != BreakerClosed {
		t.Fatal("interleaved successes still tripped the breaker")
	}
}

func TestFetcherWithBreakerShortCircuits(t *testing.T) {
	rt := ptask.NewRuntime(1)
	defer rt.Shutdown()
	// Transport always fails; with threshold 2, requests 3..6 must be
	// refused by the breaker without touching the transport.
	in := faultinject.New(faultinject.Plan{Rules: []faultinject.Rule{
		{Site: probe.SiteTransport, Kind: faultinject.Error, Every: 1},
	}})
	f := NewFetcher(rt, &http.Client{Transport: &faultinject.RoundTripper{Injector: in}}, 1)
	f.SetBreaker(NewBreaker(2, time.Hour))
	urls := make([]string, 6)
	for i := range urls {
		urls[i] = "http://127.0.0.1:0/x"
	}
	res := f.FetchAll(urls, nil)
	refused := 0
	for _, r := range res {
		if errors.Is(r.Err, ErrCircuitOpen) {
			refused++
		} else if r.Err == nil {
			t.Error("always-failing transport produced a success")
		}
	}
	if refused != 4 {
		t.Errorf("refused = %d, want 4 (breaker should eat requests 3..6)", refused)
	}
	if got := in.Seen(probe.SiteTransport); got != 2 {
		t.Errorf("transport saw %d requests, want 2 (rest short-circuited)", got)
	}
}

func TestBreakerStateStrings(t *testing.T) {
	var checked atomic.Int32
	for s, want := range map[BreakerState]string{
		BreakerClosed: "closed", BreakerOpen: "open", BreakerHalfOpen: "half-open",
	} {
		if s.String() != want {
			t.Errorf("state %d = %q, want %q", s, s.String(), want)
		}
		checked.Add(1)
	}
	if checked.Load() != 3 {
		t.Fatal("missing state")
	}
}
