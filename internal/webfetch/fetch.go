package webfetch

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"parc751/internal/ptask"
)

// FetchResult is the outcome of downloading one URL.
type FetchResult struct {
	URL   string
	Bytes int
	Err   error
}

// Fetcher downloads page sets concurrently with Parallel Task, bounding
// in-flight requests with a connection budget — the real (non-simulated)
// implementation of the project, used against a loopback server in tests
// and examples.
type Fetcher struct {
	rt     *ptask.Runtime
	client *http.Client
	sem    chan struct{}

	// Failure handling (failure.go): per-request timeout, optional retry
	// budget with deterministic backoff, optional circuit breaker.
	timeout time.Duration
	retry   *RetryPolicy
	breaker *Breaker

	retries atomic.Int64
}

// NewFetcher creates a fetcher with the given concurrent-connection
// budget (minimum 1). A nil client uses http.DefaultClient.
func NewFetcher(rt *ptask.Runtime, client *http.Client, conns int) *Fetcher {
	if conns < 1 {
		conns = 1
	}
	if client == nil {
		client = http.DefaultClient
	}
	return &Fetcher{rt: rt, client: client,
		timeout: DefaultTimeout, sem: make(chan struct{}, conns)}
}

// FetchAll downloads every URL, at most `conns` concurrently, and returns
// results in input order. onDone, if non-nil, streams results as they
// complete (event-loop delivered when the runtime has one). FetchAllCtx
// (failure.go) is the cancellable variant.
func (f *Fetcher) FetchAll(urls []string, onDone func(FetchResult)) []FetchResult {
	return f.FetchAllCtx(context.Background(), urls, onDone)
}

// fetchOne downloads url once (plus any retry budget), bounded by the
// per-request timeout and gated by the circuit breaker when one is set.
// Each retry attempt gets a fresh timeout; cancellations and deadline
// expiries are terminal (retrying them only burns the budget).
func (f *Fetcher) fetchOne(ctx context.Context, url string) FetchResult {
	var res FetchResult
	attempt := 0
	for {
		res = f.fetchAttempt(ctx, url)
		if res.Err == nil || f.retry == nil || attempt >= f.retry.MaxAttempts-1 ||
			errors.Is(res.Err, context.Canceled) || errors.Is(res.Err, context.DeadlineExceeded) ||
			errors.Is(res.Err, ErrCircuitOpen) {
			break
		}
		timer := time.NewTimer(f.retry.Backoff(attempt))
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return FetchResult{URL: url, Err: ctx.Err()}
		}
		timer.Stop()
		f.retries.Add(1)
		attempt++
	}
	return res
}

// fetchAttempt is one network round trip.
func (f *Fetcher) fetchAttempt(ctx context.Context, url string) FetchResult {
	if f.breaker != nil {
		if err := f.breaker.Allow(); err != nil {
			return FetchResult{URL: url, Err: fmt.Errorf("webfetch: %s refused: %w", url, err)}
		}
	}
	rctx := ctx
	if f.timeout > 0 {
		var cancel context.CancelFunc
		rctx, cancel = context.WithTimeout(ctx, f.timeout)
		defer cancel()
	}
	res := func() FetchResult {
		req, err := http.NewRequestWithContext(rctx, http.MethodGet, url, nil)
		if err != nil {
			return FetchResult{URL: url, Err: err}
		}
		resp, err := f.client.Do(req)
		if err != nil {
			return FetchResult{URL: url, Err: err}
		}
		defer resp.Body.Close()
		n, err := io.Copy(io.Discard, resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("webfetch: %s returned %s", url, resp.Status)
		}
		return FetchResult{URL: url, Bytes: int(n), Err: err}
	}()
	if f.breaker != nil {
		f.breaker.Report(res.Err)
	}
	return res
}

// TimedFetchAll runs FetchAll and reports the wall-clock duration, the
// measurement the connection-sweep example prints.
func (f *Fetcher) TimedFetchAll(urls []string) ([]FetchResult, time.Duration) {
	start := time.Now()
	res := f.FetchAll(urls, nil)
	return res, time.Since(start)
}
