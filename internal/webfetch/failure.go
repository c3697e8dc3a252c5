// Failure handling for the real downloader: per-request timeouts, retry
// budgets with deterministic capped jittered backoff (RetryPolicy), and a
// trip-after-K circuit breaker with half-open probing. Together with the
// faultinject.RoundTripper these make the webfetch project the
// transport-layer target of the chaos scenarios (experiment A12).
package webfetch

import (
	"context"
	"errors"
	"math"
	"sync"
	"time"

	"parc751/internal/ptask"
	"parc751/internal/xrand"
)

// DefaultTimeout bounds each request (including retriable attempts
// individually) when the caller does not pick a budget. Before this
// default existed a single hung connection could wedge a fetch forever.
const DefaultTimeout = 30 * time.Second

// RetryPolicy is a fetcher's retry budget: a failed request is re-issued
// with capped, jittered exponential backoff. Attempt k (0-based) sleeps a
// jittered share of min(Base<<k, Max), drawn deterministically from Seed
// — same seed, same backoff schedule, so chaos runs replay.
type RetryPolicy struct {
	MaxAttempts int           // total attempts including the first; < 2 disables retry
	Base        time.Duration // first backoff step
	Max         time.Duration // backoff cap (0 = uncapped)
	Seed        uint64        // keys the deterministic jitter stream
}

// Backoff returns the sleep before attempt+1 (0-based): a draw in
// (step/2, step] of the attempt's step, so a positive step never
// jitters down to no sleep at all.
func (p RetryPolicy) Backoff(attempt int) time.Duration {
	d := p.step(attempt)
	u := xrand.New(p.Seed ^ uint64(attempt)*0x9E3779B97F4A7C15).Float64()
	return d - time.Duration(float64(d/2)*u)
}

// step is the un-jittered backoff before attempt+1: Base doubled per
// attempt, saturating instead of wrapping once the shift would overflow,
// then capped at Max. A zero Base steps straight to Max.
func (p RetryPolicy) step(attempt int) time.Duration {
	d := p.Base
	switch {
	case d <= 0:
		return p.Max
	case attempt >= 63 || d > math.MaxInt64>>uint(attempt):
		d = math.MaxInt64
	default:
		d <<= uint(attempt)
	}
	if p.Max > 0 && d > p.Max {
		d = p.Max
	}
	return d
}

// ErrCircuitOpen is returned (wrapped) for requests refused because the
// circuit breaker is open: the origin has failed enough consecutive times
// that hammering it further is pointless.
var ErrCircuitOpen = errors.New("webfetch: circuit open")

// BreakerState is the circuit breaker's observable state.
type BreakerState int32

const (
	// BreakerClosed passes requests through (the healthy state).
	BreakerClosed BreakerState = iota
	// BreakerOpen refuses requests until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen lets exactly one probe through; its outcome decides
	// between closing and re-opening.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "?"
}

// Breaker is a consecutive-failure circuit breaker: Threshold failures in
// a row trip it open, Allow refuses requests for Cooldown, then a single
// probe is admitted (half-open). The probe's success closes the circuit;
// its failure re-opens it for another cooldown. Success at any point
// resets the failure count.
type Breaker struct {
	mu          sync.Mutex
	threshold   int
	cooldown    time.Duration
	state       BreakerState
	consecutive int
	openedAt    time.Time
	probing     bool
	trips       int64

	// now is the clock, replaceable in tests so cooldown transitions are
	// deterministic rather than sleep-based.
	now func() time.Time
}

// NewBreaker creates a breaker tripping after threshold consecutive
// failures (minimum 1) and probing again after cooldown.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold < 1 {
		threshold = 1
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// Allow reports whether a request may proceed. It returns ErrCircuitOpen
// while the breaker is open (or while a half-open probe is already in
// flight); callers must pair every nil return with a later Report.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return nil
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return ErrCircuitOpen
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return nil
	default: // half-open
		if b.probing {
			return ErrCircuitOpen
		}
		b.probing = true
		return nil
	}
}

// Report records the outcome of a request admitted by Allow.
func (b *Breaker) Report(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.probing = false
		if err == nil {
			b.state = BreakerClosed
			b.consecutive = 0
		} else {
			b.state = BreakerOpen
			b.openedAt = b.now()
			b.trips++
		}
		return
	}
	if err == nil {
		b.consecutive = 0
		return
	}
	b.consecutive++
	if b.state == BreakerClosed && b.consecutive >= b.threshold {
		b.state = BreakerOpen
		b.openedAt = b.now()
		b.trips++
	}
}

// State returns the current state.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Trips returns how many times the breaker has opened.
func (b *Breaker) Trips() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

// SetTimeout replaces the per-request timeout (DefaultTimeout initially;
// <= 0 disables the bound). Each retry attempt gets the full budget.
func (f *Fetcher) SetTimeout(d time.Duration) { f.timeout = d }

// SetRetryBudget re-issues failed requests per the policy (deterministic
// capped jittered backoff, see RetryPolicy). Timeouts and context
// cancellations are not retried; a zero-value policy disables retry.
func (f *Fetcher) SetRetryBudget(p RetryPolicy) {
	if p.MaxAttempts < 2 {
		f.retry = nil
		return
	}
	f.retry = &p
}

// SetBreaker routes every request through the circuit breaker (nil
// detaches it). While the breaker is open requests fail immediately with
// an error wrapping ErrCircuitOpen instead of touching the network.
func (f *Fetcher) SetBreaker(b *Breaker) { f.breaker = b }

// Retries returns how many retry attempts the fetcher has issued (beyond
// each request's first attempt).
func (f *Fetcher) Retries() int64 { return f.retries.Load() }

// FetchAllCtx is FetchAll bounded by ctx: cancelling it aborts in-flight
// requests (their results carry the context error) and prevents queued
// ones from starting (theirs carry an error wrapping ptask.ErrCancelled).
// Results always has len(urls) entries in input order.
func (f *Fetcher) FetchAllCtx(ctx context.Context, urls []string, onDone func(FetchResult)) []FetchResult {
	if ctx == nil {
		ctx = context.Background()
	}
	multi := ptask.RunMulti(f.rt, len(urls), func(i int) (FetchResult, error) {
		f.sem <- struct{}{}
		defer func() { <-f.sem }()
		return f.fetchOne(ctx, urls[i]), nil
	})
	stop := context.AfterFunc(ctx, func() { multi.Cancel() })
	defer stop()
	if onDone != nil {
		multi.NotifyEach(func(_ int, r FetchResult, err error) { onDone(r) })
	}
	out, _ := multi.Results()
	// A sub-task cancelled before it started produced no FetchResult;
	// synthesise one so the slice stays positional.
	for i, tk := range multi.Tasks() {
		if tk.Cancelled() {
			_, err := tk.Result()
			out[i] = FetchResult{URL: urls[i], Err: err}
		}
	}
	return out
}
