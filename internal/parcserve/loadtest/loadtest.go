// Package loadtest is a seeded open-loop load generator for the
// parcserve front end. Open-loop means arrivals do not wait for
// responses: interarrival gaps are drawn from an exponential
// distribution (Poisson arrivals) and each request fires on its own
// goroutine the moment its arrival time comes due. This is the
// generator that actually exposes saturation behaviour — a closed-loop
// client self-throttles when the server slows down and so can never
// observe queue growth, which is precisely the failure mode the
// admission controller exists to bound.
//
// Everything the generator decides — arrival times, job kinds, job
// parameters — is a pure function of the seed, so a load profile is
// exactly repeatable. Response latencies of course are not.
package loadtest

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"parc751/internal/metrics"
	"parc751/internal/xrand"
)

// JobSpec is one entry in the workload mix: a job kind, the JSON body
// template to send, and a selection weight.
type JobSpec struct {
	Kind   string
	Body   map[string]any
	Weight int
}

// Config describes one load run.
type Config struct {
	// BaseURL is the server root, e.g. an httptest.Server.URL.
	BaseURL string
	// Client issues the requests (default http.DefaultClient).
	Client *http.Client
	// Seed keys the arrival process and mix selection.
	Seed uint64
	// Requests is the total number of requests to issue.
	Requests int
	// Rate is the mean offered load in requests/second. The run's
	// nominal duration is Requests/Rate.
	Rate float64
	// Mix is the weighted job mix; at least one entry with positive
	// weight is required.
	Mix []JobSpec
}

// Result aggregates one run. Dropped counts requests that produced no
// HTTP response at all (transport error) — the invariant the smoke test
// checks is Dropped == 0: under load the server may reject, but it must
// always answer.
type Result struct {
	Sent    int
	Dropped int
	// Codes tallies responses by HTTP status.
	Codes map[int]int
	// RetryAfterSeen counts 429 responses that carried a Retry-After
	// header (all of them should). RetryAfterValid counts the subset
	// whose value parses as a whole number of seconds >= 1 — the shape a
	// backoff-respecting client actually acts on.
	RetryAfterSeen  int
	RetryAfterValid int
	// Latency is the end-to-end response time distribution over every
	// answered request, rejections included.
	Latency metrics.LatencySnapshot
	// Elapsed is the wall-clock span from first fire to last response.
	Elapsed time.Duration
}

// OKRate returns the fraction of sent requests answered 200.
func (r *Result) OKRate() float64 {
	if r.Sent == 0 {
		return 0
	}
	return float64(r.Codes[http.StatusOK]) / float64(r.Sent)
}

// Run executes the load profile and blocks until every response (or
// transport failure) has been collected.
func Run(cfg Config) *Result {
	client := cfg.Client
	if client == nil {
		client = http.DefaultClient
	}
	if cfg.Rate <= 0 {
		cfg.Rate = 100
	}
	rng := xrand.New(cfg.Seed)
	total := totalWeight(cfg.Mix)

	// Pre-plan the whole run so the schedule is seed-deterministic and
	// independent of response timing: arrival offsets and per-request
	// mix picks are fixed before the first request fires.
	type planned struct {
		at   time.Duration
		spec JobSpec
		body []byte
	}
	plan := make([]planned, cfg.Requests)
	var at time.Duration
	for i := range plan {
		at += time.Duration(rng.ExpFloat64() / cfg.Rate * float64(time.Second))
		spec := pickSpec(rng, cfg.Mix, total)
		body, _ := json.Marshal(spec.Body)
		plan[i] = planned{at: at, spec: spec, body: body}
	}

	res := &Result{Codes: map[int]int{}}
	var mu sync.Mutex
	var hist metrics.LatencyHistogram
	var wg sync.WaitGroup
	start := time.Now()
	for _, p := range plan {
		if d := p.at - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(p planned) {
			defer wg.Done()
			t0 := time.Now()
			req, err := http.NewRequest(http.MethodPost,
				cfg.BaseURL+"/jobs/"+p.spec.Kind, bytes.NewReader(p.body))
			if err == nil {
				req.Header.Set("Content-Type", "application/json")
				var resp *http.Response
				resp, err = client.Do(req)
				if err == nil {
					_, _ = io.Copy(io.Discard, resp.Body)
					_ = resp.Body.Close()
					lat := time.Since(t0)
					mu.Lock()
					res.Codes[resp.StatusCode]++
					if resp.StatusCode == http.StatusTooManyRequests {
						if ra := resp.Header.Get("Retry-After"); ra != "" {
							res.RetryAfterSeen++
							if secs, perr := strconv.Atoi(ra); perr == nil && secs >= 1 {
								res.RetryAfterValid++
							}
						}
					}
					mu.Unlock()
					hist.Observe(lat)
					return
				}
			}
			mu.Lock()
			res.Dropped++
			mu.Unlock()
		}(p)
	}
	res.Sent = len(plan)
	wg.Wait()
	res.Elapsed = time.Since(start)
	res.Latency = hist.Snapshot()
	return res
}

func totalWeight(mix []JobSpec) int {
	n := 0
	for _, s := range mix {
		if s.Weight > 0 {
			n += s.Weight
		}
	}
	if n == 0 {
		panic("loadtest: mix has no positive-weight entry")
	}
	return n
}

func pickSpec(rng *xrand.Rand, mix []JobSpec, total int) JobSpec {
	pick := rng.Intn(total)
	for _, s := range mix {
		if s.Weight <= 0 {
			continue
		}
		if pick < s.Weight {
			return s
		}
		pick -= s.Weight
	}
	return mix[len(mix)-1]
}

// Summary renders the run compactly (for experiment findings and CLI
// output): codes ascending, then p50/p99 and the drop count.
func (r *Result) Summary() string {
	codes := make([]int, 0, len(r.Codes))
	for c := range r.Codes {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	var b bytes.Buffer
	for i, c := range codes {
		if i > 0 {
			b.WriteString(" ")
		}
		b.WriteString(strconv.Itoa(c))
		b.WriteString(":")
		b.WriteString(strconv.Itoa(r.Codes[c]))
	}
	b.WriteString(" p50=")
	b.WriteString(r.Latency.Quantile(0.50).Round(time.Millisecond).String())
	b.WriteString(" p99=")
	b.WriteString(r.Latency.Quantile(0.99).Round(time.Millisecond).String())
	b.WriteString(" dropped=")
	b.WriteString(strconv.Itoa(r.Dropped))
	return b.String()
}
