package experiments

import (
	"fmt"
	"net/http/httptest"
	"time"

	"parc751/internal/metrics"
	"parc751/internal/parcserve"
	"parc751/internal/parcserve/loadtest"
)

// runA9 measures the serving layer at three offered-load levels against
// a deliberately tiny server (2 execution slots), so the admission
// disciplines are visible at experiment scale: underload must succeed
// completely, overload must be rejected with 429 rather than queued
// unboundedly, and every level must answer every request. Spin jobs
// give a known service time, which makes the capacity arithmetic exact:
// 2 slots × (1000/20ms) = 100 jobs/s.
func runA9(cfg Config, res *Result) {
	requests := 200
	if cfg.Quick {
		requests = 60
	}
	const (
		slots     = 2
		spinMs    = 20
		capacity  = slots * 1000 / spinMs // jobs/s the slots can drain
		underRate = capacity / 4
		atRate    = capacity
		overRate  = capacity * 4
	)
	levels := []struct {
		name string
		rate float64
	}{
		{"under (0.25x)", underRate},
		{"at capacity", atRate},
		{"over (4x)", overRate},
	}

	tab := metrics.NewTable(
		fmt.Sprintf("Open-loop spin load, %d requests/level, capacity %d jobs/s", requests, capacity),
		"offered load", "200", "429", "other", "p50", "p99", "dropped")

	allAnswered := true
	drainClean := true
	var underOK, overRejected bool
	for i, lv := range levels {
		srv := parcserve.NewServer(parcserve.Config{
			Workers:       cfg.Workers,
			MaxConcurrent: slots,
			MaxQueue:      2 * slots,
		})
		ts := httptest.NewServer(srv)
		r := loadtest.Run(loadtest.Config{
			BaseURL:  ts.URL,
			Seed:     cfg.Seed + uint64(i),
			Requests: requests,
			Rate:     lv.rate,
			Mix: []loadtest.JobSpec{
				{Kind: "spin", Body: map[string]any{"spin_ms": spinMs, "deadline_ms": 30_000}, Weight: 1},
			},
		})
		if err := srv.Drain(30 * time.Second); err != nil {
			drainClean = false
		}
		if snap := srv.Runtime().SchedStats(); snap.Inflight != 0 || snap.Abandoned != 0 {
			drainClean = false
		}
		ts.Close()

		ok := r.Codes[200]
		rej := r.Codes[429]
		other := r.Sent - ok - rej - r.Dropped
		tab.AddRow(fmt.Sprintf("%s = %.0f/s", lv.name, lv.rate), ok, rej, other,
			r.Latency.Quantile(0.50).Round(time.Millisecond),
			r.Latency.Quantile(0.99).Round(time.Millisecond), r.Dropped)
		if r.Dropped != 0 {
			allAnswered = false
		}
		switch i {
		case 0:
			underOK = ok == r.Sent
			res.metric("under_ok_rate", r.OKRate())
		case 2:
			overRejected = rej > 0
			res.metric("over_429_share", float64(rej)/float64(r.Sent))
			res.metric("over_p99_ms", float64(r.Latency.Quantile(0.99).Milliseconds()))
		}
	}

	res.ok("every request answered at every load level (zero drops)", allAnswered)
	res.ok("underload: every request succeeds", underOK)
	res.ok("overload: saturation is rejected with 429, not queued unboundedly", overRejected)
	res.ok("graceful drain after load leaves the pool empty", drainClean)

	res.Output = tab.String() + "\n" +
		"Open-loop arrivals do not slow down when the server does, so the\n" +
		"4x level forces the admission choice: bounded queueing plus 429,\n" +
		"never an unbounded backlog. The 200-column at capacity shows the\n" +
		"slots saturating while accepted-work latency stays near the 20ms\n" +
		"service time.\n"
}
