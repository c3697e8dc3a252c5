package experiments

import (
	"fmt"
	"net/http/httptest"
	"runtime"
	"time"

	"parc751/internal/metrics"
	"parc751/internal/parccluster"
	"parc751/internal/parcserve"
	"parc751/internal/parcserve/loadtest"
)

// runA11 is the cluster-layer ablation, two claims in one exhibit:
//
//  1. Scaling — the same offered load against 1-, 2- and 4-node fleets.
//     Spin jobs hold an admission slot for a known time, so per-node
//     capacity is slot arithmetic, not CPU speed: throughput must grow
//     with node count even on a single-core host (the slots sleep).
//  2. Survival — a node is killed mid-run under load; the no-lost-jobs
//     ledger must balance exactly (accepted == completed + rejected,
//     zero drops) and the fleet must bring the node back.
//
// The fleet under seeded router→node partitions is the replay
// catalogue's partition kind, recorded and replayed by A12.
func runA11(cfg Config, res *Result) {
	const (
		slots  = 2
		spinMs = 20
		// One node drains slots×(1000/spinMs) = 100 jobs/s; offered load
		// is sized to saturate small fleets but fit inside four nodes.
		perNodeCap = slots * 1000 / spinMs
	)
	requests := 240
	if cfg.Quick {
		requests = 90
	}
	offered := float64(perNodeCap) * 3.2 // 0.8 × the 4-node capacity

	nodeCfg := parcserve.Config{
		Workers:       cfg.Workers,
		MaxConcurrent: slots,
		MaxQueue:      slots, // small queue keeps saturation visible as 429s
		DrainGrace:    10 * time.Millisecond,
	}

	// --- 1. Scaling -------------------------------------------------
	tab := metrics.NewTable(
		fmt.Sprintf("Same offered load (%.0f/s, %d spin requests) vs fleet size", offered, requests),
		"nodes", "200", "429", "other", "jobs/s", "p50", "dropped")

	allAnswered := true
	ledgersBalance := true
	throughput := map[int]float64{}
	for i, n := range []int{1, 2, 4} {
		fleet := parccluster.NewFleet(parccluster.FleetConfig{
			Nodes:   n,
			Starter: &parccluster.LocalStarter{Config: nodeCfg},
			Router:  parccluster.RouterConfig{LoadPollEvery: 25 * time.Millisecond},
		})
		if err := fleet.Start(); err != nil {
			res.ok("fleet starts at every size", false)
			res.Output = fmt.Sprintf("A11: %d-node fleet failed to start: %v\n", n, err)
			_ = fleet.Stop()
			return
		}
		front := httptest.NewServer(fleet.Router())
		r := loadtest.Run(loadtest.Config{
			BaseURL:  front.URL,
			Seed:     cfg.Seed + uint64(i),
			Requests: requests,
			Rate:     offered,
			Mix: []loadtest.JobSpec{
				{Kind: "spin", Body: map[string]any{"spin_ms": spinMs, "deadline_ms": 30_000}, Weight: 1},
			},
		})
		led := fleet.Router().Ledger()
		front.Close()
		_ = fleet.Stop()

		if r.Dropped != 0 {
			allAnswered = false
		}
		if led.Lost != 0 || led.Accepted != led.Completed+led.Rejected {
			ledgersBalance = false
		}
		jobsPerSec := float64(r.Codes[200]) / r.Elapsed.Seconds()
		throughput[n] = jobsPerSec
		tab.AddRow(fmt.Sprintf("%d", n), r.Codes[200], r.Codes[429],
			r.Sent-r.Codes[200]-r.Codes[429]-r.Dropped,
			fmt.Sprintf("%.0f", jobsPerSec),
			r.Latency.Quantile(0.50).Round(time.Millisecond), r.Dropped)
		res.metric(fmt.Sprintf("throughput_%dnode", n), jobsPerSec)
	}
	scaling := 0.0
	if throughput[1] > 0 {
		scaling = throughput[4] / throughput[1]
	}
	res.metric("scaling_4v1", scaling)
	// Spin capacity is admission arithmetic, not CPU, so the 1.5× floor
	// holds even on one core — but a one-core host can still starve the
	// HTTP plumbing itself, so there the ratio is reported, not enforced.
	scalingOK := scaling >= 1.5 || runtime.NumCPU() < 2
	res.ok("4-node throughput ≥ 1.5x 1-node (reported only on 1-CPU hosts)", scalingOK)
	res.ok("every request answered at every fleet size (zero drops)", allAnswered)
	res.ok("routing ledger balances at every fleet size", ledgersBalance)

	// --- 2. Survival: node kill mid-run -----------------------------
	fleet := parccluster.NewFleet(parccluster.FleetConfig{
		Nodes:        2,
		Starter:      &parccluster.LocalStarter{Config: nodeCfg},
		RestartDelay: 50 * time.Millisecond,
		Router: parccluster.RouterConfig{
			LoadPollEvery: 25 * time.Millisecond,
			VerifyRetries: true,
		},
	})
	killOK := false
	var killNote string
	if err := fleet.Start(); err == nil {
		front := httptest.NewServer(fleet.Router())
		done := make(chan *loadtest.Result, 1)
		go func() {
			done <- loadtest.Run(loadtest.Config{
				BaseURL:  front.URL,
				Seed:     cfg.Seed + 99,
				Requests: requests,
				Rate:     offered / 2,
				Mix: []loadtest.JobSpec{
					{Kind: "spin", Body: map[string]any{"spin_ms": spinMs, "deadline_ms": 30_000}, Weight: 2},
					{Kind: "sort", Body: map[string]any{"seed": 7, "n": 400, "deadline_ms": 30_000}, Weight: 1},
				},
			})
		}()
		time.Sleep(150 * time.Millisecond)
		_ = fleet.KillNode("node0")
		r := <-done
		led := fleet.Router().Ledger()

		// Wait for the fleet to resurrect the victim.
		restarted := false
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			for _, n := range fleet.Router().Nodes() {
				if n.ID == "node0" && n.Alive && n.Ready {
					restarted = true
				}
			}
			if restarted {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		front.Close()
		_ = fleet.Stop()

		killOK = r.Dropped == 0 && led.Lost == 0 &&
			led.Accepted == led.Completed+led.Rejected &&
			led.Mismatch == 0 && restarted
		killNote = fmt.Sprintf(
			"node0 killed mid-run: accepted=%d completed=%d rejected=%d lost=%d\n"+
				"failovers=%d verified=%d mismatches=%d dropped=%d restarted=%v",
			led.Accepted, led.Completed, led.Rejected, led.Lost,
			led.Failovers, led.Verified, led.Mismatch, r.Dropped, restarted)
		res.metric("kill_failovers", float64(led.Failovers))
		res.metric("kill_lost", float64(led.Lost))
	} else {
		killNote = "survival fleet failed to start: " + err.Error()
		_ = fleet.Stop()
	}
	res.ok("node kill mid-run loses zero jobs and the node restarts", killOK)

	res.Output = tab.String() + "\n" +
		fmt.Sprintf("4-node vs 1-node throughput: %.2fx (floor 1.5x, %d CPUs)\n\n", scaling, runtime.NumCPU()) +
		killNote + "\n"
}
