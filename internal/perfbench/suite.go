package perfbench

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"parc751/internal/core"
	"parc751/internal/parcserve"
	"parc751/internal/ptask"
	"parc751/internal/pyjama"
	"parc751/internal/reduction"
)

// Suite returns the canonical hot-path specs and a cleanup that tears
// down the long-lived fixtures (pools, runtimes, the in-process server).
// The set and the names are the contract with committed BENCH_<n>.json
// baselines: renaming or dropping one fails the ratchet's coverage check.
func Suite() (specs []Spec, cleanup func()) {
	// core_submit: one Submit→run round trip on a live pool, the
	// scheduler's innermost cycle (envelope freelist, deque push, wake).
	pool := core.NewPool(4)
	submitDone := make(chan struct{}, 1)
	submitFn := func() { submitDone <- struct{}{} }
	specs = append(specs, Spec{Name: "core_submit", Bench: func(n int) {
		for i := 0; i < n; i++ {
			pool.Submit(submitFn)
			<-submitDone
		}
	}})

	// ptask_result: spawn and join — the Parallel Task API's fork/join
	// cycle, one Task allocation with its future inside.
	rt := ptask.NewRuntime(4)
	taskBody := func() (int, error) { return 42, nil }
	specs = append(specs, Spec{Name: "ptask_result", Bench: func(n int) {
		for i := 0; i < n; i++ {
			t := ptask.Run(rt, taskBody)
			if _, err := t.Result(); err != nil {
				panic(err)
			}
		}
	}})

	// pyjama_for_static: one block-decomposed worksharing loop plus its
	// implicit barrier. A static loop touches no shared construct state
	// (its block is pure arithmetic), so the whole measurement can
	// run inside ONE region: region spawn amortizes to ~n^-1 and the path
	// ratchets at exactly zero allocations instead of carrying the old
	// 0.09 of per-region overhead.
	specs = append(specs, Spec{Name: "pyjama_for_static", Bench: func(n int) {
		pyjama.Parallel(4, func(tc *pyjama.TC) {
			sink := 0
			body := func(i int) { sink += i }
			for k := 0; k < n; k++ {
				tc.For(loopN, pyjama.Static(0), body)
			}
			_ = sink
		})
	}})

	// pyjama_for_<schedule>: one worksharing loop (1024 iterations over 4
	// threads) plus its implicit barrier. The claim-based schedules use a
	// construct slot per loop, so regions are recycled every regionOps
	// loops: region spawn cost is amortized while the team's loop table
	// stays within the segments a team keeps, and the region join clears
	// each loop state in place, which keeps the steady state at zero
	// allocations per construct.
	for _, sc := range []struct {
		name  string
		sched pyjama.Schedule
	}{
		{"pyjama_for_dynamic", pyjama.Dynamic(64)},
		{"pyjama_for_guided", pyjama.Guided(0)},
		{"pyjama_for_auto", pyjama.Auto()},
	} {
		sched := sc.sched
		specs = append(specs, Spec{Name: sc.name, Bench: func(n int) {
			forOps(n, func(tc *pyjama.TC, ops int) {
				sink := 0
				body := func(i int) { sink += i }
				for k := 0; k < ops; k++ {
					tc.For(loopN, sched, body)
				}
				_ = sink
			})
		}})
	}

	// pyjama_for_reduce: the loop plus the serial-thread combine and its
	// publishing barrier.
	specs = append(specs, Spec{Name: "pyjama_for_reduce", Bench: func(n int) {
		forOps(n, func(tc *pyjama.TC, ops int) {
			r := reduction.Sum[int]()
			for k := 0; k < ops; k++ {
				pyjama.ForReduce(tc, loopN, pyjama.Static(0), r,
					func(i, acc int) int { return acc + i })
			}
		})
	}})

	// barrier_t<N>: one full barrier generation for a team of N — the
	// combining tree plus the precise-parking waiter protocol.
	for _, parties := range []int{2, 4, 8} {
		parties := parties
		specs = append(specs, Spec{Name: fmt.Sprintf("barrier_t%d", parties), Bench: func(n int) {
			b := core.NewBarrier(parties)
			var wg sync.WaitGroup
			for id := 0; id < parties; id++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					for k := 0; k < n; k++ {
						b.AwaitAs(id)
					}
				}(id)
			}
			wg.Wait()
		}})
	}

	// parcserve_enqueue: one POST /jobs/sort through the in-process
	// server — JSON decode, admission, dispatch onto the runtime, a small
	// sort, and the response write.
	srv := parcserve.NewServer(parcserve.Config{Workers: 4})
	payload := []byte(`{"n":64,"seed":751}`)
	specs = append(specs, Spec{Name: "parcserve_enqueue", Bench: func(n int) {
		for i := 0; i < n; i++ {
			req := httptest.NewRequest("POST", "/jobs/sort", bytes.NewReader(payload))
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != 200 {
				panic(fmt.Sprintf("parcserve_enqueue: status %d: %s", rec.Code, strings.TrimSpace(rec.Body.String())))
			}
		}
	}})

	// parcserve_roundtrip: end-to-end serving throughput — concurrent
	// clients POSTing small sorts over real HTTP connections (decode,
	// admission, execute, encode). Unlike parcserve_enqueue (one
	// sequential in-process request, the latency view), this is the
	// jobs/sec view: 8 open connections keep all 8 execution slots busy.
	rtSrv := parcserve.NewServer(parcserve.Config{Workers: 4, MaxConcurrent: 8})
	ts := httptest.NewServer(rtSrv)
	rtClient := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: roundtripClients}}
	rtPayload := []byte(`{"n":256,"seed":751}`)
	rtURL := ts.URL + "/jobs/sort"
	specs = append(specs, Spec{Name: "parcserve_roundtrip", Throughput: true, Bench: func(n int) {
		var wg sync.WaitGroup
		for c := 0; c < roundtripClients; c++ {
			share := n / roundtripClients
			if c < n%roundtripClients {
				share++
			}
			if share == 0 {
				continue
			}
			wg.Add(1)
			go func(share int) {
				defer wg.Done()
				for i := 0; i < share; i++ {
					resp, err := rtClient.Post(rtURL, "application/json", bytes.NewReader(rtPayload))
					if err != nil {
						panic(fmt.Sprintf("parcserve_roundtrip: %v", err))
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					_ = resp.Body.Close()
					if resp.StatusCode != 200 {
						panic(fmt.Sprintf("parcserve_roundtrip: status %d", resp.StatusCode))
					}
				}
			}(share)
		}
		wg.Wait()
	}})

	cleanup = func() {
		pool.Shutdown()
		rt.Shutdown()
		ts.Close()
		_ = rtSrv.Drain(5 * time.Second)
		_ = srv.Drain(5 * time.Second)
	}
	return specs, cleanup
}

// roundtripClients is the parcserve_roundtrip concurrency: enough open
// connections to fill every execution slot, small enough that the
// measurement is the server, not client-side scheduling.
const roundtripClients = 8

// loopN is the per-For trip count: large enough that the schedules do
// real distribution work, small enough that construct overhead (the
// thing the ratchet protects) still dominates the measurement.
const loopN = 1024

// regionOps bounds how many worksharing constructs run in one parallel
// region: Pyjama's SPMD slot table grows with every construct, and a team
// keeps only its first 504 slots across regions, so an unbounded
// measurement batch inside a single region would grow it without limit.
// Batching regions keeps the table small and amortizes region spawn to
// under regionOps^-1 of the measurement.
const regionOps = 256

// forOps runs body-with-an-ops-budget across fresh 4-thread regions
// until n total worksharing constructs have executed per thread.
func forOps(n int, run func(tc *pyjama.TC, ops int)) {
	for done := 0; done < n; done += regionOps {
		ops := regionOps
		if n-done < ops {
			ops = n - done
		}
		pyjama.Parallel(4, func(tc *pyjama.TC) { run(tc, ops) })
	}
}
