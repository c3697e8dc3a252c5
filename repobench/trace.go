package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"parc751/internal/metrics"
	"parc751/internal/ptask"
	"parc751/internal/pyjama"
	"parc751/internal/sched"
)

// layerUnits is every per-layer metric a traced run prints, with its
// unit. Layers a workload does not pass through are measured by borrow.
var layerUnits = map[string]string{
	"kernels.matmul_ms": "ms", "kernels.matmul.speedup": "x", "kernels.matmul.efficiency": "ratio",
	"kernels.fft_ms": "ms", "kernels.fft.speedup": "x", "kernels.fft.efficiency": "ratio",
	"kernels.pagerank_ms": "ms", "kernels.pagerank.speedup": "x", "kernels.pagerank.efficiency": "ratio",
	"sortalgo.ptask_ms": "ms", "sortalgo.ptask.speedup": "x", "sortalgo.ptask.efficiency": "ratio",
	"thumbs.ptask_ms": "ms", "thumbs.ptask.speedup": "x", "thumbs.ptask.efficiency": "ratio",
	"pyjama.region_cold_us":             "us",
	"pyjama.barrier_park_ratio":         "ratio",
	"ptask.roundtrip_us":                "us",
	"sched.steals_per_job":              "count",
	"sched.steal_success_ratio":         "ratio",
	"sched.parks_per_job":               "count",
	"sched.submit_p50_us":               "us",
	"client.roundtrip_ms":               "ms",
	"parcserve.handler_ms":              "ms",
	"parcserve.handler_ms.sort":         "ms",
	"parcserve.handler_ms.textsearch":   "ms",
	"parcserve.handler_ms.thumbs":       "ms",
	"parcserve.handler_ms.matmul":       "ms",
	"parcserve.handler_ms.pdfsearch":    "ms",
	"net.http_ms":                       "ms",
	"parcserve.batch_mean_size":         "count",
	"parcserve.batch_timer_flush_ratio": "ratio",
	"parcserve.rejected_ratio":          "ratio",
	"workload.gen_us.sort":              "us",
	"workload.gen_us.textsearch":        "us",
	"workload.gen_us.thumbs":            "us",
	"workload.gen_us.matmul":            "us",
	"workload.gen_us.pdfsearch":         "us",
	"parccluster.router_ms":             "ms",
	"parccluster.hop_ms":                "ms",
	"parccluster.spill_ratio":           "ratio",
	"parccluster.failovers":             "count",
	"parccluster.lost":                  "count",
	"trace.overhead_pct":                "%",
	"trace.cpu_overhead_pct":            "%",
	"trace.accounting_gap_pct":          "%",
}

// borrowSeconds is the length of a borrowed traced run.
const borrowSeconds = 1.0

// borrow fills the per-layer metrics under prefixes, for layers the
// running workload does not pass through, from a short traced run of a
// workload that does (fleet_small for the serving layers, compute for
// the kernels), so every traced result carries every layer. The borrowed
// run's jobs are checked like any other and count in the result.
func (r *report) borrow(cfg config, workload string, prefixes ...string) error {
	if cfg.borrowed {
		return nil
	}
	sub := cfg
	sub.workload, sub.seconds, sub.borrowed = workload, borrowSeconds, true
	got, err := runWorkload(sub)
	if err != nil {
		return fmt.Errorf("borrowed %s run: %w", workload, err)
	}
	r.Attempted += got.Attempted
	r.Failed += got.Failed
	for _, p := range got.Problems {
		if len(r.Problems) < 5 {
			r.Problems = append(r.Problems, workload+" (borrowed): "+p)
		}
	}
	for name, m := range got.Layer {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				r.Layer[name] = m
			}
		}
	}
	return nil
}

// schedLayer reports the scheduler's traffic over a phase from two
// snapshots of the same pool (or their sums across pools).
func schedLayer(rep *report, from, to sched.Snapshot, jobs int64) {
	steals := float64(to.TotalSteals() - from.TotalSteals())
	var failed int64
	for _, w := range to.Workers {
		failed += w.FailedSteal
	}
	for _, w := range from.Workers {
		failed -= w.FailedSteal
	}
	var submit metrics.LatencySnapshot
	for i := range submit.Counts {
		submit.Counts[i] = to.SubmitLatency.Counts[i] - from.SubmitLatency.Counts[i]
		submit.Total += submit.Counts[i]
	}
	rep.layer("sched.steals_per_job", "count", ratio(steals, float64(jobs)))
	rep.layer("sched.steal_success_ratio", "ratio", ratio(steals, steals+float64(failed)))
	rep.layer("sched.parks_per_job", "count", ratio(float64(to.TotalParks()-from.TotalParks()), float64(jobs)))
	rep.layer("sched.submit_p50_us", "us", durUs(interpQuantile(submit, 0.5)))
}

// interpQuantile estimates the q-quantile of a power-of-two histogram by
// placing the rank linearly inside its bucket [2^(i-1), 2^i), rather than
// reporting the bucket's upper edge as LatencySnapshot.Quantile does.
func interpQuantile(s metrics.LatencySnapshot, q float64) time.Duration {
	if s.Total == 0 {
		return 0
	}
	rank := q * float64(s.Total)
	var cum float64
	for i, c := range s.Counts {
		if c == 0 || cum+float64(c) < rank {
			cum += float64(c)
			continue
		}
		lo, hi := 0.0, 1.0
		if i > 0 {
			lo, hi = math.Ldexp(1, i-1), math.Ldexp(1, i)
		}
		return time.Duration(lo + (rank-cum)/float64(c)*(hi-lo))
	}
	return s.Quantile(1)
}

// sumSched adds several pools' snapshots into one, for the counters
// schedLayer reads.
func sumSched(snaps []sched.Snapshot) sched.Snapshot {
	var out sched.Snapshot
	for _, s := range snaps {
		out.Workers = append(out.Workers, s.Workers...)
		for i := range s.SubmitLatency.Counts {
			out.SubmitLatency.Counts[i] += s.SubmitLatency.Counts[i]
		}
		out.SubmitLatency.Total += s.SubmitLatency.Total
	}
	return out
}

// overheadLayer compares the untraced and traced halves of a run.
func overheadLayer(rep *report, plain, traced phase) {
	pj, tj := float64(plain.jobs)/plain.elapsed.Seconds(), float64(traced.jobs)/traced.elapsed.Seconds()
	pc := normalise(plain.from, plain.to, plain.jobs).CPUms
	tc := normalise(traced.from, traced.to, traced.jobs).CPUms
	rep.layer("trace.overhead_pct", "%", 100*ratio(pj-tj, pj))
	rep.layer("trace.cpu_overhead_pct", "%", 100*ratio(tc-pc, pc))
	rep.Diag["traced_steal_share"] = jsonSafe(stealShare(traced.from.host, traced.to.host))
}

// runtimeProbes times the two runtimes' smallest public operations: a
// cold Pyjama region with an empty body, and a Parallel Task spawn and
// join on rt.
func runtimeProbes(rep *report, procs int, rt *ptask.Runtime) {
	empty := func(*pyjama.TC) {}
	rep.layer("pyjama.region_cold_us", "us", durUs(medianDur(2000, func() { pyjama.Parallel(procs, empty) })))
	body := func() (struct{}, error) { return struct{}{}, nil }
	rep.layer("ptask.roundtrip_us", "us", durUs(medianDur(5000, func() {
		t := ptask.Run(rt, body)
		_, _ = t.Result() // an empty body cannot fail
	})))
}

// ---------------------------------------------------------------------
// Request spans for the serving workloads. In a traced phase every
// request body carries "bench_id":N; each timed handler reads it and
// stores its own duration under that id, so client, router and node
// times of one request can be joined afterwards.

const maxSpans = 1 << 18

// spans records one duration per request id; 0 means none recorded.
type spans struct{ d []atomic.Int64 }

func newSpans() *spans { return &spans{d: make([]atomic.Int64, maxSpans)} }

func (s *spans) put(id int, d time.Duration) {
	if id >= 0 && id < len(s.d) {
		s.d[id].Store(int64(d))
	}
}

func (s *spans) get(id int) (time.Duration, bool) {
	if id < 0 || id >= len(s.d) {
		return 0, false
	}
	d := s.d[id].Load()
	return time.Duration(d), d != 0
}

// timedHandler wraps a layer's ServeHTTP. While on, it reads the body
// to find the request id and records the inner call's duration.
type timedHandler struct {
	inner http.Handler
	on    *atomic.Bool
	rec   *spans
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.on.Load() {
		t.inner.ServeHTTP(w, r)
		return
	}
	body, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
		return
	}
	id := benchID(body)
	r.Body = io.NopCloser(bytes.NewReader(body))
	start := time.Now()
	t.inner.ServeHTTP(w, r)
	t.rec.put(id, time.Since(start))
}

var benchIDKey = []byte(`"bench_id":`)

// benchID extracts the request id from a traced body, or -1.
func benchID(body []byte) int {
	i := bytes.LastIndex(body, benchIDKey)
	if i < 0 {
		return -1
	}
	rest := body[i+len(benchIDKey):]
	end := 0
	for end < len(rest) && rest[end] >= '0' && rest[end] <= '9' {
		end++
	}
	id, err := strconv.Atoi(string(rest[:end]))
	if err != nil {
		return -1
	}
	return id
}

// withBenchID returns body (a JSON object) with "bench_id":id added.
func withBenchID(dst, body []byte, id int) []byte {
	dst = append(dst[:0], body[:len(body)-1]...)
	dst = append(dst, ',')
	dst = append(dst, benchIDKey...)
	dst = strconv.AppendInt(dst, int64(id), 10)
	return append(dst, '}')
}
