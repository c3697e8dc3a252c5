// /statz: the server's observability surface as one JSON document —
// scheduler snapshot, Pyjama region stats, circuit-breaker state,
// admission counters, and per-endpoint latency histograms. TEMANEJO's lesson applied to serving: runtime internals as
// first-class data, queryable while the system is under load.
package parcserve

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"parc751/internal/metrics"
	"parc751/internal/pyjama"
	"parc751/internal/sched"
)

// AdmissionStats reports the admission controller's configuration and
// live occupancy.
type AdmissionStats struct {
	MaxConcurrent int   `json:"max_concurrent"`
	MaxQueue      int   `json:"max_queue"`
	Running       int   `json:"running"`
	Waiting       int64 `json:"waiting"`
	Admitted      int64 `json:"admitted"`
	Rejected      int64 `json:"rejected"`
}

// EndpointStats is one kind's serving record in export form.
type EndpointStats struct {
	Count   int64            `json:"count"`
	Codes   map[string]int64 `json:"codes,omitempty"`
	P50Ns   int64            `json:"p50_ns"`
	P90Ns   int64            `json:"p90_ns"`
	P99Ns   int64            `json:"p99_ns"`
	Buckets []metrics.Bucket `json:"buckets,omitempty"`
}

// BreakerStats is the webfetch circuit breaker's export form.
type BreakerStats struct {
	State string `json:"state"`
	Trips int64  `json:"trips"`
}

// Statz is the /statz document.
type Statz struct {
	NodeID    string                   `json:"node_id"`
	UptimeMs  int64                    `json:"uptime_ms"`
	Draining  bool                     `json:"draining"`
	Ready     bool                     `json:"ready"`
	Admission AdmissionStats           `json:"admission"`
	Sched     sched.Snapshot           `json:"sched"`
	Endpoints map[string]EndpointStats `json:"endpoints"`
	// Batch is never filled. It and BatchStats are kept only because
	// repobench compiles against them.
	Batch   map[string]BatchStats `json:"batch"`
	Breaker BreakerStats          `json:"breaker"`
	Region  *pyjama.RegionStats   `json:"region,omitempty"`
}

// Statz assembles the current observability snapshot.
func (s *Server) Statz() Statz {
	st := Statz{
		NodeID:   s.cfg.NodeID,
		UptimeMs: time.Since(s.started).Milliseconds(),
		Draining: s.draining.Load(),
		Ready:    !s.notReady.Load(),
		Admission: AdmissionStats{
			MaxConcurrent: s.cfg.MaxConcurrent,
			MaxQueue:      s.cfg.MaxQueue,
			Running:       len(s.slots),
			Waiting:       s.waiting.Load(),
			Admitted:      s.admitted.Load(),
			Rejected:      s.rejected.Load(),
		},
		Sched:     s.rt.SchedStats(),
		Endpoints: map[string]EndpointStats{},
		Breaker:   BreakerStats{State: s.breaker.State().String(), Trips: s.breaker.Trips()},
	}
	for kind, ep := range s.eps {
		n := ep.count.Load()
		if n == 0 {
			continue
		}
		snap := ep.lat.Snapshot()
		es := EndpointStats{
			Count:   n,
			Codes:   map[string]int64{},
			P50Ns:   int64(snap.Quantile(0.50)),
			P90Ns:   int64(snap.Quantile(0.90)),
			P99Ns:   int64(snap.Quantile(0.99)),
			Buckets: snap.Buckets(),
		}
		for i, code := range trackedCodes {
			if c := ep.codes[i].Load(); c != 0 {
				es.Codes[strconv.Itoa(code)] = c
			}
		}
		st.Endpoints[string(kind)] = es
	}
	s.regionMu.Lock()
	st.Region = s.lastRegion
	s.regionMu.Unlock()
	return st
}

func (s *Server) handleStatz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.Statz())
}

// BatchStats is the export form of a job-coalescing counter set. Nothing
// fills it; it is kept for repobench, which reads Statz.Batch.
type BatchStats struct {
	Batches      int64   `json:"batches"`
	Items        int64   `json:"items"`
	MaxBatch     int64   `json:"max_batch"`
	TimerFlushes int64   `json:"timer_flushes"`
	Rejected     int64   `json:"rejected"`
	MeanSize     float64 `json:"mean_size"`
}
