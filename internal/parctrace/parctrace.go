// Package parctrace is the runtime's deterministic task-DAG recorder:
// a low-overhead event tap that captures submit/steal/run/complete/
// depend/park/wake edges from the scheduler (internal/core), the task
// layer (internal/ptask), and Pyjama regions (internal/pyjama) into
// fixed-size per-worker ring buffers, dumps them as versioned JSON
// (schema parc751/trace/v1, dump.go), and renders them as a
// self-contained HTML/SVG viewer (render.go) — the TEMANEJO-style
// "make the schedule visible" debugger of DESIGN.md §15.
//
// A Recorder is a probe.Probe, attached through the runtime's one probe
// seam like the chaos injector: detached, every instrumentation hook
// costs one atomic pointer load and a predictable branch, which the
// detached-overhead guard in internal/core pins. Attached, writes are
// lock-free (one fetch-add claim plus atomic stores into a preallocated
// slot) and allocation-free, and once a lane wraps the recorder samples
// — exact per-kind counters are always maintained, so accounting is
// conserved even when events are shed.
//
// A dump stores the owners' own types: the faultinject.Plan that ran and
// the recorded Events, whose sites and fault kinds serialize by name,
// and the injector's fired faults, one site@ordinal:kind per entry.
//
// Replay lives in internal/parctrace/replay: a dump carries the workload
// spec and the faultinject plan that produced it, which together are a
// complete schedule coordinate — re-executing them pins the fault
// schedule to the same per-site ordinals and the task DAG to the same
// shape, and Verify asserts the canonical projections are bit-identical.
package parctrace

import (
	"sync/atomic"
	"time"

	"parc751/internal/probe"
)

// traced reports whether s is one of the nine event kinds of the v1
// schema. The chaos-only sites (barrier, dispatch, taskbody, transport)
// are not, so a dump's counts never carry them.
func traced(s probe.Site) bool {
	switch s {
	case probe.SiteBarrier, probe.SiteDispatch, probe.SiteTaskBody, probe.SiteTransport:
		return false
	}
	return s < probe.NumSites
}

// Event is one recorded edge, and one entry of a dump's event list (its
// kind serialized by site name). TNs is nanoseconds since the recorder
// started; Worker is -1 for events from goroutines outside the pool.
type Event struct {
	TNs    int64      `json:"t_ns"`
	Kind   probe.Site `json:"kind"`
	Worker int32      `json:"w"`
	Task   uint64     `json:"task,omitempty"`
	Aux    uint64     `json:"aux,omitempty"`
}

// Config sizes a Recorder. Zero values take the documented defaults.
type Config struct {
	// Workers is the pool size; the recorder keeps Workers+1 lanes
	// (lane 0 collects events from external goroutines).
	Workers int
	// LaneCap is the per-lane ring capacity, rounded up to a power of
	// two (default 4096).
	LaneCap int
}

// sampleEvery thins recording once a lane has wrapped: only every
// sampleEvery'th event of a kind is written. Counters stay exact
// regardless.
const sampleEvery = 8

// Recorder captures scheduler events into per-worker rings. All methods
// are safe for concurrent use; Record never allocates and never blocks.
type Recorder struct {
	base    time.Time
	lanes   []*ring
	nextID  atomic.Uint64
	counts  [probe.NumSites]atomic.Uint64
	sampled atomic.Uint64 // events shed by load sampling
	dropped atomic.Uint64 // ring writes lost to a lap race
}

// NewRecorder builds a detached recorder; attach it with
// probe.CompareAndSwap.
func NewRecorder(cfg Config) *Recorder {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.LaneCap <= 0 {
		cfg.LaneCap = 4096
	}
	r := &Recorder{
		base:  time.Now(),
		lanes: make([]*ring, cfg.Workers+1),
	}
	for i := range r.lanes {
		r.lanes[i] = newRing(cfg.LaneCap)
	}
	return r
}

// NewTaskID allocates a fresh trace task id (ids start at 1; 0 means
// "not tracked"). It makes the recorder a node-naming probe (see
// probe.NewTaskID).
func (r *Recorder) NewTaskID() uint64 { return r.nextID.Add(1) }

// laneIdx maps a worker id to its lane; out-of-range ids (and -1,
// external goroutines) share lane 0.
func (r *Recorder) laneIdx(worker int) int {
	if worker >= 0 && worker < len(r.lanes)-1 {
		return worker + 1
	}
	return 0
}

// Fire implements probe.Probe. It records the nine trace sites and
// ignores the chaos-only ones. The run and complete of a task that was
// submitted before the recorder attached (task 0) are not recorded
// either, so submit, run and complete stay conserved.
func (r *Recorder) Fire(s probe.Site, worker int, task, aux uint64) {
	if !traced(s) || task == 0 && (s == probe.SiteRun || s == probe.SiteComplete) {
		return
	}
	r.record(s, worker, task, aux)
}

// record captures one event. The per-kind counter is exact and always
// incremented; the ring write is sampled once the target lane has
// wrapped, and a write that loses a lap race is counted as dropped.
// Conservation: for every kind,
//
//	count == recorded + lost + sampled-out
//
// which Snapshot's accounting fields expose and the property tests pin.
func (r *Recorder) record(k probe.Site, worker int, task, aux uint64) {
	n := r.counts[k].Add(1)
	lane := r.lanes[r.laneIdx(worker)]
	if lane.wrapped() && n%sampleEvery != 0 {
		r.sampled.Add(1)
		return
	}
	if !lane.write(Event{
		TNs:    int64(time.Since(r.base)),
		Kind:   k,
		Worker: int32(worker),
		Task:   task,
		Aux:    aux,
	}) {
		r.dropped.Add(1)
	}
}

// Count returns the exact number of k events observed (recorded or shed).
func (r *Recorder) Count(k probe.Site) uint64 { return r.counts[k].Load() }

// Dropped returns how many ring writes were lost to lap races.
func (r *Recorder) Dropped() uint64 { return r.dropped.Load() }

// Workers returns the number of worker lanes (excluding the external
// lane 0).
func (r *Recorder) Workers() int { return len(r.lanes) - 1 }
