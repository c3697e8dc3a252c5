package machine

import (
	"sort"

	"parc751/internal/parctrace"
	"parc751/internal/probe"
)

// EnableTrace turns on schedule recording for this machine. Call before
// Run. It stays off by default so parameter sweeps, which read only the
// Stats, allocate nothing per simulated task.
func (m *Machine) EnableTrace() {
	m.trace = &parctrace.Dump{Schema: parctrace.SchemaV1, Name: m.cfg.Name,
		Workers: m.cfg.Procs, Counts: map[string]uint64{}, Events: []parctrace.Event{}}
}

// Trace returns the recorded schedule (nil unless EnableTrace was called)
// as a parctrace dump in the real pool's vocabulary, with processors as
// workers and virtual nanoseconds as t_ns: a steal on the thief when it
// acquires the task (aux = victim), a run when execution starts (after
// the steal latency), a complete when it ends. So the one renderer and
// the dump tooling draw simulated schedules like recorded ones.
func (m *Machine) Trace() *parctrace.Dump { return m.trace }

func (m *Machine) record(t uint64, k probe.Site, proc int, task, aux uint64) {
	if m.trace != nil {
		m.trace.Events = append(m.trace.Events, parctrace.Event{
			TNs: int64(t), Kind: k, Worker: int32(proc), Task: task, Aux: aux})
		m.trace.Counts[k.String()]++
	}
}

// finishTrace puts the events in time order. A run is recorded when its
// task is acquired, ahead of its start, so emission order is not time
// order; the stable sort keeps one instant's events as emitted.
func (m *Machine) finishTrace() {
	if d := m.trace; d != nil {
		sort.SliceStable(d.Events, func(i, j int) bool { return d.Events[i].TNs < d.Events[j].TNs })
		d.Recorded = uint64(len(d.Events))
	}
}
