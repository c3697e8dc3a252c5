// Package probe is the runtime's one observation seam: a single event
// vocabulary for every hot site in the schedulers (Site), and a single
// process-global attach point (CompareAndSwap) through which the chaos
// harness (internal/faultinject), the task-DAG recorder
// (internal/parctrace), or both through Fan, see those events.
//
// Detached — the production configuration — every site costs one atomic
// pointer load and a nil branch; the detached-overhead and zero-alloc
// guards in internal/core pin this. The runtime packages (core, ptask,
// pyjama, eventloop) import only this package, never a probe
// implementation.
package probe

import (
	"fmt"
	"sync/atomic"
)

// Site names one instrumented event. The chaos sites come first, in the
// order (and so with the numeric values) that fault plans and their
// seeded ordinals have always used; the trace-only sites follow. The
// operands of each (worker is the reporting pool worker, -1 elsewhere):
//
//	submit        a task entered a core.Pool         task
//	steal         a steal's CAS claim landed         task; worker = thief, aux = victim
//	run           a worker is about to run a task    task
//	barrier       a party arrives at a core.Barrier  -
//	dispatch      the event loop runs an event       -
//	taskbody      a ptask body is about to run       task
//	transport     a webfetch request or a router     - (faultinject.RoundTripper)
//	              forward is sent
//	complete      a task finished, panics included   task
//	depend        a dependence edge                  task waits on aux
//	park, wake    a worker parked / was woken        worker
//	region_start  a Pyjama region began              task = region, aux = team size
//	region_end    the region joined                  task = region, aux = team size
type Site uint8

const (
	SiteSubmit Site = iota
	SiteSteal
	SiteRun
	SiteBarrier
	SiteDispatch
	SiteTaskBody
	SiteTransport
	SiteComplete
	SiteDepend
	SitePark
	SiteWake
	SiteRegionStart
	SiteRegionEnd
	NumSites
)

// NumChaosSites is how many leading sites a fault plan may target
// (submit through transport).
const NumChaosSites = SiteComplete

var siteNames = [NumSites]string{
	"submit", "steal", "run", "barrier", "dispatch", "taskbody", "transport",
	"complete", "depend", "park", "wake", "region_start", "region_end",
}

// String returns the site's schema name.
func (s Site) String() string {
	if s < NumSites {
		return siteNames[s]
	}
	return "unknown"
}

// MarshalText encodes the site as its schema name, so fault plans and
// trace dumps serialize sites by name.
func (s Site) MarshalText() ([]byte, error) {
	if s >= NumSites {
		return nil, fmt.Errorf("probe: site %d out of range", uint8(s))
	}
	return []byte(siteNames[s]), nil
}

// UnmarshalText is the inverse of MarshalText; other names are errors.
func (s *Site) UnmarshalText(text []byte) error {
	for i, n := range siteNames {
		if n == string(text) {
			*s = Site(i)
			return nil
		}
	}
	return fmt.Errorf("probe: unknown site %q", text)
}

// Probe observes site events, with the operands of the Site table. Fire
// runs on the hot path: it must not block or allocate, and it may panic
// only at SiteTaskBody. Probes are compared by identity, so
// implementations are pointer types.
type Probe interface {
	Fire(s Site, worker int, task, aux uint64)
}

// Tagged is implemented by runnables that name their own DAG node
// (ptask.Task, ptask.MultiTask), so the pool's submit/run/complete events
// and the task layer's dependence edges carry the same id.
type Tagged interface{ TraceTaskID() uint64 }

// NewTaskID names a new DAG node on p. A probe that names nodes (a trace
// recorder, or a fan-out holding one) has a NewTaskID() uint64 method;
// ids are allocated per such probe and start at 1. Any other probe
// leaves nodes unnamed, which is id 0.
func NewTaskID(p Probe) uint64 {
	if n, ok := p.(interface{ NewTaskID() uint64 }); ok {
		return n.NewTaskID()
	}
	return 0
}

// Fan returns a probe that delivers every event to each of ps in order
// and names nodes with the first of them that does.
func Fan(ps ...Probe) Probe {
	f := fan(ps)
	return &f
}

type fan []Probe

func (f *fan) Fire(s Site, worker int, task, aux uint64) {
	for _, p := range *f {
		p.Fire(s, worker, task, aux)
	}
}

func (f *fan) NewTaskID() uint64 {
	for _, p := range *f {
		if id := NewTaskID(p); id != 0 {
			return id
		}
	}
	return 0
}

var attached atomic.Pointer[Probe]

// Load returns the attached probe, or nil. Hot sites call it once per
// event and fire on the result.
func Load() Probe {
	if p := attached.Load(); p != nil {
		return *p
	}
	return nil
}

// CompareAndSwap attaches next in place of prev, only while prev is the
// attached probe, and reports whether it did. CompareAndSwap(nil, p)
// attaches p to an empty seam and CompareAndSwap(p, nil) detaches p and
// nothing else, so two owners can never silently displace each other.
// Events that already happened are not replayed to a new probe.
func CompareAndSwap(prev, next Probe) bool {
	cur := attached.Load()
	if (cur == nil) != (prev == nil) || cur != nil && *cur != prev {
		return false
	}
	var np *Probe
	if next != nil {
		np = &next
	}
	return attached.CompareAndSwap(cur, np)
}
