// Package machine is a deterministic discrete-event simulator of a
// shared-memory multicore, standing in for the PARC lab hardware the
// paper's students measured on (a 64-core AMD Opteron 6272 server, a
// 16-core Xeon E7340 and an 8-core Xeon E5320 workstation, and quad-core
// Android devices; §III-B).
//
// The build host for this reproduction has a single CPU, so wall-clock
// speedup cannot be observed directly. The simulator executes the same
// scheduling policy as the real runtime — per-processor deques, LIFO owner
// access, FIFO stealing with a steal latency, or a contended global queue —
// over a virtual clock, so speedup curves, schedule comparisons and
// granularity crossovers are reproduced deterministically with the same
// *shape* the students reported, independent of host parallelism.
//
// Time is modelled in virtual nanoseconds. Task costs are supplied by the
// experiments (usually calibrated as "units of work x cost per unit").
package machine

import (
	"container/heap"
	"fmt"

	"parc751/internal/parctrace"
	"parc751/internal/probe"
	"parc751/internal/sched"
)

// Config describes a simulated machine.
type Config struct {
	Name          string
	Procs         int     // number of virtual processors
	SpeedFactor   float64 // relative per-core speed; 1.0 = reference core
	SpawnOverhead uint64  // virtual ns charged per task spawn
	StealLatency  uint64  // virtual ns charged per successful steal
	GlobalQueue   bool    // if true, use one contended FIFO (ablation A1)
	GlobalQueueNs uint64  // per-dequeue contention cost in global-queue mode
}

// The PARC machine presets (§III-B). Speed factors are the clock ratios of
// the real parts (Opteron 6272 @ 2.1 GHz, Xeon E7340 @ 2.4 GHz, Xeon E5320
// @ 1.86 GHz, a ~1.3 GHz Android SoC) normalised to the E7340.

// PARC64 models the 64-core AMD Opteron 6272 server.
func PARC64() Config {
	return Config{Name: "parc64", Procs: 64, SpeedFactor: 2.1 / 2.4,
		SpawnOverhead: 200, StealLatency: 600}
}

// PARC16 models the 16-core Intel Xeon E7340 workstation.
func PARC16() Config {
	return Config{Name: "parc16", Procs: 16, SpeedFactor: 1.0,
		SpawnOverhead: 150, StealLatency: 400}
}

// PARC8 models the 8-core Intel Xeon E5320 workstation.
func PARC8() Config {
	return Config{Name: "parc8", Procs: 8, SpeedFactor: 1.86 / 2.4,
		SpawnOverhead: 150, StealLatency: 400}
}

// AndroidQuad models a quad-core Android tablet/smartphone.
func AndroidQuad() Config {
	return Config{Name: "android4", Procs: 4, SpeedFactor: 1.3 / 2.4,
		SpawnOverhead: 400, StealLatency: 900}
}

// WithProcs returns a copy of c limited/expanded to p processors, used for
// core-count sweeps on one machine model.
func (c Config) WithProcs(p int) Config {
	c.Procs = p
	c.Name = fmt.Sprintf("%s-p%d", c.Name, p)
	return c
}

// Task is one unit of simulated work. Cost is in reference-core virtual
// nanoseconds (the simulator divides by the machine's SpeedFactor). Run,
// which may be nil, executes at the task's completion time and may spawn
// further tasks via the Ctx.
type Task struct {
	Cost uint64
	Run  func(ctx *Ctx)
	id   uint64 // trace task id, numbered from 1 in push order
}

// Ctx is passed to a task's Run hook at completion time.
type Ctx struct {
	m    *Machine
	proc int
	now  uint64
}

// Now returns the current virtual time in nanoseconds.
func (c *Ctx) Now() uint64 { return c.now }

// Spawn schedules a child task on the current processor's queue.
func (c *Ctx) Spawn(cost uint64, run func(*Ctx)) {
	c.m.push(c.proc, &Task{Cost: cost, Run: run}, c.now)
}

// Stats summarises a simulation run.
type Stats struct {
	Makespan  uint64  // virtual ns from start to last completion
	BusyNs    uint64  // sum of task execution time across processors
	Steals    int64   // successful steals
	Spawns    int64   // tasks executed
	AvgUtil   float64 // BusyNs / (Makespan * Procs)
	PeakQueue int     // largest queue length observed
}

// event kinds
const (
	evIdle = iota // processor became idle and should look for work
	evDone        // processor finished the task it was running
)

type event struct {
	t    uint64
	seq  uint64 // tie-break for determinism
	kind int
	proc int
	task *Task
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }

// Machine is one simulation instance. It is not safe for concurrent use;
// the simulation itself is sequential (that is the point: it reproduces
// parallel schedules on a serial host).
type Machine struct {
	cfg     Config
	deques  []*sched.Deque[Task]
	global  sched.FIFO[*Task]
	victims *sched.RoundRobinVictims
	events  eventHeap
	seq     uint64
	idle    []bool
	pending int    // tasks queued or running
	pushed  uint64 // tasks pushed so far, the last one's trace id
	stats   Stats
	trace   *parctrace.Dump // nil unless EnableTrace was called
}

// New creates a machine from cfg. It panics on a non-positive processor
// count or speed factor, which would make simulated time meaningless.
func New(cfg Config) *Machine {
	if cfg.Procs <= 0 {
		panic("machine: Procs must be positive")
	}
	if cfg.SpeedFactor <= 0 {
		panic("machine: SpeedFactor must be positive")
	}
	m := &Machine{
		cfg:     cfg,
		deques:  make([]*sched.Deque[Task], cfg.Procs),
		victims: sched.NewRoundRobinVictims(cfg.Procs),
		idle:    make([]bool, cfg.Procs),
	}
	for i := range m.deques {
		m.deques[i] = sched.NewDeque[Task](64)
	}
	return m
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Submit queues a root task on processor proc%Procs before the run starts.
func (m *Machine) Submit(proc int, cost uint64, run func(*Ctx)) {
	m.push(proc%m.cfg.Procs, &Task{Cost: cost, Run: run}, 0)
}

func (m *Machine) push(proc int, t *Task, now uint64) {
	m.pending++
	m.pushed++
	t.id = m.pushed
	if m.cfg.GlobalQueue {
		m.global.Push(t)
		if q := m.global.Len(); q > m.stats.PeakQueue {
			m.stats.PeakQueue = q
		}
	} else {
		m.deques[proc].PushBottom(t)
		if q := m.deques[proc].Len(); q > m.stats.PeakQueue {
			m.stats.PeakQueue = q
		}
	}
	// Wake idle processors: they retry at the current instant.
	for p := 0; p < m.cfg.Procs; p++ {
		if m.idle[p] {
			m.idle[p] = false
			m.post(event{t: now, kind: evIdle, proc: p})
		}
	}
}

func (m *Machine) post(e event) {
	e.seq = m.seq
	m.seq++
	heap.Push(&m.events, e)
}

// acquire tries to obtain a task for processor p at time t, returning the
// task and the virtual time at which execution can begin (acquisition
// overheads included). A steal is recorded on the thief at time t.
func (m *Machine) acquire(p int, t uint64) (task *Task, start uint64, ok bool) {
	if m.cfg.GlobalQueue {
		if task, ok := m.global.Pop(); ok {
			return task, t + m.cfg.GlobalQueueNs, true
		}
		return nil, 0, false
	}
	if task, ok := m.deques[p].PopBottom(); ok {
		return task, t, true
	}
	// One steal round: try every other processor once, deterministically.
	for i := 1; i < m.cfg.Procs; i++ {
		v := m.victims.Next(p)
		if task, ok := m.deques[v].Steal(); ok {
			m.stats.Steals++
			m.record(t, probe.SiteSteal, p, task.id, uint64(v))
			return task, t + m.cfg.StealLatency, true
		}
	}
	return nil, 0, false
}

// Run executes the simulation to completion and returns the statistics.
// It panics if called twice on the same Machine.
func (m *Machine) Run() Stats {
	for p := 0; p < m.cfg.Procs; p++ {
		m.post(event{t: 0, kind: evIdle, proc: p})
	}
	for m.events.Len() > 0 {
		e := heap.Pop(&m.events).(event)
		switch e.kind {
		case evIdle:
			if m.idle[e.proc] {
				continue // already parked; a wake event will reactivate it
			}
			task, start, ok := m.acquire(e.proc, e.t)
			if !ok {
				m.idle[e.proc] = true
				continue
			}
			dur := uint64(float64(task.Cost) / m.cfg.SpeedFactor)
			m.stats.BusyNs += dur
			m.record(start, probe.SiteRun, e.proc, task.id, 0)
			m.post(event{t: start + dur, kind: evDone, proc: e.proc, task: task})
		case evDone:
			m.pending--
			m.stats.Spawns++
			if e.t > m.stats.Makespan {
				m.stats.Makespan = e.t
			}
			m.record(e.t, probe.SiteComplete, e.proc, e.task.id, 0)
			nextFree := e.t
			if e.task.Run != nil {
				ctx := &Ctx{m: m, proc: e.proc, now: e.t}
				before := m.pending
				e.task.Run(ctx)
				spawned := m.pending - before
				if spawned > 0 {
					nextFree += uint64(spawned) * m.cfg.SpawnOverhead
				}
			}
			m.post(event{t: nextFree, kind: evIdle, proc: e.proc})
		}
	}
	if m.pending != 0 {
		panic(fmt.Sprintf("machine: %d tasks never ran", m.pending))
	}
	m.finishTrace()
	if m.stats.Makespan > 0 {
		m.stats.AvgUtil = float64(m.stats.BusyNs) /
			(float64(m.stats.Makespan) * float64(m.cfg.Procs))
	}
	return m.stats
}

// RunTasks is a convenience: simulate independent tasks with the given
// costs (a parallel-for with one task per element) and return the stats.
// Tasks are seeded round-robin across processors when static is true, or
// all onto processor 0 (from where they get stolen — the dynamic
// work-stealing pattern) when static is false.
func RunTasks(cfg Config, costs []uint64, static bool) Stats {
	m := New(cfg)
	for i, c := range costs {
		p := 0
		if static {
			p = i % cfg.Procs
		}
		m.Submit(p, c, nil)
	}
	return m.Run()
}

// SequentialTime returns the virtual time a single reference-speed core
// would need for the given costs — the baseline for speedup computations.
func SequentialTime(costs []uint64) uint64 {
	var sum uint64
	for _, c := range costs {
		sum += c
	}
	return sum
}
