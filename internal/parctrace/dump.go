package parctrace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"parc751/internal/faultinject"
	"parc751/internal/probe"
)

// SchemaV1 is the versioned dump format identifier. Old traces must keep
// loading: field renames are schema bumps, and TestTraceSchemaStability
// pins the committed golden file against exactly this layout.
const SchemaV1 = "parc751/trace/v1"

// Dump is the serialized form of a recording: metadata, exact per-kind
// counters, the shedding accounting, the fault-ordinal trace, and the
// recorded event window merged across lanes in time order.
type Dump struct {
	Schema     string            `json:"schema"`
	Name       string            `json:"name"`
	Seed       uint64            `json:"seed"`
	Workers    int               `json:"workers"`
	Workload   *WorkloadSpec     `json:"workload,omitempty"`
	Plan       *PlanSpec         `json:"plan,omitempty"`
	Counts     map[string]uint64 `json:"counts"`
	Recorded   uint64            `json:"recorded"`
	Lost       uint64            `json:"lost"`
	SampledOut uint64            `json:"sampled_out"`
	Faults     []string          `json:"faults,omitempty"`
	Events     []DumpEvent       `json:"events"`
}

// DumpEvent is one event in dump form; kinds use their schema names.
type DumpEvent struct {
	TNs    int64  `json:"t_ns"`
	Kind   string `json:"kind"`
	Worker int32  `json:"w"`
	Task   uint64 `json:"task,omitempty"`
	Aux    uint64 `json:"aux,omitempty"`
}

// WorkloadSpec names a re-executable workload: together with the plan it
// is the dump's replay coordinate (internal/parctrace/replay).
type WorkloadSpec struct {
	Kind    string `json:"kind"`
	Seed    uint64 `json:"seed"`
	N       int    `json:"n"`
	Workers int    `json:"workers"`
	Chaos   bool   `json:"chaos,omitempty"`
}

// PlanSpec is a faultinject.Plan in dump form (string site/kind names).
type PlanSpec struct {
	Name  string     `json:"name"`
	Seed  uint64     `json:"seed"`
	Rules []RuleSpec `json:"rules,omitempty"`
}

// RuleSpec is one fault rule in dump form.
type RuleSpec struct {
	Site  string `json:"site"`
	Kind  string `json:"kind"`
	Nth   uint64 `json:"nth,omitempty"`
	Every uint64 `json:"every,omitempty"`
	Count uint64 `json:"count,omitempty"`
	DurNs int64  `json:"dur_ns,omitempty"`
}

// SpecFromPlan converts a live fault plan to its dump form.
func SpecFromPlan(p faultinject.Plan) *PlanSpec {
	spec := &PlanSpec{Name: p.Name, Seed: p.Seed}
	for _, r := range p.Rules {
		spec.Rules = append(spec.Rules, RuleSpec{
			Site:  r.Site.String(),
			Kind:  r.Kind.String(),
			Nth:   r.Nth,
			Every: r.Every,
			Count: r.Count,
			DurNs: int64(r.Dur),
		})
	}
	return spec
}

var faultKindByName = map[string]faultinject.Kind{
	"delay": faultinject.Delay,
	"stall": faultinject.Stall,
	"panic": faultinject.Panic,
	"error": faultinject.Error,
	"hang":  faultinject.Hang,
}

// PlanFromSpec rebuilds a live fault plan from its dump form. Unknown
// site or kind names are errors: silently dropping a rule would replay a
// different schedule than the one recorded.
func PlanFromSpec(spec *PlanSpec) (faultinject.Plan, error) {
	p := faultinject.Plan{Name: spec.Name, Seed: spec.Seed}
	for i, r := range spec.Rules {
		site, ok := probe.ParseSite(r.Site)
		if !ok || site >= probe.NumChaosSites {
			return p, fmt.Errorf("parctrace: plan rule %d: unknown site %q", i, r.Site)
		}
		kind, ok := faultKindByName[r.Kind]
		if !ok {
			return p, fmt.Errorf("parctrace: plan rule %d: unknown fault kind %q", i, r.Kind)
		}
		p.Rules = append(p.Rules, faultinject.Rule{
			Site:  site,
			Kind:  kind,
			Nth:   r.Nth,
			Every: r.Every,
			Count: r.Count,
			Dur:   time.Duration(r.DurNs),
		})
	}
	return p, nil
}

// Meta carries the identifying context a Snapshot stamps onto the dump.
type Meta struct {
	Name     string
	Seed     uint64
	Workload *WorkloadSpec
	Plan     *PlanSpec
	Faults   []string
}

// Snapshot assembles the dump: per-kind counters, shedding accounting,
// and the recorded window of every lane merged into one time-ordered
// event list. Call it after the workload has quiesced; a snapshot taken
// mid-run is consistent (torn slots are skipped and counted lost) but
// the window is whatever the rings held at that instant.
func (r *Recorder) Snapshot(meta Meta) *Dump {
	d := &Dump{
		Schema:   SchemaV1,
		Name:     meta.Name,
		Seed:     meta.Seed,
		Workers:  r.Workers(),
		Workload: meta.Workload,
		Plan:     meta.Plan,
		Counts:   map[string]uint64{},
		Faults:   meta.Faults,
	}
	for s := probe.Site(0); s < probe.NumSites; s++ {
		if c := r.counts[s].Load(); c > 0 {
			d.Counts[s.String()] = c
		}
	}
	d.SampledOut = r.sampled.Load()
	type laneEv struct {
		ev   Event
		lane int
		idx  int
	}
	var all []laneEv
	for li, lane := range r.lanes {
		evs, lost := lane.snapshot()
		d.Lost += lost
		for i, ev := range evs {
			all = append(all, laneEv{ev, li, i})
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].ev.TNs != all[j].ev.TNs {
			return all[i].ev.TNs < all[j].ev.TNs
		}
		if all[i].lane != all[j].lane {
			return all[i].lane < all[j].lane
		}
		return all[i].idx < all[j].idx
	})
	d.Events = make([]DumpEvent, len(all))
	for i, le := range all {
		d.Events[i] = DumpEvent{
			TNs:    le.ev.TNs,
			Kind:   le.ev.Kind.String(),
			Worker: le.ev.Worker,
			Task:   le.ev.Task,
			Aux:    le.ev.Aux,
		}
	}
	d.Recorded = uint64(len(d.Events))
	return d
}

// WriteDump serializes d as indented JSON (the committed-golden and CLI
// format).
func WriteDump(w io.Writer, d *Dump) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// ReadDump parses and validates a dump. Unknown schemas and malformed
// event kinds are errors — a trace written by a future format must fail
// loudly here, not render garbage.
func ReadDump(data []byte) (*Dump, error) {
	var d Dump
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("parctrace: parsing dump: %w", err)
	}
	if d.Schema != SchemaV1 {
		return nil, fmt.Errorf("parctrace: unsupported schema %q (want %q)", d.Schema, SchemaV1)
	}
	for i, ev := range d.Events {
		if s, ok := probe.ParseSite(ev.Kind); !ok || !traced(s) {
			return nil, fmt.Errorf("parctrace: event %d: unknown kind %q", i, ev.Kind)
		}
	}
	return &d, nil
}

// deterministicKinds are the event classes whose exact counts are a
// function of the (workload, plan) pair alone: what was submitted, what
// ran, what completed, the dependence edges, and the region structure.
// Steal/park/wake counts and all timestamps are scheduling accidents —
// they vary run to run on the same coordinate — so the canonical
// projection excludes them.
var deterministicKinds = []probe.Site{
	probe.SiteSubmit, probe.SiteRun, probe.SiteComplete, probe.SiteDepend,
	probe.SiteRegionStart, probe.SiteRegionEnd,
}

// Canonical returns the deterministic projection of the dump as bytes:
// schema, name, replay coordinate (workload + plan), the deterministic
// event counts, and the sorted fault-ordinal trace. Two recordings of
// the same coordinate must produce byte-identical canonical forms —
// that is the replay contract A12 and replay.Verify enforce.
func (d *Dump) Canonical() []byte {
	type canonical struct {
		Schema   string            `json:"schema"`
		Name     string            `json:"name"`
		Workload *WorkloadSpec     `json:"workload,omitempty"`
		Plan     *PlanSpec         `json:"plan,omitempty"`
		Counts   map[string]uint64 `json:"counts"`
		Faults   []string          `json:"faults"`
	}
	c := canonical{
		Schema:   d.Schema,
		Name:     d.Name,
		Workload: d.Workload,
		Plan:     d.Plan,
		Counts:   map[string]uint64{},
		Faults:   append([]string{}, d.Faults...),
	}
	for _, k := range deterministicKinds {
		if n, ok := d.Counts[k.String()]; ok {
			c.Counts[k.String()] = n
		}
	}
	sort.Strings(c.Faults)
	// Map keys marshal sorted and every field is deterministic, so this
	// never varies for a fixed projection; Marshal cannot fail on it.
	b, err := json.Marshal(c)
	if err != nil {
		panic("parctrace: canonical marshal: " + err.Error())
	}
	return b
}

// FaultCount returns how many fault events the dump's trace holds. The
// trace is the injector's TraceString split into fields, which reads
// "(no faults fired)" when nothing fired; every real event is
// site@ordinal:kind.
func (d *Dump) FaultCount() int {
	n := 0
	for _, f := range d.Faults {
		if strings.Contains(f, "@") {
			n++
		}
	}
	return n
}

// FaultSet returns the dump's fault-ordinal trace as a set.
func (d *Dump) FaultSet() map[string]bool {
	set := make(map[string]bool, len(d.Faults))
	for _, f := range d.Faults {
		set[f] = true
	}
	return set
}
