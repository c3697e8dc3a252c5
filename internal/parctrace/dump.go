package parctrace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"parc751/internal/faultinject"
	"parc751/internal/probe"
)

// SchemaV1 is the versioned dump format identifier. Old traces must keep
// loading: field renames are schema bumps, and TestTraceSchemaStability
// pins the committed golden file against exactly this layout.
const SchemaV1 = "parc751/trace/v1"

// Dump is the serialized form of a recording: metadata, exact per-kind
// counters, the shedding accounting, the fired faults, and the recorded
// event window merged across lanes in time order. The plan and the
// events are the owners' own types, faultinject.Plan and Event, each
// serializing its site and kind by name; Faults holds one
// faultinject.Event.String (site@ordinal:kind) per fired fault, in the
// injector's (site, ordinal) order, and is empty when nothing fired.
type Dump struct {
	Schema     string            `json:"schema"`
	Name       string            `json:"name"`
	Seed       uint64            `json:"seed"`
	Workers    int               `json:"workers"`
	Workload   *WorkloadSpec     `json:"workload,omitempty"`
	Plan       *faultinject.Plan `json:"plan,omitempty"`
	Counts     map[string]uint64 `json:"counts"`
	Recorded   uint64            `json:"recorded"`
	Lost       uint64            `json:"lost"`
	SampledOut uint64            `json:"sampled_out"`
	Faults     []string          `json:"faults,omitempty"`
	Events     []Event           `json:"events"`
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

// Meta carries the identifying context a Snapshot stamps onto the dump.
type Meta struct {
	Name     string
	Seed     uint64
	Workload *WorkloadSpec
	Plan     *faultinject.Plan
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
		Events:   []Event{},
	}
	for s := probe.Site(0); s < probe.NumSites; s++ {
		if c := r.counts[s].Load(); c > 0 {
			d.Counts[s.String()] = c
		}
	}
	d.SampledOut = r.sampled.Load()
	for _, lane := range r.lanes {
		evs, lost := lane.snapshot()
		d.Lost += lost
		d.Events = append(d.Events, evs...)
	}
	// Stable, so events of one instant keep their lane and ring order.
	sort.SliceStable(d.Events, func(i, j int) bool { return d.Events[i].TNs < d.Events[j].TNs })
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

// maxWorkers bounds a dump's worker count. The renderers draw a row for
// every worker, so ReadDump refuses a count outside [0, maxWorkers].
const maxWorkers = 4096

// ReadDump parses and validates a dump. Unknown schemas, unknown site or
// fault-kind names, absent ones, untraced event kinds, plan rules at
// trace-only sites and a worker count outside [0, maxWorkers] are errors
// — a trace written by a future format, cut short or crafted must fail
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
	if d.Workers < 0 || d.Workers > maxWorkers {
		return nil, fmt.Errorf("parctrace: %d workers outside [0, %d]", d.Workers, maxWorkers)
	}
	if err := requireNames(data); err != nil {
		return nil, err
	}
	for i, ev := range d.Events {
		if !traced(ev.Kind) {
			return nil, fmt.Errorf("parctrace: event %d: %s is not a traced kind", i, ev.Kind)
		}
	}
	if d.Plan != nil {
		for i, r := range d.Plan.Rules {
			if r.Site >= probe.NumChaosSites {
				return nil, fmt.Errorf("parctrace: plan rule %d: %s is not a chaos site", i, r.Site)
			}
		}
	}
	return &d, nil
}

// requireNames rejects an event without a "kind" and a plan rule without
// a "site" or "kind". Decoding leaves an absent name at its zero value,
// and Site(0) and Kind(0) are valid names (submit, delay), so the Dump
// decode alone would read such an entry as a submit event or rule.
func requireNames(data []byte) error {
	type named struct {
		Site json.RawMessage `json:"site"`
		Kind json.RawMessage `json:"kind"`
	}
	var keys struct {
		Plan *struct {
			Rules []named `json:"rules"`
		} `json:"plan"`
		Events []named `json:"events"`
	}
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&keys); err != nil {
		return fmt.Errorf("parctrace: parsing dump: %w", err)
	}
	absent := func(v json.RawMessage) bool { return v == nil || string(v) == "null" }
	for i, ev := range keys.Events {
		if absent(ev.Kind) {
			return fmt.Errorf("parctrace: event %d has no kind", i)
		}
	}
	if keys.Plan != nil {
		for i, r := range keys.Plan.Rules {
			if absent(r.Site) {
				return fmt.Errorf("parctrace: plan rule %d has no site", i)
			}
			if absent(r.Kind) {
				return fmt.Errorf("parctrace: plan rule %d has no kind", i)
			}
		}
	}
	return nil
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
		Plan     *faultinject.Plan `json:"plan,omitempty"`
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
