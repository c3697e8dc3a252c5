package parctrace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"parc751/internal/faultinject"
	"parc751/internal/probe"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenDump is a fully-populated fixed dump: every schema field is
// exercised so a rename or retag of any of them moves the golden bytes.
func goldenDump() *Dump {
	return &Dump{
		Schema:  SchemaV1,
		Name:    "golden",
		Seed:    751,
		Workers: 2,
		Workload: &WorkloadSpec{
			Kind: "quicksort", Seed: 751, N: 64, Workers: 2, Chaos: true,
		},
		Plan: &faultinject.Plan{
			Name: "golden-plan", Seed: 751,
			Rules: []faultinject.Rule{
				{Site: probe.SiteSubmit, Kind: faultinject.Delay, Nth: 3, Count: 1, Dur: 200 * time.Microsecond},
				{Site: probe.SiteTaskBody, Kind: faultinject.Panic, Every: 7},
			},
		},
		Counts: map[string]uint64{
			"submit": 5, "steal": 1, "run": 5, "complete": 5,
			"depend": 2, "park": 1, "wake": 1,
			"region_start": 1, "region_end": 1,
		},
		Recorded:   6,
		Lost:       1,
		SampledOut: 15,
		Faults:     []string{"submit@3:delay", "taskbody@7:panic"},
		Events: []Event{
			{TNs: 100, Kind: probe.SiteRegionStart, Worker: -1, Task: 1, Aux: 2},
			{TNs: 220, Kind: probe.SiteSubmit, Worker: -1, Task: 2},
			{TNs: 300, Kind: probe.SiteSteal, Worker: 1, Task: 2},
			{TNs: 410, Kind: probe.SiteRun, Worker: 1, Task: 2},
			{TNs: 900, Kind: probe.SiteComplete, Worker: 1, Task: 2},
			{TNs: 1000, Kind: probe.SiteRegionEnd, Worker: -1, Task: 1, Aux: 2},
		},
	}
}

// TestTraceSchemaStability byte-compares the serialized golden dump with
// the committed file: any change to field names, tags, ordering, or the
// indentation format is a schema break and must bump SchemaV1 instead of
// silently rewriting v1. Regenerate deliberately with -update.
func TestTraceSchemaStability(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteDump(&buf, goldenDump()); err != nil {
		t.Fatalf("WriteDump: %v", err)
	}
	path := filepath.Join("testdata", "golden_trace_v1.json")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatalf("writing golden: %v", err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("dump format drifted from committed golden %s.\nIf the change is deliberate it is a schema bump: revise SchemaV1 and regenerate with -update.\ngot:\n%s\nwant:\n%s",
			path, buf.Bytes(), want)
	}
}

// TestTraceSchemaKeys pins the exact JSON key sets of every object in
// the v1 schema, table-driven over the golden file, so an added field is
// caught as loudly as a renamed one.
func TestTraceSchemaKeys(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "golden_trace_v1.json"))
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatalf("golden is not a JSON object: %v", err)
	}
	keysOf := func(t *testing.T, raw json.RawMessage) []string {
		t.Helper()
		var m map[string]json.RawMessage
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("not an object: %v", err)
		}
		ks := make([]string, 0, len(m))
		for k := range m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return ks
	}
	firstElem := func(t *testing.T, raw json.RawMessage) json.RawMessage {
		t.Helper()
		var arr []json.RawMessage
		if err := json.Unmarshal(raw, &arr); err != nil || len(arr) == 0 {
			t.Fatalf("not a non-empty array: %v", err)
		}
		return arr[0]
	}
	cases := []struct {
		name string
		raw  func(t *testing.T) json.RawMessage
		want []string
	}{
		{"top-level", func(t *testing.T) json.RawMessage { return raw },
			[]string{"counts", "events", "faults", "lost", "name", "plan", "recorded",
				"sampled_out", "schema", "seed", "workers", "workload"}},
		{"event", func(t *testing.T) json.RawMessage { return firstElem(t, top["events"]) },
			[]string{"aux", "kind", "t_ns", "task", "w"}},
		{"workload", func(t *testing.T) json.RawMessage { return top["workload"] },
			[]string{"chaos", "kind", "n", "seed", "workers"}},
		{"plan", func(t *testing.T) json.RawMessage { return top["plan"] },
			[]string{"name", "rules", "seed"}},
		{"rule", func(t *testing.T) json.RawMessage { return firstElem(t, top["plan"]) },
			nil}, // filled below: rules is nested inside plan
	}
	// The rule object lives at plan.rules[0].
	cases[4].raw = func(t *testing.T) json.RawMessage {
		var plan map[string]json.RawMessage
		if err := json.Unmarshal(top["plan"], &plan); err != nil {
			t.Fatalf("plan: %v", err)
		}
		return firstElem(t, plan["rules"])
	}
	cases[4].want = []string{"count", "dur_ns", "kind", "nth", "site"}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := keysOf(t, tc.raw(t)); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("key set drifted:\n got %v\nwant %v", got, tc.want)
			}
		})
	}
}

// TestDumpRoundTrip: Write→Read is lossless and the canonical projection
// survives the trip byte-for-byte.
func TestDumpRoundTrip(t *testing.T) {
	d := goldenDump()
	var buf bytes.Buffer
	if err := WriteDump(&buf, d); err != nil {
		t.Fatalf("WriteDump: %v", err)
	}
	back, err := ReadDump(buf.Bytes())
	if err != nil {
		t.Fatalf("ReadDump: %v", err)
	}
	if !reflect.DeepEqual(d, back) {
		t.Fatalf("round trip lost data:\n got %+v\nwant %+v", back, d)
	}
	if a, b := d.Canonical(), back.Canonical(); !bytes.Equal(a, b) {
		t.Fatalf("canonical projection changed across the trip:\n %s\n %s", a, b)
	}
}

func TestReadDumpErrors(t *testing.T) {
	cases := []struct {
		name string
		data string
		want string
	}{
		{"garbage", "{not json", "parsing dump"},
		{"wrong schema", `{"schema":"parc751/trace/v0"}`, "unsupported schema"},
		{"unknown kind", `{"schema":"parc751/trace/v1","events":[{"t_ns":1,"kind":"teleport","w":0}]}`, `unknown site "teleport"`},
		{"unknown rule site", `{"schema":"parc751/trace/v1","plan":{"rules":[{"site":"warp","kind":"delay"}]}}`, `unknown site "warp"`},
		{"unknown fault kind", `{"schema":"parc751/trace/v1","plan":{"rules":[{"site":"submit","kind":"glitter"}]}}`, `unknown fault kind "glitter"`},
		{"rule at complete", `{"schema":"parc751/trace/v1","plan":{"rules":[{"site":"complete","kind":"delay"}]}}`, "complete is not a chaos site"},
		{"event without kind", `{"schema":"parc751/trace/v1","events":[{"t_ns":1,"w":0}]}`, "event 0 has no kind"},
		{"rule without site", `{"schema":"parc751/trace/v1","plan":{"rules":[{"kind":"delay","nth":1}]}}`, "plan rule 0 has no site"},
		{"rule without kind", `{"schema":"parc751/trace/v1","plan":{"rules":[{"site":"submit","nth":1}]}}`, "plan rule 0 has no kind"},
		{"negative workers", `{"schema":"parc751/trace/v1","workers":-1}`, "-1 workers outside [0, 4096]"},
		{"too many workers", `{"schema":"parc751/trace/v1","workers":2000000000}`, "2000000000 workers outside [0, 4096]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadDump([]byte(tc.data))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestPlanRoundTrip: every chaos site and fault-kind name survives
// WriteDump→ReadDump, so a replayed schedule is built from the same rules.
func TestPlanRoundTrip(t *testing.T) {
	p := faultinject.Plan{
		Name: "all-sites", Seed: 9,
		Rules: []faultinject.Rule{
			{Site: probe.SiteSubmit, Kind: faultinject.Delay, Nth: 1, Dur: time.Millisecond},
			{Site: probe.SiteSteal, Kind: faultinject.Stall, Every: 2, Dur: time.Microsecond},
			{Site: probe.SiteRun, Kind: faultinject.Panic, Count: 3},
			{Site: probe.SiteBarrier, Kind: faultinject.Error, Nth: 4},
			{Site: probe.SiteDispatch, Kind: faultinject.Hang, Count: 1},
			{Site: probe.SiteTaskBody, Kind: faultinject.Panic, Every: 5},
			{Site: probe.SiteTransport, Kind: faultinject.Error, Every: 1},
		},
	}
	var buf bytes.Buffer
	if err := WriteDump(&buf, &Dump{Schema: SchemaV1, Plan: &p}); err != nil {
		t.Fatalf("WriteDump: %v", err)
	}
	back, err := ReadDump(buf.Bytes())
	if err != nil {
		t.Fatalf("ReadDump: %v", err)
	}
	if !reflect.DeepEqual(p, *back.Plan) {
		t.Fatalf("plan round trip lost rules:\n got %+v\nwant %+v", *back.Plan, p)
	}
}

// TestCanonicalExcludesAccidents: two dumps that differ only in
// scheduling accidents — steal/park/wake counts, timestamps, worker
// assignments, shedding accounting — have identical canonical bytes,
// while a drift in a deterministic count changes them.
func TestCanonicalExcludesAccidents(t *testing.T) {
	a, b := goldenDump(), goldenDump()
	b.Counts["steal"] = 42
	b.Counts["park"] = 9
	b.Counts["wake"] = 9
	b.Recorded, b.Lost, b.SampledOut = 999, 7, 3
	for i := range b.Events {
		b.Events[i].TNs += 12345
		b.Events[i].Worker = 0
	}
	if !bytes.Equal(a.Canonical(), b.Canonical()) {
		t.Fatalf("canonical projection leaked a nondeterministic field:\n %s\n %s",
			a.Canonical(), b.Canonical())
	}
	b.Counts["complete"]++
	if bytes.Equal(a.Canonical(), b.Canonical()) {
		t.Fatal("canonical projection ignored a deterministic count drift")
	}
}

// TestKindStringRoundTrip pins the v1 event-kind set against the probe
// vocabulary: every site name round trips through the text methods,
// exactly the nine traced sites are legal event kinds in a dump, and the
// chaos-only sites are not.
func TestKindStringRoundTrip(t *testing.T) {
	var kinds []string
	for s := probe.Site(0); s < probe.NumSites; s++ {
		text, err := s.MarshalText()
		var got probe.Site
		if err != nil || string(text) != s.String() || got.UnmarshalText(text) != nil || got != s {
			t.Fatalf("site %d (%q) does not round trip: text %q err %v, got %d", s, s.String(), text, err, got)
		}
		dump := `{"schema":"parc751/trace/v1","counts":{},"events":[{"t_ns":1,"kind":"` + s.String() + `","w":0}]}`
		if _, err := ReadDump([]byte(dump)); (err == nil) != traced(s) {
			t.Fatalf("ReadDump on a %q event: err = %v, traced = %v", s, err, traced(s))
		}
		if traced(s) {
			kinds = append(kinds, s.String())
		}
	}
	want := []string{"submit", "steal", "run", "complete", "depend", "park", "wake", "region_start", "region_end"}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("v1 event kinds = %v, want %v", kinds, want)
	}
	var s probe.Site
	if s.UnmarshalText([]byte("unknown")) == nil {
		t.Fatal("UnmarshalText accepted the out-of-range placeholder name")
	}
	if probe.Site(200).String() != "unknown" {
		t.Fatal("out-of-range site must stringify as unknown")
	}
	if _, err := probe.Site(200).MarshalText(); err == nil {
		t.Fatal("out-of-range site marshaled")
	}
}
