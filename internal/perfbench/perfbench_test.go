package perfbench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestMeasureCountsOpsAndAllocs(t *testing.T) {
	var calls int
	res := Measure(Spec{Name: "alloc1", Bench: func(n int) {
		calls += n
		for i := 0; i < n; i++ {
			s := make([]byte, 64)
			sink = s
		}
	}}, Options{MinTime: 2 * time.Millisecond, Repeats: 2})
	if res.Ops < 1 || calls < res.Ops {
		t.Fatalf("ops accounting broken: ops=%d calls=%d", res.Ops, calls)
	}
	if res.NsPerOp <= 0 {
		t.Fatalf("NsPerOp = %v, want > 0", res.NsPerOp)
	}
	// One make per op; tolerate ambient noise but pin the order of
	// magnitude (a missed ReadMemStats pairing would report 0 or huge).
	if res.AllocsPerOp < 0.9 || res.AllocsPerOp > 3 {
		t.Fatalf("AllocsPerOp = %v, want ~1", res.AllocsPerOp)
	}
}

var sink any // defeats escape analysis in the harness test

func TestMeasureZeroAllocPathReportsZero(t *testing.T) {
	x := 0
	res := Measure(Spec{Name: "incr", Bench: func(n int) {
		for i := 0; i < n; i++ {
			x++
		}
	}}, Options{MinTime: 2 * time.Millisecond, Repeats: 2})
	_ = x
	if res.AllocsPerOp > 0.01 {
		t.Fatalf("AllocsPerOp = %v for a pure-register loop, want 0", res.AllocsPerOp)
	}
}

func rep(results ...Result) Report {
	return Report{Schema: SchemaV1, Results: results}
}

func TestCompareFlagsOnlyRealRegressions(t *testing.T) {
	base := rep(
		Result{Name: "fast", NsPerOp: 30, AllocsPerOp: 0},
		Result{Name: "slow", NsPerOp: 10_000, AllocsPerOp: 2},
		Result{Name: "gone", NsPerOp: 100, AllocsPerOp: 0},
	)
	cur := rep(
		// +10% of 30ns = 3ns: inside the absolute epsilon, must pass.
		Result{Name: "fast", NsPerOp: 36, AllocsPerOp: 0},
		// +25% and far beyond epsilon: must fail. Allocs also grew.
		Result{Name: "slow", NsPerOp: 12_500, AllocsPerOp: 3},
		// "gone" missing: coverage regression.
		Result{Name: "new", NsPerOp: 5, AllocsPerOp: 0},
	)
	regs := Compare(base, cur, 10, 20)
	var names []string
	for _, r := range regs {
		names = append(names, r.Name)
	}
	if got := strings.Join(names, ","); got != "gone,slow,slow" {
		t.Fatalf("regressions = %v, want [gone slow slow]", names)
	}
}

// TestBuildDeltaAgreesWithCompare pins the one regression predicate: on
// a fixture with ok, regressed, missing and new paths, the delta rows'
// statuses are exactly what Compare reports — every "regressed" or
// "missing" row is a Compare regression and no other path is.
func TestBuildDeltaAgreesWithCompare(t *testing.T) {
	base := rep(
		Result{Name: "fast", NsPerOp: 30, AllocsPerOp: 0},
		Result{Name: "slow", NsPerOp: 10_000, AllocsPerOp: 2},
		Result{Name: "leaky", NsPerOp: 500, AllocsPerOp: 0},
		Result{Name: "gone", NsPerOp: 100, AllocsPerOp: 0},
	)
	cur := rep(
		Result{Name: "fast", NsPerOp: 36, AllocsPerOp: 0},
		Result{Name: "slow", NsPerOp: 12_500, AllocsPerOp: 2},
		Result{Name: "leaky", NsPerOp: 500, AllocsPerOp: 1},
		Result{Name: "new", NsPerOp: 5, AllocsPerOp: 0},
	)
	statuses := map[string]string{}
	for _, d := range BuildDelta("BENCH_test.json", base, cur, 10, 20).Deltas {
		statuses[d.Name] = d.Status
	}
	want := map[string]string{"fast": "ok", "slow": "regressed", "leaky": "regressed", "gone": "missing", "new": "new"}
	for name, st := range want {
		if statuses[name] != st {
			t.Errorf("BuildDelta status of %s = %q, want %q", name, statuses[name], st)
		}
	}
	flagged := map[string]bool{}
	for _, r := range Compare(base, cur, 10, 20) {
		flagged[r.Name] = true
	}
	for name, st := range statuses {
		if failing := st == "regressed" || st == "missing"; failing != flagged[name] {
			t.Errorf("%s: delta status %q but Compare flagged=%v", name, st, flagged[name])
		}
	}
}

func TestCompareAllocRatchetIsAbsolute(t *testing.T) {
	base := rep(Result{Name: "zero", NsPerOp: 50, AllocsPerOp: 0})
	cur := rep(Result{Name: "zero", NsPerOp: 50, AllocsPerOp: 1})
	if regs := Compare(base, cur, 10, 20); len(regs) != 1 {
		t.Fatalf("0→1 allocs/op must fail the ratchet, got %v", regs)
	}
	cur = rep(Result{Name: "zero", NsPerOp: 50, AllocsPerOp: 0.2})
	if regs := Compare(base, cur, 10, 20); len(regs) != 0 {
		t.Fatalf("sub-slack alloc noise must pass, got %v", regs)
	}
}

func TestReportRoundTripAndBaselineDiscovery(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"BENCH_2.json", "BENCH_10.json", "BENCH_abc.json", "OTHER_3.json"} {
		if err := WriteReport(filepath.Join(dir, name), rep(Result{Name: "x", NsPerOp: 1})); err != nil {
			t.Fatal(err)
		}
	}
	got, err := LatestBaseline(dir, "")
	if err != nil || filepath.Base(got) != "BENCH_10.json" {
		t.Fatalf("LatestBaseline = %q, %v; want BENCH_10.json", got, err)
	}
	// Numeric, not lexicographic: 10 beats 2. Excluding the latest falls
	// back to the previous one.
	got, err = LatestBaseline(dir, filepath.Join(dir, "BENCH_10.json"))
	if err != nil || filepath.Base(got) != "BENCH_2.json" {
		t.Fatalf("LatestBaseline(exclude latest) = %q, %v; want BENCH_2.json", got, err)
	}
	loaded, err := LoadReport(filepath.Join(dir, "BENCH_10.json"))
	if err != nil || len(loaded.Results) != 1 || loaded.Results[0].Name != "x" {
		t.Fatalf("LoadReport round trip: %+v, %v", loaded, err)
	}
	// Schema guard.
	bad := filepath.Join(dir, "BENCH_11.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"nope"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadReport(bad); err == nil {
		t.Fatal("LoadReport accepted an unknown schema")
	}
}

// TestSuiteSmoke runs every canonical hot path once through the real
// fixtures with a tiny window — the specs must execute, not how fast.
func TestSuiteSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("suite smoke spins up pools and a server")
	}
	specs, cleanup := Suite()
	defer cleanup()
	if len(specs) < 10 {
		t.Fatalf("suite has %d hot paths, the ratchet contract requires >= 10", len(specs))
	}
	rep := RunSuite(specs, Options{MinTime: time.Millisecond, Repeats: 1}, nil)
	seen := map[string]bool{}
	for _, r := range rep.Results {
		if seen[r.Name] {
			t.Fatalf("duplicate hot path %q", r.Name)
		}
		seen[r.Name] = true
		if r.NsPerOp <= 0 || r.Ops < 1 {
			t.Fatalf("%s: degenerate measurement %+v", r.Name, r)
		}
	}
	for _, want := range []string{"core_submit", "ptask_result", "pyjama_for_static", "barrier_t8", "parcserve_enqueue"} {
		if !seen[want] {
			t.Fatalf("canonical hot path %q missing from suite", want)
		}
	}
}
