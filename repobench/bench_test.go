package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"parc751/internal/metrics"
)

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	cases := []struct {
		n      int
		q      float64
		beyond int
	}{
		{n: 100, q: 0.90, beyond: 10},  // p95 would leave only 5 beyond
		{n: 1000, q: 0.99, beyond: 10}, // p99.9 would leave 1
		{n: 200, q: 0.95, beyond: 10},  // p98 would leave 4
		{n: 100000, q: 0.9999, beyond: 10},
		{n: 25, q: 0.5, beyond: 12},
	}
	for _, c := range cases {
		got := tailPercentile(seq(c.n))
		if got.Q != c.q || got.Beyond != c.beyond || got.N != c.n {
			t.Errorf("n=%d: got q=%v beyond=%d n=%d, want q=%v beyond=%d", c.n, got.Q, got.Beyond, got.N, c.q, c.beyond)
		}
		if above := countAbove(seq(c.n), got.Value); above != got.Beyond {
			t.Errorf("n=%d: %d samples above %v, reported %d", c.n, above, got.Value, got.Beyond)
		}
	}
	if got := tailPercentile(seq(12)); got.Q != 1 || got.Value != 12 || got.Beyond != 0 {
		t.Errorf("12 samples: got %+v, want the maximum with none beyond", got)
	}
	if got := tailPercentile(nil); got != (tail{}) {
		t.Errorf("no samples: got %+v", got)
	}
}

func TestNormalisePerJob(t *testing.T) {
	from := usage{cpu: 2 * time.Second, mallocs: 1000, bytes: 1 << 20}
	to := usage{cpu: 2*time.Second + 450*time.Millisecond, mallocs: 1000 + 9*250, bytes: 1<<20 + 9*4096}
	got := normalise(from, to, 9)
	want := perJob{CPUms: 50, Alloc: 250, Bytes: 4096}
	if math.Abs(got.CPUms-want.CPUms) > 1e-9 || got.Alloc != want.Alloc || got.Bytes != want.Bytes {
		t.Errorf("normalise = %+v, want %+v", got, want)
	}
	if got := normalise(from, to, 0); got != (perJob{}) {
		t.Errorf("no jobs: got %+v, want zeros", got)
	}
}

const procStatSample = `cpu  140563 0 14771 533532 1639 0 4075 35227 0 0
cpu0 70204 0 7343 266804 866 0 2046 17679 0 0
cpu1 70358 0 7427 266728 772 0 2028 17548 0 0
intr 1 2 3
`

func TestParseProcStat(t *testing.T) {
	got, err := parseProcStat(strings.NewReader(procStatSample))
	if err != nil {
		t.Fatal(err)
	}
	want := cpuTicks{Total: 140563 + 14771 + 533532 + 1639 + 4075 + 35227, Steal: 35227}
	if got != want {
		t.Fatalf("parseProcStat = %+v, want %+v", got, want)
	}
	later := cpuTicks{Total: want.Total + 400, Steal: want.Steal + 100}
	if s := stealShare(want, later); s != 0.25 {
		t.Errorf("stealShare = %v, want 0.25", s)
	}
	if s := stealShare(want, want); !math.IsNaN(s) {
		t.Errorf("stealShare over no ticks = %v, want NaN", s)
	}
	for _, bad := range []string{"cpu  1 2 3 4\n", "cpu0 1 2 3 4 5 6 7 8\n", "cpu  1 2 x 4 5 6 7 8\n", ""} {
		if _, err := parseProcStat(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProcStat(%q) succeeded", bad)
		}
	}
}

func TestInterpQuantile(t *testing.T) {
	var s metrics.LatencySnapshot
	s.Counts[5], s.Counts[6] = 10, 10 // [16,32) ns and [32,64) ns
	s.Total = 20
	if got := interpQuantile(s, 0.5); got != 32 {
		t.Errorf("median = %v, want 32ns (top of the lower bucket)", got)
	}
	if got := interpQuantile(s, 0.75); got != 48 {
		t.Errorf("p75 = %v, want 48ns (middle of the upper bucket)", got)
	}
	if got := interpQuantile(metrics.LatencySnapshot{}, 0.5); got != 0 {
		t.Errorf("empty = %v, want 0", got)
	}
}

func TestBenchIDRoundTrip(t *testing.T) {
	body := []byte(`{"seed":17,"n":256}`)
	traced := withBenchID(nil, body, 4711)
	if string(traced) != `{"seed":17,"n":256,"bench_id":4711}` {
		t.Fatalf("withBenchID = %s", traced)
	}
	var v map[string]any
	if err := json.Unmarshal(traced, &v); err != nil {
		t.Fatalf("traced body is not JSON: %v", err)
	}
	if id := benchID(traced); id != 4711 {
		t.Errorf("benchID = %d, want 4711", id)
	}
	if id := benchID(body); id != -1 {
		t.Errorf("benchID of an untraced body = %d, want -1", id)
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the program's metric lists and
// BENCHMARK.json in step.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var e2e []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
		if e2eUnits[m.Name] != m.Unit {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q in the program", m.Name, m.Unit, e2eUnits[m.Name])
		}
	}
	if !sameSet(e2e, gatedMetrics) {
		t.Errorf("end_to_end %v, program gates %v", e2e, gatedMetrics)
	}
	var layers []string
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name)
		if layerUnits[m.Name] != m.Unit {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q in the program", m.Name, m.Unit, layerUnits[m.Name])
		}
	}
	if !sameSet(layers, sortedKeys(layerUnits)) {
		t.Errorf("per_layer %v, program reports %v", layers, sortedKeys(layerUnits))
	}
}

func sameSet(a, b []string) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	sort.Strings(a)
	sort.Strings(b)
	return slices.Equal(a, b)
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that each produces a correct result carrying exactly its metric set.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take several seconds")
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: name, seed: 99, seconds: 0.4, trace: traced, procs: 2, out: io.Discard}
			rep, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			res, err := finish(cfg, rep)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%v",
					name, traced, res.Correct, res.Attempted, res.Failed, rep.Problems)
			}
			want := gatedMetrics
			if traced {
				want = sortedKeys(layerUnits)
			}
			if !sameSet(sortedKeys(res.Metrics), want) {
				t.Errorf("%s trace=%v: metrics %v, want %v", name, traced, sortedKeys(res.Metrics), want)
			}
			for _, m := range gatedMetrics {
				if !traced && res.Metrics[m].Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", name, m, res.Metrics[m].Value)
				}
			}
		}
	}
}

// TestWrongAnswerFails checks the correctness gate itself: a served
// answer whose checksum differs from the reference counts as a failure.
func TestWrongAnswerFails(t *testing.T) {
	specs := genSpecs(5)
	if err := referenceChecksums(2, specs); err != nil {
		t.Fatal(err)
	}
	for i := range specs[0] {
		specs[0][i].want ^= 1 // every sort answer now disagrees
	}
	tgt, err := startSolo(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport()
	c := newClients(1, 5)[0]
	c.url = tgt.url
	for i := 0; i < 20 && c.failed == 0; i++ {
		c.do(specs, nil)
	}
	c.close()
	tgt.stop(rep)
	if c.failed == 0 || !strings.Contains(c.problems[0], "checksum") {
		t.Fatalf("a wrong reference checksum was not reported: failed=%d problems=%v", c.failed, c.problems)
	}
}
