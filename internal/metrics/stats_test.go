package metrics

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if got := s.mean; math.Abs(got-5) > 1e-12 {
		t.Errorf("mean = %g, want 5", got)
	}
	// Sample variance of this classic data set is 32/7.
	if got := s.Variance(); math.Abs(got-32.0/7.0) > 1e-12 {
		t.Errorf("variance = %g, want %g", got, 32.0/7.0)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("min/max = %g/%g", s.Min(), s.Max())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.mean != 0 || s.Variance() != 0 || s.CI95() != 0 || s.N() != 0 {
		t.Error("empty summary should report zeros")
	}
}

func TestSummarySingle(t *testing.T) {
	var s Summary
	s.Add(3.5)
	if s.mean != 3.5 || s.Min() != 3.5 || s.Max() != 3.5 {
		t.Error("single-element summary wrong")
	}
	if s.Variance() != 0 || s.CI95() != 0 {
		t.Error("variance of single element must be 0")
	}
}

func TestSummaryAddDuration(t *testing.T) {
	var s Summary
	s.AddDuration(500 * time.Millisecond)
	s.AddDuration(1500 * time.Millisecond)
	if got := s.mean; math.Abs(got-1.0) > 1e-12 {
		t.Errorf("mean = %g, want 1.0 second", got)
	}
}

func TestSpeedupAndEfficiency(t *testing.T) {
	if got := Speedup(10, 2); got != 5 {
		t.Errorf("Speedup = %g", got)
	}
	if !math.IsInf(Speedup(1, 0), 1) {
		t.Error("Speedup with zero parallel should be +Inf")
	}
	if !math.IsNaN(Speedup(0, 0)) {
		t.Error("Speedup(0,0) should be NaN")
	}
	if got := Efficiency(16, 2, 8); got != 1 {
		t.Errorf("Efficiency = %g, want 1", got)
	}
	if !math.IsNaN(Efficiency(1, 1, 0)) {
		t.Error("Efficiency with p=0 should be NaN")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	if got := Percentile(xs, 0); got != 15 {
		t.Errorf("p0 = %g", got)
	}
	if got := Percentile(xs, 1); got != 50 {
		t.Errorf("p100 = %g", got)
	}
	if got := Percentile(xs, 0.5); got != 35 {
		t.Errorf("median = %g", got)
	}
	if got := Percentile(xs, 0.25); got != 20 {
		t.Errorf("p25 = %g", got)
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Error("empty percentile should be NaN")
	}
	// Input must not be reordered.
	if xs[0] != 15 || xs[4] != 50 {
		t.Error("Percentile mutated its input")
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Demo", "name", "value")
	tab.AddRow("alpha", 1.5)
	tab.AddRow("beta-longer-name", 12345.678)
	out := tab.String()
	if !strings.Contains(out, "== Demo ==") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "beta-longer-name") {
		t.Error("missing rows")
	}
	if !strings.Contains(out, "12346") {
		t.Errorf("large float misformatted: %s", out)
	}
	// title, header, rule, two data rows
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Errorf("unexpected line count %d: %q", len(lines), out)
	}
}

func TestTableNaNRendersDash(t *testing.T) {
	tab := NewTable("", "v")
	tab.AddRow(math.NaN())
	if !strings.Contains(tab.String(), "-") {
		t.Error("NaN should render as dash")
	}
}

func TestChartRendering(t *testing.T) {
	s1 := &Series{Name: "seq"}
	s2 := &Series{Name: "par"}
	for i := 1; i <= 8; i *= 2 {
		s1.Add(float64(i), 1)
		s2.Add(float64(i), float64(i))
	}
	ch := &Chart{Title: "Speedup", XLabel: "cores", YLabel: "S"}
	ch.AddSeries(s1)
	ch.AddSeries(s2)
	out := ch.String()
	for _, want := range []string{"== Speedup ==", "seq", "par", "cores", "top=8"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart output missing %q:\n%s", want, out)
		}
	}
}

func TestChartEmpty(t *testing.T) {
	ch := &Chart{Title: "empty"}
	if !strings.Contains(ch.String(), "(no data)") {
		t.Error("empty chart should say so")
	}
}

func TestChartFlatLine(t *testing.T) {
	s := &Series{Name: "flat"}
	s.Add(1, 5)
	s.Add(2, 5)
	ch := &Chart{Title: "flat", XLabel: "x", YLabel: "y"}
	ch.AddSeries(s)
	if out := ch.String(); !strings.Contains(out, "flat") {
		t.Errorf("flat chart failed: %s", out)
	}
}

func BenchmarkSummaryAdd(b *testing.B) {
	var s Summary
	for i := 0; i < b.N; i++ {
		s.Add(float64(i))
	}
}

func TestLatencyHistogramBuckets(t *testing.T) {
	var h LatencyHistogram
	if s := h.Snapshot(); s.Total != 0 || s.String() != "no observations" {
		t.Fatalf("empty snapshot: %v %q", s.Total, s.String())
	}
	h.Observe(0)
	h.Observe(-time.Second) // clamped to zero
	h.Observe(3)            // bucket [2,4)
	h.Observe(100 * time.Millisecond)
	h.Observe(1 << 62) // clamped into the last bucket
	s := h.Snapshot()
	if s.Total != 5 {
		t.Fatalf("Total = %d", s.Total)
	}
	if s.Counts[0] != 2 {
		t.Fatalf("zero bucket = %d", s.Counts[0])
	}
	if s.Counts[2] != 1 {
		t.Fatalf("bucket [2,4) = %d", s.Counts[2])
	}
	if s.Counts[31] != 1 {
		t.Fatalf("overflow bucket = %d", s.Counts[31])
	}
	if q := s.Quantile(0); q <= 0 {
		t.Fatalf("Quantile(0) = %v", q)
	}
	if q := s.Quantile(1); q < 100*time.Millisecond {
		t.Fatalf("Quantile(1) = %v", q)
	}
	if s.String() == "" {
		t.Fatal("empty rendering")
	}
}

func TestLatencyHistogramQuantileMonotone(t *testing.T) {
	var h LatencyHistogram
	for i := 0; i < 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	s := h.Snapshot()
	qs := []float64{0.1, 0.5, 0.9, 0.99, 1}
	prev := time.Duration(0)
	for _, q := range qs {
		v := s.Quantile(q)
		if v < prev {
			t.Fatalf("Quantile(%v) = %v < %v", q, v, prev)
		}
		prev = v
	}
	if s.Quantile(0.5) > time.Millisecond {
		t.Fatalf("p50 = %v, want <= 1ms for 0..1ms data", s.Quantile(0.5))
	}
}
