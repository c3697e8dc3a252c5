// Command repobench is the repository benchmark: it drives the course's
// parallel programs (compute) and the serving stack (serve_small,
// fleet_small) for a fixed time, checks every output, and prints one JSON
// result line. Run it through run.py, which builds it from source:
//
//	python3 repobench/run.py --workload compute --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the gated end-to-end metrics; every
// other candidate metric and the host-interference record (steal share,
// nproc, GOMAXPROCS, Go version) are printed on the preceding lines as
// diagnostics. With --trace 1 the run is split into an untraced and a
// traced half and the result carries the per-layer metrics, each timed
// from outside around calls into the layer's public functions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"time"
)

// gatedMetrics are the end-to-end metrics the result line carries (the
// end_to_end list of BENCHMARK.json). NOISE.md records why these and not
// the other candidates: the three per-job and memory counts repeated
// within a tenth across runs on the 2-vCPU host the study was made on,
// and the set-up time is gated by rule.
var gatedMetrics = []string{"setup_s", "allocs_per_job", "alloc_bytes_per_job", "max_rss_mb"}

// Candidate end-to-end metrics and their units.
var e2eUnits = map[string]string{
	"setup_s":             "s",
	"setup_wall_s":        "s",
	"jobs_per_s":          "1/s",
	"latency_p50_ms":      "ms",
	"latency_tail_ms":     "ms",
	"cpu_ms_per_job":      "ms",
	"allocs_per_job":      "count",
	"alloc_bytes_per_job": "B",
	"max_rss_mb":          "MiB",
}

// config is one run's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	borrowed bool // a borrowed traced run, which borrows nothing itself
	procs    int  // load clients, pool workers and team sizes
	out      io.Writer
}

func (c config) duration() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload run produces.
type report struct {
	Attempted int64
	Failed    int64
	Problems  []string          // first few failure descriptions
	E2E       map[string]metric // every candidate end-to-end metric
	Layer     map[string]metric // per-layer metrics (traced runs)
	Diag      map[string]any    // host record and metric context
}

func newReport() *report {
	return &report{E2E: map[string]metric{}, Layer: map[string]metric{}, Diag: map[string]any{}}
}

func (r *report) fail(format string, args ...any) {
	r.Failed++
	if len(r.Problems) < 5 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) layer(name, unit string, v float64) { r.Layer[name] = metric{v, unit} }

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloadNames = []string{"compute", "serve_small", "fleet_small"}

// runWorkload runs the named workload.
func runWorkload(cfg config) (*report, error) {
	switch cfg.workload {
	case "compute":
		return runCompute(cfg)
	case "serve_small":
		return runServe(cfg, false)
	case "fleet_small":
		return runServe(cfg, true)
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "compute | serve_small | fleet_small")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run printing per-layer metrics")
	flag.Parse()
	cfg.trace = traceFlag == 1
	cfg.procs = runtime.GOMAXPROCS(0)
	cfg.out = os.Stdout

	if !slices.Contains(workloadNames, cfg.workload) || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "repobench: bad arguments (workload %q, seconds %v, trace %d)\n",
			cfg.workload, cfg.seconds, traceFlag)
		os.Exit(2)
	}
	rep, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repobench:", err)
		os.Exit(1)
	}
	res, err := finish(cfg, rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repobench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repobench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// finish prints the diagnostics and assembles the result line.
func finish(cfg config, rep *report) (*result, error) {
	rep.Diag["workload"] = cfg.workload
	rep.Diag["seed"] = cfg.seed
	rep.Diag["nproc"] = runtime.NumCPU()
	rep.Diag["gomaxprocs"] = runtime.GOMAXPROCS(0)
	rep.Diag["go_version"] = runtime.Version()
	for _, name := range sortedKeys(rep.E2E) {
		m := rep.E2E[name]
		fmt.Fprintf(cfg.out, "e2e %-22s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, name := range sortedKeys(rep.Layer) {
		m := rep.Layer[name]
		fmt.Fprintf(cfg.out, "layer %-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(cfg.out, "failure %s\n", p)
	}
	diag := map[string]any{"diag": rep.Diag, "e2e": rep.E2E}
	line, err := json.Marshal(diag)
	if err != nil {
		return nil, fmt.Errorf("encode diagnostics: %w", err)
	}
	fmt.Fprintf(cfg.out, "diag %s\n", line)

	res := &result{
		Correct:   rep.Failed == 0 && rep.Attempted > 0,
		Attempted: rep.Attempted,
		Failed:    rep.Failed,
		Metrics:   map[string]metric{},
	}
	if cfg.trace {
		for name := range layerUnits {
			if _, ok := rep.Layer[name]; !ok {
				return nil, fmt.Errorf("workload %s did not report layer metric %s", cfg.workload, name)
			}
		}
		res.Metrics = rep.Layer
	} else {
		for _, name := range gatedMetrics {
			m, ok := rep.E2E[name]
			if !ok {
				return nil, fmt.Errorf("workload %s did not measure %s", cfg.workload, name)
			}
			res.Metrics[name] = m
		}
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return res, nil
}

// phase is one closed-loop measurement interval.
type phase struct {
	jobs    int64     // completed successfully
	lat     []float64 // per successful job, ms
	elapsed time.Duration
	from    usage
	to      usage
}

// endToEnd fills every candidate end-to-end metric from the timed phase
// and the set-up samples, and records the phase's steal share.
func (r *report) endToEnd(p phase, setups []setupSample) {
	cpu, wall := make([]float64, len(setups)), make([]float64, len(setups))
	for i, s := range setups {
		cpu[i], wall[i] = s.cpu.Seconds(), s.wall.Seconds()
	}
	pj := normalise(p.from, p.to, p.jobs)
	t := tailPercentile(p.lat)
	set := func(name string, v float64) { r.E2E[name] = metric{jsonSafe(v), e2eUnits[name]} }
	set("setup_s", median(cpu))
	set("setup_wall_s", median(wall))
	set("jobs_per_s", float64(p.jobs)/p.elapsed.Seconds())
	set("latency_p50_ms", median(p.lat))
	set("latency_tail_ms", t.Value)
	set("cpu_ms_per_job", pj.CPUms)
	set("allocs_per_job", pj.Alloc)
	set("alloc_bytes_per_job", pj.Bytes)
	set("max_rss_mb", maxRSSMB())
	r.Diag["latency_tail"] = map[string]any{"percentile": t.Q * 100, "samples": t.N, "beyond": t.Beyond}
	r.Diag["setup_cpu_samples_s"] = cpu
	r.Diag["setup_wall_samples_s"] = wall
	r.Diag["jobs"] = p.jobs
	r.Diag["steal_share"] = jsonSafe(stealShare(p.from.host, p.to.host))
}
