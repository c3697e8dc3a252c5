package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"parc751/internal/metrics"
)

// ---------------------------------------------------------------------
// Latency summaries.

// tailLadder is the percentile ladder the tail is picked from, highest
// first.
var tailLadder = []float64{0.9999, 0.999, 0.99, 0.98, 0.95, 0.9, 0.75, 0.5}

// tail is the highest percentile of xs that still has at least ten
// samples strictly beyond it, with that percentile's value and the
// sample count. With too few samples for any rung it reports the
// maximum (q = 1), which has none beyond it; Beyond says so.
type tail struct {
	Q      float64
	Value  float64
	N      int
	Beyond int
}

func tailPercentile(xs []float64) tail {
	if len(xs) == 0 {
		return tail{}
	}
	for _, q := range tailLadder {
		v := metrics.Percentile(xs, q)
		if beyond := countAbove(xs, v); beyond >= 10 {
			return tail{Q: q, Value: v, N: len(xs), Beyond: beyond}
		}
	}
	return tail{Q: 1, Value: metrics.Percentile(xs, 1), N: len(xs)}
}

func countAbove(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// median is metrics.Percentile at one half.
func median(xs []float64) float64 { return metrics.Percentile(xs, 0.5) }

// ---------------------------------------------------------------------
// Process resource accounting, sampled at phase boundaries.

// usage is one sample of the process's CPU time, allocation counters
// and the host's /proc/stat CPU ticks.
type usage struct {
	wall    time.Time
	cpu     time.Duration // user + system, all threads
	mallocs uint64
	bytes   uint64
	host    cpuTicks
}

func sampleUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u := usage{wall: time.Now(), cpu: processCPU(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
	u.host, _ = readProcStat()
	return u
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setupSample is one set-up's elapsed time and the process CPU time it
// took.
type setupSample struct{ wall, cpu time.Duration }

type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startStopwatch() stopwatch { return stopwatch{wall: time.Now(), cpu: processCPU()} }

func (s stopwatch) sample() setupSample {
	return setupSample{wall: time.Since(s.wall), cpu: processCPU() - s.cpu}
}

// maxRSSMB is the process's peak resident set, in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// perJob is the delta between two usage samples normalised by the jobs
// completed in between.
type perJob struct {
	CPUms float64 // process CPU milliseconds per job
	Alloc float64 // heap allocations per job
	Bytes float64 // heap bytes allocated per job
}

func normalise(from, to usage, jobs int64) perJob {
	if jobs <= 0 {
		return perJob{}
	}
	n := float64(jobs)
	return perJob{
		CPUms: float64(to.cpu-from.cpu) / float64(time.Millisecond) / n,
		Alloc: float64(to.mallocs-from.mallocs) / n,
		Bytes: float64(to.bytes-from.bytes) / n,
	}
}

// ---------------------------------------------------------------------
// Host interference: hypervisor steal from /proc/stat.

// cpuTicks is the aggregate "cpu" line of /proc/stat: Total sums every
// column, Steal is the eighth (time the hypervisor ran someone else
// while this guest had work).
type cpuTicks struct {
	Total uint64
	Steal uint64
}

func readProcStat() (cpuTicks, error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTicks{}, err
	}
	defer f.Close()
	return parseProcStat(f)
}

func parseProcStat(r io.Reader) (cpuTicks, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || fields[0] != "cpu" {
			continue
		}
		var t cpuTicks
		for i, f := range fields[1:] {
			v, err := strconv.ParseUint(f, 10, 64)
			if err != nil {
				return cpuTicks{}, fmt.Errorf("parse /proc/stat column %d: %w", i+1, err)
			}
			t.Total += v
			if i == 7 {
				t.Steal = v
			}
		}
		if len(fields) < 9 {
			return cpuTicks{}, fmt.Errorf("parse /proc/stat: %d columns, no steal", len(fields)-1)
		}
		return t, nil
	}
	if err := sc.Err(); err != nil {
		return cpuTicks{}, err
	}
	return cpuTicks{}, fmt.Errorf("parse /proc/stat: no aggregate cpu line")
}

// stealShare is the fraction of all CPU ticks between two samples that
// the hypervisor stole; NaN when no ticks elapsed.
func stealShare(from, to cpuTicks) float64 {
	total := to.Total - from.Total
	if total == 0 || to.Total < from.Total {
		return math.NaN()
	}
	return float64(to.Steal-from.Steal) / float64(total)
}

// stealSampler records the steal share of each fixed window while a
// traced phase runs. Stop ends the sampling goroutine and returns the
// shares, oldest first.
type stealSampler struct {
	stop chan struct{}
	done chan []float64
}

func startStealSampler(window time.Duration) *stealSampler {
	s := &stealSampler{stop: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		var shares []float64
		prev, _ := readProcStat()
		tick := time.NewTicker(window)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				s.done <- shares
				return
			case <-tick.C:
				cur, err := readProcStat()
				if err == nil {
					shares = append(shares, jsonSafe(stealShare(prev, cur)))
					prev = cur
				}
			}
		}
	}()
	return s
}

func (s *stealSampler) Stop() []float64 {
	close(s.stop)
	return <-s.done
}

// ---------------------------------------------------------------------
// Small numeric helpers.

// jsonSafe maps NaN and infinities, which JSON cannot carry, to -1.
func jsonSafe(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return -1
	}
	return v
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durUs(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianDur runs fn reps times and returns the median wall time.
func medianDur(reps int, fn func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		start := time.Now()
		fn()
		ds[i] = float64(time.Since(start))
	}
	return time.Duration(median(ds))
}

// sortedKeys returns m's keys in order, for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
