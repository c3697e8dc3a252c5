package parcpar

import (
	"runtime"
	"time"

	"parc751/internal/pyjama"
)

// Calibrate measures a fresh probe table on the current host, the
// schedule(auto) way: tight timed loops per op class, a live fork-join
// probe for the region overhead. The committed probe_table.json is a
// snapshot of exactly this measurement on the bench host; -calibrate
// exists so a different host can regenerate its own.
//
// Each probe subtracts the empty-loop baseline so op costs do not
// double-count loop control, and takes the minimum over a few rounds to
// shed scheduler noise — the same min-of-rounds discipline the BENCH
// harness uses.

const (
	calibIters  = 1 << 16
	calibRounds = 5
)

// sink defeats dead-code elimination of probe work.
var sink int64

var sinkF float64

// minRound runs f calibRounds times and returns the fastest per-iter ns.
func minRound(f func() time.Duration) float64 {
	best := time.Duration(1<<63 - 1)
	for r := 0; r < calibRounds; r++ {
		if d := f(); d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / calibIters
}

//go:noinline
func calibCallee(x int) int { return x + 1 }

// Calibrate runs the probes and returns a host-local table.
func Calibrate() *ProbeTable {
	baseline := minRound(func() time.Duration {
		s := 0
		start := time.Now()
		for i := 0; i < calibIters; i++ {
			s++
		}
		sink += int64(s)
		return time.Since(start)
	})

	intArith := minRound(func() time.Duration {
		s := 1
		start := time.Now()
		for i := 0; i < calibIters; i++ {
			s = s*3 + i
		}
		sink += int64(s)
		return time.Since(start)
	}) - baseline

	floatArith := minRound(func() time.Duration {
		s := 1.0
		start := time.Now()
		for i := 0; i < calibIters; i++ {
			s = s*1.0000001 + 0.5
		}
		sinkF += s
		return time.Since(start)
	}) - baseline

	buf := make([]int64, calibIters)
	memIndex := minRound(func() time.Duration {
		start := time.Now()
		for i := 0; i < calibIters; i++ {
			buf[i] = buf[i] + 1
		}
		sink += buf[calibIters/2]
		return time.Since(start)
	}) - baseline

	branch := minRound(func() time.Duration {
		s := 0
		start := time.Now()
		for i := 0; i < calibIters; i++ {
			if i&3 == 0 {
				s++
			} else {
				s--
			}
		}
		sink += int64(s)
		return time.Since(start)
	}) - baseline

	callPure := minRound(func() time.Duration {
		s := 0
		start := time.Now()
		for i := 0; i < calibIters; i++ {
			s = calibCallee(s)
		}
		sink += int64(s)
		return time.Since(start)
	}) - baseline

	forkJoin := func() float64 {
		n := runtime.GOMAXPROCS(0)
		const regions = 256
		best := time.Duration(1<<63 - 1)
		for r := 0; r < calibRounds; r++ {
			start := time.Now()
			for k := 0; k < regions; k++ {
				pyjama.ParallelFor(n, 1, pyjama.Static(0), func(i int) {})
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return float64(best.Nanoseconds()) / regions
	}()

	clamp := func(v float64) float64 {
		if v < 0.1 {
			return 0.1
		}
		return v
	}
	return &ProbeTable{
		Schema:      "parcpar-probe-v1",
		Provenance:  "live -calibrate run on this host",
		ForkJoinNs:  forkJoin,
		WorthFactor: 1.5,
		DefaultTrip: 1024,
		OpNs: map[string]float64{
			"int_arith":   clamp(intArith),
			"float_arith": clamp(floatArith),
			"mem_index":   clamp(memIndex),
			"branch":      clamp(branch),
			"call_pure":   clamp(callPure),
			"stmt":        clamp(baseline),
		},
	}
}
