package experiments

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"parc751/internal/kernels"
	"parc751/internal/machine"
	"parc751/internal/metrics"
	"parc751/internal/ptask"
	"parc751/internal/pyjama"
	"parc751/internal/reduction"
	"parc751/internal/sortalgo"
	"parc751/internal/workload"
)

func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// simQuicksortSpeedups simulates the quicksort recursion tree (partition
// cost proportional to range length, children spawned above the
// threshold) on a simulated machine swept over core counts, returning one
// speedup per core count. This is how the speedup *shape* the students
// measured on the PARC machines is reproduced on a single-CPU host.
func simQuicksortSpeedups(n, threshold int, cores []int) []float64 {
	build := func(m *machine.Machine) {
		var spawn func(ctx *machine.Ctx, size int)
		spawn = func(ctx *machine.Ctx, size int) {
			if size <= threshold {
				return
			}
			half := size / 2
			ctx.Spawn(uint64(half), func(c *machine.Ctx) { spawn(c, half) })
			ctx.Spawn(uint64(size-half), func(c *machine.Ctx) { spawn(c, size-half) })
		}
		m.Submit(0, uint64(n), func(ctx *machine.Ctx) { spawn(ctx, n) })
	}
	base := machine.Config{Name: "parc", Procs: 1, SpeedFactor: 1,
		SpawnOverhead: 100, StealLatency: 300}
	m1 := machine.New(base)
	build(m1)
	seq := m1.Run().Makespan
	out := make([]float64, len(cores))
	for i, p := range cores {
		cfg := base
		cfg.Procs = p
		m := machine.New(cfg)
		build(m)
		out[i] = metrics.Speedup(float64(seq), float64(m.Run().Makespan))
	}
	return out
}

func runP2(cfg Config, res *Result) {
	n := 500000
	if cfg.Quick {
		n = 50000
	}
	threshold := 4096
	base := workload.IntArray(cfg.Seed, n, 1<<30)
	want := append([]int(nil), base...)
	sort.Ints(want)

	rt := ptask.NewRuntime(cfg.Workers)
	defer rt.Shutdown()

	correct := true
	tab := metrics.NewTable(fmt.Sprintf("Wall-clock on this host (n=%d, GOMAXPROCS-bound)", n),
		"implementation", "time", "sorted+permutation")
	impls := []struct {
		name string
		run  func([]int)
	}{
		{"sequential", sortalgo.Sequential},
		{"parallel-task", func(xs []int) { sortalgo.PTask(rt, xs, threshold) }},
		{"pyjama", func(xs []int) { sortalgo.Pyjama(cfg.Workers, xs, threshold) }},
		{"goroutines", func(xs []int) { sortalgo.Goroutines(xs, threshold, 8) }},
	}
	for _, im := range impls {
		xs := append([]int(nil), base...)
		d := timeIt(func() { im.run(xs) })
		ok := equalInts(xs, want)
		if !ok {
			correct = false
		}
		tab.AddRow(im.name, d.String(), ok)
	}

	cores := []int{1, 2, 4, 8, 16, 32, 64}
	speedups := simQuicksortSpeedups(n, threshold, cores)
	curve := &metrics.Series{Name: "quicksort"}
	for i, c := range cores {
		curve.Add(float64(c), speedups[i])
	}
	chart := &metrics.Chart{Title: "Simulated speedup on PARC-style machine (work-stealing)",
		XLabel: "cores", YLabel: "speedup"}
	chart.AddSeries(curve)

	var b strings.Builder
	b.WriteString(tab.String())
	b.WriteString("\n")
	b.WriteString(chart.String())
	b.WriteString("\n")
	b.WriteString(rt.SchedStats().String())
	res.Output = b.String()

	res.ok("all implementations correct", correct)
	res.ok("simulated speedup grows to 8 cores", speedups[3] > speedups[0]*2)
	res.ok("speedup monotone non-decreasing", nonDecreasing(speedups))
	res.ok("sublinear at 64 cores (spawn/steal overheads)", speedups[6] < 64)
	res.metric("speedup_8", speedups[3])
	res.metric("speedup_64", speedups[6])
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func nonDecreasing(xs []float64) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1]-1e-9 {
			return false
		}
	}
	return true
}

func runP3(cfg Config, res *Result) {
	fftN, mdN, grN, mmN := 1<<15, 384, 3000, 256
	if cfg.Quick {
		fftN, mdN, grN, mmN = 1<<11, 96, 500, 64
	}
	tab := metrics.NewTable("Kernels: sequential vs Pyjama (wall-clock on this host; equality is exact)",
		"kernel", "size", "seq", "pyjama", "outputs identical")

	// FFT.
	sig := make([]complex128, fftN)
	for i := range sig {
		sig[i] = complex(math.Sin(float64(i)), 0)
	}
	a := append([]complex128(nil), sig...)
	b := append([]complex128(nil), sig...)
	dSeq := timeIt(func() { kernels.FFTSequential(a) })
	dPar := timeIt(func() { kernels.FFTParallel(cfg.Workers, b) })
	fftSame := true
	for i := range a {
		if a[i] != b[i] {
			fftSame = false
			break
		}
	}
	tab.AddRow("fft", fftN, dSeq.String(), dPar.String(), fftSame)

	// Molecular dynamics forces.
	sys := kernels.NewMDSystem(cfg.Seed, mdN, 10)
	sys2 := sys.Clone()
	dSeq = timeIt(sys.ComputeForcesSequential)
	dPar = timeIt(func() { sys2.ComputeForcesParallel(cfg.Workers) })
	mdSame := true
	for i := range sys.Force {
		if sys.Force[i] != sys2.Force[i] {
			mdSame = false
			break
		}
	}
	tab.AddRow("md-forces", mdN, dSeq.String(), dPar.String(), mdSame)

	// PageRank.
	g := workload.GenGraph(cfg.Seed, grN, 8)
	var prSeq, prPar []float64
	dSeq = timeIt(func() { prSeq = kernels.PageRankSequential(g, 0.85, 20) })
	dPar = timeIt(func() { prPar = kernels.PageRankParallel(cfg.Workers, g, 0.85, 20) })
	prSame := slices.Equal(prSeq, prPar)
	tab.AddRow("pagerank", grN, dSeq.String(), dPar.String(), prSame)

	// Matrix multiply.
	ma := kernels.RandomMatrix(cfg.Seed, mmN, mmN)
	mb := kernels.RandomMatrix(cfg.Seed+1, mmN, mmN)
	var mcSeq, mcPar *kernels.Matrix
	dSeq = timeIt(func() { mcSeq = kernels.MatMulSequential(ma, mb) })
	dPar = timeIt(func() { mcPar = kernels.MatMulParallel(cfg.Workers, ma, mb) })
	mmSame := kernels.MaxAbsDiff(mcSeq, mcPar) == 0
	tab.AddRow("matmul", mmN, dSeq.String(), dPar.String(), mmSame)

	// Simulated speedup for the O(n²) MD force loop (uniform per-row
	// cost) on the PARC presets.
	costs := make([]uint64, mdN)
	for i := range costs {
		costs[i] = uint64(mdN) // one row of the pair loop
	}
	simTab := metrics.NewTable("Simulated MD-force speedup on PARC machines",
		"machine", "cores", "speedup", "efficiency")
	machines := []machine.Config{machine.AndroidQuad(), machine.PARC8(), machine.PARC16(), machine.PARC64()}
	var simSpeedups []float64
	for _, mc := range machines {
		st := machine.RunTasks(mc, costs, false)
		// Normalise against the same machine's single-core speed.
		oneCore := mc.WithProcs(1)
		seq := machine.RunTasks(oneCore, costs, false).Makespan
		s := metrics.Speedup(float64(seq), float64(st.Makespan))
		simSpeedups = append(simSpeedups, s)
		simTab.AddRow(mc.Name, mc.Procs, s, metrics.Efficiency(float64(seq), float64(st.Makespan), mc.Procs))
	}

	var sb strings.Builder
	sb.WriteString(tab.String())
	sb.WriteString("\n")
	sb.WriteString(simTab.String())
	res.Output = sb.String()

	res.ok("fft parallel identical", fftSame)
	res.ok("md parallel identical", mdSame)
	res.ok("pagerank parallel identical", prSame)
	res.ok("matmul parallel identical", mmSame)
	res.ok("simulated speedup ordered android<parc8<parc16<parc64", nonDecreasing(simSpeedups))
	res.metric("parc64_md_speedup", simSpeedups[3])
}

func runP5(cfg Config, res *Result) {
	n := 2000000
	if cfg.Quick {
		n = 100000
	}
	tab := metrics.NewTable("Reductions: sequential fold vs parallel (equality exact)",
		"reduction", "n", "seq", "parallel", "equal")

	// Scalar sum (the OpenMP-spec reduction).
	vals := workload.IntArray(cfg.Seed, n, 1000)
	var seqSum, parSum int
	dSeq := timeIt(func() {
		seqSum = 0
		for _, v := range vals {
			seqSum += v
		}
	})
	dPar := timeIt(func() {
		parSum = pyjama.ParallelForReduce(cfg.Workers, n, pyjama.Static(0),
			reduction.Sum[int](), func(i, acc int) int { return acc + vals[i] })
	})
	tab.AddRow("sum (scalar, in spec)", n, dSeq.String(), dPar.String(), seqSum == parSum)
	sumOK := seqSum == parSum

	// Min/max pair.
	minSeq, maxSeq := math.MaxInt, math.MinInt
	for _, v := range vals {
		if v < minSeq {
			minSeq = v
		}
		if v > maxSeq {
			maxSeq = v
		}
	}
	minPar := pyjama.ParallelForReduce(cfg.Workers, n, pyjama.Dynamic(4096),
		reduction.Min[int](math.MaxInt), func(i, acc int) int {
			if vals[i] < acc {
				return vals[i]
			}
			return acc
		})
	tab.AddRow("min (scalar, in spec)", n, "-", "-", minSeq == minPar)

	// Object reduction 1: histogram (map merge) — beyond the OpenMP spec.
	words := make([]string, n/10)
	dict := workload.Dictionary
	for i := range words {
		words[i] = dict[(i*7)%len(dict)]
	}
	var histSeq map[string]int
	dSeq = timeIt(func() {
		histSeq = map[string]int{}
		for _, w := range words {
			histSeq[w]++
		}
	})
	var histPar map[string]int
	dPar = timeIt(func() {
		histPar = pyjama.ParallelForReduce(cfg.Workers, len(words), pyjama.Static(0), reduction.Histogram[string](),
			func(i int, acc map[string]int) map[string]int {
				acc[words[i]]++
				return acc
			})
	})
	histOK := len(histSeq) == len(histPar)
	for k, v := range histSeq {
		if histPar[k] != v {
			histOK = false
		}
	}
	tab.AddRow("histogram (map merge, OO)", len(words), dSeq.String(), dPar.String(), histOK)

	// Object reduction 2: collection append preserving block order.
	sel := pyjama.ParallelForReduce(cfg.Workers, n/100, pyjama.Static(0), reduction.Append[int](),
		func(i int, acc []int) []int {
			if vals[i]%7 == 0 {
				return append(acc, vals[i])
			}
			return acc
		})
	var selSeq []int
	for i := 0; i < n/100; i++ {
		if vals[i]%7 == 0 {
			selSeq = append(selSeq, vals[i])
		}
	}
	appendOK := len(sel) == len(selSeq)
	if appendOK {
		for i := range sel {
			if sel[i] != selSeq[i] {
				appendOK = false
			}
		}
	}
	tab.AddRow("filter-append (collection, OO)", n/100, "-", "-", appendOK)

	// Object reduction 3: set union.
	uni := pyjama.ParallelForReduce(cfg.Workers, n/100, pyjama.Static(0), reduction.Union[int](),
		func(i int, acc map[int]struct{}) map[int]struct{} {
			acc[vals[i]%50] = struct{}{}
			return acc
		})
	unionOK := len(uni) <= 50 && len(uni) > 0
	tab.AddRow("set union (OO)", n/100, "-", "-", unionOK)

	res.Output = tab.String() +
		"\nOpenMP restricts reductions to scalar types and fixed operators; the OO\n" +
		"framework extends them to collections, maps and user combiners (§V-B).\n"
	res.ok("scalar sum equal", sumOK)
	res.ok("scalar min equal", minSeq == minPar)
	res.ok("histogram equal", histOK)
	res.ok("append preserves order", appendOK)
	res.ok("union bounded", unionOK)
}
