package experiments

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"

	"parc751/internal/kernels"
	"parc751/internal/machine"
	"parc751/internal/metrics"
	"parc751/internal/ptask"
	"parc751/internal/pyjama"
	"parc751/internal/reduction"
	"parc751/internal/sortalgo"
	"parc751/internal/workload"
)

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
		ok := slices.Equal(xs, want)
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
	sig := make([]complex128, fftN)
	for i := range sig {
		sig[i] = complex(math.Sin(float64(i)), 0)
	}
	// The FFT transforms in place, so each call transforms its own copy.
	fft := func(transform func([]complex128)) func() []complex128 {
		return func() []complex128 { xs := slices.Clone(sig); transform(xs); return xs }
	}
	sys := kernels.NewMDSystem(cfg.Seed, mdN, 10)
	sys2 := sys.Clone()
	g := workload.GenGraph(cfg.Seed, grN, 8)
	ma := kernels.RandomMatrix(cfg.Seed, mmN, mmN)
	mb := kernels.RandomMatrix(cfg.Seed+1, mmN, mmN)
	tab, _ := compare(res, "Kernels: sequential vs Pyjama (wall-clock on this host; equality is exact)", 1,
		comparison("fft", fftN, fft(kernels.FFTSequential),
			fft(func(xs []complex128) { kernels.FFTParallel(cfg.Workers, xs) }),
			slices.Equal, "fft parallel identical"),
		comparison("md-forces", mdN,
			func() []kernels.Vec3 { sys.ComputeForcesSequential(); return sys.Force },
			func() []kernels.Vec3 { sys2.ComputeForcesParallel(cfg.Workers); return sys2.Force },
			slices.Equal, "md parallel identical"),
		comparison("pagerank", grN,
			func() []float64 { return kernels.PageRankSequential(g, 0.85, 20) },
			func() []float64 { return kernels.PageRankParallel(cfg.Workers, g, 0.85, 20) },
			slices.Equal, "pagerank parallel identical"),
		comparison("matmul", mmN,
			func() *kernels.Matrix { return kernels.MatMulSequential(ma, mb) },
			func() *kernels.Matrix { return kernels.MatMulParallel(cfg.Workers, ma, mb) },
			func(a, b *kernels.Matrix) bool { return slices.Equal(a.Data, b.Data) }, "matmul parallel identical"),
	)

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

	res.Output = tab + "\n" + simTab.String()
	res.ok("simulated speedup ordered android<parc8<parc16<parc64", nonDecreasing(simSpeedups))
	res.metric("parc64_md_speedup", simSpeedups[3])
}

func runP5(cfg Config, res *Result) {
	n := 2000000
	if cfg.Quick {
		n = 100000
	}
	vals := workload.IntArray(cfg.Seed, n, 1000)
	words := make([]string, n/10)
	dict := workload.Dictionary
	for i := range words {
		words[i] = dict[(i*7)%len(dict)]
	}
	m := n / 100
	filter := func(i int, acc []int) []int {
		if vals[i]%7 == 0 {
			return append(acc, vals[i])
		}
		return acc
	}
	tab, _ := compare(res, "Reductions: sequential fold vs parallel (equality exact)", 1,
		// The scalar reductions of the OpenMP spec.
		comparison("sum (scalar, in spec)", n,
			func() int {
				s := 0
				for _, v := range vals {
					s += v
				}
				return s
			},
			func() int {
				return pyjama.ParallelForReduce(cfg.Workers, n, pyjama.Static(0),
					reduction.Sum[int](), func(i, acc int) int { return acc + vals[i] })
			},
			eq[int], "scalar sum equal"),
		comparison("min (scalar, in spec)", n,
			func() int { return slices.Min(vals) },
			func() int {
				return pyjama.ParallelForReduce(cfg.Workers, n, pyjama.Dynamic(4096),
					reduction.Min[int](math.MaxInt), func(i, acc int) int { return min(acc, vals[i]) })
			},
			eq[int], "scalar min equal"),
		// Object reductions, beyond the OpenMP spec: a map merge and a
		// collection append that preserves block order.
		comparison("histogram (map merge, OO)", len(words),
			func() map[string]int {
				h := map[string]int{}
				for _, w := range words {
					h[w]++
				}
				return h
			},
			func() map[string]int {
				return pyjama.ParallelForReduce(cfg.Workers, len(words), pyjama.Static(0), reduction.Histogram[string](),
					func(i int, acc map[string]int) map[string]int {
						acc[words[i]]++
						return acc
					})
			},
			maps.Equal, "histogram equal"),
		comparison("filter-append (collection, OO)", m,
			func() []int {
				var sel []int
				for i := 0; i < m; i++ {
					sel = filter(i, sel)
				}
				return sel
			},
			func() []int {
				return pyjama.ParallelForReduce(cfg.Workers, m, pyjama.Static(0), reduction.Append[int](), filter)
			},
			slices.Equal, "append preserves order"),
	)

	// Set union has no sequential row: it is checked against the 50 keys
	// it can hold.
	uni := pyjama.ParallelForReduce(cfg.Workers, m, pyjama.Static(0), reduction.Union[int](),
		func(i int, acc map[int]struct{}) map[int]struct{} {
			acc[vals[i]%50] = struct{}{}
			return acc
		})
	unionOK := len(uni) <= 50 && len(uni) > 0
	res.Output = tab + fmt.Sprintf("set union (OO) over n=%d: %d distinct keys (bounded by 50: %v)\n", m, len(uni), unionOK) +
		"\nOpenMP restricts reductions to scalar types and fixed operators; the OO\n" +
		"framework extends them to collections, maps and user combiners (§V-B).\n"
	res.ok("union bounded", unionOK)
}
