package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"parc751/internal/parcpar"
	"parc751/internal/parcpar/autogen/par"
	"parc751/internal/parcpar/autogen/seq"
	"parc751/internal/parcvet/loader"
)

func init() {
	register(Experiment{
		ID:    "A10",
		Title: "parcpar auto-parallelization: fixture classification, committed rewrites regenerate byte-identically, rewrites are checksum-identical and faster",
		Paper: "DESIGN.md §13 (A10); §II research-infusion of dependence analysis",
		Run:   runA10,
	})
}

// a10Expected pins the classification of every candidate loop in the
// autogen fixture package, by enclosing function.
var a10Expected = map[string]parcpar.Class{
	"MatMulFlat":      parcpar.ClassParallel,
	"JacobiSweep":     parcpar.ClassParallel,
	"Forces":          parcpar.ClassParallel,
	"PageRankStep":    parcpar.ClassParallel,
	"ComponentsSweep": parcpar.ClassParallel,
	"SpinSum":         parcpar.ClassReduction,
	"Dot":             parcpar.ClassReduction,
	"maxNeighbor":     parcpar.ClassDependence,
	"PrefixSum":       parcpar.ClassDependence,
	"Shift":           parcpar.ClassDependence,
	"SumUntilNeg":     parcpar.ClassEarlyExit,
	"FindIndex":       parcpar.ClassEarlyExit,
	"LogEach":         parcpar.ClassImpure,
	"Scale3":          parcpar.ClassBelowThreshold,
	"RunningMax":      parcpar.ClassDependence,
	"Histogram":       parcpar.ClassDependence,
}

// runA10 validates the auto-parallelization pipeline end to end:
//
//  1. the analyzer classifies every positive and negative fixture the
//     way the dependence model says it must,
//  2. regenerating autogen/par from autogen/seq reproduces the
//     committed files byte-for-byte,
//  3. each rewritten kernel produces bit-identical results to its
//     sequential original (integer reductions are exactly associative;
//     the float kernels keep their inner summation order), and
//  4. the rewrites are measurably faster on a multi-core host (on a
//     single-core host the assertion degrades to bounded overhead).
func runA10(cfg Config) *Result {
	res := &Result{ID: "A10", Title: "parcpar auto-parallelization"}
	var b strings.Builder
	b.WriteString(header(res, "DESIGN.md §13 (A10); §II research-infusion of dependence analysis"))

	root, err := loader.FindModuleRoot(".")
	if err != nil {
		res.ok("module_root_found", false)
		fmt.Fprintf(&b, "cannot locate module root: %v\n", err)
		res.Output = b.String()
		return res
	}
	res.ok("module_root_found", true)

	// 1. Classification sweep.
	l, err := loader.New(root)
	if err != nil {
		res.ok("fixture_load", false)
		res.Output = b.String() + err.Error()
		return res
	}
	seqDir := filepath.Join(root, "internal", "parcpar", "autogen", "seq")
	pkg, err := l.LoadDir(seqDir, "parc751/internal/parcpar/autogen/seq")
	if err != nil {
		res.ok("fixture_load", false)
		res.Output = b.String() + err.Error()
		return res
	}
	res.ok("fixture_load", true)
	loops, _ := parcpar.AnalyzePackage(l, pkg, parcpar.Options{Explain: true})
	got := map[string]parcpar.Class{}
	for _, lp := range loops {
		got[lp.Func] = lp.Class
	}
	b.WriteString("fixture            want            got\n")
	for _, lp := range loops {
		want, known := a10Expected[lp.Func]
		pass := known && got[lp.Func] == want
		res.ok("classify_"+lp.Func, pass)
		fmt.Fprintf(&b, "%-18s %-15s %s\n", lp.Func, want, got[lp.Func])
	}
	for fn := range a10Expected {
		if _, present := got[fn]; !present {
			res.ok("classify_"+fn, false)
			fmt.Fprintf(&b, "%-18s %-15s (no candidate loop)\n", fn, a10Expected[fn])
		}
	}

	// 2. Regeneration byte-identity.
	outDir, err := os.MkdirTemp("", "parcpar-a10-")
	if err == nil {
		defer os.RemoveAll(outDir)
		written, gerr := parcpar.GenerateDir(root, seqDir, outDir, "par")
		identical := gerr == nil && len(written) > 0
		for _, name := range written {
			gotSrc, e1 := os.ReadFile(filepath.Join(outDir, name))
			wantSrc, e2 := os.ReadFile(filepath.Join(root, "internal", "parcpar", "autogen", "par", name))
			if e1 != nil || e2 != nil || string(gotSrc) != string(wantSrc) {
				identical = false
			}
		}
		res.ok("regen_byte_identical", identical)
		fmt.Fprintf(&b, "\nregenerated %v byte-identical to committed: %v\n", written, identical)
	} else {
		res.ok("regen_byte_identical", false)
	}

	// 3 + 4. Checksum equality and speedup, per kernel.
	n := 192
	vec := 1 << 15
	spins := 1 << 22
	if cfg.Quick {
		n, vec, spins = 48, 4096, 1<<18
	}
	rng := cfg.Seed
	next := func() float64 {
		rng += 0x9e3779b97f4a7c15
		z := rng
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		return float64(z%1000)/1000 + 0.001
	}
	fvec := func(m int) []float64 {
		xs := make([]float64, m)
		for i := range xs {
			xs[i] = next()
		}
		return xs
	}

	type kernel struct {
		name string
		run  func(parallel bool) any
	}
	a, bm := fvec(n*n), fvec(n*n)
	x, rhs := fvec(vec), fvec(vec)
	pos := fvec(vec / 8)
	deg := make([]int, vec)
	adj := make([][]int, vec/8)
	label := make([]int, vec/8)
	for i := range deg {
		deg[i] = 1 + i%7
	}
	for i := range adj {
		adj[i] = []int{(i + 1) % len(adj), (i + 7) % len(adj), (i * 13) % len(adj)}
		label[i] = (i * 31) % len(adj)
	}
	ia, ib := make([]int64, vec), make([]int64, vec)
	for i := range ia {
		ia[i] = int64(i*3 + 1)
		ib[i] = int64(i*7 - 5)
	}

	kernels := []kernel{
		{"MatMulFlat", func(p bool) any {
			c := make([]float64, n*n)
			if p {
				par.MatMulFlat(c, a, bm, n)
			} else {
				seq.MatMulFlat(c, a, bm, n)
			}
			return fmt.Sprint(c[:8], c[len(c)-8:], sumF(c))
		}},
		{"JacobiSweep", func(p bool) any {
			out := make([]float64, vec)
			if p {
				par.JacobiSweep(out, x, rhs)
			} else {
				seq.JacobiSweep(out, x, rhs)
			}
			return fmt.Sprint(out[:4], sumF(out))
		}},
		{"Forces", func(p bool) any {
			out := make([]float64, len(pos))
			if p {
				par.Forces(out, pos)
			} else {
				seq.Forces(out, pos)
			}
			return fmt.Sprint(out[:4], sumF(out))
		}},
		{"PageRankStep", func(p bool) any {
			out := make([]float64, vec)
			if p {
				par.PageRankStep(out, x, deg)
			} else {
				seq.PageRankStep(out, x, deg)
			}
			return fmt.Sprint(out[:4], sumF(out))
		}},
		{"ComponentsSweep", func(p bool) any {
			out := make([]int, len(adj))
			if p {
				par.ComponentsSweep(out, label, adj)
			} else {
				seq.ComponentsSweep(out, label, adj)
			}
			return fmt.Sprint(out[:4], sumI(out))
		}},
		{"SpinSum", func(p bool) any {
			if p {
				return par.SpinSum(spins, cfg.Seed)
			}
			return seq.SpinSum(spins, cfg.Seed)
		}},
		{"Dot", func(p bool) any {
			if p {
				return par.Dot(ia, ib)
			}
			return seq.Dot(ia, ib)
		}},
	}

	time1 := func(f func()) time.Duration {
		best := time.Duration(1<<63 - 1)
		reps := 3
		if cfg.Quick {
			reps = 2
		}
		for r := 0; r < reps; r++ {
			start := time.Now()
			f()
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}

	// Under GOMAXPROCS=1 the rewritten kernels run on one P whatever the
	// CPU count, so speedup > 1 cannot hold there.
	multiCore := runtime.NumCPU() > 1 && runtime.GOMAXPROCS(0) > 1
	fmt.Fprintf(&b, "\nhost: %d CPU(s), GOMAXPROCS %d; speedup asserted only when both exceed 1\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0))
	b.WriteString("kernel            checksum  seq          par          speedup\n")
	for _, k := range kernels {
		seqOut := k.run(false)
		parOut := k.run(true)
		same := seqOut == parOut
		res.ok("checksum_"+k.name, same)

		seqNs := time1(func() { k.run(false) })
		parNs := time1(func() { k.run(true) })
		sp := float64(seqNs) / float64(parNs)
		res.metric("speedup_"+k.name, sp)
		if multiCore {
			res.ok("speedup_"+k.name, sp > 1)
		} else if seqNs > 200*time.Microsecond {
			// One core cannot speed up; for kernels big enough to
			// amortize the fork-join, require the rewrite to stay
			// within bounded overhead of sequential. Microsecond-scale
			// kernels at quick sizes are all overhead and only logged.
			res.ok("overhead_bounded_"+k.name, sp > 0.2)
		}
		fmt.Fprintf(&b, "%-17s %-9v %-12v %-12v %.2fx\n", k.name, same, seqNs, parNs, sp)
	}
	res.Output = b.String()
	return res
}

func sumF(xs []float64) float64 {
	var s float64
	for _, v := range xs {
		s += v
	}
	return s
}

func sumI(xs []int) int {
	s := 0
	for _, v := range xs {
		s += v
	}
	return s
}
