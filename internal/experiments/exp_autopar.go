package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"parc751/internal/parcpar"
	"parc751/internal/parcpar/autogen/par"
	"parc751/internal/parcpar/autogen/seq"
	"parc751/internal/parcvet/loader"
)

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
func runA10(cfg Config, res *Result) {
	var b strings.Builder

	root, err := loader.FindModuleRoot(".")
	if err != nil {
		res.ok("module_root_found", false)
		fmt.Fprintf(&b, "cannot locate module root: %v\n", err)
		res.Output = b.String()
		return
	}
	res.ok("module_root_found", true)

	// 1. Classification sweep.
	l, err := loader.New(root)
	if err != nil {
		res.ok("fixture_load", false)
		res.Output = b.String() + err.Error()
		return
	}
	seqDir := filepath.Join(root, "internal", "parcpar", "autogen", "seq")
	pkg, err := l.LoadDir(seqDir, "parc751/internal/parcpar/autogen/seq")
	if err != nil {
		res.ok("fixture_load", false)
		res.Output = b.String() + err.Error()
		return
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

	reps := 3
	if cfg.Quick {
		reps = 2
	}
	// Each timed call allocates its output, as a caller of the rewrite
	// would; the equality check runs outside the timed calls.
	tab, times := compare(res, fmt.Sprintf("Rewritten kernels: sequential original vs parcpar rewrite (best of %d; equality is exact)", reps), reps,
		comparison("MatMulFlat", n,
			func() []float64 { c := make([]float64, n*n); seq.MatMulFlat(c, a, bm, n); return c },
			func() []float64 { c := make([]float64, n*n); par.MatMulFlat(c, a, bm, n); return c },
			slices.Equal, "checksum_MatMulFlat"),
		comparison("JacobiSweep", vec,
			func() []float64 { out := make([]float64, vec); seq.JacobiSweep(out, x, rhs); return out },
			func() []float64 { out := make([]float64, vec); par.JacobiSweep(out, x, rhs); return out },
			slices.Equal, "checksum_JacobiSweep"),
		comparison("Forces", len(pos),
			func() []float64 { out := make([]float64, len(pos)); seq.Forces(out, pos); return out },
			func() []float64 { out := make([]float64, len(pos)); par.Forces(out, pos); return out },
			slices.Equal, "checksum_Forces"),
		comparison("PageRankStep", vec,
			func() []float64 { out := make([]float64, vec); seq.PageRankStep(out, x, deg); return out },
			func() []float64 { out := make([]float64, vec); par.PageRankStep(out, x, deg); return out },
			slices.Equal, "checksum_PageRankStep"),
		comparison("ComponentsSweep", len(adj),
			func() []int { out := make([]int, len(adj)); seq.ComponentsSweep(out, label, adj); return out },
			func() []int { out := make([]int, len(adj)); par.ComponentsSweep(out, label, adj); return out },
			slices.Equal, "checksum_ComponentsSweep"),
		comparison("SpinSum", spins,
			func() uint64 { return seq.SpinSum(spins, cfg.Seed) },
			func() uint64 { return par.SpinSum(spins, cfg.Seed) },
			eq[uint64], "checksum_SpinSum"),
		comparison("Dot", vec,
			func() int64 { return seq.Dot(ia, ib) },
			func() int64 { return par.Dot(ia, ib) },
			eq[int64], "checksum_Dot"),
	)

	// Under GOMAXPROCS=1 the rewritten kernels run on one P whatever the
	// CPU count, so speedup > 1 cannot hold there.
	multiCore := runtime.NumCPU() > 1 && runtime.GOMAXPROCS(0) > 1
	fmt.Fprintf(&b, "\nhost: %d CPU(s), GOMAXPROCS %d; speedup asserted only when both exceed 1\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0))
	b.WriteString(tab)
	for _, t := range times {
		sp := t.speedup()
		res.metric("speedup_"+t.name, sp)
		if multiCore {
			res.ok("speedup_"+t.name, sp > 1)
		} else if t.seq > 200*time.Microsecond {
			// One core cannot speed up; for kernels big enough to
			// amortize the fork-join, require the rewrite to stay
			// within bounded overhead of sequential. Microsecond-scale
			// kernels at quick sizes are all overhead and only logged.
			res.ok("overhead_bounded_"+t.name, sp > 0.2)
		}
	}
	res.Output = b.String()
}
