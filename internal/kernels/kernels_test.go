package kernels

import (
	"math"
	"math/cmplx"
	"sync"
	"testing"
	"testing/quick"

	"parc751/internal/workload"
	"parc751/internal/xrand"
)

// ---- FFT ----

func randomSignal(seed uint64, n int) []complex128 {
	r := xrand.New(seed)
	xs := make([]complex128, n)
	for i := range xs {
		xs[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return xs
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 64} {
		xs := randomSignal(uint64(n), n)
		want := DFTNaive(xs)
		got := append([]complex128(nil), xs...)
		FFTSequential(got)
		for k := range want {
			if cmplx.Abs(got[k]-want[k]) > 1e-9*float64(n) {
				t.Fatalf("n=%d: FFT[%d] = %v, DFT = %v", n, k, got[k], want[k])
			}
		}
	}
}

func TestFFTParallelBitIdentical(t *testing.T) {
	for _, n := range []int{8, 256, 4096} {
		for _, threads := range []int{1, 2, 4} {
			seq := randomSignal(7, n)
			par := append([]complex128(nil), seq...)
			FFTSequential(seq)
			FFTParallel(threads, par)
			for k := range seq {
				if seq[k] != par[k] {
					t.Fatalf("n=%d t=%d: FFT differs at %d: %v vs %v", n, threads, k, seq[k], par[k])
				}
			}
		}
	}
}

func TestFFTRoundTrip(t *testing.T) {
	xs := randomSignal(3, 1024)
	orig := append([]complex128(nil), xs...)
	FFTSequential(xs)
	IFFT(xs)
	for i := range xs {
		if cmplx.Abs(xs[i]-orig[i]) > 1e-9 {
			t.Fatalf("round trip diverged at %d: %v vs %v", i, xs[i], orig[i])
		}
	}
}

func TestFFTParseval(t *testing.T) {
	xs := randomSignal(5, 512)
	timeE := 0.0
	for _, v := range xs {
		timeE += real(v)*real(v) + imag(v)*imag(v)
	}
	FFTSequential(xs)
	freqE := 0.0
	for _, v := range xs {
		freqE += real(v)*real(v) + imag(v)*imag(v)
	}
	if math.Abs(freqE/float64(len(xs))-timeE) > 1e-6*timeE {
		t.Fatalf("Parseval violated: time=%g freq/n=%g", timeE, freqE/float64(len(xs)))
	}
}

func TestFFTRejectsNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{0, 3, 6, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("n=%d did not panic", n)
				}
			}()
			FFTSequential(make([]complex128, n))
		}()
	}
}

// ---- Molecular dynamics ----

func TestMDForcesParallelBitIdentical(t *testing.T) {
	seq := NewMDSystem(11, 128, 10)
	par := seq.Clone()
	seq.ComputeForcesSequential()
	for _, threads := range []int{1, 2, 4} {
		par.ComputeForcesParallel(threads)
		for i := range seq.Force {
			if seq.Force[i] != par.Force[i] {
				t.Fatalf("t=%d: force %d differs: %v vs %v", threads, i, seq.Force[i], par.Force[i])
			}
		}
	}
}

func TestMDTrajectoriesMatch(t *testing.T) {
	a := NewMDSystem(13, 64, 8)
	b := a.Clone()
	a.ComputeForcesSequential()
	b.ComputeForcesParallel(3)
	for step := 0; step < 20; step++ {
		a.Step(a.ComputeForcesSequential)
		b.Step(func() { b.ComputeForcesParallel(3) })
	}
	if d := MaxDeviation(a, b); d != 0 {
		t.Fatalf("trajectories diverged by %g", d)
	}
}

func TestMDNewtonThirdLaw(t *testing.T) {
	// Total force must be ~zero (action = reaction), since forces are
	// pairwise antisymmetric.
	s := NewMDSystem(17, 96, 10)
	s.ComputeForcesSequential()
	var total Vec3
	for _, f := range s.Force {
		total = total.Add(f)
	}
	if math.Abs(total.X)+math.Abs(total.Y)+math.Abs(total.Z) > 1e-7 {
		t.Fatalf("net force = %+v", total)
	}
}

func TestMDEnergyApproximatelyConserved(t *testing.T) {
	s := NewMDSystem(19, 48, 12)
	s.ComputeForcesSequential()
	e0 := s.TotalEnergy()
	for step := 0; step < 100; step++ {
		s.Step(s.ComputeForcesSequential)
	}
	e1 := s.TotalEnergy()
	scale := math.Max(math.Abs(e0), 1)
	if math.Abs(e1-e0)/scale > 0.05 {
		t.Fatalf("energy drifted: %g -> %g", e0, e1)
	}
}

func TestVec3Ops(t *testing.T) {
	a, b := Vec3{1, 2, 3}, Vec3{4, 5, 6}
	if a.Add(b) != (Vec3{5, 7, 9}) {
		t.Error("Add wrong")
	}
	if b.Sub(a) != (Vec3{3, 3, 3}) {
		t.Error("Sub wrong")
	}
	if a.Scale(2) != (Vec3{2, 4, 6}) {
		t.Error("Scale wrong")
	}
	if a.Norm2() != 14 {
		t.Error("Norm2 wrong")
	}
}

// ---- Graph kernels ----

func TestBFSParallelMatchesSequential(t *testing.T) {
	g := workload.GenGraph(23, 2000, 4)
	want := BFSSequential(g, 0)
	for _, threads := range []int{1, 2, 4} {
		got := BFSParallel(threads, g, 0)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("t=%d: level[%d] = %d, want %d", threads, v, got[v], want[v])
			}
		}
	}
}

func TestBFSRingDistances(t *testing.T) {
	// A pure ring has exact known distances.
	n := 64
	g := &workload.Graph{N: n, Offs: make([]int, n+1), Adj: make([]int, n)}
	for v := 0; v < n; v++ {
		g.Offs[v] = v
		g.Adj[v] = (v + 1) % n
	}
	g.Offs[n] = n
	for _, bfs := range []func(*workload.Graph, int) []int{
		BFSSequential,
		func(g *workload.Graph, s int) []int { return BFSParallel(3, g, s) },
	} {
		lv := bfs(g, 5)
		for v := 0; v < n; v++ {
			want := (v - 5 + n) % n
			if lv[v] != want {
				t.Fatalf("ring level[%d] = %d, want %d", v, lv[v], want)
			}
		}
	}
}

func TestBFSAllReachableInGenGraph(t *testing.T) {
	g := workload.GenGraph(29, 500, 3)
	lv := BFSSequential(g, 0)
	for v, l := range lv {
		if l < 0 {
			t.Fatalf("vertex %d unreachable despite ring edge", v)
		}
	}
}

func TestPageRankSumsToOne(t *testing.T) {
	g := workload.GenGraph(31, 800, 5)
	rank := PageRankSequential(g, 0.85, 30)
	sum := 0.0
	for _, r := range rank {
		sum += r
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("rank sum = %g", sum)
	}
}

// TestPageRankParallelMatchesSequential: the pull-based kernel sums each
// vertex's in-edges in the order the sequential kernel pushes them, so
// the ranks are bit-identical, on the first call (which builds the
// graph's transpose) and on repeat calls (which reuse it and the pooled
// second vector). An odd iteration count returns the pooled vector and
// pools the fresh one; every earlier result is checked again after each
// call, so a vector pooled while its caller still holds it shows.
func TestPageRankParallelMatchesSequential(t *testing.T) {
	g := workload.GenGraph(37, 600, 4)
	for _, iters := range []int{0, 1, 2, 3, 7, 20} {
		want := PageRankSequential(g, 0.85, iters)
		var held [][]float64 // checked again after later calls
		for _, threads := range []int{1, 2, 3, 4} {
			for call := 0; call < 2; call++ {
				got := PageRankParallel(threads, g, 0.85, iters)
				if len(got) != len(want) || cap(got) != len(want) {
					t.Fatalf("iters=%d t=%d call %d: len %d cap %d, want %d", iters, threads, call, len(got), cap(got), len(want))
				}
				held = append(held, got)
				for k, r := range held {
					for v := range want {
						if r[v] != want[v] {
							t.Fatalf("iters=%d t=%d call %d: result %d has rank[%d] = %v, want %v", iters, threads, call, k, v, r[v], want[v])
						}
					}
				}
			}
		}
	}
}

// TestPageRankConcurrentCallers: callers sharing one graph each own what
// PageRankParallel returns. A vector handed out while it is still in the
// pool, or pooled while a caller holds it, would let one call overwrite
// another's result.
func TestPageRankConcurrentCallers(t *testing.T) {
	g := workload.GenGraph(43, 500, 4)
	iterCounts := []int{3, 4, 5, 8}
	want := make(map[int][]float64)
	for _, iters := range iterCounts {
		want[iters] = PageRankSequential(g, 0.85, iters)
	}
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var held [][]float64
			var heldIters []int
			for call := 0; call < 5; call++ {
				iters := iterCounts[(c+call)%len(iterCounts)]
				held = append(held, PageRankParallel(2, g, 0.85, iters))
				heldIters = append(heldIters, iters)
			}
			for k, got := range held {
				w := want[heldIters[k]]
				for v := range w {
					if got[v] != w[v] {
						t.Errorf("caller %d call %d (iters=%d): rank[%d] = %v, want %v", c, k, heldIters[k], v, got[v], w[v])
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestPageRankScratchReuseRule pins when PageRankParallel reuses its
// pooled second vector: only when the pooled capacity is between n and 2n.
// A call may return that vector, so a small graph's result must not keep
// a large graph's array alive.
func TestPageRankScratchReuseRule(t *testing.T) {
	const n = 100
	for _, tc := range []struct {
		cap   int
		reuse bool
	}{
		{0, false}, {n - 1, false}, {n, true}, {2 * n, true}, {2*n + 1, false}, {20000, false},
	} {
		buf := make([]float64, tc.cap)
		got := reuseScratch(buf, n)
		if len(got) != n {
			t.Fatalf("cap %d: len = %d, want %d", tc.cap, len(got), n)
		}
		reused := tc.cap > 0 && &got[0] == &buf[:1][0]
		if reused != tc.reuse {
			t.Errorf("cap %d: reused = %v, want %v", tc.cap, reused, tc.reuse)
		}
		if !reused && cap(got) != n {
			t.Errorf("cap %d: new vector has cap %d, want %d", tc.cap, cap(got), n)
		}
	}
}

// TestPageRankDangling: generated graphs have no zero-out-degree vertex,
// so this graph is built by hand. Vertices 2, 5 and 6 are dangling;
// their mass is spread uniformly. One thread reduces the dangling mass
// in vertex order, as the sequential kernel does, so the ranks are
// bit-identical; more threads add it in per-chunk partial sums, so the
// ranks may differ in the last bits but still sum to one.
func TestPageRankDangling(t *testing.T) {
	out := [][]int{{1, 3}, {2}, {}, {0, 4, 5}, {6}, {}, {}, {0, 1, 2, 3}}
	g := &workload.Graph{N: len(out), Offs: make([]int, len(out)+1)}
	for v, ws := range out {
		g.Adj = append(g.Adj, ws...)
		g.Offs[v+1] = len(g.Adj)
	}
	want := PageRankSequential(g, 0.85, 30)
	for _, threads := range []int{1, 2, 3, 4} {
		got := PageRankParallel(threads, g, 0.85, 30)
		if threads == 1 {
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("t=1: rank[%d] = %v, want %v", v, got[v], want[v])
				}
			}
		}
		if d := L1Distance(got, want); d > 1e-12 {
			t.Fatalf("t=%d: L1 distance %g from the sequential ranks", threads, d)
		}
		sum := 0.0
		for _, r := range got {
			sum += r
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("t=%d: rank sum = %v", threads, sum)
		}
	}
}

func TestPageRankConverges(t *testing.T) {
	g := workload.GenGraph(41, 400, 4)
	a := PageRankSequential(g, 0.85, 40)
	b := PageRankSequential(g, 0.85, 80)
	if d := L1Distance(a, b); d > 1e-6 {
		t.Fatalf("pagerank not converging: L1 = %g", d)
	}
}

func TestReverseGraphPreservesEdges(t *testing.T) {
	f := func(seed uint64) bool {
		g := workload.GenGraph(seed, 100, 3)
		rg := g.Transpose()
		if g.Transpose() != rg {
			return false // the second call must reuse the cached transpose
		}
		if rg.N != g.N || len(rg.Adj) != len(g.Adj) {
			return false
		}
		// Each forward edge appears exactly once in the reverse graph.
		fwd := map[[2]int]int{}
		for v := 0; v < g.N; v++ {
			for _, w := range g.Neighbors(v) {
				fwd[[2]int{v, w}]++
			}
		}
		for w := 0; w < rg.N; w++ {
			for _, v := range rg.Neighbors(w) {
				fwd[[2]int{v, w}]--
			}
		}
		for _, c := range fwd {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// ---- Linear algebra ----

func TestMatMulKnownValues(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6}}
	b := &Matrix{Rows: 3, Cols: 2, Data: []float64{7, 8, 9, 10, 11, 12}}
	c := MatMulSequential(a, b)
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("c[%d] = %g, want %g", i, c.Data[i], v)
		}
	}
}

func TestMatMulParallelBitIdentical(t *testing.T) {
	a := RandomMatrix(1, 97, 61)
	b := RandomMatrix(2, 61, 83)
	want := MatMulSequential(a, b)
	for _, threads := range []int{1, 2, 4} {
		got := MatMulParallel(threads, a, b)
		if d := MaxAbsDiff(want, got); d != 0 {
			t.Fatalf("t=%d: matmul differs by %g", threads, d)
		}
	}
}

func TestMatMulDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched matmul did not panic")
		}
	}()
	MatMulSequential(NewMatrix(2, 3), NewMatrix(2, 3))
}

func TestMatMulIdentity(t *testing.T) {
	a := RandomMatrix(5, 40, 40)
	id := NewMatrix(40, 40)
	for i := 0; i < 40; i++ {
		id.Set(i, i, 1)
	}
	c := MatMulParallel(3, a, id)
	if d := MaxAbsDiff(a, c); d != 0 {
		t.Fatalf("A*I differs from A by %g", d)
	}
}

func TestJacobiConverges(t *testing.T) {
	sys := NewJacobiSystem(43, 80)
	x := sys.JacobiSequential(200)
	if r := sys.Residual(x); r > 1e-8 {
		t.Fatalf("residual = %g after 200 sweeps", r)
	}
}

func TestJacobiParallelBitIdentical(t *testing.T) {
	sys := NewJacobiSystem(47, 64)
	want := sys.JacobiSequential(50)
	for _, threads := range []int{1, 2, 4} {
		got := sys.JacobiParallel(threads, 50)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("t=%d: x[%d] = %g vs %g", threads, i, got[i], want[i])
			}
		}
	}
}

func TestJacobiResidualDecreases(t *testing.T) {
	sys := NewJacobiSystem(53, 60)
	r10 := sys.Residual(sys.JacobiSequential(10))
	r50 := sys.Residual(sys.JacobiSequential(50))
	if r50 >= r10 {
		t.Fatalf("residual did not decrease: %g -> %g", r10, r50)
	}
}

func BenchmarkFFT16k(b *testing.B) {
	xs := randomSignal(1, 1<<14)
	work := make([]complex128, len(xs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, xs)
		FFTSequential(work)
	}
}

func BenchmarkFFT16kParallel(b *testing.B) {
	xs := randomSignal(1, 1<<14)
	work := make([]complex128, len(xs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, xs)
		FFTParallel(4, work)
	}
}

func BenchmarkMDForces256(b *testing.B) {
	s := NewMDSystem(1, 256, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ComputeForcesSequential()
	}
}

func BenchmarkMatMul128(b *testing.B) {
	x := RandomMatrix(1, 128, 128)
	y := RandomMatrix(2, 128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulSequential(x, y)
	}
}

func BenchmarkPageRank(b *testing.B) {
	g := workload.GenGraph(1, 2000, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PageRankSequential(g, 0.85, 10)
	}
}
