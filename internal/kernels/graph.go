package kernels

import (
	"math"
	"sync"
	"sync/atomic"

	"parc751/internal/pyjama"
	"parc751/internal/reduction"
	"parc751/internal/workload"
)

// BFSSequential returns each vertex's breadth-first level from src, or -1
// for unreachable vertices.
//
//parcvet:ignore unused reference sequential BFS TestBFSParallelMatchesSequential checks the parallel BFS against
func BFSSequential(g *workload.Graph, src int) []int {
	level := make([]int, g.N)
	for i := range level {
		level[i] = -1
	}
	level[src] = 0
	frontier := []int{src}
	for depth := 1; len(frontier) > 0; depth++ {
		var next []int
		for _, v := range frontier {
			for _, w := range g.Neighbors(v) {
				if level[w] == -1 {
					level[w] = depth
					next = append(next, w)
				}
			}
		}
		frontier = next
	}
	return level
}

// BFSParallel is the level-synchronous parallel BFS: each frontier is
// expanded by a Pyjama team, with compare-and-swap claiming of vertices so
// each vertex is discovered exactly once. Levels are identical to the
// sequential BFS (level-synchronous BFS is deterministic in levels, though
// not in discovery order within a level).
func BFSParallel(nthreads int, g *workload.Graph, src int) []int {
	level := make([]int32, g.N)
	for i := range level {
		level[i] = -1
	}
	level[src] = 0
	frontier := []int{src}
	nexts := pyjama.NewThreadPrivate[[]int](nthreads)
	for depth := int32(1); len(frontier) > 0; depth++ {
		pyjama.Parallel(nthreads, func(tc *pyjama.TC) {
			mine := nexts.Get(tc.ThreadNum())
			*mine = (*mine)[:0]
			tc.ForNoWait(len(frontier), pyjama.Dynamic(64), func(fi int) {
				v := frontier[fi]
				for _, w := range g.Neighbors(v) {
					if atomic.CompareAndSwapInt32(&level[w], -1, depth) {
						*mine = append(*mine, w)
					}
				}
			})
		})
		frontier = frontier[:0]
		for _, part := range nexts.Values() {
			frontier = append(frontier, part...)
		}
	}
	out := make([]int, g.N)
	for i, l := range level {
		out[i] = int(l)
	}
	return out
}

// PageRankSequential runs iters iterations of power-method PageRank with
// damping d, returning the rank vector. Dangling mass is redistributed
// uniformly (our generated graphs have no dangling vertices, but the
// kernel handles them for generality). It works in two vectors: each
// iteration first turns rank[v] into v's contribution in place (the old
// rank is not read again), then pushes the contributions into next.
func PageRankSequential(g *workload.Graph, d float64, iters int) []float64 {
	n := g.N
	rank := make([]float64, n)
	next := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	for it := 0; it < iters; it++ {
		dangling := 0.0
		for v := 0; v < n; v++ {
			deg := g.OutDegree(v)
			if deg == 0 {
				dangling += rank[v]
				rank[v] = 0
			} else {
				rank[v] /= float64(deg)
			}
		}
		base := (1-d)/float64(n) + d*dangling/float64(n)
		for v := 0; v < n; v++ {
			next[v] = base
		}
		for v := 0; v < n; v++ {
			c := d * rank[v]
			for _, w := range g.Neighbors(v) {
				next[w] += c
			}
		}
		rank, next = next, rank
	}
	return rank
}

// pagerankScratch holds PageRankParallel's second vector between calls.
// What it keeps is bounded by sync.Pool: about two vectors per P, dropped
// after two GCs without use.
var pagerankScratch = sync.Pool{New: func() any { return new([]float64) }}

// PageRankParallel is the pull-based parallel formulation: each vertex
// gathers from its in-neighbours over the graph's cached transpose, so
// every next[v] is written by exactly one thread and sums in the same
// order as the sequential push (bit-identical output). All iterations
// run inside one Pyjama region. Like the sequential kernel it works in
// two vectors, turning rank into contributions in place; the second
// vector comes from pagerankScratch when its size fits (reuseScratch),
// and whichever of the two is not returned goes back there, so the
// caller owns the result.
func PageRankParallel(nthreads int, g *workload.Graph, d float64, iters int) []float64 {
	n := g.N
	rg := g.Transpose()
	rank := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	scratch := pagerankScratch.Get().(*[]float64)
	next := reuseScratch(*scratch, n)
	pyjama.Parallel(nthreads, func(tc *pyjama.TC) {
		for it := 0; it < iters; it++ {
			// Phase 1: rank[v] becomes v's contribution, plus a
			// dangling-mass reduction; ForReduce hands the sum to every
			// member.
			dangling := pyjama.ForReduce(tc, n, pyjama.Static(0),
				reduction.Sum[float64](), func(v int, acc float64) float64 {
					deg := g.OutDegree(v)
					if deg == 0 {
						acc += rank[v]
						rank[v] = 0
					} else {
						rank[v] /= float64(deg)
					}
					return acc
				})
			base := (1-d)/float64(n) + d*dangling/float64(n)
			// Phase 2: gather contributions along in-edges.
			tc.For(n, pyjama.Dynamic(128), func(v int) {
				sum := base
				for _, u := range rg.Neighbors(v) {
					sum += d * rank[u]
				}
				next[v] = sum
			})
			tc.Master(func() { rank, next = next, rank })
			tc.Barrier()
		}
	})
	*scratch = next
	pagerankScratch.Put(scratch)
	return rank[:n:n]
}

// reuseScratch returns buf resliced to n elements when n <= cap(buf) <=
// 2n, and a new n-element vector otherwise. PageRankParallel returns this
// vector to its caller after an odd number of iterations, so reusing a
// much larger pooled array would pin all of it behind an n-element result.
func reuseScratch(buf []float64, n int) []float64 {
	if n <= cap(buf) && cap(buf) <= 2*n {
		return buf[:n]
	}
	return make([]float64, n)
}

// L1Distance returns the L1 distance of two equal-length vectors.
func L1Distance(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}
