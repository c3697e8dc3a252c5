package sharedwrite

import (
	"sync"

	"parc751/internal/ptask"
	"parc751/internal/pyjama"
	"parc751/internal/reduction"
)

// distinctSlots writes each iteration to its own element — the idiomatic
// safe output pattern.
func distinctSlots(xs, out []int) {
	pyjama.Parallel(4, func(tc *pyjama.TC) {
		tc.For(len(xs), pyjama.Static(0), func(i int) {
			out[i] = xs[i] * 2
		})
	})
}

// perMember accumulates into a region-body local (private to each member,
// because every member runs the region body in its own frame) and merges
// under tc.Critical.
func perMember(xs []int) int {
	total := 0
	pyjama.Parallel(4, func(tc *pyjama.TC) {
		mine := 0
		tc.ForNoWait(len(xs), pyjama.Static(0), func(i int) {
			mine += xs[i]
		})
		tc.Critical("merge", func() {
			total += mine
		})
	})
	return total
}

// mutexGuarded serialises the shared update with a sync.Mutex held around
// the write.
func mutexGuarded(xs []int) int {
	var mu sync.Mutex
	total := 0
	pyjama.Parallel(4, func(tc *pyjama.TC) {
		sub := 0
		tc.ForNoWait(len(xs), pyjama.Static(0), func(i int) { sub += xs[i] })
		mu.Lock()
		total += sub
		mu.Unlock()
	})
	return total
}

// reduced restructures the accumulation as a reduction — the course's
// preferred fix.
func reduced(xs []int) int {
	return pyjama.ParallelForReduce(4, len(xs), pyjama.Static(0), reduction.Sum[int](),
		func(i, acc int) int { return acc + xs[i] })
}

// threadSlots writes through tc.ThreadNum() — one slot per member.
func threadSlots(xs []int, nthreads int) []int {
	partial := make([]int, nthreads)
	pyjama.Parallel(nthreads, func(tc *pyjama.TC) {
		tc.ForNoWait(len(xs), pyjama.Static(0), func(i int) {
			partial[tc.ThreadNum()] += xs[i]
		})
	})
	return partial
}

// butterfly is the FFT stage: each block b owns xs[start : start+size],
// reached through the body-local start and the inner k (the body-local
// escape of DESIGN.md §9).
func butterfly(xs []complex128, size int) {
	half := size / 2
	pyjama.Parallel(4, func(tc *pyjama.TC) {
		tc.For(len(xs)/size, pyjama.Static(0), func(b int) {
			start := b * size
			for k := 0; k < half; k++ {
				x, y := xs[start+k], xs[start+k+half]
				xs[start+k] = x + y
				xs[start+k+half] = x - y
			}
		})
	})
}

// chunked writes its own [lo, hi) range through the inner loop's k.
func chunked(xs, out []int) {
	pyjama.Parallel(4, func(tc *pyjama.TC) {
		tc.ForChunked(len(xs), pyjama.Static(0), func(lo, hi int) {
			for k := lo; k < hi; k++ {
				out[k] = xs[k] * 2
			}
		})
	})
}

// grid writes cell (i, j) of a collapsed 2-D loop.
func grid(g [][]float64) {
	pyjama.Parallel(4, func(tc *pyjama.TC) {
		tc.For2D(len(g), len(g[0]), pyjama.Static(0), func(i, j int) {
			g[i][j] = float64(i * j)
		})
	})
}

type jacobi struct{ a [][]float64 }

func (s *jacobi) sweepRow(i int, x []float64) float64 { return s.a[i][i] * x[i] }

// sweep is Jacobi's row update: next[i] depends on the previous x only.
func (s *jacobi) sweep(x, next []float64) {
	pyjama.Parallel(4, func(tc *pyjama.TC) {
		tc.For(len(next), pyjama.Static(0), func(i int) {
			next[i] = s.sweepRow(i, x)
		})
	})
}

// perTask writes each RunMulti task's own slot: the task index is an
// iteration parameter too.
func perTask(rt *ptask.Runtime, out []int) {
	m := ptask.RunMulti(rt, len(out), func(i int) (struct{}, error) {
		out[i] = i * i
		return struct{}{}, nil
	})
	_, _ = m.Results()
}

// chunkedReduced folds each chunk into the member's accumulator and
// writes its own [lo, hi) range through the inner loop's k.
func chunkedReduced(xs, out []int) int {
	total := 0
	pyjama.Parallel(4, func(tc *pyjama.TC) {
		s := pyjama.ForChunkedReduce(tc, len(xs), pyjama.Dynamic(64), reduction.Sum[int](), func(lo, hi, acc int) int {
			for k := lo; k < hi; k++ {
				out[k] = xs[k] * 2
				acc += xs[k]
			}
			return acc
		})
		tc.Master(func() { total = s })
	})
	return total
}

// chunkEnds marks the last slot of each chunk through the bound hi, an
// iteration parameter like lo.
func chunkEnds(xs []int, last []bool) int {
	total := 0
	pyjama.Parallel(4, func(tc *pyjama.TC) {
		s := pyjama.ForChunkedReduce(tc, len(xs), pyjama.Dynamic(64), reduction.Sum[int](), func(lo, hi, acc int) int {
			last[hi-1] = true
			return acc + hi - lo
		})
		tc.Master(func() { total = s })
	})
	return total
}

// memberCount counts each member's iterations in a region-body local:
// every member calls ForReduce with a closure it built itself, so the
// local it writes is its own.
func memberCount(xs []int) int {
	var out int
	pyjama.Parallel(4, func(tc *pyjama.TC) {
		mine := 0
		s := pyjama.ForReduce(tc, len(xs), pyjama.Static(0), reduction.Sum[int](), func(i, acc int) int {
			mine++
			return acc + xs[i]
		})
		tc.Master(func() { out = s + mine })
	})
	return out
}
