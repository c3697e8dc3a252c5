package barriermismatch

import (
	"parc751/internal/pyjama"
	"parc751/internal/reduction"
)

// balanced: both arms of the divergent branch encounter the same number
// of synchronising constructs, so the per-thread pairing stays aligned.
func balanced(xs []int) {
	pyjama.Parallel(4, func(tc *pyjama.TC) {
		if tc.ThreadNum() == 0 {
			tc.Barrier()
			xs[0] = 1
		} else {
			tc.Barrier()
		}
	})
}

// straightLine: every member encounters the same construct sequence.
func straightLine(xs []int) {
	pyjama.Parallel(2, func(tc *pyjama.TC) {
		tc.For(len(xs), pyjama.Static(0), func(i int) { xs[i]++ })
		tc.Barrier()
		tc.Master(func() { xs[0] = 0 })
		tc.Barrier()
	})
}

// dataDivergence: a branch on data (not thread identity) is outside this
// analyzer's scope — the runtime SPMD detector owns that case.
func dataDivergence(xs []int, n int) {
	pyjama.Parallel(2, func(tc *pyjama.TC) {
		if n > 0 {
			tc.Barrier()
		}
	})
}

// chunkedReduce: every member reaches the range-body reduction, and its
// body holds no team construct.
func chunkedReduce(xs []int) {
	pyjama.Parallel(2, func(tc *pyjama.TC) {
		n := pyjama.ForChunkedReduce(tc, len(xs), pyjama.Dynamic(8), reduction.Sum[int](), func(lo, hi, acc int) int {
			return acc + hi - lo
		})
		tc.Master(func() { xs[0] = n })
	})
}
