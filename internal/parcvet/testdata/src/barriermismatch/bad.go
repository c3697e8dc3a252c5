// Package barriermismatch holds misuse fixtures: team-synchronising
// constructs under thread-divergent control flow.
package barriermismatch

import (
	"parc751/internal/pyjama"
	"parc751/internal/reduction"
)

func divergentBarrier() {
	pyjama.Parallel(4, func(tc *pyjama.TC) {
		if tc.ThreadNum() == 0 { // want `encounters 1 team-synchronising construct`
			tc.Barrier()
		}
	})
}

func barrierInSingle() {
	pyjama.Parallel(4, func(tc *pyjama.TC) {
		tc.Single(func() {
			tc.Barrier() // want `runs on one member only`
		})
	})
}

func forInWorksharing(xs []int) {
	pyjama.Parallel(4, func(tc *pyjama.TC) {
		tc.For(len(xs), pyjama.Static(0), func(i int) {
			tc.Barrier() // want `iterations are divided, not replicated`
		})
	})
}

func worksharingInMaster(xs []int) {
	pyjama.Parallel(4, func(tc *pyjama.TC) {
		tc.Master(func() {
			tc.For(len(xs), pyjama.Static(0), func(i int) { // want `runs on one member only`
				xs[i]++
			})
		})
	})
}

func chunkedReduceInMaster(xs []int) {
	pyjama.Parallel(4, func(tc *pyjama.TC) {
		tc.Master(func() {
			pyjama.ForChunkedReduce(tc, len(xs), pyjama.Static(0), reduction.Sum[int](), func(lo, hi, acc int) int { // want `runs on one member only`
				return acc + hi - lo
			})
		})
	})
}

func barrierInChunkedReduce(xs []int) {
	pyjama.Parallel(4, func(tc *pyjama.TC) {
		pyjama.ForChunkedReduce(tc, len(xs), pyjama.Static(0), reduction.Sum[int](), func(lo, hi, acc int) int {
			tc.Barrier() // want `iterations are divided, not replicated`
			return acc + hi - lo
		})
	})
}

// singleNoWaitOnOne reaches a nowait single on member 0 only: no member
// waits, but the others pair their next single with the wrong instance.
func singleNoWaitOnOne(f func()) {
	pyjama.Parallel(4, func(tc *pyjama.TC) {
		if tc.ThreadNum() == 0 { // want `encounters 1 team-synchronising construct.*work is skipped or repeated`
			tc.SingleNoWait(f)
		}
		tc.SingleNoWait(f)
	})
}

// barrierWhenLogging lets member 0 reach the barrier alone whenever
// logging is on.
func barrierWhenLogging() {
	pyjama.Parallel(4, func(tc *pyjama.TC) {
		if tc.ThreadNum() == 0 && logging() { // want `branch on tc.ThreadNum\(\) encounters 1`
			tc.Barrier()
		}
	})
}

func logging() bool { return true }
