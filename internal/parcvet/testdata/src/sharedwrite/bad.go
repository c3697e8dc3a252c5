// Package sharedwrite holds misuse fixtures: racy writes to captured
// variables in concurrently-executed closures.
package sharedwrite

import (
	"parc751/internal/ptask"
	"parc751/internal/pyjama"
	"parc751/internal/reduction"
)

func racySum(xs []int) int {
	sum := 0
	pyjama.Parallel(4, func(tc *pyjama.TC) {
		tc.For(len(xs), pyjama.Static(0), func(i int) {
			sum += xs[i] // want `write to captured variable "sum"`
		})
	})
	return sum
}

func racyMap(xs []int) map[int]int {
	hist := map[int]int{}
	pyjama.Parallel(4, func(tc *pyjama.TC) {
		tc.For(len(xs), pyjama.Static(0), func(i int) {
			hist[xs[i]]++ // want `concurrent write to captured map "hist"`
		})
	})
	return hist
}

func racySlot(xs, out []int, k int) {
	pyjama.Parallel(4, func(tc *pyjama.TC) {
		tc.For(len(xs), pyjama.Static(0), func(i int) {
			out[k] = xs[i] // want `may hit another iteration.s slot`
		})
	})
}

func racyTask(rt *ptask.Runtime) {
	hits := 0
	t := ptask.Run(rt, func() (int, error) {
		hits++ // want `write to captured variable "hits"`
		return hits, nil
	})
	t.Notify(func(int, error) {})
}

// The loops below are parcpar's dependence negatives (autogen/seq,
// negatives.go) in worksharing form: each iteration reaches another
// iteration's slot, although every index mentions the loop variable.

// prefixSum carries xs[i] into iteration i+1: a flow dependence.
func prefixSum(xs []int) {
	pyjama.ParallelFor(4, len(xs)-1, pyjama.Static(0), func(i int) {
		xs[i+1] += xs[i] // want `may hit another iteration.s slot`
	})
}

// shift reads the slot iteration i+1 writes: an anti-dependence.
func shift(xs []int) {
	pyjama.ParallelFor(4, len(xs)-1, pyjama.Static(0), func(i int) {
		xs[i] = xs[i+1] * 2 // want `may hit another iteration.s slot`
	})
}

// histogram writes through a data-dependent index: two iterations may
// hit the same bin.
func histogram(counts, idx []int) {
	pyjama.ParallelFor(4, len(idx), pyjama.Static(0), func(i int) {
		counts[idx[i]]++ // want `may hit another iteration.s slot`
	})
}

// accumulatorIndex indexes by ForReduce's accumulator, which is a
// member's partial sum, not an iteration: two members can hold the same
// value and write the same slot.
func accumulatorIndex(xs []int, seen []bool) int {
	return pyjama.ParallelForReduce(4, len(xs), pyjama.Static(0), reduction.Sum[int](), func(i, acc int) int {
		seen[acc] = true // want `may hit another iteration.s slot`
		return acc + xs[i]
	})
}

// spread writes xs at i and at i+1, each shape injective alone:
// iterations i and i+1 both write xs[i+1].
func spread(xs, ys []float64) {
	pyjama.ParallelFor(4, len(xs)-1, pyjama.Static(0), func(i int) {
		xs[i] = ys[i] * 2.5   // want `may hit another iteration.s slot`
		xs[i+1] = ys[i] * 3.5 // want `may hit another iteration.s slot`
	})
}
