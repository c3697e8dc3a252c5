// Package reductionpurity holds misuse fixtures: hand-rolled reducers
// that break the purity/neutrality contract.
package reductionpurity

import (
	"parc751/internal/pyjama"
	"parc751/internal/reduction"
)

func impureCombine(xs []int) int {
	calls := 0
	r := reduction.Reducer[int]{
		Identity: func() int { return 0 },
		Combine: func(a, b int) int {
			calls++ // want `combiner mutates captured variable "calls"`
			return a + b
		},
	}
	_ = calls
	return pyjama.ParallelForReduce(4, len(xs), pyjama.Static(0), r,
		func(i, acc int) int { return acc + xs[i] })
}

func nonNeutralSum(xs []int) int {
	r := reduction.Reducer[int]{
		Identity: func() int { return 1 }, // want `identity 1 is not neutral`
		Combine:  func(a, b int) int { return a + b },
	}
	return reduction.Fold(r, xs)
}

func nonNeutralProd(xs []int) int {
	r := reduction.Reducer[int]{
		Identity: func() int { return 0 }, // want `identity 0 is not neutral`
		Combine:  func(a, b int) int { return a * b },
	}
	return reduction.Fold(r, xs)
}

func sharedIdentity(parts [][]int) []int {
	scratch := []int{}
	r := reduction.Reducer[[]int]{
		Identity: func() []int { return scratch }, // want `identity returns captured "scratch"`
		Combine:  func(a, b []int) []int { return append(a, b...) },
	}
	return reduction.Fold(r, parts)
}

func impureChunkedCombine(xs []int) int {
	merges := 0
	var out int
	pyjama.Parallel(4, func(tc *pyjama.TC) {
		s := pyjama.ForChunkedReduce(tc, len(xs), pyjama.Static(0), reduction.Reducer[int]{
			Identity: func() int { return 0 },
			Combine: func(a, b int) int {
				merges++ // want `combiner mutates captured variable "merges"`
				return a + b
			},
		}, func(lo, hi, acc int) int {
			for k := lo; k < hi; k++ {
				acc += xs[k]
			}
			return acc
		})
		tc.Master(func() { out = s })
	})
	return out + merges
}

// appendCombine appends into a captured scratch slice: append(buf[:0], …)
// writes buf's backing array from every member's merge at once.
func appendCombine(xs []int) int {
	buf := make([]int, 0, 4)
	r := reduction.Reducer[int]{
		Identity: func() int { return 0 },
		Combine: func(a, b int) int {
			_ = append(buf[:0], a) // want `combiner mutates captured variable "buf"`
			return a + b
		},
	}
	return reduction.Fold(r, xs)
}
