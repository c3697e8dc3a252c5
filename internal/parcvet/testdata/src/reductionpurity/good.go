package reductionpurity

import "parc751/internal/reduction"

// pureSum is the canonical pure reducer: neutral identity, argument-only
// combine.
func pureSum(xs []int) int {
	r := reduction.Reducer[int]{
		Identity: func() int { return 0 },
		Combine:  func(a, b int) int { return a + b },
	}
	return reduction.Fold(r, xs)
}

// pureProd: 1 is neutral for multiplication.
func pureProd(xs []int) int {
	r := reduction.Reducer[int]{
		Identity: func() int { return 1 },
		Combine:  func(a, b int) int { return a * b },
	}
	return reduction.Fold(r, xs)
}

// freshMaps constructs a new map per identity call and mutates only its
// first argument — the documented accumulating convention.
func freshMaps(parts []map[string]int) map[string]int {
	r := reduction.Reducer[map[string]int]{
		Identity: func() map[string]int { return map[string]int{} },
		Combine: func(a, b map[string]int) map[string]int {
			for k, v := range b {
				a[k] += v
			}
			return a
		},
	}
	return reduction.Fold(r, parts)
}

// concat appends into the combiner's own first argument, the stock
// reduction.Append shape: the accumulator is the member's to grow.
func concat(parts [][]int) []int {
	r := reduction.Reducer[[]int]{
		Identity: func() []int { return nil },
		Combine:  func(a, b []int) []int { return append(a, b...) },
	}
	return reduction.Fold(r, parts)
}
