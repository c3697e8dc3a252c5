// Package reduction is the object-oriented reduction framework — project 5
// of the reproduced paper and one of its §V-B research outcomes. OpenMP
// specifies reductions over a small set of scalar types and operators; the
// Pyjama work generalised them to arbitrary object types (merging
// collections, maps, histograms). This package provides:
//
//   - Reducer[T]: an identity plus an associative combine;
//   - the stock scalar reducers OpenMP has (sum, product, min, max,
//     logical and/or);
//   - the object reducers the paper's project explored (slice append,
//     set union, map merge, histogram merge, top-k);
//   - Fold, the sequential reference semantics.
//
// The parallel reduction is pyjama.ForReduce (and ParallelForReduce): it
// folds each team member's share and combines the partials in thread
// order. The tests assert that it agrees with Fold for the stock
// reducers, which is exactly the associativity property a reduction must
// have.
package reduction

import "sort"

// Reducer is an associative combination with an identity element. For the
// results to be schedule-independent, Combine must be associative and
// Identity a true identity; the property tests in this package check both
// for every stock reducer.
type Reducer[T any] struct {
	// Identity returns a fresh identity value. It is a function, not a
	// value, because object identities (empty map, empty slice) must not
	// be shared between threads.
	Identity func() T
	// Combine merges two values. It may mutate and return its first
	// argument (the accumulating convention), so callers must not reuse
	// arguments after combining.
	Combine func(a, b T) T
}

// Fold reduces xs sequentially — the reference semantics.
//
//parcvet:ignore unused api §V-B reduction
func Fold[T any](r Reducer[T], xs []T) T {
	acc := r.Identity()
	for _, x := range xs {
		acc = r.Combine(acc, x)
	}
	return acc
}

// Numeric covers the built-in types OpenMP's scalar reductions apply to.
type Numeric interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 |
		~float32 | ~float64
}

// Sum is the "+" reduction.
func Sum[T Numeric]() Reducer[T] {
	return Reducer[T]{
		Identity: func() T { var z T; return z },
		Combine:  func(a, b T) T { return a + b },
	}
}

// Prod is the "*" reduction.
//
//parcvet:ignore unused api §V-B reduction
func Prod[T Numeric]() Reducer[T] {
	return Reducer[T]{
		Identity: func() T { return T(1) },
		Combine:  func(a, b T) T { return a * b },
	}
}

// Min reduces to the smallest value seen; the identity is max(T) supplied
// by the caller because Go has no generic numeric limits.
func Min[T Numeric](identity T) Reducer[T] {
	return Reducer[T]{
		Identity: func() T { return identity },
		Combine: func(a, b T) T {
			if b < a {
				return b
			}
			return a
		},
	}
}

// Max reduces to the largest value seen, with the caller-supplied identity
// (typically the type's minimum).
//
//parcvet:ignore unused api §V-B reduction
func Max[T Numeric](identity T) Reducer[T] {
	return Reducer[T]{
		Identity: func() T { return identity },
		Combine: func(a, b T) T {
			if b > a {
				return b
			}
			return a
		},
	}
}

// And is the logical-and reduction.
func And() Reducer[bool] {
	return Reducer[bool]{
		Identity: func() bool { return true },
		Combine:  func(a, b bool) bool { return a && b },
	}
}

// Or is the logical-or reduction.
//
//parcvet:ignore unused api §V-B reduction
func Or() Reducer[bool] {
	return Reducer[bool]{
		Identity: func() bool { return false },
		Combine:  func(a, b bool) bool { return a || b },
	}
}

// The object-oriented reductions (§V-B): these are what the paper's
// project added beyond the OpenMP specification.

// Append merges slices by concatenation. Order is combination order, so
// under a static-block pyjama.ForReduce the result preserves block order — the property the
// text-search project relies on for stable match lists.
func Append[T any]() Reducer[[]T] {
	return Reducer[[]T]{
		Identity: func() []T { return nil },
		Combine:  func(a, b []T) []T { return append(a, b...) },
	}
}

// Union merges sets represented as map[K]struct{}.
func Union[K comparable]() Reducer[map[K]struct{}] {
	return Reducer[map[K]struct{}]{
		Identity: func() map[K]struct{} { return map[K]struct{}{} },
		Combine: func(a, b map[K]struct{}) map[K]struct{} {
			for k := range b {
				a[k] = struct{}{}
			}
			return a
		},
	}
}

// MergeMaps merges map values key-wise with the supplied value combiner —
// the "merging collections" example from the paper (§IV-C item 5).
func MergeMaps[K comparable, V any](combine func(V, V) V) Reducer[map[K]V] {
	return Reducer[map[K]V]{
		Identity: func() map[K]V { return map[K]V{} },
		Combine: func(a, b map[K]V) map[K]V {
			for k, bv := range b {
				if av, ok := a[k]; ok {
					a[k] = combine(av, bv)
				} else {
					a[k] = bv
				}
			}
			return a
		},
	}
}

// Histogram merges integer-count histograms keyed by K (word counts,
// bucket counts): per-key addition.
func Histogram[K comparable]() Reducer[map[K]int] {
	return MergeMaps[K](func(a, b int) int { return a + b })
}

// TopK keeps the k largest values (by less: less(a,b) means a orders
// before b, i.e. is smaller). The reduction value is an ascending-sorted
// slice of at most k elements.
//
//parcvet:ignore unused api §V-B reduction
func TopK[T any](k int, less func(a, b T) bool) Reducer[[]T] {
	trim := func(xs []T) []T {
		sort.Slice(xs, func(i, j int) bool { return less(xs[i], xs[j]) })
		if len(xs) > k {
			xs = xs[len(xs)-k:]
		}
		return xs
	}
	return Reducer[[]T]{
		Identity: func() []T { return nil },
		Combine:  func(a, b []T) []T { return trim(append(a, b...)) },
	}
}

// Map lifts a value into a single-element reduction operand for Append.
//
//parcvet:ignore unused api §V-B reduction
func Map[T any](v T) []T { return []T{v} }
