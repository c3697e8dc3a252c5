package seq

import "fmt"

// The negative fixtures: every loop below is one the analyzer must
// reject (or price below threshold) with a reasoned finding, and the
// rewriter must leave alone — A10 asserts no file named negatives.go
// appears in the generated package.

// PrefixSum carries xs[i-1] into iteration i: the classic loop-carried
// flow dependence.
//
//parcvet:ignore unused fake loop fixture the parcpar classifier tests and A10 require parcpar to reject
func PrefixSum(xs []int64) {
	for i := 1; i < len(xs); i++ {
		xs[i] += xs[i-1]
	}
}

// Shift reads the next iteration's slot while writing its own: an
// anti-dependence (read index i+1 is not among the write shapes).
//
//parcvet:ignore unused fake loop fixture the parcpar classifier tests and A10 require parcpar to reject
func Shift(xs []int64) {
	for i := 0; i < len(xs)-1; i++ {
		xs[i] = xs[i+1]
	}
}

// SumUntilNeg breaks out of the loop on data: the trip count is
// data-dependent, so iterations cannot be distributed.
//
//parcvet:ignore unused fake loop fixture the parcpar classifier tests and A10 require parcpar to reject
func SumUntilNeg(xs []int64) int64 {
	var s int64
	for i := 0; i < len(xs); i++ {
		if xs[i] < 0 {
			break
		}
		s += xs[i]
	}
	return s
}

// FindIndex returns from inside the loop — the other early-exit form.
//
//parcvet:ignore unused fake loop fixture the parcpar classifier tests and A10 require parcpar to reject
func FindIndex(xs []int64, want int64) int {
	for i := 0; i < len(xs); i++ {
		if xs[i] == want {
			return i
		}
	}
	return -1
}

// LogEach calls fmt.Println, which is outside the purity allowlist.
//
//parcvet:ignore unused fake loop fixture the parcpar classifier tests and A10 require parcpar to reject
func LogEach(xs []int64) {
	for i := 0; i < len(xs); i++ {
		fmt.Println(xs[i])
	}
}

// Scale3 is safe but trip-3: forking costs more than the loop.
//
//parcvet:ignore unused fake loop fixture the parcpar classifier tests and A10 require parcpar to reject
func Scale3(xs []float64) {
	for i := 0; i < 3; i++ {
		xs[i] *= 2
	}
}

// RunningMax writes a shared scalar in a conditional, non-reduction
// form (max is order-insensitive, but the analyzer's reduction grammar
// is sum/product only — rejecting is the conservative answer).
//
//parcvet:ignore unused fake loop fixture the parcpar classifier tests and A10 require parcpar to reject
func RunningMax(xs []int64) int64 {
	m := xs[0]
	for i := 1; i < len(xs); i++ {
		if xs[i] > m {
			m = xs[i]
		}
	}
	return m
}

// Histogram writes through a data-dependent index: two iterations may
// hit the same bin.
//
//parcvet:ignore unused fake loop fixture the parcpar classifier tests and A10 require parcpar to reject
func Histogram(counts []int, idx []int) {
	for i := 0; i < len(idx); i++ {
		counts[idx[i]]++
	}
}
