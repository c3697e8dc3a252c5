package parcpar

import "parc751/internal/kernels"

// MeanVar updates two shared accumulators — only a single recognized
// accumulator fits the reduction model.
func MeanVar(xs []float64) (float64, float64) {
	var sum, sq float64
	for i := 0; i < len(xs); i++ { // want `multiple shared scalars`
		sum += xs[i]
		sq += xs[i] * xs[i]
	}
	n := float64(len(xs))
	return sum / n, sq / n
}

// Deref writes through pointers whose targets the analyzer cannot
// prove disjoint.
func Deref(ps []*int64) {
	for i := 0; i < len(ps); i++ { // want `write through pointer`
		*ps[i] = int64(i)
	}
}

// RowsZero writes through the range value, which aliases the ranged
// slice's backing memory; the inner loop is safe but too cheap.
func RowsZero(rows [][]float64) {
	for _, row := range rows { // want `aliases the ranged data`
		for j := range row { // want `below cost threshold`
			row[j] = 0
		}
	}
}

// Spawn starts goroutines — outside the SPMD model entirely.
func Spawn(xs []float64, ch chan<- float64) {
	for i := 0; i < len(xs); i++ { // want `go statement in body`
		go func(v float64) { ch <- v }(xs[i])
	}
}

// Addr leaks an alias to shared memory out of the iteration.
func Addr(xs []int64) {
	var p *int64
	for i := 0; i < len(xs); i++ { // want `address of shared`
		p = &xs[i]
		*p = 0
	}
	_ = p
}

// MapCount writes a map: two iterations may hit the same key, and map
// writes race regardless.
func MapCount(m map[int]int, xs []int) {
	for i := 0; i < len(xs); i++ { // want `write to map`
		m[xs[i]]++
	}
}

// NestedSearch breaks out of both loops on data: the labeled break
// leaves the outer loop (and, seen from the inner loop, leaves it too).
func NestedSearch(xs [][]int64, want int64) bool {
	found := false
outer:
	for i := 0; i < len(xs); i++ { // want `break outer leaves the loop`
		for j := 0; j < len(xs[i]); j++ { // want `break outer leaves the loop`
			if xs[i][j] == want {
				found = true
				break outer
			}
		}
	}
	return found
}

// Blur writes xs[i] while passing all of xs to a callee that reads
// other slots — the caller/callee aliasing gap the write analysis
// alone would miss.
func Blur(xs []float64) {
	for i := 0; i < len(xs); i++ { // want `passed to avg, which may read another iteration's slot`
		xs[i] = avg(xs, i)
	}
}

func avg(xs []float64, i int) float64 {
	if i == 0 {
		return xs[0]
	}
	return 0.5 * (xs[i] + xs[i-1])
}

// smoothBad writes s.force while calling a method whose field reads
// include "force" — rejected by the field-sensitive aliasing check.
func (s *sys) smoothBad() {
	for i := range s.force { // want `receives "s" while the loop writes its "force" field`
		s.force[i] = s.avgForce(i)
	}
}

func (s *sys) avgForce(i int) float64 {
	if i == 0 {
		return s.force[0]
	}
	return 0.5 * (s.force[i] + s.force[i-1])
}

// Spread writes xs with two shapes, each injective alone: iterations i
// and i+1 both write xs[i+1].
func Spread(xs, ys []float64) {
	for i := 0; i < len(xs)-1; i++ { // want `access to xs\[i \+ 1\] may alias another iteration's write to xs`
		xs[i] = ys[i] * 2.5
		xs[i+1] = ys[i] * 3.5
	}
}

// ScaleShared hands the slice writer a slice every iteration shares.
func ScaleShared(m *kernels.Matrix, out []float64) {
	for i := 0; i < m.Rows; i++ { // want `scaleAll writes the elements of "out", which is not this iteration's row`
		scaleAll(out, m.At(i, 0))
	}
}

// NextRow hands the slice writer the next iteration's row.
func NextRow(m *kernels.Matrix) {
	for i := 0; i < m.Rows-1; i++ { // want `scaleAll writes the elements of "m.Row\(i \+ 1\)"`
		scaleAll(m.Row(i+1), 2)
	}
}

// GrowRow's helper appends to the slice it is given, which can write
// past the row's end into the next row: it is not a slice writer.
func GrowRow(m *kernels.Matrix) {
	for i := 0; i < m.Rows; i++ { // want `call to parcpartest/parcpar.appendOne is not provably pure \(writes through row\)`
		appendOne(m.Row(i))
	}
}

// ZeroFirst's helper appends into the slice it is given: append(xs[:0], 0)
// stores xs[0] in the caller's memory, so every iteration writes the
// same element.
func ZeroFirst(xs []float64, n int) {
	for i := 0; i < n; i++ { // want `call to parcpartest/parcpar.zeroFirst is not provably pure \(writes through xs\)`
		zeroFirst(xs)
	}
}

// ReadsOwner passes the written matrix itself to the slice writer, which
// may read other iterations' rows through it.
func ReadsOwner(m *kernels.Matrix) {
	for i := 0; i < m.Rows; i++ { // want `written "m" is passed to copyFirstRow, which may read another iteration's slot`
		copyFirstRow(m.Row(i), m)
	}
}

func scaleAll(xs []float64, f float64) {
	for j := range xs { // want `below cost threshold`
		xs[j] *= f
	}
}

func appendOne(row []float64) {
	row = append(row, 1)
	row[0] = 2
}

func zeroFirst(xs []float64) { _ = append(xs[:0], 0) }

func copyFirstRow(row []float64, m *kernels.Matrix) {
	first := m.Row(0)
	for j := range row { // want `below cost threshold`
		row[j] = first[j]
	}
}
