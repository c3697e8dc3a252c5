package parcpar

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
