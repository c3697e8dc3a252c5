// Package parcpar holds golden fixtures for the opportunity analyzer,
// checked in Explain mode: every finding must match a `// want` comment
// on its line, and every want must be produced.
package parcpar

import "parc751/internal/kernels"

// FlatScale writes through the delinearized index i*m+j — injective
// because the inner canonical loop runs j over exactly [0, m).
func FlatScale(out []float64, n, m int) {
	for i := 0; i < n; i++ { // want `loop is parallelizable; suggest pyjama.ParallelFor`
		for j := 0; j < m; j++ {
			out[i*m+j] = float64(i) * float64(j)
		}
	}
}

// RowScale writes only through an allowlisted iteration-distinct row
// view; the accessor call itself is exempt from call-aliasing.
func RowScale(m *kernels.Matrix) {
	for i := 0; i < m.Rows; i++ { // want `loop is parallelizable; suggest pyjama.ParallelFor`
		row := m.Row(i)
		for j := range row {
			row[j] *= 2
		}
	}
}

// SwitchBreak's break leaves the switch, not the loop — the CFG knows
// the difference, so this is not an early exit.
func SwitchBreak(xs []float64) {
	for i := 0; i < len(xs); i++ { // want `loop is parallelizable; suggest pyjama.ParallelFor with pyjama.Auto`
		switch {
		case xs[i] > 1:
			xs[i] = xs[i]*xs[i] + 1
		default:
			break
		}
	}
}

// LabeledContinue's `continue inner` re-enters the inner loop's post
// statement — precise labeled edges keep it inside the outer loop.
func LabeledContinue(xs []float64) {
	for i := 0; i < len(xs); i++ { // want `loop is parallelizable; suggest pyjama.ParallelFor`
	inner:
		for j := 0; j < 4; j++ {
			if xs[i] < float64(j) {
				continue inner
			}
			xs[i] += 0.25
		}
	}
}

// Buffered allocates fresh per-iteration storage with make — private,
// so writes through it never cross iterations.
func Buffered(out []float64, n int) {
	for i := 0; i < n; i++ { // want `loop is parallelizable; suggest pyjama.ParallelFor`
		buf := make([]float64, 8)
		for j := range buf {
			buf[j] = float64(i + j)
		}
		var s float64
		for j := range buf {
			s += buf[j]
		}
		out[i] = s
	}
}

// Product is recognized as a product reduction — reported as an
// opportunity, though only sum reductions are mechanically rewritten.
func Product(xs []float64) float64 {
	p := 1.0
	for i := 0; i < len(xs); i++ { // want `parallelizable product reduction`
		p *= 1 + xs[i]*0.5
	}
	return p
}

type sys struct {
	pos   []float64
	force []float64
}

// computeForces writes s.force[i] and calls a pure method whose
// transitive field reads provably exclude "force" — the
// field-sensitive call-aliasing accept.
func (s *sys) computeForces() {
	for i := range s.force { // want `loop is parallelizable; suggest pyjama.ParallelFor`
		s.force[i] = s.forceAt(i)
	}
}

func (s *sys) forceAt(i int) float64 {
	var f float64
	for j := range s.pos { // want `parallelizable sum reduction`
		if j != i {
			d := s.pos[j] - s.pos[i]
			f += d / (1 + d*d)
		}
	}
	return f
}

// RowScaleByHelper hands this iteration's row view to scaleRow, a slice
// writer: it writes only elements of the slice it is given.
func RowScaleByHelper(m *kernels.Matrix) {
	for i := 0; i < m.Rows; i++ { // want `loop is parallelizable; suggest pyjama.ParallelFor`
		scaleRow(m.Row(i), 2)
	}
}

// RowAddByHelper does the same through a local row view, with a second,
// read-only row from another matrix.
func RowAddByHelper(m, src *kernels.Matrix) {
	for i := 0; i < m.Rows; i++ { // want `loop is parallelizable; suggest pyjama.ParallelFor`
		row := m.Row(i)
		addRow(row, src.Row(i))
	}
}

func scaleRow(row []float64, f float64) {
	for j := range row { // want `below cost threshold`
		row[j] *= f
	}
}

func addRow(dst, src []float64) {
	for j := range dst { // want `loop is parallelizable; suggest pyjama.ParallelFor`
		dst[j] += src[j]
	}
}
