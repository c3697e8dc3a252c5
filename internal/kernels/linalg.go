package kernels

import (
	"math"

	"parc751/internal/pyjama"
	"parc751/internal/xrand"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zero Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// RandomMatrix fills a Rows×Cols matrix with uniform values in [-1, 1).
func RandomMatrix(seed uint64, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	r := xrand.New(seed)
	for i := range m.Data {
		m.Data[i] = 2*r.Float64() - 1
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice view.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// MatMulSequential returns a×b with the cache-friendly i-k-j loop order.
// It panics on dimension mismatch.
func MatMulSequential(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic("kernels: matmul dimension mismatch")
	}
	c := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		crow := c.Row(i)
		for k := 0; k < a.Cols; k++ {
			aik := a.At(i, k)
			brow := b.Row(k)
			for j := range crow {
				crow[j] += aik * brow[j]
			}
		}
	}
	return c
}

// MatMulParallel workshares output rows over a Pyjama team. Each row is
// produced by one thread in the sequential k-j order, so the result is
// bit-identical to MatMulSequential.
func MatMulParallel(nthreads int, a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic("kernels: matmul dimension mismatch")
	}
	c := NewMatrix(a.Rows, b.Cols)
	pyjama.ParallelFor(nthreads, a.Rows, pyjama.Static(0), func(i int) {
		crow := c.Row(i)
		for k := 0; k < a.Cols; k++ {
			aik := a.At(i, k)
			brow := b.Row(k)
			for j := range crow {
				crow[j] += aik * brow[j]
			}
		}
	})
	return c
}

// MatMulParallelStats is MatMulParallel plus the Pyjama region's
// observability snapshot — the serving layer runs the kernel through this
// so /statz can report worksharing and barrier behaviour alongside the
// scheduler's sched.Snapshot.
func MatMulParallelStats(nthreads int, a, b *Matrix) (*Matrix, pyjama.RegionStats) {
	if a.Cols != b.Rows {
		panic("kernels: matmul dimension mismatch")
	}
	c := NewMatrix(a.Rows, b.Cols)
	stats := pyjama.ParallelWithStats(nthreads, func(tc *pyjama.TC) {
		tc.ForNoWait(a.Rows, pyjama.Static(0), func(i int) {
			crow := c.Row(i)
			for k := 0; k < a.Cols; k++ {
				aik := a.At(i, k)
				brow := b.Row(k)
				for j := range crow {
					crow[j] += aik * brow[j]
				}
			}
		})
	})
	return c, stats
}

// MaxAbsDiff returns the largest element-wise absolute difference.
func MaxAbsDiff(a, b *Matrix) float64 {
	m := 0.0
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > m {
			m = d
		}
	}
	return m
}

// JacobiSystem is a diagonally dominant linear system Ax = rhs for the
// Jacobi iteration kernel.
type JacobiSystem struct {
	A   *Matrix
	Rhs []float64
}

// NewJacobiSystem builds a random strictly diagonally dominant n×n system,
// which guarantees Jacobi convergence.
func NewJacobiSystem(seed uint64, n int) *JacobiSystem {
	r := xrand.New(seed)
	a := NewMatrix(n, n)
	rhs := make([]float64, n)
	for i := 0; i < n; i++ {
		rowSum := 0.0
		for j := 0; j < n; j++ {
			if i != j {
				v := 2*r.Float64() - 1
				a.Set(i, j, v)
				rowSum += math.Abs(v)
			}
		}
		a.Set(i, i, rowSum+1+r.Float64())
		rhs[i] = 2*r.Float64() - 1
	}
	return &JacobiSystem{A: a, Rhs: rhs}
}

// JacobiSequential runs iters Jacobi sweeps from the zero vector and
// returns the iterate.
//
//parcvet:ignore unused reference sequential Jacobi TestJacobiParallelBitIdentical checks the parallel sweep against
func (s *JacobiSystem) JacobiSequential(iters int) []float64 {
	n := len(s.Rhs)
	x := make([]float64, n)
	next := make([]float64, n)
	for it := 0; it < iters; it++ {
		for i := 0; i < n; i++ {
			next[i] = s.sweepRow(i, x)
		}
		x, next = next, x
	}
	return x
}

// JacobiParallel runs the same sweeps with rows workshared per iteration;
// output is bit-identical to the sequential kernel.
func (s *JacobiSystem) JacobiParallel(nthreads, iters int) []float64 {
	n := len(s.Rhs)
	x := make([]float64, n)
	next := make([]float64, n)
	pyjama.Parallel(nthreads, func(tc *pyjama.TC) {
		for it := 0; it < iters; it++ {
			tc.For(n, pyjama.Static(0), func(i int) {
				next[i] = s.sweepRow(i, x)
			})
			tc.Master(func() { x, next = next, x })
			tc.Barrier()
		}
	})
	return x
}

func (s *JacobiSystem) sweepRow(i int, x []float64) float64 {
	n := len(x)
	row := s.A.Row(i)
	sum := s.Rhs[i]
	for j := 0; j < n; j++ {
		if j != i {
			sum -= row[j] * x[j]
		}
	}
	return sum / row[i]
}

// Residual returns the max-norm of A·x − rhs.
func (s *JacobiSystem) Residual(x []float64) float64 {
	n := len(x)
	worst := 0.0
	for i := 0; i < n; i++ {
		row := s.A.Row(i)
		sum := -s.Rhs[i]
		for j := 0; j < n; j++ {
			sum += row[j] * x[j]
		}
		if a := math.Abs(sum); a > worst {
			worst = a
		}
	}
	return worst
}
