// Package kernels is project 3 of the reproduced paper: "parallelisation
// of simple computational kernels". The students were given C
// implementations of FFT, molecular dynamics, graph processing and linear
// algebra codes and parallelised them in Java with Pyjama, comparing
// against hand-written threading. This package provides the same four
// kernel families, each with a sequential reference and a Pyjama-parallel
// version, written so the parallel output is bit-identical to the
// sequential one (each output element is produced by exactly one thread
// iterating in a fixed order), which is what makes them testable.
package kernels

import (
	"math"
	"math/cmplx"

	"parc751/internal/pyjama"
)

// FFTSequential computes the in-place radix-2 Cooley-Tukey FFT of xs,
// whose length must be a power of two. It panics otherwise.
func FFTSequential(xs []complex128) {
	fftCheck(len(xs))
	bitReverse(xs)
	n := len(xs)
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		w := cmplx.Exp(complex(0, -2*math.Pi/float64(size)))
		for start := 0; start < n; start += size {
			tw := complex(1, 0)
			for k := 0; k < half; k++ {
				a := xs[start+k]
				b := xs[start+k+half] * tw
				xs[start+k] = a + b
				xs[start+k+half] = a - b
				tw *= w
			}
		}
	}
}

// FFTParallel computes the same FFT with each stage's independent
// butterfly blocks workshared over a Pyjama team. Stages are separated by
// the loop's implicit barrier, exactly the structure of the classic
// OpenMP FFT. The output is bit-identical to FFTSequential because every
// block is computed by one thread in the sequential order.
func FFTParallel(nthreads int, xs []complex128) {
	fftCheck(len(xs))
	bitReverse(xs)
	n := len(xs)
	pyjama.Parallel(nthreads, func(tc *pyjama.TC) {
		for size := 2; size <= n; size <<= 1 {
			half := size / 2
			w := cmplx.Exp(complex(0, -2*math.Pi/float64(size)))
			blocks := n / size
			tc.For(blocks, pyjama.Static(0), func(b int) {
				start := b * size
				tw := complex(1, 0)
				for k := 0; k < half; k++ {
					x := xs[start+k]
					y := xs[start+k+half] * tw
					xs[start+k] = x + y
					xs[start+k+half] = x - y
					tw *= w
				}
			})
		}
	})
}

// IFFT computes the inverse FFT in place (sequentially), scaling by 1/n.
//
//parcvet:ignore unused reference inverse transform TestFFTRoundTrip checks the parallel FFT against
func IFFT(xs []complex128) {
	for i := range xs {
		xs[i] = cmplx.Conj(xs[i])
	}
	FFTSequential(xs)
	n := complex(float64(len(xs)), 0)
	for i := range xs {
		xs[i] = cmplx.Conj(xs[i]) / n
	}
}

// DFTNaive computes the O(n²) discrete Fourier transform, the oracle the
// FFT is verified against on small inputs.
//
//parcvet:ignore unused reference O(n²) oracle TestFFTMatchesNaiveDFT checks the FFT against
func DFTNaive(xs []complex128) []complex128 {
	n := len(xs)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			angle := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			sum += xs[t] * cmplx.Exp(complex(0, angle))
		}
		out[k] = sum
	}
	return out
}

func fftCheck(n int) {
	if n == 0 || n&(n-1) != 0 {
		panic("kernels: FFT length must be a power of two")
	}
}

func bitReverse(xs []complex128) {
	n := len(xs)
	j := 0
	for i := 1; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			xs[i], xs[j] = xs[j], xs[i]
		}
	}
}
