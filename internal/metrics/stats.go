// Package metrics provides the measurement and reporting substrate used by
// every experiment in the reproduction: streaming summary statistics,
// speedup/efficiency calculations, and plain-text table/series rendering so
// the benchmark harness can print the same rows and curves the paper's
// student projects reported.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Summary accumulates streaming summary statistics using Welford's
// algorithm, which is numerically stable for long runs. The zero value is
// an empty summary ready for use.
type Summary struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add folds one observation into the summary.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// AddDuration folds a duration, recorded in seconds.
func (s *Summary) AddDuration(d time.Duration) { s.Add(d.Seconds()) }

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Min returns the smallest observation, or 0 for an empty summary.
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation, or 0 for an empty summary.
func (s *Summary) Max() float64 { return s.max }

// Variance returns the unbiased sample variance (n-1 denominator).
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Stddev returns the sample standard deviation.
func (s *Summary) Stddev() float64 { return math.Sqrt(s.Variance()) }

// CI95 returns the half-width of the 95% confidence interval for the mean
// under a normal approximation (1.96 standard errors). It returns 0 when
// fewer than two observations are present.
func (s *Summary) CI95() float64 {
	if s.n < 2 {
		return 0
	}
	return 1.96 * s.Stddev() / math.Sqrt(float64(s.n))
}

// String renders the summary as "mean ± ci95 [min, max] (n=N)".
func (s *Summary) String() string {
	return fmt.Sprintf("%.4g ± %.2g [%.4g, %.4g] (n=%d)", s.mean, s.CI95(), s.min, s.max, s.n)
}

// Speedup returns base/parallel: how many times faster the parallel time
// is relative to the baseline time. Returns +Inf when parallel is zero and
// NaN when both are zero.
func Speedup(base, parallel float64) float64 {
	if parallel == 0 {
		if base == 0 {
			return math.NaN()
		}
		return math.Inf(1)
	}
	return base / parallel
}

// Efficiency returns Speedup(base, parallel) / p, the per-processor
// utilisation of a run on p processors.
func Efficiency(base, parallel float64, p int) float64 {
	if p <= 0 {
		return math.NaN()
	}
	return Speedup(base, parallel) / float64(p)
}

// Percentile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between closest ranks. xs need not be sorted; a copy is
// sorted internally. It returns NaN for an empty slice.
func Percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	c := make([]float64, len(xs))
	copy(c, xs)
	sort.Float64s(c)
	if q <= 0 {
		return c[0]
	}
	if q >= 1 {
		return c[len(c)-1]
	}
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return c[lo]
	}
	frac := pos - float64(lo)
	return c[lo]*(1-frac) + c[hi]*frac
}
