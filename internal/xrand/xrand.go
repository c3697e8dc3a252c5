// Package xrand provides a small, deterministic pseudo-random number
// generator used by every workload generator and simulator in this
// repository. All experiments in the paper reproduction must be exactly
// repeatable from a seed, so math/rand's global state is never used.
//
// The generator is splitmix64 (Steele, Lea & Flood), which is tiny,
// statistically solid for workload generation, and trivially splittable:
// independent streams are derived with Split, so concurrent workers can
// draw numbers without sharing state or locks.
package xrand

import (
	"math"
	"math/bits"
)

// golden is the 64-bit golden-ratio increment used by splitmix64.
const golden = 0x9E3779B97F4A7C15

// Rand is a deterministic splitmix64 generator. The zero value is a valid
// generator seeded with 0; prefer New for clarity. Rand is NOT safe for
// concurrent use — derive per-goroutine streams with Split instead, which
// is both faster and deterministic regardless of interleaving.
type Rand struct {
	state     uint64
	spare     float64
	haveSpare bool
}

// New returns a generator seeded with seed.
func New(seed uint64) *Rand {
	return &Rand{state: seed}
}

// Split derives an independent generator from r. The derived stream is
// decorrelated from r's future output by advancing r once and re-mixing.
func (r *Rand) Split() *Rand {
	return &Rand{state: mix(r.Uint64() ^ golden)}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	r.state += golden
	return mix(r.state)
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns an int uniformly distributed in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded values.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul128(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul128 returns the 128-bit product of a and b as (hi, lo).
func mul128(a, b uint64) (hi, lo uint64) {
	return bits.Mul64(a, b)
}

// Float64 returns a float64 uniformly distributed in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1, using the Box-Muller transform (the polar variant
// is avoided so that exactly two uniforms are consumed per pair of calls,
// keeping streams aligned across refactors).
func (r *Rand) NormFloat64() float64 {
	if r.haveSpare {
		r.haveSpare = false
		return r.spare
	}
	var u float64
	for u == 0 {
		u = r.Float64()
	}
	v := r.Float64()
	mag := math.Sqrt(-2 * math.Log(u))
	r.spare = mag * math.Sin(2*math.Pi*v)
	r.haveSpare = true
	return mag * math.Cos(2*math.Pi*v)
}

// ExpFloat64 returns an exponentially distributed float64 with rate 1
// (mean 1). Scale by dividing by the desired rate.
func (r *Rand) ExpFloat64() float64 {
	var u float64
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u)
}

// Perm returns a pseudo-random permutation of [0, n) via Fisher-Yates.
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// ZipfGen draws Zipf-distributed ranks in [0, n) with exponent s.
type ZipfGen struct {
	r   *Rand
	cdf []float64
}

// NewZipfGen builds a Zipf generator over [0, n) with exponent s.
// It panics if n <= 0 or s <= 0.
func NewZipfGen(r *Rand, n int, s float64) *ZipfGen {
	if n <= 0 || s <= 0 {
		panic("xrand: NewZipfGen requires n > 0 and s > 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &ZipfGen{r: r, cdf: cdf}
}

// Next returns the next Zipf-distributed rank.
func (z *ZipfGen) Next() int {
	u := z.r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Letters fills dst with pseudo-random lowercase ASCII letters and
// returns it as a string.
func (r *Rand) Letters(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return string(b)
}
