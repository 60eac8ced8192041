// Package stats provides the deterministic random number generation and
// probability distributions used by the synthetic workload generators.
//
// All randomness in the repository flows through *stats.RNG so that every
// simulation is reproducible from a single integer seed. The distributions
// implemented here (uniform, exponential, gamma, lognormal, Bernoulli,
// Zipf) are the standard building blocks of parallel workload models such
// as Lublin–Feitelson.
package stats

import (
	"math"
	"math/rand"
)

// RNG is a deterministic source of random variates. It wraps math/rand's
// generator seeded explicitly; two RNGs built with the same seed produce
// identical streams.
type RNG struct {
	src *rand.Rand
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{src: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform variate in [0, 1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int { return r.src.Intn(n) }

// Uniform returns a uniform variate in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.src.Float64()
}

// Exp returns an exponential variate with the given mean. The mean must be
// positive.
func (r *RNG) Exp(mean float64) float64 {
	return r.src.ExpFloat64() * mean
}

// Lognormal returns a variate whose natural logarithm is normal with the
// given location mu and scale sigma. The median of the distribution is
// exp(mu).
func (r *RNG) Lognormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.src.NormFloat64())
}

// Gamma returns a gamma variate with the given shape k and scale theta
// (mean k*theta), using the Marsaglia–Tsang squeeze method. Both parameters
// must be positive.
func (r *RNG) Gamma(shape, scale float64) float64 {
	if shape < 1 {
		// Boost to shape+1 and correct with a power of a uniform variate.
		u := r.src.Float64()
		for u == 0 {
			u = r.src.Float64()
		}
		return r.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		x := r.src.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.src.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// Bernoulli reports true with probability p.
func (r *RNG) Bernoulli(p float64) bool { return r.src.Float64() < p }

// Zipf returns a sampler of integers in [0, n) with P(k) ∝ 1/(k+1)^s,
// s > 1. HPC centers show Zipf-like user activity: a few users submit
// most jobs.
func (r *RNG) Zipf(s float64, n int) func() int {
	z := rand.NewZipf(r.src, s, 1, uint64(n-1))
	return func() int { return int(z.Uint64()) }
}
