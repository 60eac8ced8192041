package stats

import (
	"math"
	"sort"
)

// Summary holds streaming first- and second-moment statistics plus extrema
// of a sequence of observations.
type Summary struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n++
	// Welford's online update keeps the variance numerically stable.
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N returns the number of observations recorded.
func (s *Summary) N() int { return s.n }

// Mean returns the arithmetic mean, or 0 when empty.
func (s *Summary) Mean() float64 { return s.mean }

// Var returns the population variance, or 0 when fewer than two samples.
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n)
}

// StdDev returns the population standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation, or 0 when empty.
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation, or 0 when empty.
func (s *Summary) Max() float64 { return s.max }

// Quantile returns the q-quantile (0 <= q <= 1) of the data using the
// nearest-rank method. The input slice is not modified.
func Quantile(data []float64, q float64) float64 {
	if len(data) == 0 {
		return 0
	}
	sorted := make([]float64, len(data))
	copy(sorted, data)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}
