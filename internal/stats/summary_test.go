package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Errorf("N = %d, want 8", s.N())
	}
	if s.Mean() != 5 {
		t.Errorf("Mean = %v, want 5", s.Mean())
	}
	if math.Abs(s.Var()-4) > 1e-12 {
		t.Errorf("Var = %v, want 4", s.Var())
	}
	if s.StdDev() != 2 {
		t.Errorf("StdDev = %v, want 2", s.StdDev())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", s.Min(), s.Max())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.N() != 0 || s.Mean() != 0 || s.Var() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Error("empty summary should report zeros")
	}
}

func TestSummarySingle(t *testing.T) {
	var s Summary
	s.Add(3.5)
	if s.Mean() != 3.5 || s.Var() != 0 || s.Min() != 3.5 || s.Max() != 3.5 {
		t.Error("single-sample summary wrong")
	}
}

func TestQuantile(t *testing.T) {
	data := []float64{5, 1, 3, 2, 4}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.2, 1}, {0.4, 2}, {0.5, 3}, {0.8, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(data, c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Input must not be reordered.
	if data[0] != 5 {
		t.Error("Quantile mutated its input")
	}
}

func TestQuantileEmpty(t *testing.T) {
	if Quantile(nil, 0.5) != 0 {
		t.Error("Quantile(nil) should be 0")
	}
}

// Property: mean lies within [min, max] and variance is non-negative.
// Inputs are clamped to physically plausible magnitudes (the simulator
// works in seconds and joules); near ±MaxFloat64 the Welford update
// overflows, which is out of scope.
func TestQuickSummaryInvariants(t *testing.T) {
	f := func(xs []float64) bool {
		var s Summary
		ok := true
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e15 {
				continue
			}
			s.Add(x)
		}
		if s.N() > 0 {
			ok = s.Mean() >= s.Min()-1e-9 && s.Mean() <= s.Max()+1e-9 && s.Var() >= -1e-9
		}
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: quantiles are monotone in q.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(xs []float64, qa, qb uint8) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		q1 := float64(qa%101) / 100
		q2 := float64(qb%101) / 100
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		return Quantile(clean, q1) <= Quantile(clean, q2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
