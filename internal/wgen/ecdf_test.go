package wgen

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// ecdf is an empirical cumulative distribution function over a sample,
// used to compare generated workload distributions against references
// (two-sample Kolmogorov–Smirnov distance).
type ecdf struct {
	xs []float64 // sorted ascending
}

// newECDF copies and sorts the sample.
func newECDF(data []float64) ecdf {
	xs := make([]float64, len(data))
	copy(xs, data)
	sort.Float64s(xs)
	return ecdf{xs: xs}
}

// At returns F(x) = P(X <= x).
func (e ecdf) At(x float64) float64 {
	if len(e.xs) == 0 {
		return 0
	}
	// Number of samples <= x.
	n := sort.Search(len(e.xs), func(i int) bool { return e.xs[i] > x })
	return float64(n) / float64(len(e.xs))
}

// ksDistance returns the two-sample Kolmogorov–Smirnov statistic
// sup_x |Fa(x) − Fb(x)|, in [0, 1]. Zero for identical samples, one for
// fully separated supports.
func ksDistance(a, b ecdf) float64 {
	if len(a.xs) == 0 || len(b.xs) == 0 {
		return 0
	}
	max := 0.0
	// The supremum is attained at a sample point of either distribution.
	for _, xs := range [2][]float64{a.xs, b.xs} {
		for _, x := range xs {
			d := a.At(x) - b.At(x)
			if d < 0 {
				d = -d
			}
			if d > max {
				max = d
			}
		}
	}
	return max
}

func TestECDFAt(t *testing.T) {
	e := newECDF([]float64{1, 2, 2, 4})
	cases := []struct{ x, want float64 }{
		{0, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 0.75}, {4, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); got != c.want {
			t.Errorf("F(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestECDFEmpty(t *testing.T) {
	e := newECDF(nil)
	if e.At(5) != 0 || len(e.xs) != 0 {
		t.Error("empty ECDF should be zero")
	}
}

func TestECDFDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	newECDF(in)
	if in[0] != 3 {
		t.Error("input reordered")
	}
}

func TestKSIdenticalSamples(t *testing.T) {
	a := newECDF([]float64{1, 2, 3, 4, 5})
	if d := ksDistance(a, a); d != 0 {
		t.Errorf("KS of identical samples = %v", d)
	}
}

func TestKSDisjointSupports(t *testing.T) {
	a := newECDF([]float64{1, 2, 3})
	b := newECDF([]float64{10, 11, 12})
	if d := ksDistance(a, b); d != 1 {
		t.Errorf("KS of disjoint samples = %v, want 1", d)
	}
}

func TestKSKnownValue(t *testing.T) {
	// Interleaving {1,3} vs {2,4}: at x=1 |0.5-0|=0.5, x=2 |0.5-0.5|=0,
	// x=3 |1-0.5|=0.5 -> KS = 0.5.
	a := newECDF([]float64{1, 3})
	b := newECDF([]float64{2, 4})
	if d := ksDistance(a, b); d != 0.5 {
		t.Errorf("KS = %v, want 0.5", d)
	}
}

func TestKSSameSeedGenerators(t *testing.T) {
	// Large same-distribution samples: KS should be small.
	r1, r2 := stats.NewRNG(1), stats.NewRNG(2)
	var a, b []float64
	for i := 0; i < 20000; i++ {
		a = append(a, r1.Lognormal(2, 1))
		b = append(b, r2.Lognormal(2, 1))
	}
	if d := ksDistance(newECDF(a), newECDF(b)); d > 0.03 {
		t.Errorf("KS of same-distribution samples = %v, want < 0.03", d)
	}
	// Different distributions: clearly separated.
	var c []float64
	r3 := stats.NewRNG(3)
	for i := 0; i < 20000; i++ {
		c = append(c, r3.Lognormal(3, 1))
	}
	if d := ksDistance(newECDF(a), newECDF(c)); d < 0.2 {
		t.Errorf("KS of shifted distributions = %v, want > 0.2", d)
	}
}

// Property: KS is symmetric and within [0, 1].
func TestQuickKSProperties(t *testing.T) {
	f := func(ra, rb []uint16) bool {
		if len(ra) == 0 || len(rb) == 0 {
			return true
		}
		xa := make([]float64, len(ra))
		for i, v := range ra {
			xa[i] = float64(v)
		}
		xb := make([]float64, len(rb))
		for i, v := range rb {
			xb[i] = float64(v)
		}
		a, b := newECDF(xa), newECDF(xb)
		d1, d2 := ksDistance(a, b), ksDistance(b, a)
		return d1 == d2 && d1 >= 0 && d1 <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
