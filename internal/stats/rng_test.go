package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same-seed RNGs diverged at draw %d", i)
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same == 100 {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestUniformRange(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		x := r.Uniform(3, 9)
		if x < 3 || x >= 9 {
			t.Fatalf("Uniform(3,9) = %v out of range", x)
		}
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(11)
	var s Summary
	for i := 0; i < 200000; i++ {
		s.Add(r.Exp(5))
	}
	if math.Abs(s.Mean()-5) > 0.1 {
		t.Errorf("Exp(5) sample mean = %v, want ~5", s.Mean())
	}
}

func TestLognormalMedian(t *testing.T) {
	r := NewRNG(13)
	mu := 2.0
	data := make([]float64, 100000)
	for i := range data {
		data[i] = r.Lognormal(mu, 1.5)
	}
	med := Quantile(data, 0.5)
	want := math.Exp(mu)
	if math.Abs(med-want)/want > 0.1 {
		t.Errorf("lognormal median = %v, want ~%v", med, want)
	}
}

func TestGammaMeanAndVariance(t *testing.T) {
	r := NewRNG(19)
	shape, scale := 3.0, 2.0
	var s Summary
	for i := 0; i < 200000; i++ {
		s.Add(r.Gamma(shape, scale))
	}
	if math.Abs(s.Mean()-shape*scale) > 0.15 {
		t.Errorf("Gamma(3,2) mean = %v, want ~6", s.Mean())
	}
	if math.Abs(s.Var()-shape*scale*scale) > 0.6 {
		t.Errorf("Gamma(3,2) var = %v, want ~12", s.Var())
	}
}

func TestGammaSmallShape(t *testing.T) {
	r := NewRNG(23)
	shape, scale := 0.5, 3.0
	var s Summary
	for i := 0; i < 200000; i++ {
		x := r.Gamma(shape, scale)
		if x < 0 {
			t.Fatalf("gamma variate negative: %v", x)
		}
		s.Add(x)
	}
	if math.Abs(s.Mean()-shape*scale) > 0.15 {
		t.Errorf("Gamma(0.5,3) mean = %v, want ~1.5", s.Mean())
	}
}

func TestBernoulliExtremes(t *testing.T) {
	r := NewRNG(37)
	for i := 0; i < 1000; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

// Property: all distribution draws are non-negative for valid parameters.
func TestQuickNonNegativeDraws(t *testing.T) {
	f := func(seed int64, a, b uint8) bool {
		r := NewRNG(seed)
		shape := 0.1 + float64(a%50)/10
		scale := 0.1 + float64(b%50)/10
		return r.Exp(scale) >= 0 &&
			r.Gamma(shape, scale) >= 0 &&
			r.Lognormal(0, scale) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(41)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(47)
	draw := r.Zipf(1.5, 20)
	counts := make([]int, 20)
	for i := 0; i < 50000; i++ {
		v := draw()
		if v < 0 || v >= 20 {
			t.Fatalf("Zipf draw %d out of range", v)
		}
		counts[v]++
	}
	// Rank 0 must dominate rank 10 heavily.
	if counts[0] < 5*counts[10] {
		t.Errorf("Zipf not skewed: rank0=%d rank10=%d", counts[0], counts[10])
	}
}
