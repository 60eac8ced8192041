package wgen

import (
	"testing"

	"repro/internal/workload"
)

func TestGenerateUsers(t *testing.T) {
	m := CTC()
	m.Jobs = 2000
	m.Users = 50
	tr, err := Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, j := range tr.Jobs {
		if j.User < 0 || j.User >= 50 {
			t.Fatalf("user %d out of pool", j.User)
		}
		counts[j.User]++
	}
	// Zipf activity: the busiest user dominates a uniform share.
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	if maxCount < 3*m.Jobs/50 {
		t.Errorf("busiest user has %d jobs; expected Zipf skew above uniform %d", maxCount, m.Jobs/50)
	}
}

func TestGenerateNoUsersByDefault(t *testing.T) {
	m := CTC()
	m.Jobs = 100
	tr, err := Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range tr.Jobs {
		if j.User != -1 {
			t.Fatalf("default model assigned user %d", j.User)
		}
	}
}

func TestGeneratePerJobBeta(t *testing.T) {
	m := SDSCBlue()
	m.Jobs = 500
	m.BetaMin, m.BetaMax = 0.2, 0.8
	tr, err := Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[float64]bool{}
	for _, j := range tr.Jobs {
		if j.Beta < 0.2 || j.Beta > 0.8 {
			t.Fatalf("beta %v out of [0.2, 0.8]", j.Beta)
		}
		distinct[j.Beta] = true
	}
	if len(distinct) < 100 {
		t.Errorf("only %d distinct betas; expected a spread", len(distinct))
	}
}

func TestGenerateBetaDisabledByDefault(t *testing.T) {
	m := SDSCBlue()
	m.Jobs = 50
	tr, _ := Generate(m)
	for _, j := range tr.Jobs {
		if j.Beta != -1 {
			t.Fatalf("default model set per-job beta %v", j.Beta)
		}
	}
}

func TestValidateBetaRange(t *testing.T) {
	m := CTC()
	m.BetaMin, m.BetaMax = 0.8, 0.2
	if err := m.Validate(); err == nil {
		t.Error("inverted beta range accepted")
	}
	m.BetaMin, m.BetaMax = 0.5, 1.5
	if err := m.Validate(); err == nil {
		t.Error("beta above 1 accepted")
	}
	m.BetaMin, m.BetaMax = 0, 0
	m.Users = -1
	if err := m.Validate(); err == nil {
		t.Error("negative user pool accepted")
	}
}

// Users + flurry cleaning integration: generated traces survive the
// cleaning pass unchanged at archive-scale thresholds (the generator
// produces no flurries by construction).
func TestGeneratedTracesAreFlurryFree(t *testing.T) {
	m := SDSC()
	m.Jobs = 2000
	m.Users = 40
	tr, err := Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	_, removed := workload.RemoveFlurries(tr, workload.DefaultCleanConfig())
	if removed > m.Jobs/100 {
		t.Errorf("cleaning removed %d jobs from a synthetic trace", removed)
	}
}

// Distribution regression: two different seeds of the same model draw
// from the same distributions (small KS distance on runtimes), while
// different workload models are clearly distinguishable. Guards the
// generators against accidental distribution drift.
func TestDistributionStabilityAcrossSeeds(t *testing.T) {
	runtimes := func(m Model, seedDelta int64) ecdf {
		m.Jobs = 4000
		m.Seed += seedDelta
		tr, err := Generate(m)
		if err != nil {
			t.Fatal(err)
		}
		xs := make([]float64, len(tr.Jobs))
		for i, j := range tr.Jobs {
			xs[i] = j.Runtime
		}
		return newECDF(xs)
	}
	a := runtimes(SDSCBlue(), 0)
	b := runtimes(SDSCBlue(), 1234)
	if d := ksDistance(a, b); d > 0.05 {
		t.Errorf("same model, different seeds: KS = %v, want < 0.05", d)
	}
	c := runtimes(LLNLThunder(), 0)
	if d := ksDistance(a, c); d < 0.1 {
		t.Errorf("different models: KS = %v, want > 0.1", d)
	}
}
