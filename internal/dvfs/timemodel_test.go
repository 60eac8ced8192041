package dvfs

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCoefAtTopIsOne(t *testing.T) {
	tm := NewTimeModel(0.5, PaperGearSet())
	if c := tm.CoefGear(PaperGearSet().Top()); math.Abs(c-1) > 1e-12 {
		t.Errorf("Coef(fmax) = %v, want 1", c)
	}
}

func TestCoefBetaOneHalvingDoubles(t *testing.T) {
	// β = 1: halving the frequency doubles execution time.
	tm := TimeModel{Beta: 1, Fmax: 2.0}
	if c := tm.Coef(1.0); math.Abs(c-2) > 1e-12 {
		t.Errorf("Coef(f/2) with β=1 = %v, want 2", c)
	}
}

func TestCoefBetaZeroNoDilation(t *testing.T) {
	tm := TimeModel{Beta: 0, Fmax: 2.3}
	for _, g := range PaperGearSet() {
		if c := tm.CoefGear(g); math.Abs(c-1) > 1e-12 {
			t.Errorf("β=0 Coef(%v) = %v, want 1", g, c)
		}
	}
}

func TestPaperBetaHalfValues(t *testing.T) {
	tm := NewTimeModel(0.5, PaperGearSet())
	// Hand-computed: Coef(0.8) = 0.5*(2.3/0.8 - 1) + 1 = 1.9375.
	if c := tm.Coef(0.8); math.Abs(c-1.9375) > 1e-12 {
		t.Errorf("Coef(0.8) = %v, want 1.9375", c)
	}
	// Coef(2.0) = 0.5*(2.3/2.0 - 1) + 1 = 1.075.
	if c := tm.Coef(2.0); math.Abs(c-1.075) > 1e-12 {
		t.Errorf("Coef(2.0) = %v, want 1.075", c)
	}
}

func TestCoefMonotoneDecreasingInFreq(t *testing.T) {
	tm := NewTimeModel(0.5, PaperGearSet())
	gs := PaperGearSet()
	for i := 1; i < len(gs); i++ {
		if tm.CoefGear(gs[i]) >= tm.CoefGear(gs[i-1]) {
			t.Errorf("Coef not decreasing between %v and %v", gs[i-1], gs[i])
		}
	}
}

func TestDilate(t *testing.T) {
	tm := NewTimeModel(0.5, PaperGearSet())
	got := tm.Dilate(1000, Gear{0.8, 1.0})
	if math.Abs(got-1937.5) > 1e-9 {
		t.Errorf("Dilate(1000, 0.8GHz) = %v, want 1937.5", got)
	}
}

func TestCoefWithBetaOverride(t *testing.T) {
	tm := NewTimeModel(0.5, PaperGearSet())
	g := Gear{0.8, 1.0}
	if c := tm.CoefWithBeta(-1, g); math.Abs(c-tm.CoefGear(g)) > 1e-12 {
		t.Error("negative per-job beta should fall back to model beta")
	}
	if c := tm.CoefWithBeta(0, g); math.Abs(c-1) > 1e-12 {
		t.Errorf("CoefWithBeta(0) = %v, want 1", c)
	}
	want := 1.0*(2.3/0.8-1) + 1
	if c := tm.CoefWithBeta(1, g); math.Abs(c-want) > 1e-12 {
		t.Errorf("CoefWithBeta(1) = %v, want %v", c, want)
	}
}

// Reproduces the observation in Section 5 discussion: with the paper's
// power model and β=0.5, running a job at ANY reduced gear consumes less
// computational energy than at the top gear, which is why Eidle=0
// normalized energy can never exceed 1.
func TestEnergyPerJobAlwaysSavedAtReducedGears(t *testing.T) {
	pm := PaperPowerModel()
	tm := NewTimeModel(0.5, pm.Gears)
	top := jobEnergy(tm, pm, 4, 3600, pm.Gears.Top())
	for _, g := range pm.Gears[:len(pm.Gears)-1] {
		e := jobEnergy(tm, pm, 4, 3600, g)
		if e >= top {
			t.Errorf("energy at %v (%v) not below top-gear energy (%v)", g, e, top)
		}
	}
}

// Property: the energy saving above holds for every β in [0,1] with the
// paper's gear set — energy(g) <= energy(top) for all gears.
func TestQuickEnergySavedForAllBeta(t *testing.T) {
	pm := PaperPowerModel()
	f := func(bRaw uint8, cpus uint8, tRaw uint16) bool {
		beta := float64(bRaw%101) / 100
		tm := NewTimeModel(beta, pm.Gears)
		n := int(cpus%64) + 1
		rt := float64(tRaw) + 1
		top := jobEnergy(tm, pm, n, rt, pm.Gears.Top())
		for _, g := range pm.Gears {
			if jobEnergy(tm, pm, n, rt, g) > top+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Coef >= 1 for all gears and β in [0,1] (lower frequency never
// shortens execution).
func TestQuickCoefAtLeastOne(t *testing.T) {
	gs := PaperGearSet()
	f := func(bRaw uint8) bool {
		tm := NewTimeModel(float64(bRaw%101)/100, gs)
		for _, g := range gs {
			if tm.CoefGear(g) < 1-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// jobEnergy is the computational energy of one job on cpus processors
// running for t seconds (top-frequency time) at gear g:
// cpus × P_active(g) × dilated time.
func jobEnergy(tm TimeModel, pm *PowerModel, cpus int, t float64, g Gear) float64 {
	return float64(cpus) * pm.Active(g) * tm.Dilate(t, g)
}
