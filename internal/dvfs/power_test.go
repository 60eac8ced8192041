package dvfs

import (
	"math"
	"testing"
	"testing/quick"
)

// The paper states that with its constants an idle processor consumes 21%
// of the power of a processor executing a job at the highest frequency.
// This is the strongest calibration check of the whole power model.
func TestPaperIdleFractionIs21Percent(t *testing.T) {
	m := PaperPowerModel()
	got := m.IdleFraction()
	if math.Abs(got-0.21) > 0.005 {
		t.Errorf("idle fraction = %.4f, paper says ~0.21", got)
	}
}

// Static power must be 25% of total active power at the top gear.
func TestPaperStaticFractionAtTop(t *testing.T) {
	m := PaperPowerModel()
	top := m.Gears.Top()
	frac := m.Static(top) / m.Active(top)
	if math.Abs(frac-0.25) > 1e-12 {
		t.Errorf("static fraction at top = %v, want 0.25", frac)
	}
}

func TestActivePowerMonotoneInGear(t *testing.T) {
	m := PaperPowerModel()
	prev := 0.0
	for _, g := range m.Gears {
		p := m.Active(g)
		if p <= prev {
			t.Errorf("active power not strictly increasing at %v: %v <= %v", g, p, prev)
		}
		prev = p
	}
}

func TestDynamicFormula(t *testing.T) {
	m := PaperPowerModel()
	g := Gear{2.0, 1.4}
	want := 1.0 * 2.0 * 1.4 * 1.4
	if math.Abs(m.Dynamic(g)-want) > 1e-12 {
		t.Errorf("Dynamic(%v) = %v, want %v", g, m.Dynamic(g), want)
	}
}

func TestStaticProportionalToVoltage(t *testing.T) {
	m := PaperPowerModel()
	a, b := Gear{0.8, 1.0}, Gear{2.3, 1.5}
	ratio := m.Static(b) / m.Static(a)
	if math.Abs(ratio-1.5) > 1e-12 {
		t.Errorf("static power ratio = %v, want 1.5 (proportional to V)", ratio)
	}
}

func TestIdleBelowAllActive(t *testing.T) {
	m := PaperPowerModel()
	idle := m.Idle()
	for _, g := range m.Gears {
		if idle >= m.Active(g) {
			t.Errorf("idle power %v not below active power %v at %v", idle, m.Active(g), g)
		}
	}
}

func TestNewPowerModelRejectsBadInputs(t *testing.T) {
	gs := PaperGearSet()
	cases := []struct {
		name       string
		gears      GearSet
		ac, ar, sf float64
	}{
		{"bad gears", GearSet{}, 1, 2.5, 0.25},
		{"zero ac", gs, 0, 2.5, 0.25},
		{"ratio<1", gs, 1, 0.5, 0.25},
		{"sf=1", gs, 1, 2.5, 1},
		{"sf<0", gs, 1, 2.5, -0.1},
	}
	for _, c := range cases {
		if _, err := NewPowerModel(c.gears, c.ac, c.ar, c.sf); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// Property: for any valid static fraction and activity ratio, the idle
// power is positive and below active power at every gear.
func TestQuickPowerOrdering(t *testing.T) {
	gs := PaperGearSet()
	f := func(sfRaw, arRaw uint8) bool {
		sf := float64(sfRaw%90) / 100  // 0.00 .. 0.89
		ar := 1 + float64(arRaw%40)/10 // 1.0 .. 4.9
		m, err := NewPowerModel(gs, 1, ar, sf)
		if err != nil {
			return false
		}
		idle := m.Idle()
		if idle <= 0 {
			return false
		}
		for _, g := range m.Gears {
			if m.Active(g) < idle {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
