package dvfs

import (
	"errors"
	"fmt"
)

// PowerModel computes per-processor power following Section 4 of the paper:
//
//	P_dynamic = A·C·f·V²            (eq. 3)
//	P_static  = α·V                 (eq. 4)
//
// All applications share one average activity factor; a running processor's
// activity is ActivityRatio (2.5 in the paper) times an idle processor's.
// The coefficient α is derived from StaticFraction: at the top gear the
// static power makes up StaticFraction (25% in the paper) of the total
// active power. Idle processors are assumed to run at the lowest gear with
// the idle activity factor, which with the paper's constants yields ≈21% of
// the power of a processor executing a job at the top frequency.
type PowerModel struct {
	Gears GearSet
	// ACRunning is the product A·C for a processor executing a job. Its
	// absolute value only sets the power unit; normalized energies are
	// invariant to it.
	ACRunning float64
	// ActivityRatio is A_running / A_idle (2.5 in the paper).
	ActivityRatio float64
	// StaticFraction is P_static / P_total at the top gear for a running
	// processor (0.25 in the paper).
	StaticFraction float64

	alpha  float64 // static power coefficient, derived
	acIdle float64 // A·C for an idle processor, derived
}

// NewPowerModel derives α and the idle activity product from the paper's
// calibration rules and returns a ready-to-use model.
func NewPowerModel(gears GearSet, acRunning, activityRatio, staticFraction float64) (*PowerModel, error) {
	if err := gears.Validate(); err != nil {
		return nil, err
	}
	if acRunning <= 0 {
		return nil, errors.New("dvfs: ACRunning must be positive")
	}
	if activityRatio < 1 {
		return nil, errors.New("dvfs: ActivityRatio must be >= 1")
	}
	if staticFraction < 0 || staticFraction >= 1 {
		return nil, fmt.Errorf("dvfs: StaticFraction %v out of [0,1)", staticFraction)
	}
	m := &PowerModel{
		Gears:          gears,
		ACRunning:      acRunning,
		ActivityRatio:  activityRatio,
		StaticFraction: staticFraction,
	}
	top := gears.Top()
	dynTop := acRunning * top.Freq * top.Voltage * top.Voltage
	// P_static(top) = sf·P_total(top) and P_dyn(top) = (1-sf)·P_total(top),
	// hence α·V_top = dynTop·sf/(1-sf).
	m.alpha = dynTop * staticFraction / (1 - staticFraction) / top.Voltage
	m.acIdle = acRunning / activityRatio
	return m, nil
}

// PaperPowerModel returns the model with the paper's constants: Table 2
// gears, activity ratio 2.5, static fraction 25%, and a unit A·C product.
func PaperPowerModel() *PowerModel {
	m, err := NewPowerModel(PaperGearSet(), 1.0, 2.5, 0.25)
	if err != nil {
		panic("dvfs: paper power model invalid: " + err.Error())
	}
	return m
}

// Dynamic returns the dynamic power of a running processor at gear g.
func (m *PowerModel) Dynamic(g Gear) float64 {
	return m.ACRunning * g.Freq * g.Voltage * g.Voltage
}

// Static returns the static (leakage) power at gear g's voltage.
func (m *PowerModel) Static(g Gear) float64 { return m.alpha * g.Voltage }

// Active returns the total power of a processor executing a job at gear g.
func (m *PowerModel) Active(g Gear) float64 {
	return m.Dynamic(g) + m.Static(g)
}

// Idle returns the power of an idle processor: lowest gear, idle activity.
func (m *PowerModel) Idle() float64 {
	low := m.Gears.Lowest()
	return m.acIdle*low.Freq*low.Voltage*low.Voltage + m.alpha*low.Voltage
}

// IdleFraction returns Idle() normalized by the active power at the top
// gear; the paper reports ≈0.21 for its constants.
func (m *PowerModel) IdleFraction() float64 {
	return m.Idle() / m.Active(m.Gears.Top())
}
