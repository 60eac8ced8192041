// Package dvfs models DVFS-enabled processors: frequency/voltage gear sets,
// the CPU power model (dynamic ACfV² plus static αV), and the β execution
// time dilation model, exactly as described in Section 4 of Etinski et al.,
// "BSLD Threshold Driven Power Management Policy for HPC Centers" (2010).
package dvfs

import (
	"errors"
	"fmt"
)

// Gear is one frequency/voltage operating point of a DVFS processor.
type Gear struct {
	Freq    float64 // clock frequency in GHz
	Voltage float64 // supply voltage in volts
}

// String renders the gear as "2.3GHz@1.5V".
func (g Gear) String() string {
	return fmt.Sprintf("%.1fGHz@%.1fV", g.Freq, g.Voltage)
}

// GearSet is an ordered collection of gears, lowest frequency first.
type GearSet []Gear

// PaperGearSet returns the six-gear set of Table 2 in the paper:
// frequencies 0.8–2.3 GHz paired with voltages 1.0–1.5 V.
func PaperGearSet() GearSet {
	return GearSet{
		{Freq: 0.8, Voltage: 1.0},
		{Freq: 1.1, Voltage: 1.1},
		{Freq: 1.4, Voltage: 1.2},
		{Freq: 1.7, Voltage: 1.3},
		{Freq: 2.0, Voltage: 1.4},
		{Freq: 2.3, Voltage: 1.5},
	}
}

// Validate checks that the set is non-empty, strictly increasing in
// frequency, non-decreasing in voltage, and has positive entries.
func (gs GearSet) Validate() error {
	if len(gs) == 0 {
		return errors.New("dvfs: gear set is empty")
	}
	for i, g := range gs {
		if g.Freq <= 0 || g.Voltage <= 0 {
			return fmt.Errorf("dvfs: gear %d (%v) has non-positive frequency or voltage", i, g)
		}
		if i > 0 {
			if gs[i-1].Freq >= g.Freq {
				return fmt.Errorf("dvfs: gear frequencies must be strictly increasing (gear %d)", i)
			}
			if gs[i-1].Voltage > g.Voltage {
				return fmt.Errorf("dvfs: gear voltages must be non-decreasing (gear %d)", i)
			}
		}
	}
	return nil
}

// Lowest returns the lowest-frequency gear. The set must be non-empty.
func (gs GearSet) Lowest() Gear { return gs[0] }

// Top returns the highest-frequency gear Ftop. The set must be non-empty.
func (gs GearSet) Top() Gear { return gs[len(gs)-1] }

// IsTop reports whether g is the highest gear of the set.
func (gs GearSet) IsTop(g Gear) bool { return g == gs.Top() }

// Index returns the position of g in the set, or -1 when absent.
func (gs GearSet) Index(g Gear) int {
	for i, h := range gs {
		if h == g {
			return i
		}
	}
	return -1
}
