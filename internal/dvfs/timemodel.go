package dvfs

// TimeModel is the β execution-time dilation model of eq. (5) in the paper
// (originally from Hsu & Feng, "A power-aware run-time system for
// high-performance computing"):
//
//	T(f) / T(fmax) = β·(fmax/f − 1) + 1
//
// β = 1 means halving the frequency doubles the run time (fully
// CPU-bound); β = 0 means frequency does not affect run time (fully
// memory- or communication-bound). The paper uses β = 0.5 for all jobs.
type TimeModel struct {
	Beta float64 // dilation sensitivity in [0, 1]
	Fmax float64 // top frequency the undilated run time refers to, GHz
}

// NewTimeModel returns a β model anchored at the top gear of gs.
func NewTimeModel(beta float64, gs GearSet) TimeModel {
	return TimeModel{Beta: beta, Fmax: gs.Top().Freq}
}

// Coef returns the run-time multiplier T(f)/T(fmax) at frequency f.
func (tm TimeModel) Coef(f float64) float64 {
	return tm.Beta*(tm.Fmax/f-1) + 1
}

// CoefGear returns the run-time multiplier for gear g.
func (tm TimeModel) CoefGear(g Gear) float64 { return tm.Coef(g.Freq) }

// Dilate returns the run time at gear g of a job whose run time at the top
// frequency is t.
func (tm TimeModel) Dilate(t float64, g Gear) float64 {
	return t * tm.CoefGear(g)
}

// CoefWithBeta returns the multiplier using a per-job β override, keeping
// the model's anchor frequency. Negative beta falls back to the model's β,
// which lets callers store "unset" per-job values as -1.
func (tm TimeModel) CoefWithBeta(beta float64, g Gear) float64 {
	if beta < 0 {
		beta = tm.Beta
	}
	return beta*(tm.Fmax/g.Freq-1) + 1
}
