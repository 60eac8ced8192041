// Package core implements the paper's contribution: the BSLD-threshold
// driven CPU frequency assignment algorithm integrated into parallel job
// scheduling (Figures 1 and 2 of Etinski et al. 2010).
//
// A job is scheduled at the lowest gear whose *predicted bounded slowdown*
//
//	PredBSLD = max( (WT + RQ·Coef(f)) / max(Th, RQ), 1 )        (eq. 2)
//
// stays below BSLDThreshold, and reduced gears are considered only while
// at most WQThreshold other jobs wait in the queue. The policy plugs into
// the EASY backfilling engine of internal/sched through the
// sched.GearPolicy interface; it works with any base scheduling policy, as
// the paper notes.
package core

import (
	"fmt"
	"math"

	"repro/internal/dvfs"
	"repro/internal/sched"
	"repro/internal/workload"
)

// NoWQLimit disables the wait-queue gate: frequency is assigned purely on
// predicted BSLD ("NO LIMIT" in the paper's experiments).
const NoWQLimit = math.MaxInt32

// DefaultShortJobThreshold is Th in the BSLD formula: jobs shorter than
// this do not inflate slowdowns (600 s in the paper: "HPC jobs shorter
// than 10 minutes can be assumed to be very short jobs").
const DefaultShortJobThreshold = 600.0

// Params are the tunables of the frequency assignment algorithm.
type Params struct {
	// BSLDThreshold is the predicted-BSLD bound a reduced gear must keep
	// (1.5, 2 and 3 in the paper).
	BSLDThreshold float64
	// WQThreshold is the largest number of other waiting jobs that still
	// allows frequency reduction (0, 4, 16 or NoWQLimit in the paper).
	WQThreshold int
	// ShortJobThreshold is Th of eq. (2); DefaultShortJobThreshold if zero.
	ShortJobThreshold float64
	// StrictBackfillBSLD selects the literal Figure 2 pseudo-code, which
	// requires the BSLD test to pass even at the top gear for a backfill.
	// The default (false) gates only reduced gears, which matches the
	// wait-time behaviour of Table 3 (see DESIGN.md).
	StrictBackfillBSLD bool
	// Boost enables the paper's future-work extension: after every
	// scheduling pass, if more than BoostWQ jobs wait, all running
	// reduced jobs are raised to the top gear.
	Boost   bool
	BoostWQ int
}

// WithDefaults fills unset fields.
func (p Params) WithDefaults() Params {
	if p.ShortJobThreshold == 0 {
		p.ShortJobThreshold = DefaultShortJobThreshold
	}
	return p
}

// Validate reports the first problem with the parameters.
func (p Params) Validate() error {
	if p.BSLDThreshold < 1 {
		return fmt.Errorf("core: BSLDThreshold %v < 1 can never accept a reduced gear", p.BSLDThreshold)
	}
	if p.WQThreshold < 0 {
		return fmt.Errorf("core: negative WQThreshold %d", p.WQThreshold)
	}
	if p.ShortJobThreshold < 0 {
		return fmt.Errorf("core: negative ShortJobThreshold %v", p.ShortJobThreshold)
	}
	if p.Boost && p.BoostWQ < 0 {
		return fmt.Errorf("core: negative BoostWQ %d with Boost enabled", p.BoostWQ)
	}
	return nil
}

// PredictedBSLD evaluates eq. (2): the bounded slowdown a job would see
// with the given wait time if it runs for reqTime·coef seconds, bounded
// below by 1 and with short jobs clamped by th.
func PredictedBSLD(wait, reqTime, coef, th float64) float64 {
	denom := math.Max(th, reqTime)
	v := (wait + reqTime*coef) / denom
	if v < 1 {
		return 1
	}
	return v
}

// Policy is the frequency assignment algorithm as a sched.GearPolicy.
type Policy struct {
	params Params
	gears  dvfs.GearSet
	tm     dvfs.TimeModel
}

var _ sched.GearPolicy = (*Policy)(nil)
var _ sched.EstMonotonePolicy = (*Policy)(nil)

// EstMonotone implements sched.EstMonotonePolicy: ReserveGear iterates
// gears from the lowest frequency and picks the first whose predicted
// BSLD passes the threshold. PredictedBSLD is nondecreasing in the wait
// (eq. 2's numerator grows with it), so each gear's pass flips from
// true to false at most once as the start grows, and the first-passing
// index — with the Ftop fallback as the final stop — only moves toward
// higher frequencies. The wait-queue branch doesn't depend on the start
// at all.
func (p *Policy) EstMonotone() {}

// NewPolicy validates params and binds the algorithm to a gear set and
// time model.
func NewPolicy(params Params, gears dvfs.GearSet, tm dvfs.TimeModel) (*Policy, error) {
	params = params.WithDefaults()
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if err := gears.Validate(); err != nil {
		return nil, err
	}
	return &Policy{params: params, gears: gears, tm: tm}, nil
}

// Params returns the policy's parameters (defaults applied).
func (p *Policy) Params() Params { return p.params }

// Name identifies the configuration, e.g. "bsld(2,16)".
func (p *Policy) Name() string {
	wq := fmt.Sprint(p.params.WQThreshold)
	if p.params.WQThreshold == NoWQLimit {
		wq = "NO"
	}
	return fmt.Sprintf("bsld(%g,%s)", p.params.BSLDThreshold, wq)
}

// predicted evaluates eq. (2) for job j at gear g with the given wait.
func (p *Policy) predicted(j *workload.Job, g dvfs.Gear, wait float64) float64 {
	coef := p.tm.CoefWithBeta(j.Beta, g)
	return PredictedBSLD(wait, j.ReqTime, coef, p.params.ShortJobThreshold)
}

// satisfies is the paper's satisfiesBSLD: predicted BSLD strictly below
// the threshold.
func (p *Policy) satisfies(j *workload.Job, g dvfs.Gear, wait float64) bool {
	return p.predicted(j, g, wait) < p.params.BSLDThreshold
}

// ReserveGear implements MakeJobReservation (Figure 1): iterate gears from
// the lowest, pick the first whose predicted BSLD passes; above the
// wait-queue threshold, or when no gear passes, use Ftop. The head job is
// always scheduled — Ftop is the unconditional fallback.
func (p *Policy) ReserveGear(j *workload.Job, start, now float64, wqOthers int) dvfs.Gear {
	if wqOthers > p.params.WQThreshold {
		return p.gears.Top()
	}
	wait := start - j.Submit
	if wait < 0 {
		wait = 0
	}
	for _, g := range p.gears {
		if p.satisfies(j, g, wait) {
			return g
		}
	}
	return p.gears.Top()
}

// BackfillGear implements BackfillJob (Figure 2): find the lowest gear
// with a correct allocation (feasible) and a passing predicted BSLD. Above
// the wait-queue threshold only the top gear is considered. In the default
// lenient mode a feasible top-gear backfill is accepted even when its
// predicted BSLD exceeds the threshold; StrictBackfillBSLD restores the
// literal pseudo-code (see DESIGN.md for why the default differs).
// Feasibility is asked at most once per gear: the loop always ends on the
// top gear, so the fallback reuses its answer.
func (p *Policy) BackfillGear(j *workload.Job, now float64, wqOthers int, feasible func(dvfs.Gear) bool) (dvfs.Gear, bool) {
	wait := now - j.Submit
	if wait < 0 {
		wait = 0
	}
	candidates := p.gears
	if wqOthers > p.params.WQThreshold {
		candidates = p.gears[len(p.gears)-1:]
	}
	topOK := false
	for _, g := range candidates {
		topOK = feasible(g)
		if topOK && p.satisfies(j, g, wait) {
			return g, true
		}
	}
	if topOK && !p.params.StrictBackfillBSLD {
		return p.gears.Top(), true
	}
	return dvfs.Gear{}, false
}

// Bind implements sched.PowerController. The policy is stateless across
// passes, so there is nothing to retain; implementing the controller
// interface is what routes ControlPass to the dynamic boost below (the
// policy is auto-promoted to the controller seam by sched.New).
func (p *Policy) Bind(*sched.System) {}

// ControlPass implements the dynamic boost extension when enabled:
// running jobs at reduced gears are raised to Ftop while too many jobs
// wait.
func (p *Policy) ControlPass(sys *sched.System, now float64) {
	if !p.params.Boost || sys.QueueLen() <= p.params.BoostWQ {
		return
	}
	top := p.gears.Top()
	for _, rs := range sys.Running() {
		if rs.Gear != top {
			sys.SetGear(rs, top, now)
		}
	}
}
