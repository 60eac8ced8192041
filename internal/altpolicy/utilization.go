// Package altpolicy implements comparison frequency-assignment policies
// from the paper's related work, so the BSLD-threshold algorithm can be
// judged against the obvious alternatives rather than only against the
// no-DVFS baseline.
package altpolicy

import (
	"fmt"
	"math"

	"repro/internal/dvfs"
	"repro/internal/sched"
	"repro/internal/workload"
)

// UtilizationDriven assigns gears from the instantaneous cluster
// utilization, the trigger Fan et al. investigate for warehouse-scale
// machines (related work §6): an idle machine runs new jobs at the lowest
// gear, a busy one at the top gear, linear in between. Unlike the paper's
// policy it looks at no per-job prediction, so nothing bounds the
// slowdown a reduced job may suffer — which is exactly the contrast the
// comparison is meant to expose.
type UtilizationDriven struct {
	Gears dvfs.GearSet
	// LowUtil and HighUtil bracket the mapping: utilization at or below
	// LowUtil selects the lowest gear, at or above HighUtil the top gear.
	LowUtil, HighUtil float64

	sys *sched.System
}

var (
	_ sched.GearPolicy      = (*UtilizationDriven)(nil)
	_ sched.PowerController = (*UtilizationDriven)(nil)
	_ sched.PolicyCloner    = (*UtilizationDriven)(nil)
)

// NewUtilizationDriven validates the bracket and returns the policy.
func NewUtilizationDriven(gears dvfs.GearSet, lowUtil, highUtil float64) (*UtilizationDriven, error) {
	if err := gears.Validate(); err != nil {
		return nil, err
	}
	if lowUtil < 0 || highUtil > 1 || lowUtil >= highUtil {
		return nil, fmt.Errorf("altpolicy: utilization bracket [%v,%v] invalid", lowUtil, highUtil)
	}
	return &UtilizationDriven{Gears: gears, LowUtil: lowUtil, HighUtil: highUtil}, nil
}

// Bind implements sched.PowerController: the policy reads live cluster
// state, so sched.New hands it the system before the run (the policy is
// auto-promoted to the controller seam).
func (p *UtilizationDriven) Bind(sys *sched.System) { p.sys = sys }

// ClonePolicy implements sched.PolicyCloner: the clone carries the same
// bracket and gear set but no system binding, so every execution can bind
// its own copy and concurrent runs never share the live-state pointer.
func (p *UtilizationDriven) ClonePolicy() sched.GearPolicy {
	return &UtilizationDriven{Gears: p.Gears, LowUtil: p.LowUtil, HighUtil: p.HighUtil}
}

// Name implements sched.GearPolicy.
func (p *UtilizationDriven) Name() string {
	return fmt.Sprintf("util(%g,%g)", p.LowUtil, p.HighUtil)
}

// target maps current utilization to a gear index.
func (p *UtilizationDriven) target() int {
	if p.sys == nil {
		// Fail fast with a diagnosis instead of a bare nil dereference:
		// the policy reads live cluster state, so it only works when
		// sched.New had the chance to call Bind.
		panic("altpolicy: UtilizationDriven used without a bound system: pass it as sched.Config.Policy (or scenario.Spec.GearPolicy) so sched.New invokes Bind before the run")
	}
	cl := p.sys.Cluster()
	util := float64(cl.Busy()) / float64(cl.Total())
	switch {
	case util <= p.LowUtil:
		return 0
	case util >= p.HighUtil:
		return len(p.Gears) - 1
	}
	frac := (util - p.LowUtil) / (p.HighUtil - p.LowUtil)
	idx := int(math.Round(frac * float64(len(p.Gears)-1)))
	if idx >= len(p.Gears) {
		idx = len(p.Gears) - 1
	}
	return idx
}

// ReserveGear implements sched.GearPolicy.
func (p *UtilizationDriven) ReserveGear(j *workload.Job, start, now float64, wqOthers int) dvfs.Gear {
	return p.Gears[p.target()]
}

// BackfillGear implements sched.GearPolicy: start from the
// utilization-selected gear and climb until the reservation is safe.
func (p *UtilizationDriven) BackfillGear(j *workload.Job, now float64, wqOthers int, feasible func(dvfs.Gear) bool) (dvfs.Gear, bool) {
	for i := p.target(); i < len(p.Gears); i++ {
		if feasible(p.Gears[i]) {
			return p.Gears[i], true
		}
	}
	return dvfs.Gear{}, false
}

// ControlPass implements sched.PowerController (no dynamic adjustment:
// the utilization reading happens per job decision, not per pass).
func (p *UtilizationDriven) ControlPass(sys *sched.System, now float64) {}
