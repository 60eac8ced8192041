package altpolicy

import (
	"fmt"
	"math"

	"repro/internal/dvfs"
	"repro/internal/nodepower"
	"repro/internal/sched"
)

// Default PI gains of the power-cap controller: a velocity-form loop on
// the normalized cap error. Tuned for the pass cadence of the paper's
// traces — responsive enough to pull a saturated cluster under the cap
// within a handful of scheduling epochs, damped enough not to oscillate
// across the whole gear range on single-job churn.
const (
	DefaultKp = 5
	DefaultKi = 0.05
)

// levelEps is the upward tolerance when quantizing the continuous level
// to a gear index. It absorbs float dust around exact error cancellation
// (draw == cap at full headroom) and is far below the one-gear quantum,
// so it never changes a deliberate control decision.
const levelEps = 1e-6

// errEps is the deadband on the normalized cap error: smaller errors are
// float dust from draw accumulation, not control signal.
const errEps = 1e-9

// PowerCap is a closed-loop power-capping controller in the style of
// Cerf et al.'s control-theoretic runtime (PAPERS.md): each scheduling
// pass it observes the cluster's tracked instantaneous draw (the online
// nodepower.Meter, O(1) per query), compares it against a configured
// cap, and actuates the gear distribution of the running jobs through
// sched.SetGear.
//
// The controlled variable is a continuous gear-ceiling level L in
// [0, top]: a velocity-form PI loop moves L on the normalized error
// e = (cap − draw)/cap, and actuation clamps every running job to gear
// index min(natural, floor(L)), where "natural" is the gear the
// per-job policy last chose — at start, or through a later dynamic
// boost — and is restored as headroom returns. With
// EcoOnly, only jobs carrying workload.Job.Eco are throttled —
// Angelelli et al.'s user-assisted Eco-Mode consent model.
//
// With the cap at or above the machine's peak draw the level saturates
// at the top and the controller never issues a gear switch, so the
// schedule is byte-identical to an uncontrolled run (pinned by the
// determinism tests).
type PowerCap struct {
	// Gears is the machine's gear set; PM the power model the meter
	// integrates under.
	Gears dvfs.GearSet
	PM    *dvfs.PowerModel
	// CapFrac expresses the cap as a fraction of the machine's maximum
	// draw (every processor active at the top gear). Must be in (0, 1].
	CapFrac float64
	// Kp and Ki are the PI gains on the normalized error; zero selects
	// the defaults.
	Kp, Ki float64
	// EcoOnly restricts actuation to jobs with the Eco flag.
	EcoOnly bool

	// Bound per run.
	sys   *sched.System
	meter *nodepower.Meter
	cap   float64 // absolute cap, CapFrac · CPUs · Active(top)

	// Controller state.
	level     float64 // continuous gear ceiling in [0, top index]
	prevErr   float64
	lastT     float64
	hasPrev   bool
	natural   map[int]int // job ID → latest externally-chosen gear index
	actuating bool        // inside our own actuation loop (see JobRegeared)
	atTop     bool        // the ceiling sat at the top index after the last pass

	// Steady-state accounting (Report).
	statT       float64 // time integrated into the stats
	drawSum     float64 // ∫ draw dt (pass-sampled, piecewise constant)
	overSum     float64 // ∫ max(0, draw − cap) dt
	overT       float64 // seconds with draw > cap
	peakDraw    float64
	lastDraw    float64
	actuations  int // SetGear calls issued
	passesTotal int
}

var (
	_ sched.PowerController  = (*PowerCap)(nil)
	_ sched.ControllerCloner = (*PowerCap)(nil)
	_ sched.Recorder         = (*PowerCap)(nil)
	_ sched.GearObserver     = (*PowerCap)(nil)
)

// NewPowerCap validates the configuration and returns the controller.
func NewPowerCap(gears dvfs.GearSet, pm *dvfs.PowerModel, capFrac, kp, ki float64, ecoOnly bool) (*PowerCap, error) {
	p := &PowerCap{Gears: gears, PM: pm, CapFrac: capFrac, Kp: kp, Ki: ki, EcoOnly: ecoOnly}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Validate reports the first problem with the configuration.
func (p *PowerCap) Validate() error {
	if err := p.Gears.Validate(); err != nil {
		return err
	}
	if p.PM == nil {
		return fmt.Errorf("altpolicy: PowerCap needs a power model")
	}
	if p.CapFrac <= 0 || p.CapFrac > 1 || math.IsNaN(p.CapFrac) {
		return fmt.Errorf("altpolicy: PowerCap.CapFrac %v out of (0, 1]", p.CapFrac)
	}
	if p.Kp < 0 || p.Ki < 0 {
		return fmt.Errorf("altpolicy: negative PI gains (Kp=%v, Ki=%v)", p.Kp, p.Ki)
	}
	return nil
}

// Name implements sched.PowerController.
func (p *PowerCap) Name() string {
	eco := ""
	if p.EcoOnly {
		eco = ",eco"
	}
	return fmt.Sprintf("powercap(%g%s)", p.CapFrac, eco)
}

// CloneController implements sched.ControllerCloner: the clone carries
// the configuration but none of the per-run state, so concurrent
// executions never share a meter or a control loop.
func (p *PowerCap) CloneController() sched.PowerController {
	return &PowerCap{Gears: p.Gears, PM: p.PM, CapFrac: p.CapFrac,
		Kp: p.Kp, Ki: p.Ki, EcoOnly: p.EcoOnly}
}

// Bind implements sched.PowerController: resolve the absolute cap from
// the machine size and start the loop at full headroom (the top gear
// ceiling), so an under-cap run never throttles.
func (p *PowerCap) Bind(sys *sched.System) {
	p.sys = sys
	p.meter = nodepower.NewMeter(sys.Cluster().Total(), p.PM)
	p.cap = p.CapFrac * float64(sys.Cluster().Total()) * p.PM.Active(p.Gears.Top())
	p.level = float64(len(p.Gears) - 1)
	p.natural = make(map[int]int)
}

// Meter exposes the controller's online accumulator (for reports and
// tests).
func (p *PowerCap) Meter() *nodepower.Meter { return p.meter }

// Cap is the absolute cap the controller regulates against.
func (p *PowerCap) Cap() float64 { return p.cap }

// gains resolves the configured PI gains with defaults applied.
func (p *PowerCap) gains() (kp, ki float64) {
	kp, ki = p.Kp, p.Ki
	if kp == 0 {
		kp = DefaultKp
	}
	if ki == 0 {
		ki = DefaultKi
	}
	return kp, ki
}

// JobStarted implements sched.Recorder: feed the meter and pin the
// job's policy-chosen ("natural") gear, the ceiling actuation restores
// toward. Keyed by job ID because the scheduler recycles RunState
// values after completion.
func (p *PowerCap) JobStarted(rs *sched.RunState, now float64) {
	p.meter.JobStarted(rs, now)
	if idx := p.Gears.Index(rs.Gear); idx >= 0 {
		p.natural[rs.Job.ID] = idx
	}
}

// JobFinished implements sched.Recorder.
func (p *PowerCap) JobFinished(rs *sched.RunState, now float64) {
	p.meter.JobFinished(rs, now)
	delete(p.natural, rs.Job.ID)
}

// JobRegeared implements sched.GearObserver. External gear switches —
// the per-job policy's dynamic boost regearing a running job — redefine
// the job's natural gear, so the controller clamps relative to (and
// restores toward) whatever the policy currently wants. The controller's
// own actuations also flow through this callback; they must not, so they
// are masked out by the actuating flag.
func (p *PowerCap) JobRegeared(rs *sched.RunState, old dvfs.Gear, now float64) {
	p.meter.JobRegeared(rs, old, now)
	if p.actuating {
		return
	}
	if idx := p.Gears.Index(rs.Gear); idx >= 0 {
		p.natural[rs.Job.ID] = idx
	}
}

// accumulate integrates the pass-sampled draw into the steady-state
// statistics: the previous sample held from lastT to now.
func (p *PowerCap) accumulate(now float64) {
	if p.hasPrev && now > p.lastT {
		dt := now - p.lastT
		p.statT += dt
		p.drawSum += p.lastDraw * dt
		if p.lastDraw > p.cap {
			p.overSum += (p.lastDraw - p.cap) * dt
			p.overT += dt
		}
	}
}

// ControlPass implements sched.PowerController: observe the tracked
// draw, move the gear-ceiling level under the velocity-form PI law, and
// clamp running jobs to it. Clamping the level into [0, top] doubles as
// anti-windup — the integral action cannot accumulate beyond the
// actuator's range.
func (p *PowerCap) ControlPass(sys *sched.System, now float64) {
	p.passesTotal++
	p.meter.Advance(now)
	draw := p.meter.Draw()
	p.accumulate(now)

	e := (p.cap - draw) / p.cap
	if math.Abs(e) <= errEps {
		// Deadband: a fully-loaded machine at exactly the cap accumulates
		// its draw as a sum of per-job terms while the cap is a single
		// product, so e carries ±ulp dust. A normalized overshoot this
		// small is physically meaningless and must not trip the over-cap
		// response.
		e = 0
	}
	kp, ki := p.gains()
	prev := p.level
	if p.hasPrev {
		dt := now - p.lastT
		p.level += kp*(e-p.prevErr) + ki*e*dt
	} else {
		p.level += kp * e
	}
	if e >= 0 && p.level < prev {
		// At or under the cap nothing needs throttling, so the ceiling
		// never moves down: a load surge that stays within the cap would
		// otherwise kick the velocity-form P term (large negative Δe) and
		// throttle a compliant cluster. Overshoot (e < 0) gets the full
		// PI response, including the fast P kick in both directions.
		p.level = prev
	}
	top := float64(len(p.Gears) - 1)
	if p.level > top {
		p.level = top
	} else if p.level < 0 {
		p.level = 0
	}
	p.prevErr, p.lastT, p.hasPrev = e, now, true

	// Quantize the ceiling with a small upward tolerance: at full
	// headroom accumulated float dust in the draw must not let the level
	// dip an ulp below the top index and floor into a spurious one-gear
	// throttle of the whole machine.
	ceil := int(p.level + levelEps)
	topIdx := len(p.Gears) - 1
	if ceil != topIdx || !p.atTop {
		// Walk the running jobs only when the ceiling can bind: with the
		// ceiling at the top index now AND after the previous pass, every
		// running job already sits at its natural gear (only this loop ever
		// lowers a job below natural, and doing so needs a sub-top ceiling),
		// so the walk is provably a no-op. Skipping it keeps an uncapped or
		// under-cap controller O(1) per pass instead of O(running jobs).
		p.actuating = true
		for _, rs := range sys.Running() {
			if p.EcoOnly && !rs.Job.Eco {
				continue
			}
			nat, ok := p.natural[rs.Job.ID]
			if !ok {
				continue
			}
			want := nat
			if ceil < want {
				want = ceil
			}
			if g := p.Gears[want]; g != rs.Gear {
				sys.SetGear(rs, g, now)
				p.actuations++
			}
		}
		p.actuating = false
	}
	p.atTop = ceil == topIdx

	draw = p.meter.Draw() // post-actuation draw holds until the next pass
	if draw > p.peakDraw {
		p.peakDraw = draw
	}
	p.lastDraw = draw
}

// CapReport summarizes how the controller tracked its cap over a run.
// The draw integrals are pass-sampled: the draw observed at the end of
// each scheduling pass is held constant until the next one, which is
// exact for the active component (gears only change inside passes) and
// approximates idle-floor changes between passes.
type CapReport struct {
	Cap        float64 // absolute cap
	AvgDraw    float64 // time-averaged tracked draw
	PeakDraw   float64 // maximum post-actuation draw observed
	OverFrac   float64 // fraction of time the draw exceeded the cap
	OverEnergy float64 // ∫ max(0, draw − cap) dt
	Actuations int     // gear switches the controller issued
	Passes     int     // control passes run
}

// Report returns the steady-state cap-tracking statistics.
func (p *PowerCap) Report() CapReport {
	r := CapReport{
		Cap:        p.cap,
		PeakDraw:   p.peakDraw,
		OverEnergy: p.overSum,
		Actuations: p.actuations,
		Passes:     p.passesTotal,
	}
	if p.statT > 0 {
		r.AvgDraw = p.drawSum / p.statT
		r.OverFrac = p.overT / p.statT
	}
	return r
}
