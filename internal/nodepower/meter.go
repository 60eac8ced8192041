package nodepower

import (
	"repro/internal/dvfs"
	"repro/internal/sched"
)

// Meter is the online power accumulator of the controller layer: it
// maintains the cluster's instantaneous draw and the running energy
// integral with an O(1) update per lifecycle event (job start, job
// finish, gear switch) — no scan of the run list, ever. Controllers
// query it each pass (Draw, Advance); the post-hoc Tracker.Evaluate
// replay stays as the differentially-tested reference for the same
// integrals.
//
// The model matches the metrics collector's: a busy processor draws
// pm.Active(gear) of the job occupying it, an idle one pm.Idle().
// Energy accrues in two buckets — active (execution) and idle — from
// t=0 through the last event observed (Advance pushes the integration
// frontier without changing state).
//
// Meter implements sched.Recorder and sched.GearObserver; attach it
// through sched.MultiRecorder or feed it from a controller's own
// lifecycle callbacks.
type Meter struct {
	pm    *dvfs.PowerModel
	total int

	busy       int     // busy processors right now
	drawActive float64 // Σ over running jobs of procs·Active(gear)
	lastT      float64 // integration frontier
	activeE    float64 // active-state energy through lastT
	idleE      float64 // idle-state energy through lastT
}

var (
	_ sched.Recorder     = (*Meter)(nil)
	_ sched.GearObserver = (*Meter)(nil)
)

// NewMeter returns a meter for a machine of total processors under the
// given power model.
func NewMeter(total int, pm *dvfs.PowerModel) *Meter {
	return &Meter{pm: pm, total: total}
}

// Advance integrates the current draw forward to now. Events arriving
// at earlier timestamps than the frontier are a caller error; same-time
// events integrate zero and are fine.
func (m *Meter) Advance(now float64) {
	if now <= m.lastT {
		return
	}
	dt := now - m.lastT
	m.activeE += m.drawActive * dt
	m.idleE += float64(m.total-m.busy) * m.pm.Idle() * dt
	m.lastT = now
}

// JobStarted implements sched.Recorder: integrate to now, then add the
// job's processors at its start gear to the draw.
func (m *Meter) JobStarted(rs *sched.RunState, now float64) {
	m.Advance(now)
	m.busy += rs.Job.Procs
	m.drawActive += float64(rs.Job.Procs) * m.pm.Active(rs.Gear)
}

// JobFinished implements sched.Recorder.
func (m *Meter) JobFinished(rs *sched.RunState, now float64) {
	m.Advance(now)
	m.busy -= rs.Job.Procs
	m.drawActive -= float64(rs.Job.Procs) * m.pm.Active(rs.Gear)
}

// JobRegeared implements sched.GearObserver: swap the job's draw from
// the old gear to the new one.
func (m *Meter) JobRegeared(rs *sched.RunState, old dvfs.Gear, now float64) {
	m.Advance(now)
	m.drawActive += float64(rs.Job.Procs) * (m.pm.Active(rs.Gear) - m.pm.Active(old))
}

// Draw is the instantaneous cluster draw: the running jobs at their
// current gears plus the idle floor of the unoccupied processors.
func (m *Meter) Draw() float64 {
	return m.drawActive + float64(m.total-m.busy)*m.pm.Idle()
}

// Total is the machine size the meter was built for.
func (m *Meter) Total() int { return m.total }

// IdleEnergy is the idle-state energy integrated through the frontier
// (every unoccupied processor charged pm.Idle(), no power-down).
func (m *Meter) IdleEnergy() float64 { return m.idleE }
