// Package sched implements parallel job scheduling on a DVFS cluster: the
// EASY backfilling policy of Mu'alem & Feitelson (the paper's base policy)
// plus plain FCFS and conservative backfilling baselines. Frequency
// decisions are delegated to a GearPolicy, which is how the paper's
// BSLD-threshold algorithm (internal/core) plugs in.
package sched

import (
	"repro/internal/dvfs"
	"repro/internal/workload"
)

// GearPolicy chooses the CPU gear for every scheduling decision. The
// engine guarantees:
//
//   - ReserveGear is called exactly when a job is about to start (the head
//     of the queue fitting the free processors, or a job arriving into an
//     idle-enough machine) or to place its reservation. Whatever gear it
//     returns is used.
//   - BackfillGear is called when a job could jump ahead of the reserved
//     head job. feasible(g) reports whether an immediate start at gear g
//     keeps the head's reservation intact; the policy must only return
//     gears for which feasible is true. ok=false leaves the job queued.
//     feasible is valid only during the BackfillGear call: the engine
//     hands the same function value to every candidate of a pass and
//     re-targets it between calls, so a policy must not retain it or
//     call it after returning.
//   - BackfillGear is not called for a candidate that no gear of
//     Config.Gears can start: the engine asks feasible(Config.Gears.Top())
//     itself first and keeps the job queued when it fails. No slower gear
//     could pass, since New requires the time model's β ≥ 0, under which
//     a gear's planned duration never shrinks as its frequency drops.
//
// In return, a gear returned by either method must be no faster than
// Config.Gears.Top(): a faster one aborts the run with an error, since
// it could have started a candidate the engine never asked about.
//
// Per-pass adjustment of running jobs (the dynamic boost extension,
// power capping) lives on the PowerController seam, not here: a policy
// that also implements PowerController is promoted to the system's
// controller automatically by New.
//
// wqOthers is the number of jobs waiting in the queue excluding the job
// under decision, matching the paper's WQthreshold semantics.
type GearPolicy interface {
	Name() string
	ReserveGear(j *workload.Job, start, now float64, wqOthers int) dvfs.Gear
	BackfillGear(j *workload.Job, now float64, wqOthers int, feasible func(dvfs.Gear) bool) (dvfs.Gear, bool)
}

// EstMonotonePolicy marks a GearPolicy whose ReserveGear decision is
// monotone in the start argument: for fixed job, pass time and queue
// depth, the returned gear moves through the gear order in one
// direction only as the candidate start grows (constant counts). The
// scheduler's replanning uses the marker to widen its changed-prefix
// analysis: when only job starts (and completions whose credits the
// reuse proof replays) touched the base skyline since a reservation was
// planned, the replanned earliest start can only have drifted between
// the recorded top-gear estimate and the recorded reservation start, so
// a decision that is monotone over that interval and unchanged at both
// endpoints is provably unchanged everywhere in it — the reservation is
// reused without replanning. Policies without the marker keep the
// conservative analysis (any job start or gear switch replans from the
// head). A threshold policy over a predicted-slowdown that is
// nondecreasing in the start qualifies; a policy keying on, say, start
// parity would not.
type EstMonotonePolicy interface {
	GearPolicy
	// EstMonotone is a marker; implementations assert the monotonicity
	// contract above and never call it.
	EstMonotone()
}

// PolicyCloner is implemented by stateful gear policies (typically ones
// doubling as PowerControllers) that can mint an unbound copy of
// themselves, so several executions — concurrent ones in particular —
// never share mutable policy state: each run clones the policy and binds
// the clone to its own system. Stateless policies (core.Policy,
// FixedGear) don't need it; they are safe to share as-is.
type PolicyCloner interface {
	// ClonePolicy returns an independent, unbound copy carrying the same
	// configuration.
	ClonePolicy() GearPolicy
}

// MultiRecorder fans lifecycle callbacks out to several recorders, so
// metrics collection and auxiliary trackers (e.g. per-node occupancy for
// the power-down baseline) can observe the same run.
type MultiRecorder []Recorder

// JobStarted implements Recorder.
func (m MultiRecorder) JobStarted(rs *RunState, now float64) {
	for _, r := range m {
		r.JobStarted(rs, now)
	}
}

// JobFinished implements Recorder.
func (m MultiRecorder) JobFinished(rs *RunState, now float64) {
	for _, r := range m {
		r.JobFinished(rs, now)
	}
}

// PassEnd forwards system-state samples to members implementing
// PassObserver.
func (m MultiRecorder) PassEnd(now float64, queued, busy int) {
	for _, r := range m {
		if o, ok := r.(PassObserver); ok {
			o.PassEnd(now, queued, busy)
		}
	}
}

// JobRegeared forwards gear switches to members implementing
// GearObserver.
func (m MultiRecorder) JobRegeared(rs *RunState, old dvfs.Gear, now float64) {
	for _, r := range m {
		if o, ok := r.(GearObserver); ok {
			o.JobRegeared(rs, old, now)
		}
	}
}

// FixedGear always schedules at one gear; with the top gear it is the
// paper's no-DVFS baseline.
type FixedGear struct {
	Gear dvfs.Gear
}

// Name implements GearPolicy.
func (p FixedGear) Name() string { return "fixed@" + p.Gear.String() }

// ReserveGear implements GearPolicy.
func (p FixedGear) ReserveGear(*workload.Job, float64, float64, int) dvfs.Gear { return p.Gear }

// BackfillGear implements GearPolicy.
func (p FixedGear) BackfillGear(j *workload.Job, now float64, wqOthers int, feasible func(dvfs.Gear) bool) (dvfs.Gear, bool) {
	return p.Gear, feasible(p.Gear)
}

// EstMonotone implements EstMonotonePolicy: a constant decision is
// trivially monotone in the start.
func (FixedGear) EstMonotone() {}
