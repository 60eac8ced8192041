// Package nodepower implements the energy-management baseline the paper's
// related work discusses (Lawson & Smirni, ICS'05; Pinheiro et al.;
// Hikita et al.): powering down idle nodes instead of — or in addition to
// — scaling frequency. It tracks per-processor occupancy from the
// scheduler's lifecycle callbacks and evaluates, after the run, how much
// energy a shutdown policy with a given idle timeout and wake cost would
// have used.
//
// The evaluation is accounting-only: shutdowns do not delay jobs in the
// schedule itself. With First Fit packing (jobs take the lowest-numbered
// free processors) high-numbered processors accumulate the long idle
// stretches, which is exactly the packing argument of Hikita et al. for
// making power-down effective. The resulting figure is the energy a
// perfectly predictive power-down controller would reach — an optimistic
// bound documented as such.
package nodepower

import (
	"fmt"

	"repro/internal/dvfs"
	"repro/internal/sched"
)

// Tracker records per-processor busy intervals during a simulation. It
// implements sched.Recorder; attach it (for instance through
// sched.MultiRecorder) alongside the metrics collector.
//
// State is held in processor-indexed slices fed directly by the
// allocation's run-length intervals — the seed implementation kept
// map[int]float64 / map[int][]span tables, paying a hash per processor
// per job on the recording hot path.
type Tracker struct {
	total     int
	busyOpen  []bool    // processor -> a busy interval is open
	busyStart []float64 // processor -> open interval's start time
	spans     [][]span  // processor -> closed busy intervals
	end       float64   // last observed event time
}

type span struct{ start, end float64 }

// NewTracker returns a tracker for a machine of total processors.
func NewTracker(total int) *Tracker {
	return &Tracker{
		total:     total,
		busyOpen:  make([]bool, total),
		busyStart: make([]float64, total),
		spans:     make([][]span, total),
	}
}

var _ sched.Recorder = (*Tracker)(nil)

// JobStarted implements sched.Recorder.
func (t *Tracker) JobStarted(rs *sched.RunState, now float64) {
	for _, r := range rs.Alloc.Runs {
		for id := r.Lo; id <= r.Hi; id++ {
			t.busyOpen[id] = true
			t.busyStart[id] = now
		}
	}
	if now > t.end {
		t.end = now
	}
}

// JobFinished implements sched.Recorder.
func (t *Tracker) JobFinished(rs *sched.RunState, now float64) {
	for _, r := range rs.Alloc.Runs {
		for id := r.Lo; id <= r.Hi; id++ {
			if t.busyOpen[id] {
				t.spans[id] = append(t.spans[id], span{t.busyStart[id], now})
				t.busyOpen[id] = false
			}
		}
	}
	if now > t.end {
		t.end = now
	}
}

// Policy parameterizes the shutdown controller.
type Policy struct {
	// IdleOffDelay is how long a processor stays idle before it powers
	// down. Pinheiro et al. report ~45 s to shut down and ~100 s to
	// bring a node back; a delay around that scale avoids thrashing.
	IdleOffDelay float64
	// WakeEnergySeconds charges each power-up transition the energy of
	// this many seconds at full active power (boot/restore cost).
	WakeEnergySeconds float64
	// OffPowerFraction is the residual power of a powered-down node as a
	// fraction of idle power (0 = perfectly off).
	OffPowerFraction float64
}

// DefaultPolicy mirrors the latencies reported by Pinheiro et al.
func DefaultPolicy() Policy {
	return Policy{IdleOffDelay: 60, WakeEnergySeconds: 100, OffPowerFraction: 0}
}

// Validate reports the first problem with the policy.
func (p Policy) Validate() error {
	switch {
	case p.IdleOffDelay < 0:
		return fmt.Errorf("nodepower: negative IdleOffDelay %v", p.IdleOffDelay)
	case p.WakeEnergySeconds < 0:
		return fmt.Errorf("nodepower: negative WakeEnergySeconds %v", p.WakeEnergySeconds)
	case p.OffPowerFraction < 0 || p.OffPowerFraction > 1:
		return fmt.Errorf("nodepower: OffPowerFraction %v out of [0,1]", p.OffPowerFraction)
	}
	return nil
}

// Report is the outcome of evaluating a shutdown policy over a run.
type Report struct {
	IdleEnergy     float64 // idle-state energy actually charged
	OffEnergy      float64 // residual energy while powered down
	WakeEnergy     float64 // transition energy
	Shutdowns      int     // number of power-down transitions
	OffCPUSeconds  float64 // processor-seconds spent powered down
	IdleCPUSeconds float64 // processor-seconds idle but powered on
}

// TotalIdleSideEnergy is everything the policy charges outside job
// execution (compare against P_idle × idle-seconds without power-down).
func (r Report) TotalIdleSideEnergy() float64 {
	return r.IdleEnergy + r.OffEnergy + r.WakeEnergy
}

// Evaluate replays each processor's idle gaps under the policy, from the
// window start (first event or 0) through the last completion. pm supplies
// idle and active power levels. A processor still busy at the end of the
// observation window (its job never finished before the last event) is
// treated as busy through the window end: its open interval is closed at
// t.end, so no idle energy is charged for time it was in fact computing.
func (t *Tracker) Evaluate(p Policy, pm *dvfs.PowerModel, windowStart float64) (Report, error) {
	if err := p.Validate(); err != nil {
		return Report{}, err
	}
	idleP := pm.Idle()
	activeP := pm.Active(pm.Gears.Top())
	var rep Report
	for id := 0; id < t.total; id++ {
		gaps := t.idleGaps(id, windowStart)
		for _, g := range gaps {
			dur := g.end - g.start
			if dur <= 0 {
				continue
			}
			if dur <= p.IdleOffDelay {
				rep.IdleEnergy += dur * idleP
				rep.IdleCPUSeconds += dur
				continue
			}
			// Powered on while waiting out the delay, then off until the
			// gap closes, then a wake transition (charged only when a job
			// follows — the final gap of the run never wakes).
			rep.IdleEnergy += p.IdleOffDelay * idleP
			rep.IdleCPUSeconds += p.IdleOffDelay
			off := dur - p.IdleOffDelay
			rep.OffEnergy += off * idleP * p.OffPowerFraction
			rep.OffCPUSeconds += off
			rep.Shutdowns++
			if !g.final {
				rep.WakeEnergy += p.WakeEnergySeconds * activeP
			}
		}
	}
	return rep, nil
}

type gap struct {
	start, end float64
	final      bool
}

// idleGaps returns the idle intervals of one processor over the window.
// An interval still open at the end of the run counts as busy through the
// window end, so it produces no trailing idle gap.
func (t *Tracker) idleGaps(id int, windowStart float64) []gap {
	spans := t.spans[id]
	var gaps []gap
	cursor := windowStart
	for _, s := range spans {
		if s.start > cursor {
			gaps = append(gaps, gap{start: cursor, end: s.start})
		}
		if s.end > cursor {
			cursor = s.end
		}
	}
	if t.busyOpen[id] {
		// The open interval closes at the window end; any gap before it
		// started is an ordinary (non-final) idle stretch.
		if s := t.busyStart[id]; s > cursor {
			gaps = append(gaps, gap{start: cursor, end: s})
		}
		return gaps
	}
	if t.end > cursor {
		gaps = append(gaps, gap{start: cursor, end: t.end, final: true})
	}
	return gaps
}

// BusyCPUSeconds returns the tracked busy processor-seconds, open
// intervals counted through the window end (for validation against the
// cluster's own integral).
func (t *Tracker) BusyCPUSeconds() float64 {
	sum := 0.0
	for _, spans := range t.spans {
		for _, s := range spans {
			sum += s.end - s.start
		}
	}
	for id, open := range t.busyOpen {
		if open && t.end > t.busyStart[id] {
			sum += t.end - t.busyStart[id]
		}
	}
	return sum
}
