package sched

import (
	"repro/internal/cluster"
	"repro/internal/dvfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Phase is a stretch of a job's execution at one gear. Jobs scheduled once
// have a single phase; the dynamic boost extension appends more.
type Phase struct {
	Gear dvfs.Gear
	Dur  float64 // wall-clock seconds spent at Gear
}

// RunState tracks an executing job.
type RunState struct {
	Job   *workload.Job
	Gear  dvfs.Gear // current gear
	Start float64   // actual start time

	// PlannedEnd is the job's kill limit under the current gear
	// (start + requested·Coef plus any phase history); the scheduler
	// plans reservations and backfills against it.
	PlannedEnd float64
	// ActualEnd is when the completion event fires:
	// start + effective-runtime·Coef with phase history applied.
	ActualEnd float64

	Alloc cluster.Alloc
	endEv sim.Handle

	// runIdx is this entry's slot in System.runList, kept so completion
	// removal is O(1) (the slot is tombstoned and compacted lazily).
	runIdx int

	// profEnd is the End this job's occupancy is recorded with in the
	// persistent availability profile (the planned end, clamped at epoch
	// loads). Completions and gear switches credit exactly this interval
	// back, keeping the incremental base skyline equal to a fresh build.
	profEnd float64

	// phaseStart is when the current gear began; closed phases live in
	// Phases. workDone accumulates completed top-frequency seconds of the
	// closed phases (for mid-run gear switches).
	phaseStart float64
	workDone   float64 // top-frequency seconds completed before phaseStart
	reqDone    float64 // top-frequency requested-time seconds elapsed before phaseStart
	Phases     []Phase

	// Reduced reports whether the job ever executed below the top gear —
	// the quantity Figure 4 counts.
	Reduced bool
}
