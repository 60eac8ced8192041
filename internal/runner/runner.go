// Package runner wires a workload trace, a cluster configuration and a
// gear policy into one simulation run and returns the aggregated metrics.
// It is the legacy single-run entry point the CLI tools, examples,
// experiments and benchmarks share; since the scenario layer landed it is
// a thin adapter — Run compiles the Spec through scenario.Compile and
// executes the result, byte-identically to the pre-scenario code path.
// New code that executes one description many times (sweeps, servers)
// should compile a scenario.Scenario directly and reuse it.
package runner

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/dvfs"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/workload"
)

// DefaultBeta is the β of the execution time model the paper assumes for
// all jobs.
const DefaultBeta = scenario.DefaultBeta

// Spec describes one simulation run. Zero values select the paper's
// defaults.
type Spec struct {
	// Trace is the materialized workload. Exactly one of Trace and Source
	// must be set.
	Trace *workload.Trace
	// Source streams the workload instead of materializing it: a replay
	// holds O(running jobs) live memory regardless of trace length. Run
	// rewinds the source, so the same Spec can be executed repeatedly
	// (BaselinePair does).
	Source workload.JobSource

	// SizeFactor scales the machine relative to the trace's original
	// system (1.0 = original, 1.2 = "20% increased"). Zero means 1.0.
	SizeFactor float64
	// CPUs overrides the machine size outright when non-zero.
	CPUs int

	Variant sched.Variant
	// Policy assigns gears; nil runs the no-DVFS baseline (top gear).
	Policy sched.GearPolicy
	// Selection maps job processes to processors (First Fit default).
	Selection cluster.Selection
	// Order is the queue discipline (FCFS default).
	Order sched.Order
	// Reservations is the EASY reservation depth (0/1 classic).
	Reservations int

	Gears dvfs.GearSet // nil → paper gear set

	// PowerModel overrides the paper's power model when non-nil.
	PowerModel *dvfs.PowerModel

	// Controller configures the closed-loop power controller; the zero
	// value runs without one (the pre-controller code path, hash
	// included).
	Controller scenario.ControllerConfig

	// Beta is the β of the execution time model. By legacy convention the
	// zero value means "use DefaultBeta" — an explicit 0 cannot be
	// expressed here; use scenario.Spec (whose *float64 Beta rejects
	// non-positive values instead of masking them) if you need to
	// distinguish unset from zero.
	Beta float64
	// ShortJobTh is Th of the BSLD formula. Zero means
	// core.DefaultShortJobThreshold (600 s) by the same legacy
	// convention; see Beta.
	ShortJobTh float64

	// KeepCollector retains per-job records in the outcome (needed for
	// wait-time series, Figure 6).
	KeepCollector bool

	// ExtraRecorders observe the run alongside the metrics collector
	// (e.g. nodepower.Tracker for the power-down baseline).
	ExtraRecorders []sched.Recorder
}

// Outcome is the result of one run; it is the scenario layer's Outcome.
type Outcome = scenario.Outcome

// Compile resolves the legacy Spec into a compiled scenario, which can
// then be executed any number of times (concurrently, when backed by a
// Trace). Run and BaselinePair are Compile + Execute.
func Compile(spec Spec) (*scenario.Scenario, error) {
	if spec.Trace == nil && spec.Source == nil {
		return nil, fmt.Errorf("runner: no workload input: set exactly one of Spec.Trace and Spec.Source")
	}
	if spec.Trace != nil && spec.Source != nil {
		return nil, fmt.Errorf("runner: both Trace and Source set; choose one workload input")
	}
	ss := scenario.Spec{
		Trace:          spec.Trace,
		Source:         spec.Source,
		GearPolicy:     spec.Policy,
		SizeFactor:     spec.SizeFactor,
		CPUs:           spec.CPUs,
		Variant:        spec.Variant.String(),
		Selection:      spec.Selection.String(),
		Order:          spec.Order.String(),
		Reservations:   spec.Reservations,
		Gears:          spec.Gears,
		PowerModel:     spec.PowerModel,
		Controller:     spec.Controller,
		KeepCollector:  spec.KeepCollector,
		ExtraRecorders: spec.ExtraRecorders,
	}
	// Legacy zero-means-default: only forward explicitly set values; the
	// scenario layer then rejects non-positive ones loudly.
	if spec.Beta != 0 {
		beta := spec.Beta
		ss.Beta = &beta
	}
	if spec.ShortJobTh != 0 {
		th := spec.ShortJobTh
		ss.ShortJobTh = &th
	}
	return scenario.Compile(ss)
}

// Run executes the simulation described by spec.
func Run(spec Spec) (Outcome, error) {
	sc, err := Compile(spec)
	if err != nil {
		return Outcome{}, err
	}
	return sc.Execute()
}

// BaselinePair runs the spec once with its policy and once as the no-DVFS
// baseline on the same machine size, returning (policy, baseline).
// Normalized energies in the paper are always relative to such baselines.
func BaselinePair(spec Spec) (Outcome, Outcome, error) {
	sc, err := Compile(spec)
	if err != nil {
		return Outcome{}, Outcome{}, err
	}
	return sc.ExecutePair()
}
