package sched

import (
	"strings"
	"testing"

	"repro/internal/dvfs"
	"repro/internal/workload"
)

// corruptingPolicy mutates one running job's PlannedEnd behind the
// release schedule's back once the simulation is warm — the invariant
// violation relRemove used to answer with a process-killing panic. It is
// otherwise the fixed top-gear policy.
type corruptingPolicy struct {
	gears     dvfs.GearSet
	after     float64
	corrupted bool
}

func (p *corruptingPolicy) Name() string { return "corrupting" }

func (p *corruptingPolicy) ReserveGear(j *workload.Job, start, now float64, wq int) dvfs.Gear {
	return p.gears.Top()
}

func (p *corruptingPolicy) BackfillGear(j *workload.Job, now float64, wq int, feasible func(dvfs.Gear) bool) (dvfs.Gear, bool) {
	g := p.gears.Top()
	return g, feasible(g)
}

func (p *corruptingPolicy) Bind(*System) {}

func (p *corruptingPolicy) ControlPass(sys *System, now float64) {
	if p.corrupted || now < p.after {
		return
	}
	running := sys.Running()
	if len(running) == 0 {
		return
	}
	running[0].PlannedEnd += 12345.75
	p.corrupted = true
}

// TestCorruptedPlannedEndReportsNotCrashes is the regression for the
// relRemove "release schedule lost job" panic: a PlannedEnd corrupted
// between relAdd and relRemove must surface as an error from Simulate —
// on the incremental schedules (chunked index and compat slice alike,
// under classic EASY as under the replanning variants) — and must never
// take the process down, under every compat mode. The seed-era mode never
// keeps a schedule (it re-sorts the run list on every pass), so the
// corruption is absorbed and the run completes; what the test pins there
// is the absence of a crash.
func TestCorruptedPlannedEndReportsNotCrashes(t *testing.T) {
	gears := dvfs.PaperGearSet()
	cases := []struct {
		name      string
		variant   Variant
		resv      int
		compat    Compat
		wantError bool
	}{
		{"conservative-index", Conservative, 0, Compat{}, true},
		{"conservative-slice", Conservative, 0, Compat{SliceReleases: true}, true},
		{"conservative-rebuild-index", Conservative, 0, Compat{RebuildProfile: true}, true},
		{"conservative-rebuild-slice", Conservative, 0, Compat{RebuildProfile: true, SliceReleases: true}, true},
		{"flexible-index", EASY, 4, Compat{}, true},
		{"conservative-seed", Conservative, 0, SeedCompat(), false},
		{"easy-index", EASY, 0, Compat{}, true},
		{"easy-slice", EASY, 0, Compat{SliceReleases: true}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pol := &corruptingPolicy{gears: gears, after: 50}
			sys, err := New(Config{
				CPUs: 16, Gears: gears,
				TimeModel:    dvfs.NewTimeModel(0.5, gears),
				Policy:       pol,
				Variant:      tc.variant,
				Reservations: tc.resv,
				Compat:       tc.compat,
			})
			if err != nil {
				t.Fatal(err)
			}
			err = sys.Simulate(randomTrace(11, 16, 200))
			if !pol.corrupted {
				t.Fatal("fixture never corrupted a PlannedEnd; raise the trace length")
			}
			if tc.wantError {
				if err == nil {
					t.Fatal("Simulate returned nil, want release-schedule invariant error")
				}
				if !strings.Contains(err.Error(), "release schedule lost job") {
					t.Fatalf("Simulate error = %q, want a release-schedule invariant report", err)
				}
			} else if err != nil {
				t.Fatalf("Simulate returned %v; the seed-era rebuild should absorb the corruption", err)
			}
		})
	}
}

// TestRelRemoveErrorFromSetGear covers the other relRemove caller: a gear
// switch on a corrupted RunState reports through the same error path
// instead of panicking mid-ControlPass.
func TestRelRemoveErrorFromSetGear(t *testing.T) {
	gears := dvfs.PaperGearSet()
	pol := &regearCorruptPolicy{gears: gears, after: 50}
	sys, err := New(Config{
		CPUs: 16, Gears: gears,
		TimeModel: dvfs.NewTimeModel(0.5, gears),
		Policy:    pol,
		Variant:   Conservative,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = sys.Simulate(randomTrace(12, 16, 200))
	if !pol.corrupted {
		t.Fatal("fixture never corrupted a PlannedEnd")
	}
	if err == nil || !strings.Contains(err.Error(), "release schedule lost job") {
		t.Fatalf("Simulate error = %v, want a release-schedule invariant report", err)
	}
}

// regearCorruptPolicy corrupts a running job's PlannedEnd and immediately
// asks for a gear switch on it, driving the corrupted key through
// SetGear's relRemove.
type regearCorruptPolicy struct {
	gears     dvfs.GearSet
	after     float64
	corrupted bool
}

func (p *regearCorruptPolicy) Name() string { return "regear-corrupt" }

func (p *regearCorruptPolicy) ReserveGear(j *workload.Job, start, now float64, wq int) dvfs.Gear {
	return p.gears.Top()
}

func (p *regearCorruptPolicy) BackfillGear(j *workload.Job, now float64, wq int, feasible func(dvfs.Gear) bool) (dvfs.Gear, bool) {
	g := p.gears.Top()
	return g, feasible(g)
}

func (p *regearCorruptPolicy) Bind(*System) {}

func (p *regearCorruptPolicy) ControlPass(sys *System, now float64) {
	if p.corrupted || now < p.after {
		return
	}
	running := sys.Running()
	if len(running) == 0 {
		return
	}
	rs := running[0]
	rs.PlannedEnd += 999.5
	p.corrupted = true
	sys.SetGear(rs, p.gears[0], now)
}
