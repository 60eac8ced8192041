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
// under classic EASY as under the replanning variants — and must never
// take the process down.
func TestCorruptedPlannedEndReportsNotCrashes(t *testing.T) {
	gears := dvfs.PaperGearSet()
	cases := []struct {
		name    string
		variant Variant
		resv    int
	}{
		{"conservative-index", Conservative, 0},
		{"flexible-index", EASY, 4},
		{"easy-index", EASY, 0},
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
			})
			if err != nil {
				t.Fatal(err)
			}
			err = sys.Simulate(randomTrace(11, 16, 200))
			if !pol.corrupted {
				t.Fatal("fixture never corrupted a PlannedEnd; raise the trace length")
			}
			if err == nil {
				t.Fatal("Simulate returned nil, want release-schedule invariant error")
			}
			if !strings.Contains(err.Error(), "release schedule lost job") {
				t.Fatalf("Simulate error = %q, want a release-schedule invariant report", err)
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

// hookController runs fn as its ControlPass once the simulation clock
// reaches after, until fn reports it acted. The run-path invariant tests
// use it to break the scheduler's bookkeeping behind its back.
type hookController struct {
	after float64
	fn    func(sys *System, now float64) bool
	fired bool
}

func (c *hookController) Name() string { return "hook" }
func (c *hookController) Bind(*System) {}
func (c *hookController) ControlPass(sys *System, now float64) {
	if c.fired || now < c.after || len(sys.Running()) == 0 {
		return
	}
	c.fired = c.fn(sys, now)
}

// runInvariantFixture simulates a warm random trace under variant with
// the given policy and controller and returns Simulate's error, failing
// the test when the controller never fired.
func runInvariantFixture(t *testing.T, variant Variant, pol GearPolicy, ctrl *hookController) error {
	t.Helper()
	gears := dvfs.PaperGearSet()
	sys, err := New(Config{
		CPUs: 16, Gears: gears,
		TimeModel:  dvfs.NewTimeModel(0.5, gears),
		Policy:     pol,
		Variant:    variant,
		Controller: ctrl,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = sys.Simulate(randomTrace(13, 16, 200))
	if ctrl != nil && !ctrl.fired {
		t.Fatal("fixture controller never fired")
	}
	return err
}

// wantRunError asserts Simulate reported an invariant violation
// containing msg instead of panicking or succeeding.
func wantRunError(t *testing.T, err error, msg string) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), msg) {
		t.Fatalf("Simulate error = %v, want one containing %q", err, msg)
	}
}

// A start whose allocation fails — processors the replanning profile
// counts as free were taken behind the scheduler's back — aborts the run
// with an error.
func TestStartAllocationFailureReportsError(t *testing.T) {
	ctrl := &hookController{after: 50, fn: func(sys *System, now float64) bool {
		free := sys.Cluster().FreeCount()
		if free == 0 {
			return false
		}
		if _, err := sys.Cluster().Allocate(free, now); err != nil {
			t.Fatal(err)
		}
		return true
	}}
	err := runInvariantFixture(t, Conservative, topPolicy(), ctrl)
	wantRunError(t, err, "allocation invariant broken")
}

// zeroGearPolicy hands out a gear with zero frequency, whose dilation
// coefficient is infinite: the completion lands at a non-finite time the
// engine refuses.
type zeroGearPolicy struct{}

func (zeroGearPolicy) Name() string { return "zero-gear" }
func (zeroGearPolicy) ReserveGear(*workload.Job, float64, float64, int) dvfs.Gear {
	return dvfs.Gear{}
}
func (zeroGearPolicy) BackfillGear(j *workload.Job, now float64, wq int, feasible func(dvfs.Gear) bool) (dvfs.Gear, bool) {
	return dvfs.Gear{}, feasible(dvfs.Gear{})
}

// A start whose completion cannot be scheduled aborts the run with an
// error.
func TestStartScheduleFailureReportsError(t *testing.T) {
	err := runInvariantFixture(t, EASY, zeroGearPolicy{}, nil)
	wantRunError(t, err, "scheduling completion of job")
}

// A completion whose processors were already released behind the
// scheduler's back aborts the run with an error.
func TestFinishReleaseFailureReportsError(t *testing.T) {
	ctrl := &hookController{after: 50, fn: func(sys *System, now float64) bool {
		if err := sys.Cluster().Release(sys.Running()[0].Alloc, now); err != nil {
			t.Fatal(err)
		}
		return true
	}}
	err := runInvariantFixture(t, EASY, topPolicy(), ctrl)
	wantRunError(t, err, "release invariant broken")
}

// SetGear called with a `now` in the past cannot reschedule the job's
// completion: the run aborts with an error.
func TestSetGearPastNowReportsError(t *testing.T) {
	gears := dvfs.PaperGearSet()
	ctrl := &hookController{after: 50, fn: func(sys *System, now float64) bool {
		rs := sys.Running()[0]
		g := gears[0]
		if rs.Gear == g {
			g = gears.Top()
		}
		sys.SetGear(rs, g, now-1e6)
		return true
	}}
	err := runInvariantFixture(t, EASY, topPolicy(), ctrl)
	wantRunError(t, err, "rescheduling completion of job")
}

// aboveTopPolicy breaks GearPolicy's contract by choosing a gear faster
// than the top gear from ReserveGear (reserve) or from BackfillGear (and
// the top gear from ReserveGear).
type aboveTopPolicy struct {
	gears   dvfs.GearSet
	reserve bool
}

func (aboveTopPolicy) Name() string { return "above-top" }

func (p aboveTopPolicy) fast() dvfs.Gear {
	g := p.gears.Top()
	g.Freq += 0.3
	return g
}

func (p aboveTopPolicy) ReserveGear(*workload.Job, float64, float64, int) dvfs.Gear {
	if p.reserve {
		return p.fast()
	}
	return p.gears.Top()
}

func (p aboveTopPolicy) BackfillGear(j *workload.Job, now float64, wq int, feasible func(dvfs.Gear) bool) (dvfs.Gear, bool) {
	return p.fast(), true
}

// A gear faster than the top gear, from either GearPolicy method, aborts
// the run with an error: the backfill scans skip candidates the top gear
// cannot start, which is exact only if no chosen gear is faster.
// Conservative backfilling reserves for every queued job, so it never
// asks BackfillGear.
func TestGearAboveTopReportsError(t *testing.T) {
	gears := dvfs.PaperGearSet()
	cases := []struct {
		name    string
		variant Variant
		resv    int
		reserve bool
	}{
		{"easy/ReserveGear", EASY, 0, true},
		{"conservative/ReserveGear", Conservative, 0, true},
		{"easy/BackfillGear", EASY, 0, false},
		{"flexible-4/BackfillGear", EASY, 4, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := New(Config{
				CPUs: 16, Gears: gears,
				TimeModel:    dvfs.NewTimeModel(0.5, gears),
				Policy:       aboveTopPolicy{gears: gears, reserve: tc.reserve},
				Variant:      tc.variant,
				Reservations: tc.resv,
			})
			if err != nil {
				t.Fatal(err)
			}
			err = sys.Simulate(randomTrace(13, 16, 200))
			method := "BackfillGear"
			if tc.reserve {
				method = "ReserveGear"
			}
			wantRunError(t, err, method+" chose gear")
			wantRunError(t, err, "faster than the top gear")
		})
	}
}
