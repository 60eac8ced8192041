package altpolicy

import (
	"strings"
	"testing"

	"repro/internal/dvfs"
	"repro/internal/sched"
	"repro/internal/workload"
)

func TestNewUtilizationDrivenValidation(t *testing.T) {
	gears := dvfs.PaperGearSet()
	bad := [][2]float64{{-0.1, 0.9}, {0.5, 1.1}, {0.9, 0.5}, {0.5, 0.5}}
	for _, b := range bad {
		if _, err := NewUtilizationDriven(gears, b[0], b[1]); err == nil {
			t.Errorf("bracket %v accepted", b)
		}
	}
	if _, err := NewUtilizationDriven(dvfs.GearSet{}, 0.2, 0.8); err == nil {
		t.Error("empty gear set accepted")
	}
	if _, err := NewUtilizationDriven(gears, 0.2, 0.8); err != nil {
		t.Errorf("valid policy rejected: %v", err)
	}
}

// On an empty machine new jobs take the lowest gear; when the machine
// fills up they take the top gear.
func TestUtilizationMapping(t *testing.T) {
	gears := dvfs.PaperGearSet()
	pol, err := NewUtilizationDriven(gears, 0.25, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	rec := &gearCapture{}
	sys, err := sched.New(sched.Config{
		CPUs: 8, Gears: gears,
		TimeModel: dvfs.NewTimeModel(0.5, gears),
		Policy:    pol, Variant: sched.EASY, Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := &workload.Trace{Name: "u", CPUs: 8, Jobs: []*workload.Job{
		// Empty machine: utilization 0 -> lowest gear.
		{ID: 1, Submit: 0, Runtime: 10000, Procs: 4, ReqTime: 10000, Beta: -1},
		// Now 4/8 busy = 0.5 -> a middle gear.
		{ID: 2, Submit: 1, Runtime: 10000, Procs: 2, ReqTime: 10000, Beta: -1},
		// 6/8 busy = 0.75 -> top gear.
		{ID: 3, Submit: 2, Runtime: 10000, Procs: 2, ReqTime: 10000, Beta: -1},
	}}
	if err := sys.Simulate(tr); err != nil {
		t.Fatal(err)
	}
	if g := rec.gears[1]; g != gears.Lowest() {
		t.Errorf("job 1 gear = %v, want lowest", g)
	}
	// Utilization 0.5 maps mid-bracket; the exact gear depends on
	// rounding but must be strictly between the extremes.
	if g := rec.gears[2]; g == gears.Lowest() || g == gears.Top() {
		t.Errorf("job 2 gear = %v, want a middle gear", g)
	}
	if g := rec.gears[3]; g != gears.Top() {
		t.Errorf("job 3 gear = %v, want top", g)
	}
}

type gearCapture struct {
	gears map[int]dvfs.Gear
}

func (c *gearCapture) JobStarted(rs *sched.RunState, now float64) {
	if c.gears == nil {
		c.gears = map[int]dvfs.Gear{}
	}
	c.gears[rs.Job.ID] = rs.Gear
}
func (c *gearCapture) JobFinished(rs *sched.RunState, now float64) {}

// Regression: using the policy without Bind (anything that sidesteps the
// sched.New binder hook, e.g. hand-rolled wiring) used to crash with a
// bare nil dereference mid-run. It must fail fast with a message that
// names the fix.
func TestUtilizationDrivenWithoutBindFailsFast(t *testing.T) {
	gears := dvfs.PaperGearSet()
	pol, err := NewUtilizationDriven(gears, 0.2, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("unbound policy did not fail")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "without a bound system") {
			t.Fatalf("panic = %v, want the unbound-policy diagnosis", r)
		}
	}()
	pol.ReserveGear(&workload.Job{ID: 1, Procs: 1, ReqTime: 10, Runtime: 5}, 0, 0, 0)
}
