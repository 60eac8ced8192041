package altpolicy

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dvfs"
	"repro/internal/sched"
	"repro/internal/workload"
)

// schedAudit captures the schedule (start/end times and the gear at each
// endpoint) for byte-identity comparisons.
type schedAudit struct {
	starts, ends       map[int]float64
	startGear, endGear map[int]dvfs.Gear
}

func newSchedAudit() *schedAudit {
	return &schedAudit{
		starts: map[int]float64{}, ends: map[int]float64{},
		startGear: map[int]dvfs.Gear{}, endGear: map[int]dvfs.Gear{},
	}
}

func (a *schedAudit) JobStarted(rs *sched.RunState, now float64) {
	a.starts[rs.Job.ID] = now
	a.startGear[rs.Job.ID] = rs.Gear
}

func (a *schedAudit) JobFinished(rs *sched.RunState, now float64) {
	a.ends[rs.Job.ID] = now
	a.endGear[rs.Job.ID] = rs.Gear
}

func (a *schedAudit) equal(b *schedAudit) bool {
	if len(a.starts) != len(b.starts) || len(a.ends) != len(b.ends) {
		return false
	}
	for id, v := range a.starts {
		if b.starts[id] != v || b.startGear[id] != a.startGear[id] {
			return false
		}
	}
	for id, v := range a.ends {
		if b.ends[id] != v || b.endGear[id] != a.endGear[id] {
			return false
		}
	}
	return true
}

// digest folds the schedule into a SHA-256 over the jobs in ID order:
// each job's start and end times as exact float bits, with the gear at
// both endpoints.
func (a *schedAudit) digest() string {
	ids := make([]int, 0, len(a.starts))
	for id := range a.starts {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	h := sha256.New()
	for _, id := range ids {
		fmt.Fprintf(h, "%d %x %x %v %v\n", id, math.Float64bits(a.starts[id]),
			math.Float64bits(a.ends[id]), a.startGear[id], a.endGear[id])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// denseTrace generates a bursty synthetic trace that keeps the machine
// saturated with a deep queue for most of the run.
func denseTrace(seed int64, cpus, jobs int) *workload.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := &workload.Trace{Name: "dense", CPUs: cpus}
	sub := 0.0
	for i := 1; i <= jobs; i++ {
		sub += rng.Float64() * 30
		rt := 600 + rng.Float64()*3000
		tr.Jobs = append(tr.Jobs, &workload.Job{
			ID: i, Submit: sub, Runtime: rt, ReqTime: rt * 1.5,
			Procs: 1 + rng.Intn(cpus/4), Beta: -1,
		})
	}
	return tr
}

func runWith(t *testing.T, tr *workload.Trace, variant sched.Variant, pol sched.GearPolicy, ctrl sched.PowerController) *schedAudit {
	t.Helper()
	gears := dvfs.PaperGearSet()
	audit := newSchedAudit()
	sys, err := sched.New(sched.Config{
		CPUs: tr.CPUs, Gears: gears,
		TimeModel:  dvfs.NewTimeModel(0.5, gears),
		Policy:     pol,
		Variant:    variant,
		Recorder:   audit,
		Controller: ctrl,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Simulate(tr); err != nil {
		t.Fatal(err)
	}
	return audit
}

func TestNewPowerCapValidation(t *testing.T) {
	gears := dvfs.PaperGearSet()
	pm := dvfs.PaperPowerModel()
	bad := []struct {
		cap, kp, ki float64
	}{
		{0, DefaultKp, DefaultKi},
		{-0.5, DefaultKp, DefaultKi},
		{1.5, DefaultKp, DefaultKi},
		{0.7, -1, DefaultKi},
		{0.7, DefaultKp, -1},
	}
	for _, b := range bad {
		if _, err := NewPowerCap(gears, pm, b.cap, b.kp, b.ki, false); err == nil {
			t.Errorf("config %+v accepted", b)
		}
	}
	if _, err := NewPowerCap(gears, pm, 0.7, 0, 0, false); err != nil {
		t.Errorf("zero gains (defaults) rejected: %v", err)
	}
	if _, err := NewPowerCap(gears, nil, 0.7, 0, 0, false); err == nil {
		t.Error("nil power model accepted")
	}
}

// With the cap at the machine's peak draw the controller must never
// actuate: the schedule is byte-identical to a controller-free run. This
// is the cap-disabled half of the determinism contract — enabling the
// layer with full headroom changes nothing.
func TestPowerCapNeutralAtFullHeadroom(t *testing.T) {
	gears := dvfs.PaperGearSet()
	pm := dvfs.PaperPowerModel()
	ud := func() sched.GearPolicy {
		p, err := NewUtilizationDriven(gears, 0.3, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	policies := map[string]func() sched.GearPolicy{
		"top":    func() sched.GearPolicy { return sched.FixedGear{Gear: gears.Top()} },
		"lowest": func() sched.GearPolicy { return sched.FixedGear{Gear: gears.Lowest()} },
		"util":   ud,
	}
	for name, mk := range policies {
		for _, variant := range []sched.Variant{sched.EASY, sched.Conservative} {
			for seed := int64(1); seed <= 3; seed++ {
				tr := denseTrace(seed, 32, 250)
				free := runWith(t, tr, variant, mk(), nil)
				pc, err := NewPowerCap(gears, pm, 1, 0, 0, false)
				if err != nil {
					t.Fatal(err)
				}
				capped := runWith(t, tr, variant, mk(), pc)
				if !free.equal(capped) {
					t.Errorf("%s/%v/seed%d: full-headroom cap changed the schedule", name, variant, seed)
				}
				if rep := pc.Report(); rep.Actuations != 0 {
					t.Errorf("%s/%v/seed%d: %d actuations at full headroom", name, variant, seed, rep.Actuations)
				} else if rep.Passes == 0 {
					t.Errorf("%s/%v/seed%d: controller never ran", name, variant, seed)
				}
			}
		}
	}
}

// boostLocal is a per-job policy with its own per-pass hook: it starts
// everything at the lowest gear and boosts running jobs to the top when
// the queue is deep. It exercises the two-slot controller seam.
type boostLocal struct{ gears dvfs.GearSet }

func (p boostLocal) Name() string { return "boost-local" }

func (p boostLocal) ReserveGear(j *workload.Job, start, now float64, wqOthers int) dvfs.Gear {
	return p.gears.Lowest()
}

func (p boostLocal) BackfillGear(j *workload.Job, now float64, wqOthers int, feasible func(dvfs.Gear) bool) (dvfs.Gear, bool) {
	for _, g := range p.gears {
		if feasible(g) {
			return g, true
		}
	}
	return dvfs.Gear{}, false
}

func (p boostLocal) Bind(*sched.System) {}

func (p boostLocal) ControlPass(sys *sched.System, now float64) {
	if sys.QueueLen() <= 2 {
		return
	}
	top := p.gears.Top()
	for _, rs := range sys.Running() {
		if rs.Gear != top {
			sys.SetGear(rs, top, now)
		}
	}
}

// A boosting policy and a full-headroom cap must compose neutrally: the
// policy's hook keeps running (it is not displaced by the explicit
// controller), its regears redefine the jobs' natural gears, and the
// controller neither undoes the boost nor issues any switch of its own.
func TestPowerCapComposesWithBoostingPolicy(t *testing.T) {
	gears := dvfs.PaperGearSet()
	pm := dvfs.PaperPowerModel()
	for seed := int64(1); seed <= 3; seed++ {
		tr := denseTrace(seed, 32, 250)
		free := runWith(t, tr, sched.EASY, boostLocal{gears}, nil)
		pc, err := NewPowerCap(gears, pm, 1, 0, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		capped := runWith(t, tr, sched.EASY, boostLocal{gears}, pc)
		if !free.equal(capped) {
			t.Errorf("seed %d: full-headroom cap perturbed the boosting policy", seed)
		}
		if rep := pc.Report(); rep.Actuations != 0 {
			t.Errorf("seed %d: controller fought the boost (%d actuations)", seed, rep.Actuations)
		}
		boosted := false
		for id, g := range free.endGear {
			if free.startGear[id] != g {
				boosted = true
				break
			}
		}
		if !boosted {
			t.Error("trace never triggered a boost; test is vacuous")
		}
	}
}

// A tight cap on a saturated machine must pull the tracked draw under
// the cap and hold it there: lower average draw than the uncapped run,
// bounded cap overshoot, and a dilated schedule (throttling costs time).
func TestPowerCapEnforcesCap(t *testing.T) {
	gears := dvfs.PaperGearSet()
	pm := dvfs.PaperPowerModel()
	tr := denseTrace(7, 64, 400)
	top := sched.FixedGear{Gear: gears.Top()}

	ref, err := NewPowerCap(gears, pm, 1, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	freeAudit := runWith(t, tr, sched.EASY, top, ref)

	pc, err := NewPowerCap(gears, pm, 0.6, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	cappedAudit := runWith(t, tr, sched.EASY, top, pc)

	rep := pc.Report()
	if rep.Actuations == 0 {
		t.Fatal("tight cap issued no gear switches")
	}
	if rep.AvgDraw > rep.Cap*1.05 {
		t.Errorf("average draw %v not held near cap %v", rep.AvgDraw, rep.Cap)
	}
	if refRep := ref.Report(); rep.AvgDraw >= refRep.AvgDraw {
		t.Errorf("capped average draw %v not below uncapped %v", rep.AvgDraw, refRep.AvgDraw)
	}
	if rep.OverFrac > 0.5 {
		t.Errorf("draw above cap %v of the time", rep.OverFrac)
	}
	var freeEnd, capEnd float64
	for _, e := range freeAudit.ends {
		if e > freeEnd {
			freeEnd = e
		}
	}
	for _, e := range cappedAudit.ends {
		if e > capEnd {
			capEnd = e
		}
	}
	if capEnd <= freeEnd {
		t.Errorf("capped makespan %v not dilated vs uncapped %v", capEnd, freeEnd)
	}
}

// Eco-only capping may only touch consenting jobs: with no Eco jobs in
// the trace the controller is inert even far over its cap; with every
// job consenting it throttles.
func TestPowerCapEcoOnly(t *testing.T) {
	gears := dvfs.PaperGearSet()
	pm := dvfs.PaperPowerModel()
	top := sched.FixedGear{Gear: gears.Top()}

	tr := denseTrace(11, 64, 300)
	free := runWith(t, tr, sched.EASY, top, nil)
	pc, err := NewPowerCap(gears, pm, 0.6, 0, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	inert := runWith(t, tr, sched.EASY, top, pc)
	if rep := pc.Report(); rep.Actuations != 0 {
		t.Errorf("eco-only cap throttled %d non-eco jobs", rep.Actuations)
	}
	if !free.equal(inert) {
		t.Error("eco-only cap with no eco jobs changed the schedule")
	}

	eco := denseTrace(11, 64, 300)
	for _, j := range eco.Jobs {
		j.Eco = true
	}
	pcEco, err := NewPowerCap(gears, pm, 0.6, 0, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	runWith(t, eco, sched.EASY, top, pcEco)
	if rep := pcEco.Report(); rep.Actuations == 0 {
		t.Error("eco-only cap never throttled a consenting job")
	}
}

// CloneController must copy configuration and drop bound state.
func TestPowerCapCloneIsUnbound(t *testing.T) {
	gears := dvfs.PaperGearSet()
	pm := dvfs.PaperPowerModel()
	pc, err := NewPowerCap(gears, pm, 0.6, 2, 0.1, true)
	if err != nil {
		t.Fatal(err)
	}
	runWith(t, denseTrace(3, 32, 150), sched.EASY, sched.FixedGear{Gear: gears.Top()}, pc)
	if pc.Meter() == nil || pc.Report().Passes == 0 {
		t.Fatal("original controller never bound")
	}
	clone, ok := pc.CloneController().(*PowerCap)
	if !ok {
		t.Fatal("clone type changed")
	}
	if clone.CapFrac != 0.6 || clone.Kp != 2 || clone.Ki != 0.1 || !clone.EcoOnly {
		t.Errorf("clone lost configuration: %+v", clone)
	}
	if clone.Meter() != nil || clone.Report().Passes != 0 || clone.Cap() != 0 {
		t.Error("clone carried bound state")
	}
}

// The utilization-driven policy re-homed onto the controller seam must
// reproduce its pre-refactor schedules. The digests were recorded from a
// scheduler build that also carried the seed-era implementation, where
// both produced exactly these schedules.
func TestUtilizationDrivenSeamCompat(t *testing.T) {
	want := map[int64]string{
		1: "321ff50234d84f1fc0cb6d67a4839bde967eee2e771a7281496653de0fa5648b",
		2: "3b5424a1b88f3a51045c32ab8b12e80cd4a048e920cef8c5a5411288addbb121",
		3: "dd0967fdfd200d374f6dbf82791deae34e1931fa9de1253d6e18b60e2de13353",
	}
	gears := dvfs.PaperGearSet()
	for seed := int64(1); seed <= 3; seed++ {
		pol, err := NewUtilizationDriven(gears, 0.3, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		audit := runWith(t, denseTrace(seed, 32, 250), sched.EASY, pol, nil)
		if got := audit.digest(); got != want[seed] {
			t.Errorf("seed %d: utilization-driven schedule digest %s, want %s", seed, got, want[seed])
		}
	}
}
