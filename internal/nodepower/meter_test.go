package nodepower

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dvfs"
	"repro/internal/sched"
	"repro/internal/workload"
)

// The meter's O(1) accumulators must integrate to exactly what the
// post-hoc Evaluate replay reports. Random lifecycle schedules — starts,
// finishes, gear switches, and jobs left running at the window end (the
// still-open-interval edge fixed in PR 3) — are fed to a tracker and a
// meter from the same callbacks; the meter's idle energy is then compared against Evaluate
// with an infinite power-down delay (pure idle-power accounting), its
// busy bookkeeping against the tracker's interval record, and its
// active energy against a test-side replay of the same event sequence.
// Tolerances are float tolerances, not bitwise: the two sides sum the
// same terms in different orders.
func TestMeterMatchesEvaluateRandomized(t *testing.T) {
	pm := dvfs.PaperPowerModel()
	gears := pm.Gears
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		total := 8 + rng.Intn(24)
		tr := NewTracker(total)
		m := NewMeter(total, pm)

		type liveJob struct {
			rs      *sched.RunState
			gearIdx int
		}
		var free []int
		for i := 0; i < total; i++ {
			free = append(free, i)
		}
		var live []*liveJob
		now, lastT := 0.0, 0.0
		wantActive := 0.0
		id := 0
		advance := func(to float64) {
			draw := 0.0
			for _, l := range live {
				draw += float64(l.rs.Job.Procs) * pm.Active(gears[l.gearIdx])
			}
			wantActive += draw * (to - lastT)
			lastT = to
		}
		start := func(at float64) {
			procs := 1 + rng.Intn(3)
			if procs > len(free) {
				procs = len(free)
			}
			ids := append([]int(nil), free[:procs]...)
			free = free[procs:]
			id++
			gi := rng.Intn(len(gears))
			rs := &sched.RunState{
				Job:   &workload.Job{ID: id, Procs: procs},
				Gear:  gears[gi],
				Alloc: cluster.AllocOf(ids...),
			}
			advance(at)
			tr.JobStarted(rs, at)
			m.JobStarted(rs, at)
			live = append(live, &liveJob{rs: rs, gearIdx: gi})
		}
		for ev := 0; ev < 400; ev++ {
			now += rng.Float64() * 25
			switch op := rng.Intn(3); {
			case op == 0 && len(free) > 0:
				start(now)
			case op == 1 && len(live) > 0:
				k := rng.Intn(len(live))
				l := live[k]
				advance(now)
				tr.JobFinished(l.rs, now)
				m.JobFinished(l.rs, now)
				for _, r := range l.rs.Alloc.Runs {
					for p := r.Lo; p <= r.Hi; p++ {
						free = append(free, p)
					}
				}
				live = append(live[:k], live[k+1:]...)
			case op == 2 && len(live) > 0:
				k := rng.Intn(len(live))
				l := live[k]
				advance(now) // integrate the old gear up to the switch first
				old := gears[l.gearIdx]
				l.gearIdx = rng.Intn(len(gears))
				l.rs.Gear = gears[l.gearIdx]
				m.JobRegeared(l.rs, old, now) // occupancy intervals are gear-agnostic
			}
		}
		// Final event: a start that pushes the tracker's window end and is
		// never finished, so the run ends with open intervals — the meter
		// and the replay must both treat them as busy through the end.
		now += 1 + rng.Float64()
		if len(free) == 0 {
			l := live[0]
			advance(now)
			tr.JobFinished(l.rs, now)
			m.JobFinished(l.rs, now)
			for _, r := range l.rs.Alloc.Runs {
				for p := r.Lo; p <= r.Hi; p++ {
					free = append(free, p)
				}
			}
			live = live[1:]
		}
		start(now)

		if got, want := m.Frontier(), now; got != want {
			t.Fatalf("seed %d: meter frontier %v, want %v", seed, got, want)
		}
		busy := 0
		for _, l := range live {
			busy += l.rs.Job.Procs
		}
		if m.BusyCPUs() != busy {
			t.Fatalf("seed %d: meter busy %d, want %d", seed, m.BusyCPUs(), busy)
		}

		// Idle energy: Evaluate with an infinite delay charges every idle
		// gap at idle power and nothing else — the post-hoc form of the
		// meter's (total − busy)·P_idle·dt accumulation over [0, end].
		rep, err := tr.Evaluate(Policy{IdleOffDelay: math.MaxFloat64}, pm, 0)
		if err != nil {
			t.Fatal(err)
		}
		tol := 1e-9 * (1 + rep.IdleEnergy)
		if diff := math.Abs(m.IdleEnergy() - rep.IdleEnergy); diff > tol {
			t.Errorf("seed %d: meter idle energy %v, Evaluate %v (diff %g)",
				seed, m.IdleEnergy(), rep.IdleEnergy, diff)
		}
		// Busy seconds cross-check the same window bookkeeping.
		wantBusySec := tr.BusyCPUSeconds()
		gotBusySec := (float64(total)*now - (m.IdleEnergy() / pm.Idle()))
		if diff := math.Abs(gotBusySec - wantBusySec); diff > 1e-9*(1+wantBusySec) {
			t.Errorf("seed %d: meter-implied busy %v, tracker %v", seed, gotBusySec, wantBusySec)
		}
		// Active energy against the replayed integral.
		if diff := math.Abs(m.ActiveEnergy() - wantActive); diff > 1e-9*(1+wantActive) {
			t.Errorf("seed %d: meter active energy %v, replay %v", seed, m.ActiveEnergy(), wantActive)
		}
		// Draw is the instantaneous decomposition of the same state.
		wantDraw := float64(total-busy) * pm.Idle()
		for _, l := range live {
			wantDraw += float64(l.rs.Job.Procs) * pm.Active(gears[l.gearIdx])
		}
		if diff := math.Abs(m.Draw() - wantDraw); diff > 1e-9*(1+wantDraw) {
			t.Errorf("seed %d: draw %v, want %v", seed, m.Draw(), wantDraw)
		}
	}
}

// A tracker and a meter riding the same real simulation (with mid-run
// gear switches) must agree: the meter's integral with the post-hoc
// replay of the tracker's record.
func TestMeterOnRealSimulation(t *testing.T) {
	pm := dvfs.PaperPowerModel()
	gears := pm.Gears
	tr := NewTracker(16)
	m := NewMeter(16, pm)
	sys, err := sched.New(sched.Config{
		CPUs: 16, Gears: gears,
		TimeModel:  dvfs.NewTimeModel(defaultBeta, gears),
		Policy:     sched.FixedGear{Gear: gears.Lowest()},
		Variant:    sched.EASY,
		Recorder:   sched.MultiRecorder{tr, m},
		Controller: boostAll{gears: gears},
	})
	if err != nil {
		t.Fatal(err)
	}
	trace := &workload.Trace{Name: "m", CPUs: 16}
	rng := rand.New(rand.NewSource(3))
	sub := 0.0
	for i := 1; i <= 300; i++ {
		sub += rng.Float64() * 40
		trace.Jobs = append(trace.Jobs, &workload.Job{
			ID: i, Submit: sub, Runtime: 50 + rng.Float64()*900,
			Procs: 1 + rng.Intn(8), ReqTime: 1200, Beta: -1,
		})
	}
	if err := sys.Simulate(trace); err != nil {
		t.Fatal(err)
	}
	rep, err := tr.Evaluate(Policy{IdleOffDelay: math.MaxFloat64}, pm, 0)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(m.IdleEnergy() - rep.IdleEnergy); diff > 1e-9*(1+rep.IdleEnergy) {
		t.Errorf("meter idle energy %v, Evaluate %v", m.IdleEnergy(), rep.IdleEnergy)
	}
	if m.ActiveEnergy() <= 0 {
		t.Error("no active energy metered")
	}
	// The active-draw accumulator returns to zero modulo float dust from
	// the +=/−= round trips, so the drained machine sits at the idle
	// floor within tolerance.
	if m.BusyCPUs() != 0 || math.Abs(m.Draw()-16*pm.Idle()) > 1e-6 {
		t.Errorf("drained machine still drawing: busy=%d draw=%v", m.BusyCPUs(), m.Draw())
	}
}

// boostAll raises every running job to the top gear whenever anything
// waits, so the real-simulation differential exercises JobRegeared.
type boostAll struct{ gears dvfs.GearSet }

func (b boostAll) Name() string           { return "boost-all" }
func (b boostAll) Bind(sys *sched.System) {}
func (b boostAll) ControlPass(sys *sched.System, now float64) {
	if sys.QueueLen() == 0 {
		return
	}
	for _, rs := range sys.Running() {
		sys.SetGear(rs, b.gears.Top(), now)
	}
}
