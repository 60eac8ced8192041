package sched

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/dvfs"
	"repro/internal/workload"
)

// indexScaleTrace is a saturating mix for a large machine: mostly one- or
// two-processor jobs, so hundreds run at once and classic EASY's release
// index outgrows a single chunk, plus rare wide jobs that block the queue
// head and force the shadow sweep.
func indexScaleTrace(seed int64, cpus, n int) *workload.Trace {
	r := rand.New(rand.NewSource(seed))
	tr := &workload.Trace{Name: "index-scale", CPUs: cpus}
	t := 0.0
	for i := 0; i < n; i++ {
		t += r.Float64() * 1.4
		procs := 1 + r.Intn(2)
		if r.Intn(100) == 0 {
			procs = cpus/16 + r.Intn(cpus/4)
		}
		rt := 1 + r.Float64()*600
		tr.Jobs = append(tr.Jobs, &workload.Job{
			ID: i + 1, Submit: t, Runtime: rt, Procs: procs,
			ReqTime: rt * (1 + r.Float64()*3), Beta: -1,
		})
	}
	return tr
}

// releaseProbe audits a system's release schedule after every pass: the
// chunked index keeps its ordering and size invariants and, once built,
// holds exactly one release per running job. It also records the peaks
// the fixture must reach to exercise chunk splits.
type releaseProbe struct {
	t        *testing.T
	sys      *System
	peakLen  int
	peakRun  int
	blocked  int
	checkIdx bool
}

func (p *releaseProbe) JobStarted(*RunState, float64)  {}
func (p *releaseProbe) JobFinished(*RunState, float64) {}

func (p *releaseProbe) PassEnd(now float64, queued, busy int) {
	if n := p.sys.runningCount(); n > p.peakRun {
		p.peakRun = n
	}
	if queued > 0 {
		p.blocked++
	}
	if !p.checkIdx || p.sys.relDirty {
		return
	}
	ix := &p.sys.relIdx
	if err := checkRelIndexInvariants(ix); err != nil {
		p.t.Fatalf("t=%v: %v", now, err)
	}
	if ix.len() != p.sys.runningCount() {
		p.t.Fatalf("t=%v: index holds %d releases, %d jobs running", now, ix.len(), p.sys.runningCount())
	}
	if ix.len() > p.peakLen {
		p.peakLen = ix.len()
	}
}

// TestEASYIndexMatchesReferencesAtScale is the differential test for
// classic EASY on the chunked release index at a size where it matters:
// a 1024-CPU machine under a standing queue keeps several hundred
// releases live, so the index splits and merges chunks while blocked
// passes sweep it. Every job must run exactly as in the reference
// simulator, whose shadow re-sorts the clamped releases on every pass.
// The boosting policy re-gears running jobs, which drives SetGear's
// remove-and-reinsert through the index.
func TestEASYIndexMatchesReferencesAtScale(t *testing.T) {
	const cpus, jobs = 1024, 3000
	gears := dvfs.PaperGearSet()
	policies := map[string]func() GearPolicy{
		"varying":  func() GearPolicy { return varyingPolicy{gears: gears} },
		"boosting": func() GearPolicy { return boostingPolicy{gears: gears} },
	}
	for pname, mk := range policies {
		t.Run(pname, func(t *testing.T) {
			cfg := Config{
				CPUs:      cpus,
				Gears:     gears,
				TimeModel: dvfs.NewTimeModel(0.5, gears),
				Policy:    mk(),
				Variant:   EASY,
			}
			tr := indexScaleTrace(5, cpus, jobs)
			rec := newAudit(t, cpus)
			probe := &releaseProbe{t: t, checkIdx: true}
			pcfg := cfg
			pcfg.Recorder = MultiRecorder{rec, probe}
			sys, err := New(pcfg)
			if err != nil {
				t.Fatal(err)
			}
			probe.sys = sys
			if err := sys.Simulate(tr); err != nil {
				t.Fatal(err)
			}
			if err := checkRelIndexInvariants(&sys.relIdx); err != nil {
				t.Fatalf("after the run: %v", err)
			}
			if len(rec.ends) != jobs {
				t.Fatalf("%d/%d jobs finished", len(rec.ends), jobs)
			}
			if probe.peakLen <= relChunkMax {
				t.Fatalf("index peaked at %d releases (%d running), want > %d to split chunks",
					probe.peakLen, probe.peakRun, relChunkMax)
			}
			if probe.blocked < jobs/10 {
				t.Fatalf("only %d passes left a queue; the fixture must keep EASY blocked", probe.blocked)
			}
			ref := newRefSim(cfg, nil)
			ref.run(tr.Jobs)
			for _, j := range tr.Jobs {
				if rec.starts[j.ID] != ref.starts[j.ID] || rec.ends[j.ID] != ref.ends[j.ID] {
					t.Fatalf("job %d ran [%v, %v], reference [%v, %v]",
						j.ID, rec.starts[j.ID], rec.ends[j.ID], ref.starts[j.ID], ref.ends[j.ID])
				}
			}
		})
	}
}

// countingGear is the fixed top-gear policy counting the feasibility
// checks it makes.
type countingGear struct {
	FixedGear
	checks int
}

func (p *countingGear) BackfillGear(j *workload.Job, now float64, wqOthers int, feasible func(dvfs.Gear) bool) (dvfs.Gear, bool) {
	p.checks++
	return p.Gear, feasible(p.Gear)
}

// blockedPassSystem builds a 64-CPU system mid-run whose queue head is
// blocked and whose backfill candidates each fit the free processors but
// can never start: they run far past the shadow time and are wider than
// the processors left over there. Every pass therefore reaches the
// backfill scan, asks the gear policy (which calls feasible) for every
// candidate, and leaves the system unchanged, so it can be repeated.
func blockedPassSystem(t *testing.T, pol *countingGear, resv, heads, candidates int) *System {
	t.Helper()
	gears := dvfs.PaperGearSet()
	sys, err := New(Config{
		CPUs: 64, Gears: gears,
		TimeModel:    dvfs.NewTimeModel(0.5, gears),
		Policy:       pol,
		Variant:      EASY,
		Reservations: resv,
	})
	if err != nil {
		t.Fatal(err)
	}
	id := 0
	job := func(procs int, req float64) *workload.Job {
		id++
		return &workload.Job{ID: id, Procs: procs, Runtime: req, ReqTime: req, Beta: -1}
	}
	// Eight running jobs of 7 processors leave 8 free.
	for k := 0; k < 8; k++ {
		sys.start(job(7, float64(100*(k+1))), gears.Top(), 0)
	}
	for k := 0; k < heads; k++ {
		sys.queue = append(sys.queue, job(60, 50))
	}
	for k := 0; k < candidates; k++ {
		sys.queue = append(sys.queue, job(8, 1e5))
	}
	return sys
}

// TestBlockedPassesAllocateNothing pins the allocation-free steady state
// of blocked passes: once the release schedule (and, for flexible EASY,
// the persistent profile) exists, neither a classic EASY pass nor a
// flexible pass that reaches the backfill branch may allocate, however
// many candidates ask the gear policy for a feasible gear.
func TestBlockedPassesAllocateNothing(t *testing.T) {
	cases := []struct {
		name               string
		resv, heads, cands int
	}{
		{"easy", 0, 1, 12},
		{"flexible-4", 4, 4, 12},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pol := &countingGear{FixedGear: FixedGear{Gear: dvfs.PaperGearSet().Top()}}
			sys := blockedPassSystem(t, pol, tc.resv, tc.heads, tc.cands)
			qlen, running := len(sys.queue), sys.runningCount()
			const runs = 50
			allocs := testing.AllocsPerRun(runs, func() { sys.pass(0) })
			if len(sys.queue) != qlen || sys.runningCount() != running {
				t.Fatalf("fixture pass changed the system: queue %d -> %d, running %d -> %d",
					qlen, len(sys.queue), running, sys.runningCount())
			}
			// AllocsPerRun adds one warm-up call to the measured runs.
			if want := (runs + 1) * tc.cands; pol.checks != want {
				t.Fatalf("gear policy checked %d candidates, want %d: the passes must reach the backfill scan",
					pol.checks, want)
			}
			if allocs != 0 {
				t.Errorf("blocked pass allocates %v times, want 0", allocs)
			}
		})
	}
}

// TestReleaseScheduleGoesStaleUnderChurn pins relStale's bound: once
// read, the schedule takes ordered updates until the mutations since that
// read exceed a sixteenth of its size plus relChurnSlack, then turns
// dirty and skips the rest of the burst; the next read rebuilds exactly
// the (PlannedEnd, id) order the updates would have produced, and a fresh
// budget starts from there.
func TestReleaseScheduleGoesStaleUnderChurn(t *testing.T) {
	const jobs = 400
	running := make([]runningSpec, jobs)
	for i := range running {
		running[i] = runningSpec{cpus: 1, end: float64(1 + (i*7)%jobs)}
	}
	sys := buildVariantSystem(t, 512, EASY, running)
	read := func() []release {
		var out []release
		for _, ch := range sys.releaseIndex().chunks {
			out = append(out, ch...)
		}
		return out
	}
	want := func() []release {
		var out []release
		for _, rs := range sys.runList {
			out = append(out, release{t: rs.PlannedEnd, cpus: rs.Job.Procs, id: rs.Job.ID})
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].t != out[j].t {
				return out[i].t < out[j].t
			}
			return out[i].id < out[j].id
		})
		return out
	}
	// regear moves one job's planned end the way SetGear does: two
	// mutations, a remove and an insert.
	regear := func(k int) {
		rs := sys.runList[k%jobs]
		if err := sys.relRemove(rs); err != nil {
			t.Fatal(err)
		}
		rs.PlannedEnd += 1000
		sys.relAdd(rs)
	}
	// A regear's insert sees the schedule one release short.
	budget := (jobs-1)/16 + relChurnSlack
	for round := 0; round < 2; round++ {
		if got := read(); !slices.Equal(got, want()) {
			t.Fatalf("round %d: read returned a schedule that differs from the run list", round)
		}
		k := 0
		for ; 2*(k+1) <= budget; k++ {
			regear(k + round*jobs/2)
		}
		if sys.relDirty {
			t.Fatalf("round %d: dirty after %d mutations, budget %d", round, 2*k, budget)
		}
		if got := read(); !slices.Equal(got, want()) {
			t.Fatalf("round %d: ordered updates diverged from the run list", round)
		}
		for m := 0; m < budget; m++ {
			regear(m + round*jobs/2)
		}
		if !sys.relDirty {
			t.Fatalf("round %d: still maintained after %d unread mutations, budget %d", round, 2*budget, budget)
		}
	}
	if got := read(); !slices.Equal(got, want()) {
		t.Fatal("rebuild after the burst differs from the run list")
	}
}
