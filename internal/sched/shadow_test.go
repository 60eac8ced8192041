package sched

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dvfs"
	"repro/internal/profile"
	"repro/internal/workload"
)

// buildRunningSystem constructs a System mid-simulation: `running` jobs
// hold processors with the given planned ends. It bypasses the event loop
// so the shadow computation can be probed directly.
func buildRunningSystem(t *testing.T, total int, running []struct {
	cpus int
	end  float64
}) *System {
	t.Helper()
	gears := dvfs.PaperGearSet()
	sys, err := New(Config{
		CPUs: total, Gears: gears,
		TimeModel: dvfs.NewTimeModel(0.5, gears),
		Policy:    FixedGear{Gear: gears.Top()},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range running {
		alloc, err := sys.cl.Allocate(r.cpus, 0)
		if err != nil {
			t.Fatalf("setup allocation: %v", err)
		}
		sys.runList = append(sys.runList, &RunState{
			Job:        &workload.Job{ID: i + 1, Procs: r.cpus, Runtime: r.end, ReqTime: r.end, Beta: -1},
			Gear:       gears.Top(),
			PlannedEnd: r.end,
			Alloc:      alloc,
		})
	}
	return sys
}

// The availability profile is an independent oracle for the shadow time:
// with only running jobs, availability is non-decreasing, so the shadow
// time equals the earliest start of a job needing `procs` processors for
// an arbitrarily long duration.
func TestShadowMatchesProfileOracle(t *testing.T) {
	r := rand.New(rand.NewSource(4242))
	const horizon = 1e7
	for trial := 0; trial < 300; trial++ {
		total := 2 + r.Intn(30)
		n := r.Intn(8)
		var running []struct {
			cpus int
			end  float64
		}
		used := 0
		for i := 0; i < n && used < total; i++ {
			c := 1 + r.Intn(total-used)
			running = append(running, struct {
				cpus int
				end  float64
			}{c, float64(1 + r.Intn(1000))})
			used += c
		}
		sys := buildRunningSystem(t, total, running)
		head := &workload.Job{ID: 99, Procs: 1 + r.Intn(total), Runtime: 10, ReqTime: 10, Beta: -1}

		gotShadow, gotExtra := sys.shadow(head, 0)

		prof := profile.New(total)
		for _, rs := range sys.runList {
			prof.Add(profile.Entry{Start: 0, End: rs.PlannedEnd, CPUs: rs.Job.Procs})
		}
		wantShadow := prof.EarliestStart(head.Procs, horizon, 0)
		if math.Abs(gotShadow-wantShadow) > 1e-9 {
			t.Fatalf("trial %d: shadow %v, oracle %v (total=%d, head=%d, running=%+v)",
				trial, gotShadow, wantShadow, total, head.Procs, running)
		}
		// Extra processors: free capacity at the shadow instant beyond
		// the head's need. The profile sees releases at exactly shadowT
		// as done (intervals are half-open), matching the engine.
		wantExtra := prof.Total - prof.UsedAt(gotShadow) - head.Procs
		if gotExtra != wantExtra {
			t.Fatalf("trial %d: extra %d, oracle %d", trial, gotExtra, wantExtra)
		}
		// Release all setup allocations to keep the cluster consistent.
		for _, rs := range sys.runList {
			if err := sys.cl.Release(rs.Alloc, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// A backfill accepted by the engine must keep the head's oracle start
// unchanged; this replays full simulations and verifies every head start
// against the strongest EASY guarantee: the head never starts later than
// the shadow time computed when it reached the queue head, as long as no
// running job exceeds its kill limit (they cannot, by construction).
func TestHeadNeverBeyondInitialShadow(t *testing.T) {
	gears := dvfs.PaperGearSet()
	for seed := int64(0); seed < 6; seed++ {
		shadowAt := map[int]float64{} // job ID -> shadow bound when first head
		rec := &headShadowRecorder{t: t, bounds: shadowAt}
		sys, err := New(Config{
			CPUs: 16, Gears: gears,
			TimeModel: dvfs.NewTimeModel(0.5, gears),
			Policy:    FixedGear{Gear: gears.Top()},
			Variant:   EASY,
			Recorder:  rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		rec.sys = sys
		tr := randomTrace(seed+500, 16, 150)
		if err := sys.Simulate(tr); err != nil {
			t.Fatal(err)
		}
	}
}

// headShadowRecorder snapshots the shadow bound for the queue head after
// every start, then asserts actual starts respect the bound.
type headShadowRecorder struct {
	t      *testing.T
	sys    *System
	bounds map[int]float64
}

func (h *headShadowRecorder) JobStarted(rs *RunState, now float64) {
	if bound, ok := h.bounds[rs.Job.ID]; ok && now > bound+1e-6 {
		h.t.Errorf("job %d started at %v, after its reservation bound %v", rs.Job.ID, now, bound)
	}
	// After this start, record/refresh the bound for the current head.
	if h.sys.QueueLen() > 0 {
		head := h.sys.queue[0]
		shadow, _ := h.sys.shadow(head, now)
		// The bound can only move earlier on early completions; keep the
		// smallest observed.
		if prev, ok := h.bounds[head.ID]; !ok || shadow < prev {
			h.bounds[head.ID] = shadow
		}
	}
}

func (h *headShadowRecorder) JobFinished(rs *RunState, now float64) {
	if h.sys.QueueLen() > 0 {
		head := h.sys.queue[0]
		shadow, _ := h.sys.shadow(head, now)
		if prev, ok := h.bounds[head.ID]; !ok || shadow < prev {
			h.bounds[head.ID] = shadow
		}
	}
}
