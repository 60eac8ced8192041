package sched

import (
	"testing"

	"repro/internal/dvfs"
	"repro/internal/workload"
)

// runningSpec is one running job held by a shadow edge-case fixture.
type runningSpec struct {
	cpus int
	end  float64
}

// buildVariantSystem constructs a System mid-simulation like
// buildRunningSystem, but for any variant (New starts the release
// schedule dirty, so the white-box run list is picked up).
func buildVariantSystem(t *testing.T, total int, variant Variant, running []runningSpec) *System {
	t.Helper()
	gears := dvfs.PaperGearSet()
	sys, err := New(Config{
		CPUs: total, Gears: gears,
		TimeModel: dvfs.NewTimeModel(0.5, gears),
		Policy:    FixedGear{Gear: gears.Top()},
		Variant:   variant,
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

// TestShadowEdgeCasesPinnedAgainstSeed pins the shadow sweep over the
// chunked release index against the reference simulator's seed-style
// shadow (rebuild the release list, clamp, sort) on the boundary shapes
// where the clamp and the equal-time grouping interact:
//
//   - every release at or before now, so the whole schedule clamps onto
//     one shared instant (math.Nextafter(now, +inf));
//   - a head job larger than any release prefix, so the sweep must
//     consume the entire schedule;
//   - an equal-time release group spanning the availability threshold,
//     whose tail must still count toward the extra-processor pool;
//   - the head already fitting, where no release may be consumed.
func TestShadowEdgeCasesPinnedAgainstSeed(t *testing.T) {
	cases := []struct {
		name      string
		total     int
		running   []runningSpec
		headProcs int
		now       float64
	}{
		{
			// All three planned ends are <= now: each clamps to the same
			// one-ulp-after-now instant, forming a single release group.
			name:  "all-clamped-to-now",
			total: 16,
			running: []runningSpec{
				{cpus: 4, end: 10}, {cpus: 6, end: 55}, {cpus: 6, end: 100},
			},
			headProcs: 12,
			now:       100,
		},
		{
			// The head needs the whole machine: no proper release prefix
			// frees enough, so the sweep runs off the end of the schedule.
			name:  "head-larger-than-any-prefix",
			total: 16,
			running: []runningSpec{
				{cpus: 2, end: 20}, {cpus: 3, end: 40}, {cpus: 5, end: 60}, {cpus: 6, end: 80},
			},
			headProcs: 16,
			now:       5,
		},
		{
			// Five releases share t=50; availability crosses the head's
			// need mid-group, and the group's tail still counts as extra.
			name:  "equal-time-group-spans-threshold",
			total: 20,
			running: []runningSpec{
				{cpus: 4, end: 50}, {cpus: 4, end: 50}, {cpus: 4, end: 50},
				{cpus: 4, end: 50}, {cpus: 4, end: 50},
			},
			headProcs: 6,
			now:       10,
		},
		{
			// Equal-time group at the clamp instant: two jobs at their
			// kill limit plus one strictly-later release; the head fits
			// after the clamped group alone.
			name:  "clamped-group-plus-future-release",
			total: 12,
			running: []runningSpec{
				{cpus: 4, end: 30}, {cpus: 4, end: 30}, {cpus: 4, end: 90},
			},
			headProcs: 8,
			now:       30,
		},
		{
			// The head fits right now: the sweep must consume nothing and
			// report the shadow at now itself.
			name:  "head-fits-immediately",
			total: 16,
			running: []runningSpec{
				{cpus: 4, end: 25}, {cpus: 4, end: 25},
			},
			headProcs: 8,
			now:       3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			head := &workload.Job{ID: 999, Procs: tc.headProcs, Runtime: 10, ReqTime: 10, Beta: -1}

			ref := &refSim{now: tc.now, free: tc.total}
			for i, r := range tc.running {
				ref.free -= r.cpus
				ref.running = append(ref.running, &refJob{
					job:        &workload.Job{ID: i + 1, Procs: r.cpus},
					plannedEnd: r.end,
				})
			}
			wantT, wantExtra := ref.shadow(head)

			for _, variant := range []Variant{EASY, Conservative} {
				sys := buildVariantSystem(t, tc.total, variant, tc.running)
				gotT, gotExtra := sys.shadow(head, tc.now)
				if gotT != wantT || gotExtra != wantExtra {
					t.Errorf("%v: shadow = (%v, %d), reference (%v, %d)",
						variant, gotT, gotExtra, wantT, wantExtra)
				}
				if err := checkRelIndexInvariants(&sys.relIdx); err != nil {
					t.Errorf("%v: %v", variant, err)
				}
				// The sweep must not mutate the schedule: a second call
				// answers identically (the index is built once, then serves
				// repeated sweeps in place).
				gotT2, gotExtra2 := sys.shadow(head, tc.now)
				if gotT2 != gotT || gotExtra2 != gotExtra {
					t.Errorf("%v: second sweep diverged: (%v, %d) then (%v, %d)",
						variant, gotT, gotExtra, gotT2, gotExtra2)
				}
			}

			// Shadow time semantics: strictly after now whenever at least
			// one release was consumed, exactly now otherwise.
			free := tc.total
			for _, r := range tc.running {
				free -= r.cpus
			}
			if free >= tc.headProcs {
				if wantT != tc.now {
					t.Errorf("head fits now but shadow = %v, want now = %v", wantT, tc.now)
				}
			} else if wantT <= tc.now {
				t.Errorf("blocked head got shadow %v, want > now = %v", wantT, tc.now)
			}
		})
	}
}
