package sched

import (
	"math"
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
// buildRunningSystem, but for any variant/compat combination, so the
// shadow sweep can be probed over the slice cache, the chunked index and
// the seed rebuild alike (every variant is index-backed unless
// Compat.SliceReleases is set; New starts the schedule dirty, so the
// white-box run list is picked up).
func buildVariantSystem(t *testing.T, total int, variant Variant, compat Compat, running []runningSpec) *System {
	t.Helper()
	gears := dvfs.PaperGearSet()
	sys, err := New(Config{
		CPUs: total, Gears: gears,
		TimeModel: dvfs.NewTimeModel(0.5, gears),
		Policy:    FixedGear{Gear: gears.Top()},
		Variant:   variant,
		Compat:    compat,
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

// TestShadowEdgeCasesPinnedAgainstSeed pins the optimized shadow sweeps —
// the chunked release index (the default under every variant) and the
// flat sorted slice (Compat.SliceReleases) — against the seed-era
// rebuild-clamp-sort reference on the boundary shapes where the clamp and
// the equal-time grouping interact:
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

			// Seed reference: rebuild, clamp, sort on a scratch system.
			seedSys := buildVariantSystem(t, tc.total, EASY, Compat{ScratchAlloc: true}, tc.running)
			wantT, wantExtra := seedSys.shadow(head, tc.now)

			paths := []struct {
				name    string
				variant Variant
				compat  Compat
				indexed bool
			}{
				{"easy-index", EASY, Compat{}, true},
				{"easy-slice-releases", EASY, Compat{SliceReleases: true}, false},
				{"index", Conservative, Compat{}, true},
				{"compat-slice-releases", Conservative, Compat{SliceReleases: true}, false},
			}
			for _, p := range paths {
				sys := buildVariantSystem(t, tc.total, p.variant, p.compat, tc.running)
				if sys.relIndexed != p.indexed {
					t.Fatalf("%s: relIndexed = %v, want %v", p.name, sys.relIndexed, p.indexed)
				}
				gotT, gotExtra := sys.shadow(head, tc.now)
				if math.Abs(gotT-wantT) > 0 || gotExtra != wantExtra {
					t.Errorf("%s: shadow = (%v, %d), seed reference (%v, %d)",
						p.name, gotT, gotExtra, wantT, wantExtra)
				}
				if p.indexed {
					if err := checkRelIndexInvariants(&sys.relIdx); err != nil {
						t.Errorf("%s: %v", p.name, err)
					}
				}
				// The sweep must not mutate the schedule: a second call
				// answers identically (both schedules are built once, then
				// serve repeated sweeps in place).
				gotT2, gotExtra2 := sys.shadow(head, tc.now)
				if gotT2 != gotT || gotExtra2 != gotExtra {
					t.Errorf("%s: second sweep diverged: (%v, %d) then (%v, %d)",
						p.name, gotT, gotExtra, gotT2, gotExtra2)
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
