package experiments

// Shape assertions: the qualitative results of the paper (the claims
// RunChecks encodes in checks.go), checked on the shared shortened grid. These are the tests that fail if
// a change breaks the reproduction rather than just the plumbing.

import (
	"testing"

	"repro/internal/core"
)

func cellOf(t *testing.T, cfg Config) *Cell {
	t.Helper()
	c, err := testSuite().Cell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// Shape 1: computational energy never rises above the no-DVFS baseline
// (already asserted table-wide in TestFig3EnergyNeverAboveOneForIdleZero)
// and the saturated SDSC workload saves the least at the paper's central
// setting.
func TestShapeSDSCSavesLeast(t *testing.T) {
	savings := map[string]float64{}
	for _, w := range Workloads() {
		base := cellOf(t, Config{Workload: w})
		c := cellOf(t, Config{Workload: w, BSLDThr: 2, WQThr: core.NoWQLimit})
		savings[w] = 1 - c.Results.CompEnergy/base.Results.CompEnergy
	}
	for _, w := range Workloads() {
		if w == "SDSC" {
			continue
		}
		if savings["SDSC"] > savings[w] {
			t.Errorf("SDSC saves %.1f%% > %s's %.1f%% — saturated workload should save least",
				100*savings["SDSC"], w, 100*savings[w])
		}
	}
}

// Shape 2: for fixed BSLDthreshold, removing the wait-queue limit saves at
// least as much energy as the strictest limit.
func TestShapeWQRelaxationSaves(t *testing.T) {
	for _, w := range Workloads() {
		for _, thr := range BSLDThresholds() {
			strict := cellOf(t, Config{Workload: w, BSLDThr: thr, WQThr: 0})
			loose := cellOf(t, Config{Workload: w, BSLDThr: thr, WQThr: core.NoWQLimit})
			if loose.Results.CompEnergy > strict.Results.CompEnergy*1.02 {
				t.Errorf("%s thr=%g: WQ=NO energy %.4g above WQ=0 energy %.4g",
					w, thr, loose.Results.CompEnergy, strict.Results.CompEnergy)
			}
		}
	}
}

// Shape 3: frequency scaling does not improve performance — average BSLD
// under any policy setting is at least the baseline's (tiny tolerance for
// schedule reshuffling artifacts).
func TestShapeDVFSWorsensBSLD(t *testing.T) {
	for _, w := range Workloads() {
		base := cellOf(t, Config{Workload: w})
		for _, thr := range BSLDThresholds() {
			for _, wq := range WQThresholds() {
				c := cellOf(t, Config{Workload: w, BSLDThr: thr, WQThr: wq})
				if c.Results.AvgBSLD < base.Results.AvgBSLD*0.90 {
					t.Errorf("%s (%g,%d): avg BSLD %.2f markedly below baseline %.2f",
						w, thr, wq, c.Results.AvgBSLD, base.Results.AvgBSLD)
				}
			}
		}
	}
}

// Shape 4: enlarged systems — at the largest size, computational energy is
// well below the original and average BSLD is no worse.
func TestShapeEnlargementHelps(t *testing.T) {
	for _, w := range Workloads() {
		for _, wq := range []int{0, core.NoWQLimit} {
			base := cellOf(t, Config{Workload: w})
			orig := cellOf(t, Config{Workload: w, BSLDThr: 2, WQThr: wq, SizeFactor: 1})
			big := cellOf(t, Config{Workload: w, BSLDThr: 2, WQThr: wq, SizeFactor: 2.25})
			if big.Results.CompEnergy >= orig.Results.CompEnergy {
				t.Errorf("%s wq=%d: +125%% system comp energy %.4g not below original %.4g",
					w, wq, big.Results.CompEnergy, orig.Results.CompEnergy)
			}
			if big.Results.AvgBSLD > orig.Results.AvgBSLD*1.05 {
				t.Errorf("%s wq=%d: +125%% system BSLD %.2f worse than original %.2f",
					w, wq, big.Results.AvgBSLD, orig.Results.AvgBSLD)
			}
			// The paper's dimensioning pitch: bigger machine + DVFS at or
			// below the original baseline's energy with sane performance.
			if big.Results.CompEnergy >= base.Results.CompEnergy {
				t.Errorf("%s wq=%d: enlarged comp energy above no-DVFS baseline", w, wq)
			}
		}
	}
}

// Shape 5: the Eidle=low accounting eventually punishes enlargement — the
// largest machine is never the energy minimum for every workload (idle
// power of the extra processors wins at some point).
func TestShapeIdleLowInteriorMinimum(t *testing.T) {
	risingTail := 0
	for _, w := range Workloads() {
		var min, last float64
		for i, sf := range SizeFactors() {
			c := cellOf(t, Config{Workload: w, BSLDThr: 2, WQThr: core.NoWQLimit, SizeFactor: sf})
			e := c.Results.TotalEnergyLow
			if i == 0 || e < min {
				min = e
			}
			last = e
		}
		if last > min*1.01 {
			risingTail++
		}
	}
	if risingTail < 3 {
		t.Errorf("Eidle=low rose at +125%% for only %d of 5 workloads; expected the interior-minimum shape", risingTail)
	}
}

// Shape 6: the Figure 4 non-monotonicity — at least one workload reduces
// fewer jobs at a higher BSLD threshold (the paper highlights Thunder).
func TestShapeReducedJobsNonMonotone(t *testing.T) {
	found := false
	for _, w := range Workloads() {
		for _, wq := range WQThresholds() {
			lo := cellOf(t, Config{Workload: w, BSLDThr: 1.5, WQThr: wq})
			hi := cellOf(t, Config{Workload: w, BSLDThr: 2, WQThr: wq})
			if hi.Results.ReducedJobs < lo.Results.ReducedJobs {
				found = true
			}
		}
	}
	if !found {
		t.Error("no workload shows fewer reduced jobs at a higher threshold; Figure 4's key observation is gone")
	}
}

// The programmatic checklist must pass on the shared grid, and every
// check carries evidence text.
func TestRunChecksAllPass(t *testing.T) {
	checks, err := RunChecks(testSuite())
	if err != nil {
		t.Fatal(err)
	}
	if len(checks) < 8 {
		t.Fatalf("checks = %d, want >= 8", len(checks))
	}
	for _, c := range checks {
		if !c.Pass {
			t.Errorf("check failed: %s (%s)", c.Name, c.Detail)
		}
		if c.Detail == "" {
			t.Errorf("check %q has no evidence", c.Name)
		}
	}
}
