package metrics

import (
	"math"
	"testing"

	"repro/internal/dvfs"
	"repro/internal/sched"
	"repro/internal/workload"
)

func collectorWith(t *testing.T, jobs []struct {
	procs   int
	runtime float64
	wait    float64
	gear    dvfs.Gear
}) *Collector {
	t.Helper()
	pm := dvfs.PaperPowerModel()
	c := NewCollector(pm, 600)
	tm := dvfs.NewTimeModel(0.5, pm.Gears)
	for i, spec := range jobs {
		j := &workload.Job{
			ID: i + 1, Submit: 0, Runtime: spec.runtime, Procs: spec.procs,
			ReqTime: spec.runtime, Beta: -1,
		}
		dur := tm.Dilate(spec.runtime, spec.gear)
		rs, end := finishedState(j, spec.wait, []sched.Phase{{Gear: spec.gear, Dur: dur}})
		c.JobStarted(rs, spec.wait)
		c.JobFinished(rs, end)
	}
	return c
}

func TestPercentiles(t *testing.T) {
	pm := dvfs.PaperPowerModel()
	c := NewCollector(pm, 600)
	top := pm.Gears.Top()
	for i := 1; i <= 100; i++ {
		j := &workload.Job{ID: i, Submit: 0, Runtime: 10, Procs: 1, ReqTime: 10, Beta: -1}
		rs, end := finishedState(j, float64(i), []sched.Phase{{Gear: top, Dur: 10}})
		c.JobStarted(rs, float64(i))
		c.JobFinished(rs, end)
	}
	p, err := c.WaitPercentiles()
	if err != nil {
		t.Fatal(err)
	}
	if p.P50 != 50 || p.P90 != 90 || p.P95 != 95 || p.P99 != 99 || p.Max != 100 {
		t.Errorf("percentiles = %+v", p)
	}
	b, err := c.BSLDPercentiles()
	if err != nil {
		t.Fatal(err)
	}
	if b.P50 < 1 || b.Max < b.P50 {
		t.Errorf("BSLD percentiles inconsistent: %+v", b)
	}
}

func TestPercentilesEmpty(t *testing.T) {
	c := NewCollector(dvfs.PaperPowerModel(), 600)
	if p, err := c.WaitPercentiles(); err != nil || p.Max != 0 {
		t.Errorf("empty percentiles = %+v (err %v)", p, err)
	}
}

func TestEnergyDelayProduct(t *testing.T) {
	r := Results{CompEnergy: 100, AvgBSLD: 2.5}
	if got := r.EnergyDelayProduct(); got != 250 {
		t.Errorf("EDP = %v, want 250", got)
	}
}

func TestClassify(t *testing.T) {
	top := dvfs.PaperGearSet().Top()
	cases := []struct {
		procs   int
		runtime float64
		want    JobClass
	}{
		{1, 100, ShortJobs},
		{64, 100, ShortJobs},
		{1, 7200, LongSerial},
		{4, 7200, LongNarrow}, // 4*16=64 <= 128
		{8, 7200, LongNarrow}, // 8*16=128 <= 128
		{9, 7200, LongWide},   // 9*16=144 > 128
		{128, 7200, LongWide},
	}
	for _, cse := range cases {
		rec := &JobRecord{Job: &workload.Job{Procs: cse.procs, Runtime: cse.runtime, ReqTime: cse.runtime}, FinalGear: top}
		if got := classify(rec, 128, 600); got != cse.want {
			t.Errorf("classify(procs=%d, rt=%v) = %v, want %v", cse.procs, cse.runtime, got, cse.want)
		}
	}
}

func TestBreakdown(t *testing.T) {
	gears := dvfs.PaperGearSet()
	c := collectorWith(t, []struct {
		procs   int
		runtime float64
		wait    float64
		gear    dvfs.Gear
	}{
		{1, 100, 0, gears.Top()},     // short
		{1, 100, 10, gears.Lowest()}, // short, reduced
		{1, 7200, 100, gears.Top()},  // long-serial
		{4, 7200, 200, gears.Top()},  // long-narrow on 128
		{64, 7200, 300, gears.Top()}, // long-wide on 128
	})
	bd, err := c.Breakdown(128)
	if err != nil {
		t.Fatal(err)
	}
	if bd[ShortJobs].Jobs != 2 || bd[ShortJobs].Reduced != 1 {
		t.Errorf("short = %+v", bd[ShortJobs])
	}
	if bd[LongSerial].Jobs != 1 || bd[LongNarrow].Jobs != 1 || bd[LongWide].Jobs != 1 {
		t.Errorf("long classes = %+v %+v %+v", bd[LongSerial], bd[LongNarrow], bd[LongWide])
	}
	// Energy shares sum to 1 over present classes.
	sum := 0.0
	for _, cl := range Classes() {
		sum += bd[cl].EnergyShare
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("energy shares sum to %v", sum)
	}
	// The wide long job dominates energy on this mix.
	if bd[LongWide].EnergyShare < 0.8 {
		t.Errorf("wide share = %v, want dominant", bd[LongWide].EnergyShare)
	}
	if bd[LongSerial].AvgWait != 100 {
		t.Errorf("long-serial wait = %v", bd[LongSerial].AvgWait)
	}
}

func TestClassStrings(t *testing.T) {
	want := map[JobClass]string{
		ShortJobs: "short", LongSerial: "long-serial",
		LongNarrow: "long-narrow", LongWide: "long-wide",
	}
	for cl, s := range want {
		if cl.String() != s {
			t.Errorf("%d.String() = %q", cl, cl.String())
		}
	}
	if JobClass(99).String() != "unknown" {
		t.Error("unknown class string")
	}
}

// The per-job analyses must fail loudly on a streaming collector instead
// of silently reporting all-zero results (the regression PR 3 introduced
// when streaming became the default).
func TestAnalysesRejectStreamingCollector(t *testing.T) {
	c := NewStreamingCollector(dvfs.PaperPowerModel(), 600)
	if _, err := c.WaitPercentiles(); err != ErrStreaming {
		t.Errorf("WaitPercentiles err = %v, want ErrStreaming", err)
	}
	if _, err := c.BSLDPercentiles(); err != ErrStreaming {
		t.Errorf("BSLDPercentiles err = %v, want ErrStreaming", err)
	}
	if _, err := c.Breakdown(128); err != ErrStreaming {
		t.Errorf("Breakdown err = %v, want ErrStreaming", err)
	}
}
