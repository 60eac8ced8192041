package repro

// One benchmark per table and figure of the paper's evaluation, plus
// engine-throughput benches and ablations of the implementation's design
// decisions (each ablation's comment names the decision and its reason).
// Each artifact bench rebuilds its table from the shared
// simulation grid (warmed once outside the timed region) and reports the
// headline quantity through b.ReportMetric; run with -v to see the full
// rows, or use cmd/experiments for the canonical reproduction.

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sweep"
	"repro/internal/textplot"
	"repro/internal/wgen"
	"repro/internal/workload"
)

var (
	gridOnce  sync.Once
	gridSuite *experiments.Suite
	gridErr   error
)

// grid returns the fully-warmed 5000-job simulation grid, built once per
// test binary invocation.
func grid(b *testing.B) *experiments.Suite {
	b.Helper()
	gridOnce.Do(func() {
		gridSuite = experiments.NewSuite(0)
		gridErr = gridSuite.Prefetch(experiments.GridConfigs(), 0)
	})
	if gridErr != nil {
		b.Fatal(gridErr)
	}
	return gridSuite
}

func logTable(b *testing.B, t textplot.Table) {
	b.Helper()
	b.Logf("\n%s", t.Render())
}

func BenchmarkTable1Workloads(b *testing.B) {
	s := grid(b)
	var t textplot.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = experiments.Table1(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t)
	base, err := s.Cell(experiments.Config{Workload: "SDSC"})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(base.Results.AvgBSLD, "SDSC-avgBSLD")
}

func BenchmarkTable2GearSet(b *testing.B) {
	var t textplot.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Table2()
	}
	logTable(b, t)
	b.ReportMetric(100*dvfs.PaperPowerModel().IdleFraction(), "idle-power-%")
}

// avgSavings computes the mean computational-energy saving (percent)
// across the five workloads at one parameter combination.
func avgSavings(b *testing.B, s *experiments.Suite, thr float64, wq int) float64 {
	b.Helper()
	sum := 0.0
	for _, w := range experiments.Workloads() {
		base, err := s.Cell(experiments.Config{Workload: w})
		if err != nil {
			b.Fatal(err)
		}
		c, err := s.Cell(experiments.Config{Workload: w, BSLDThr: thr, WQThr: wq})
		if err != nil {
			b.Fatal(err)
		}
		sum += 100 * (1 - c.Results.CompEnergy/base.Results.CompEnergy)
	}
	return sum / float64(len(experiments.Workloads()))
}

func BenchmarkFig3NormalizedEnergy(b *testing.B) {
	s := grid(b)
	var t0, t1 textplot.Table
	var err error
	for i := 0; i < b.N; i++ {
		if t0, err = experiments.Fig3(s, experiments.EnergyIdleZero); err != nil {
			b.Fatal(err)
		}
		if t1, err = experiments.Fig3(s, experiments.EnergyIdleLow); err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t0)
	logTable(b, t1)
	// The paper's headline: 7–18% average savings depending on thresholds.
	b.ReportMetric(avgSavings(b, s, 1.5, 0), "avg-savings-%(1.5,0)")
	b.ReportMetric(avgSavings(b, s, 3, core.NoWQLimit), "avg-savings-%(3,NO)")
}

func BenchmarkFig4ReducedJobs(b *testing.B) {
	s := grid(b)
	var t textplot.Table
	var err error
	for i := 0; i < b.N; i++ {
		if t, err = experiments.Fig4(s); err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t)
	// Paper: Thunder reduces MORE jobs at threshold 1.5 than at 2 (WQ=4).
	lo, err := s.Cell(experiments.Config{Workload: "LLNLThunder", BSLDThr: 1.5, WQThr: 4})
	if err != nil {
		b.Fatal(err)
	}
	hi, err := s.Cell(experiments.Config{Workload: "LLNLThunder", BSLDThr: 2, WQThr: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(lo.Results.ReducedJobs), "thunder-reduced(1.5,4)")
	b.ReportMetric(float64(hi.Results.ReducedJobs), "thunder-reduced(2,4)")
}

func BenchmarkFig5AvgBSLD(b *testing.B) {
	s := grid(b)
	var t textplot.Table
	var err error
	for i := 0; i < b.N; i++ {
		if t, err = experiments.Fig5(s); err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t)
	c, err := s.Cell(experiments.Config{Workload: "CTC", BSLDThr: 3, WQThr: core.NoWQLimit})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(c.Results.AvgBSLD, "CTC-BSLD(3,NO)")
}

func BenchmarkFig6WaitTrace(b *testing.B) {
	s := grid(b)
	var chart string
	var t textplot.Table
	var err error
	for i := 0; i < b.N; i++ {
		if chart, t, err = experiments.Fig6(s); err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("\n%s\n%s", chart, t.Render())
	orig, dvfsRun, err := experiments.Fig6Series(s)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(orig[0].Results.AvgWait, "orig-wait-s")
	b.ReportMetric(dvfsRun[0].Results.AvgWait, "dvfs-wait-s")
}

func BenchmarkFig7EnlargedWQ0(b *testing.B) {
	s := grid(b)
	var t textplot.Table
	var err error
	for i := 0; i < b.N; i++ {
		if t, err = experiments.Fig7(s, experiments.EnergyIdleZero); err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t)
}

func BenchmarkFig8EnlargedWQNo(b *testing.B) {
	s := grid(b)
	var t textplot.Table
	var err error
	for i := 0; i < b.N; i++ {
		if t, err = experiments.Fig8(s, experiments.EnergyIdleZero); err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t)
	// Paper: 20% enlargement cuts computational energy by ~25–30%.
	sum := 0.0
	for _, w := range experiments.Workloads() {
		base, err := s.Cell(experiments.Config{Workload: w})
		if err != nil {
			b.Fatal(err)
		}
		c, err := s.Cell(experiments.Config{Workload: w, BSLDThr: 2, WQThr: core.NoWQLimit, SizeFactor: 1.2})
		if err != nil {
			b.Fatal(err)
		}
		sum += 100 * (1 - c.Results.CompEnergy/base.Results.CompEnergy)
	}
	b.ReportMetric(sum/5, "avg-savings-%-at+20%")
}

func BenchmarkFig9EnlargedBSLD(b *testing.B) {
	s := grid(b)
	var t textplot.Table
	var err error
	for i := 0; i < b.N; i++ {
		if t, err = experiments.Fig9(s); err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t)
	// Paper: SDSCBlue beats its no-DVFS baseline with only 10% more CPUs.
	base, err := s.Cell(experiments.Config{Workload: "SDSCBlue"})
	if err != nil {
		b.Fatal(err)
	}
	c, err := s.Cell(experiments.Config{Workload: "SDSCBlue", BSLDThr: 2, WQThr: 0, SizeFactor: 1.1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(base.Results.AvgBSLD, "blue-base-BSLD")
	b.ReportMetric(c.Results.AvgBSLD, "blue-BSLD+10%")
}

func BenchmarkTable3WaitTimes(b *testing.B) {
	s := grid(b)
	var t textplot.Table
	var err error
	for i := 0; i < b.N; i++ {
		if t, err = experiments.Table3(s); err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t)
}

// --- engine throughput ---------------------------------------------------

// benchTrace caches shortened traces for the throughput benches.
var (
	traceMu    sync.Mutex
	traceCache = map[string]*workload.Trace{}
)

// runSpec compiles spec and executes it once. Benchmarks call it inside
// their timed loops, so every iteration pays compilation as well as the
// simulation.
func runSpec(spec scenario.Spec) (scenario.Outcome, error) {
	sc, err := scenario.Compile(spec)
	if err != nil {
		return scenario.Outcome{}, err
	}
	return sc.Execute()
}

func benchTrace(b *testing.B, name string, jobs int) *workload.Trace {
	b.Helper()
	key := fmt.Sprintf("%s/%d", name, jobs)
	traceMu.Lock()
	defer traceMu.Unlock()
	if tr, ok := traceCache[key]; ok {
		return tr
	}
	m, err := wgen.Preset(name)
	if err != nil {
		b.Fatal(err)
	}
	m.Jobs = jobs
	tr, err := wgen.Generate(m)
	if err != nil {
		b.Fatal(err)
	}
	traceCache[key] = tr
	return tr
}

// BenchmarkSimulate measures raw scheduling throughput: one full EASY
// simulation of a 5000-job trace per iteration.
func BenchmarkSimulate(b *testing.B) {
	for _, name := range experiments.Workloads() {
		b.Run(name, func(b *testing.B) {
			tr := benchTrace(b, name, 5000)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := runSpec(scenario.Spec{Trace: tr}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(5000*b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}

// BenchmarkSimulatePowerAware measures the power-aware scheduler's
// overhead relative to plain EASY (the frequency loop runs per decision).
func BenchmarkSimulatePowerAware(b *testing.B) {
	gears := dvfs.PaperGearSet()
	pol, err := core.NewPolicy(core.Params{BSLDThreshold: 2, WQThreshold: core.NoWQLimit},
		gears, dvfs.NewTimeModel(scenario.DefaultBeta, gears))
	if err != nil {
		b.Fatal(err)
	}
	tr := benchTrace(b, "CTC", 5000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := runSpec(scenario.Spec{Trace: tr, GearPolicy: pol}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(5000*b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkSweepSerialVsParallel measures the sweep pool's scaling on a
// realistic slice of the paper grid (2 workloads × 3 policies × 2 machine
// sizes, 1000-job traces). The parallel case should approach a NumCPU-fold
// speedup over workers=1 since runs are independent and CPU-bound; results
// are asserted identical, so the speedup is free of semantic drift.
func BenchmarkSweepSerialVsParallel(b *testing.B) {
	grid := sweep.Grid{
		Traces: []string{"CTC", "SDSCBlue"},
		Policies: []sweep.PolicyConfig{
			{},
			{BSLDThr: 2, WQThr: 16},
			{BSLDThr: 3, WQThr: core.NoWQLimit},
		},
		SizeFactors: []float64{1, 1.2},
	}
	// benchTrace caches, so every grid point shares one trace per name.
	resolver := &sweep.Resolver{Trace: func(name string) (*workload.Trace, error) {
		return benchTrace(b, name, 1000), nil
	}}
	var serial []sweep.Result
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", 0}, // all cores
	} {
		b.Run(tc.name, func(b *testing.B) {
			var last []sweep.Result
			for i := 0; i < b.N; i++ {
				results, err := sweep.Sweep(context.Background(), grid, resolver,
					&sweep.Pool{Workers: tc.workers})
				if err != nil {
					b.Fatal(err)
				}
				last = results
			}
			b.ReportMetric(float64(grid.Size())/b.Elapsed().Seconds()*float64(b.N), "runs/s")
			if tc.workers == 1 {
				serial = last
				return
			}
			if serial == nil {
				return // serial case filtered out by -bench
			}
			// Determinism check rides along: worker count must not change
			// a single metric.
			for i := range last {
				if last[i].Outcome.Results != serial[i].Outcome.Results {
					b.Fatalf("parallel result %d differs from serial", i)
				}
			}
		})
	}
}

// --- hot path at scale ----------------------------------------------------

// heapSampler rides along as an extra recorder and samples the live heap
// every sampleEvery scheduling passes, capturing the peak. It lets the
// large-scale benchmarks verify the streamed-arrival engine keeps memory
// O(running jobs) rather than O(trace).
type heapSampler struct {
	every int
	n     int
	peak  uint64
}

func (h *heapSampler) JobStarted(*sched.RunState, float64)  {}
func (h *heapSampler) JobFinished(*sched.RunState, float64) {}

func (h *heapSampler) PassEnd(now float64, queued, busy int) {
	h.n++
	if h.n%h.every != 0 {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > h.peak {
		h.peak = ms.HeapAlloc
	}
}

// BenchmarkHotPathMillion replays the Million stress preset under EASY
// through the scheduler hot path (streamed arrivals, tombstoned run list,
// pooled events and reused scratch). Results are recorded in
// BENCH_sched.json; cmd/benchgate holds the 1M-job sub-run's allocs/op
// under a ceiling in CI.
func BenchmarkHotPathMillion(b *testing.B) {
	for _, jobs := range []int{100_000, 1_000_000} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			tr := benchTrace(b, "Million", jobs)
			b.ReportAllocs()
			b.ResetTimer()
			sampler := &heapSampler{every: 4096}
			peakEvents := 0
			for i := 0; i < b.N; i++ {
				out, err := runSpec(scenario.Spec{
					Trace:          tr,
					ExtraRecorders: []sched.Recorder{sampler},
				})
				if err != nil {
					b.Fatal(err)
				}
				if out.Results.Jobs != jobs {
					b.Fatalf("completed %d jobs, want %d", out.Results.Jobs, jobs)
				}
				peakEvents = out.PeakEvents
			}
			b.ReportMetric(float64(jobs*b.N)/b.Elapsed().Seconds(), "jobs/s")
			b.ReportMetric(float64(sampler.peak)/(1<<20), "peak-heap-MB")
			b.ReportMetric(float64(peakEvents), "peak-events")
		})
	}
}

// BenchmarkConservativeFullMillion replays the FULL Million preset — all
// one million jobs, streamed so no trace slice exists — under
// conservative backfilling: the persistent profile with chunked skyline
// and reservation indexes and the chunked release index at the scale
// system-scale power-management replays operate in. The preset's queue
// rarely builds (a 300,000-job replay ends no pass with a job waiting),
// so it measures the profile's upkeep more than its replanning;
// BenchmarkConservativeThunder covers that. Results are recorded in
// BENCH_sched.json; cmd/benchgate holds its allocs/op under a ceiling in
// CI.
func BenchmarkConservativeFullMillion(b *testing.B) {
	b.Run(fmt.Sprintf("jobs=%d", wgen.MillionJobs), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			src, err := wgen.Stream(wgen.Million())
			if err != nil {
				b.Fatal(err)
			}
			out, err := runSpec(scenario.Spec{Source: src, Variant: "conservative"})
			if err != nil {
				b.Fatal(err)
			}
			if out.Results.Jobs != wgen.MillionJobs {
				b.Fatalf("completed %d jobs, want %d", out.Results.Jobs, wgen.MillionJobs)
			}
		}
		b.ReportMetric(float64(wgen.MillionJobs*b.N)/b.Elapsed().Seconds(), "jobs/s")
	})
}

// BenchmarkConservativeThunder replays eight 1000-job LLNLThunder traces
// (consecutive seeds) per iteration under conservative backfilling and
// the paper's BSLD 2 / WQ 16 policy, the shape of the repo benchmark's
// thunder-conservative workload. A standing queue makes most passes
// replan reservations against the persistent profile, so this is the
// replanning path: EarliestStart, the changed-prefix reuse and the gear
// policy at every reservation. CI profiles it.
func BenchmarkConservativeThunder(b *testing.B) {
	const traces, jobs = 8, 1000
	m, err := wgen.Preset("LLNLThunder")
	if err != nil {
		b.Fatal(err)
	}
	m.Jobs = jobs
	trs := make([]*workload.Trace, traces)
	for k := range trs {
		mk := m
		mk.Seed += int64(k)
		if trs[k], err = wgen.Generate(mk); err != nil {
			b.Fatal(err)
		}
	}
	spec := scenario.Spec{Variant: "conservative", Policy: scenario.PolicyConfig{BSLDThr: 2, WQThr: 16}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tr := range trs {
			spec.Trace = tr
			out, err := runSpec(spec)
			if err != nil {
				b.Fatal(err)
			}
			if out.Results.Jobs != jobs {
				b.Fatalf("completed %d jobs, want %d", out.Results.Jobs, jobs)
			}
		}
	}
	b.ReportMetric(float64(traces*jobs*b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkControllerMillion measures the power-controller layer's
// observe/decide overhead on the EASY Million replay: "off" runs without
// a controller, "capped" runs the PI power-cap controller at CapFrac=1 —
// the cap equals peak draw, so the controller meters the machine and runs
// its control law every pass but never actuates (the neutrality tests in
// internal/altpolicy prove the schedule is byte-identical, and the
// Results are asserted identical across the modes here). The capped/off
// jobs/s ratio is therefore pure controller-layer cost; cmd/benchgate's
// controller gate holds it against BENCH_sched.json in CI.
func BenchmarkControllerMillion(b *testing.B) {
	const jobs = 1_000_000
	var off *metrics.Results
	for _, mode := range []string{"off", "capped"} {
		b.Run(fmt.Sprintf("jobs=%d/%s", jobs, mode), func(b *testing.B) {
			tr := benchTrace(b, "Million", jobs)
			spec := scenario.Spec{Trace: tr}
			if mode == "capped" {
				spec.Controller = scenario.ControllerConfig{CapFrac: 1}
			}
			b.ReportAllocs()
			b.ResetTimer()
			var last scenario.Outcome
			for i := 0; i < b.N; i++ {
				out, err := runSpec(spec)
				if err != nil {
					b.Fatal(err)
				}
				if out.Results.Jobs != jobs {
					b.Fatalf("completed %d jobs, want %d", out.Results.Jobs, jobs)
				}
				last = out
			}
			b.ReportMetric(float64(jobs*b.N)/b.Elapsed().Seconds(), "jobs/s")
			if mode == "off" {
				r := last.Results
				off = &r
			} else if off != nil && last.Results != *off {
				b.Fatalf("capped replay diverged from controller-free:\n%+v\n%+v", last.Results, *off)
			}
		})
	}
}

// BenchmarkConservativeTenMillion replays the full TenMillion preset
// under conservative backfilling through the streaming pipeline —
// replanning at ten times BenchmarkConservativeFullMillion's length.
func BenchmarkConservativeTenMillion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		src, err := wgen.Stream(wgen.TenMillion())
		if err != nil {
			b.Fatal(err)
		}
		out, err := runSpec(scenario.Spec{Source: src, Variant: "conservative"})
		if err != nil {
			b.Fatal(err)
		}
		if out.Results.Jobs != wgen.TenMillionJobs {
			b.Fatalf("completed %d jobs, want %d", out.Results.Jobs, wgen.TenMillionJobs)
		}
	}
	b.ReportMetric(float64(wgen.TenMillionJobs*b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkScenarioConcurrentReplay replays one shared compiled Million
// scenario from 8 goroutines at once: the scenario layer's contract is
// that a compiled scenario is immutable and goroutine-safe, so N
// concurrent executions walk one workload arena through independent
// cursors and must produce bit-identical Results (asserted inside the
// benchmark; the -race CI job runs the equivalent correctness test in
// internal/scenario). The reported jobs/s is the aggregate across the 8
// replicas — the what-if server's throughput model for a cache-cold
// burst of identical queries. Results are recorded in BENCH_sched.json.
func BenchmarkScenarioConcurrentReplay(b *testing.B) {
	const replicas = 8
	sc, err := scenario.Compile(scenario.Spec{
		Workload:    "Million",
		Materialize: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	if !sc.ConcurrentSafe() {
		b.Fatal("compiled scenario not concurrent-safe")
	}
	jobs := sc.Jobs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		outs := make([]scenario.Outcome, replicas)
		var wg sync.WaitGroup
		for r := 0; r < replicas; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				out, err := sc.Execute()
				if err != nil {
					b.Errorf("replica %d: %v", r, err)
					return
				}
				outs[r] = out
			}(r)
		}
		wg.Wait()
		if b.Failed() {
			b.FailNow()
		}
		for r := 1; r < replicas; r++ {
			if outs[r].Results != outs[0].Results {
				b.Fatalf("replica %d diverged from replica 0", r)
			}
		}
		if outs[0].Results.Jobs != jobs {
			b.Fatalf("completed %d jobs, want %d", outs[0].Results.Jobs, jobs)
		}
	}
	b.ReportMetric(float64(replicas*jobs*b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// tightGC prepares a heap-measuring benchmark: it drops the shared trace
// cache (other benches' cached Million traces would otherwise sit in the
// live set) and pins the GC growth target to 20%, so the measured
// high-water tracks live memory instead of collection lag — which under
// the default GOGC=100 is proportional to whatever previous benchmarks
// left alive, not to this run's footprint. The cache refills on demand
// and the GC target is restored when the benchmark ends.
func tightGC(b *testing.B) {
	b.Helper()
	traceMu.Lock()
	traceCache = map[string]*workload.Trace{}
	traceMu.Unlock()
	old := debug.SetGCPercent(20)
	b.Cleanup(func() { debug.SetGCPercent(old) })
}

// BenchmarkStreamingMillionHeap measures the tentpole of the streaming
// workload pipeline: the peak live heap of a Million-preset 1M-job EASY
// replay, materialized (trace generated upfront, scheduler reads the
// slice) versus streamed (wgen.Stream feeds the scheduler job by job).
// Each sub-run garbage-collects first and reports the heap high-water
// RELATIVE to that baseline, so the numbers isolate the replay's own
// footprint from whatever other benchmarks left alive.
//
// trace-MB captures the workload-resident component alone, sampled right
// after the workload is built and before the simulation starts: the
// materialized slice costs ~90 MB where the streaming source holds only
// RNG cursors — the O(trace) → O(1) conversion the refactor is about.
// The run results are asserted identical across modes, so the memory win
// is free of semantic drift. cmd/benchgate gates the streamed
// peak-heap-MB against BENCH_sched.json in CI.
func BenchmarkStreamingMillionHeap(b *testing.B) {
	tightGC(b)
	var materialized *metrics.Results
	for _, mode := range []string{"materialized", "streamed"} {
		b.Run(fmt.Sprintf("jobs=%d/%s", wgen.MillionJobs, mode), func(b *testing.B) {
			var last scenario.Outcome
			var peakMB, traceMB float64
			for i := 0; i < b.N; i++ {
				heap := metrics.NewHeapWatermark(0)
				spec := scenario.Spec{ExtraRecorders: []sched.Recorder{heap}}
				if mode == "materialized" {
					tr, err := wgen.Generate(wgen.Million())
					if err != nil {
						b.Fatal(err)
					}
					spec.Trace = tr
				} else {
					src, err := wgen.Stream(wgen.Million())
					if err != nil {
						b.Fatal(err)
					}
					spec.Source = src
				}
				heap.Sample()
				traceMB = heap.PeakMB()
				out, err := runSpec(spec)
				if err != nil {
					b.Fatal(err)
				}
				heap.Sample()
				peakMB = heap.PeakMB()
				last = out
			}
			b.ReportMetric(float64(wgen.MillionJobs*b.N)/b.Elapsed().Seconds(), "jobs/s")
			b.ReportMetric(peakMB, "peak-heap-MB")
			b.ReportMetric(traceMB, "trace-MB")
			b.ReportMetric(float64(last.PeakEvents), "peak-events")
			if mode == "materialized" {
				r := last.Results
				materialized = &r
			} else if materialized != nil && last.Results != *materialized {
				b.Fatalf("streamed replay diverged from materialized:\n%+v\n%+v", last.Results, *materialized)
			}
		})
	}
}

// BenchmarkStreamingTenMillionReplay replays the full TenMillion preset —
// ten million jobs, a workload whose materialized form (~1 GB) does not
// fit a CI runner — through the streaming pipeline, proving the scale the
// refactor opens: generation, scheduling and metrics all run in
// O(running jobs) live memory.
func BenchmarkStreamingTenMillionReplay(b *testing.B) {
	tightGC(b)
	for i := 0; i < b.N; i++ {
		heap := metrics.NewHeapWatermark(0)
		src, err := wgen.Stream(wgen.TenMillion())
		if err != nil {
			b.Fatal(err)
		}
		out, err := runSpec(scenario.Spec{Source: src, ExtraRecorders: []sched.Recorder{heap}})
		if err != nil {
			b.Fatal(err)
		}
		heap.Sample()
		if out.Results.Jobs != wgen.TenMillionJobs {
			b.Fatalf("completed %d jobs, want %d", out.Results.Jobs, wgen.TenMillionJobs)
		}
		b.ReportMetric(heap.PeakMB(), "peak-heap-MB")
		b.ReportMetric(float64(out.PeakEvents), "peak-events")
	}
	b.ReportMetric(float64(wgen.TenMillionJobs*b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// --- ablations ------------------------------------------------------------

const ablationJobs = 2000

func ablationPolicy(b *testing.B, params core.Params) sched.GearPolicy {
	b.Helper()
	gears := dvfs.PaperGearSet()
	pol, err := core.NewPolicy(params, gears, dvfs.NewTimeModel(scenario.DefaultBeta, gears))
	if err != nil {
		b.Fatal(err)
	}
	return pol
}

// BenchmarkAblationStrictBackfillBSLD compares the default lenient
// backfill semantics against the literal Figure 2 pseudo-code on the
// saturated SDSC workload, where the difference is largest: the literal
// reading never backfills a job whose wait alone already puts its
// predicted BSLD over the threshold, and on 2000 SDSC jobs its average
// wait is about five times the lenient one's.
func BenchmarkAblationStrictBackfillBSLD(b *testing.B) {
	tr := benchTrace(b, "SDSC", ablationJobs)
	for _, strict := range []bool{false, true} {
		name := "lenient"
		if strict {
			name = "strict"
		}
		b.Run(name, func(b *testing.B) {
			pol := ablationPolicy(b, core.Params{
				BSLDThreshold: 2, WQThreshold: core.NoWQLimit, StrictBackfillBSLD: strict,
			})
			var out scenario.Outcome
			var err error
			for i := 0; i < b.N; i++ {
				if out, err = runSpec(scenario.Spec{Trace: tr, GearPolicy: pol}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(out.Results.AvgWait, "avg-wait-s")
			b.ReportMetric(out.Results.AvgBSLD, "avg-BSLD")
		})
	}
}

// BenchmarkAblationBeta sweeps the β dilation sensitivity the paper fixes
// at 0.5 (its Section 7 future work calls for a per-job β analysis).
func BenchmarkAblationBeta(b *testing.B) {
	tr := benchTrace(b, "SDSCBlue", ablationJobs)
	base, err := runSpec(scenario.Spec{Trace: tr})
	if err != nil {
		b.Fatal(err)
	}
	for _, beta := range []float64{0.25, 0.5, 0.75, 1.0} {
		b.Run(fmt.Sprintf("beta=%.2f", beta), func(b *testing.B) {
			pol := ablationPolicy(b, core.Params{BSLDThreshold: 2, WQThreshold: core.NoWQLimit})
			var out scenario.Outcome
			var err error
			for i := 0; i < b.N; i++ {
				if out, err = runSpec(scenario.Spec{Trace: tr, GearPolicy: pol, Beta: &beta}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*out.Results.CompEnergy/base.Results.CompEnergy, "energy-%")
			b.ReportMetric(out.Results.AvgBSLD, "avg-BSLD")
		})
	}
}

// BenchmarkAblationDynamicBoost measures the paper's future-work
// extension: raising running reduced jobs to Ftop once the queue grows.
func BenchmarkAblationDynamicBoost(b *testing.B) {
	tr := benchTrace(b, "SDSCBlue", ablationJobs)
	base, err := runSpec(scenario.Spec{Trace: tr})
	if err != nil {
		b.Fatal(err)
	}
	for _, boost := range []bool{false, true} {
		name := "off"
		if boost {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			pol := ablationPolicy(b, core.Params{
				BSLDThreshold: 2, WQThreshold: core.NoWQLimit, Boost: boost, BoostWQ: 16,
			})
			var out scenario.Outcome
			var err error
			for i := 0; i < b.N; i++ {
				if out, err = runSpec(scenario.Spec{Trace: tr, GearPolicy: pol}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*out.Results.CompEnergy/base.Results.CompEnergy, "energy-%")
			b.ReportMetric(out.Results.AvgWait, "avg-wait-s")
		})
	}
}

// BenchmarkAblationWQCounting explores the WQsize interpretation: counting
// the job under decision itself is equivalent to lowering WQthreshold by
// one, so the pair (1, 0) brackets the ambiguity at the paper's strictest
// setting (the paper does not say whether the job itself counts).
func BenchmarkAblationWQCounting(b *testing.B) {
	tr := benchTrace(b, "CTC", ablationJobs)
	base, err := runSpec(scenario.Spec{Trace: tr})
	if err != nil {
		b.Fatal(err)
	}
	for _, wq := range []int{0, 1} {
		b.Run(fmt.Sprintf("wq=%d", wq), func(b *testing.B) {
			pol := ablationPolicy(b, core.Params{BSLDThreshold: 2, WQThreshold: wq})
			var out scenario.Outcome
			var err error
			for i := 0; i < b.N; i++ {
				if out, err = runSpec(scenario.Spec{Trace: tr, GearPolicy: pol}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*out.Results.CompEnergy/base.Results.CompEnergy, "energy-%")
			b.ReportMetric(float64(out.Results.ReducedJobs), "reduced-jobs")
		})
	}
}

// BenchmarkAblationGearSet restricts the gear set to its upper half,
// quantifying how much of the savings comes from the deepest gears.
func BenchmarkAblationGearSet(b *testing.B) {
	tr := benchTrace(b, "LLNLAtlas", ablationJobs)
	base, err := runSpec(scenario.Spec{Trace: tr})
	if err != nil {
		b.Fatal(err)
	}
	full := dvfs.PaperGearSet()
	for _, tc := range []struct {
		name  string
		gears dvfs.GearSet
	}{
		{"all-six", full},
		{"top-three", full[len(full)-3:]}, // 1.7, 2.0 and 2.3 GHz
	} {
		b.Run(tc.name, func(b *testing.B) {
			pol, err := core.NewPolicy(core.Params{BSLDThreshold: 2, WQThreshold: core.NoWQLimit},
				tc.gears, dvfs.NewTimeModel(scenario.DefaultBeta, tc.gears))
			if err != nil {
				b.Fatal(err)
			}
			var out scenario.Outcome
			for i := 0; i < b.N; i++ {
				if out, err = runSpec(scenario.Spec{Trace: tr, GearPolicy: pol, Gears: tc.gears}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*out.Results.CompEnergy/base.Results.CompEnergy, "energy-%")
		})
	}
}

// BenchmarkAblationBasePolicy runs the frequency assignment on top of the
// three base scheduling policies, supporting the paper's remark that the
// algorithm "can be applied with any parallel job scheduling policy".
func BenchmarkAblationBasePolicy(b *testing.B) {
	tr := benchTrace(b, "CTC", ablationJobs)
	for _, tc := range []struct {
		name    string
		variant sched.Variant
	}{
		{"easy", sched.EASY},
		{"fcfs", sched.FCFS},
		{"conservative", sched.Conservative},
	} {
		b.Run(tc.name, func(b *testing.B) {
			pol := ablationPolicy(b, core.Params{BSLDThreshold: 2, WQThreshold: core.NoWQLimit})
			var out scenario.Outcome
			var err error
			for i := 0; i < b.N; i++ {
				if out, err = runSpec(scenario.Spec{Trace: tr, GearPolicy: pol, Variant: tc.variant.String()}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(out.Results.AvgBSLD, "avg-BSLD")
			b.ReportMetric(out.Results.AvgWait, "avg-wait-s")
		})
	}
}
