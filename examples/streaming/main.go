// Example streaming replays a multi-million-job workload through the
// streaming pipeline — wgen.Stream generating jobs lazily, the scheduler
// consuming one pending arrival at a time, metrics folding online — and
// reports the peak live heap alongside the scheduling results. The point
// it demonstrates: peak memory tracks the number of RUNNING jobs, not the
// trace length, so a 10M-job replay fits where the materialized trace
// alone (~1 GB of Job structs at 10M) would not.
//
//	go run ./examples/streaming                       # 1M jobs (Million preset)
//	go run ./examples/streaming -workload TenMillion  # 10M jobs, same flat heap
//	go run ./examples/streaming -jobs 200000          # quicker look
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/wgen"
)

func main() {
	var (
		wl   = flag.String("workload", "Million", "workload preset to stream (Million, TenMillion, or any paper preset)")
		jobs = flag.Int("jobs", 0, "override the preset's job count; 0 = native length")
	)
	flag.Parse()
	if err := run(*wl, *jobs); err != nil {
		fmt.Fprintln(os.Stderr, "streaming:", err)
		os.Exit(1)
	}
}

func run(wl string, jobs int) error {
	model, err := wgen.Preset(wl)
	if err != nil {
		return err
	}
	if jobs > 0 {
		model.Jobs = jobs
	}
	fmt.Printf("streaming %s: %d jobs onto %d CPUs (load %.2f) — no trace is ever materialized\n",
		model.Name, model.Jobs, model.CPUs, model.Load)

	src, err := wgen.Stream(model)
	if err != nil {
		return err
	}
	// The watermark garbage-collects and snapshots the heap now, so its
	// peak is this replay's own footprint.
	heap := metrics.NewHeapWatermark(0)
	start := time.Now()
	sc, err := scenario.Compile(scenario.Spec{
		Source:         src,
		ExtraRecorders: []sched.Recorder{heap},
	})
	if err != nil {
		return err
	}
	out, err := sc.Execute()
	if err != nil {
		return err
	}
	heap.Sample()
	elapsed := time.Since(start)

	r := out.Results
	fmt.Printf("scheduled     %d jobs in %s (%.0f jobs/s)\n",
		r.Jobs, elapsed.Round(time.Millisecond), float64(r.Jobs)/elapsed.Seconds())
	fmt.Printf("avg BSLD      %.2f   avg wait %.0f s   utilization %.3f\n", r.AvgBSLD, r.AvgWait, r.Utilization)
	fmt.Printf("peak events   %d (event heap high-water: O(running jobs), not O(trace))\n", out.PeakEvents)
	fmt.Printf("peak heap     %.1f MB above baseline\n", heap.PeakMB())
	perJob := 96.0 // approximate bytes per materialized Job struct + pointer
	fmt.Printf("for reference a materialized trace alone needs ~%.0f MB at this length\n",
		float64(model.Jobs)*perJob/(1<<20))
	return nil
}
