// Customtrace demonstrates running the power-aware scheduler on a user
// trace in Standard Workload Format — the path a site with real accounting
// logs from the Parallel Workload Archive would take.
//
// Given no arguments it builds a small demonstration trace in memory,
// writes it out as SWF, parses it back (exercising the same code path a
// file would take), and simulates it. Pass a path to use a real file:
//
//	go run ./examples/customtrace               # built-in demo trace
//	go run ./examples/customtrace mylog.swf 512 # file + system size
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"strconv"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/workload"
)

func main() {
	trace, err := loadTrace()
	if err != nil {
		log.Fatal(err)
	}
	st := trace.ComputeStats()
	fmt.Printf("trace %q: %d jobs on %d CPUs, %.1f CPU-hours, offered load %.2f\n\n",
		trace.Name, st.Jobs, trace.CPUs, st.TotalCPUHours, st.Utilization)

	sc, err := scenario.Compile(scenario.Spec{
		Trace:         trace,
		Policy:        scenario.PolicyConfig{BSLDThr: 2, WQThr: core.NoWQLimit},
		KeepCollector: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	out, base, err := sc.ExecutePair()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-14s %8s %8s %6s %10s %8s\n", "job", "submit", "start", "cpus", "gear", "BSLD")
	for i, rec := range out.Collector.Records() {
		if i == 12 {
			fmt.Printf("... (%d more)\n", len(out.Collector.Records())-i)
			break
		}
		fmt.Printf("%-14d %8.0f %8.0f %6d %10s %8.2f\n",
			rec.Job.ID, rec.Job.Submit, rec.Start, rec.Job.Procs, rec.FinalGear, rec.BSLD)
	}
	fmt.Printf("\navg BSLD %.2f (baseline %.2f); computational energy %.1f%% of baseline; %d of %d jobs reduced\n",
		out.Results.AvgBSLD, base.Results.AvgBSLD,
		100*out.Results.CompEnergy/base.Results.CompEnergy,
		out.Results.ReducedJobs, out.Results.Jobs)
}

// loadTrace reads argv or builds the demonstration workload.
func loadTrace() (*workload.Trace, error) {
	if len(os.Args) > 1 {
		cpus := 0
		if len(os.Args) > 2 {
			v, err := strconv.Atoi(os.Args[2])
			if err != nil {
				return nil, fmt.Errorf("bad cpu count %q: %w", os.Args[2], err)
			}
			cpus = v
		}
		f, err := os.Open(os.Args[1])
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return workload.ParseSWF(f, os.Args[1], cpus)
	}

	// A hand-written mini-cluster day: a wide job blocking the machine,
	// small jobs backfilling around it, and a tail of medium jobs.
	demo := &workload.Trace{Name: "demo", CPUs: 64}
	add := func(id int, submit, runtime float64, procs int, reqtime float64) {
		demo.Jobs = append(demo.Jobs, &workload.Job{
			ID: id, Submit: submit, Runtime: runtime, Procs: procs, ReqTime: reqtime, Beta: -1,
			Status: workload.StatusCompleted,
		})
	}
	add(1, 0, 7200, 32, 9000)
	add(2, 600, 3600, 48, 3600)
	add(3, 700, 1200, 8, 1800)
	add(4, 800, 900, 16, 1200)
	add(5, 900, 5400, 4, 7200)
	for i := 6; i <= 20; i++ {
		add(i, float64(1000+300*i), float64(600+120*(i%5)), 4+(i%3)*12, float64(1800+600*(i%4)))
	}

	// Round-trip through SWF to exercise the reader/writer.
	var buf bytes.Buffer
	if err := workload.WriteSWF(&buf, demo); err != nil {
		return nil, err
	}
	return workload.ParseSWF(&buf, "demo", 0)
}
