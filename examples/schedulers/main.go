// Schedulers compares the base scheduling policies the library implements
// — FCFS, classic EASY backfilling (the paper's base), flexible
// backfilling with K reservations, conservative backfilling, and EASY
// with SJF queue order — under identical workload and frequency policy.
// It shows where the paper's choice (EASY, FCFS order) sits in the
// fairness/performance space.
//
//	go run ./examples/schedulers              # CTC workload
//	go run ./examples/schedulers SDSCBlue
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/scenario"
	"repro/internal/textplot"
	"repro/internal/wgen"
)

func main() {
	name := "CTC"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	model, err := wgen.Preset(name)
	if err != nil {
		log.Fatal(err)
	}
	model.Jobs = 2000
	trace, err := wgen.Generate(model)
	if err != nil {
		log.Fatal(err)
	}
	schedulers := []struct {
		label string
		spec  scenario.Spec
	}{
		{"FCFS", scenario.Spec{Variant: "fcfs"}},
		{"EASY (paper)", scenario.Spec{Variant: "easy"}},
		{"EASY depth-4", scenario.Spec{Variant: "easy", Reservations: 4}},
		{"conservative", scenario.Spec{Variant: "conservative"}},
		{"EASY + SJF order", scenario.Spec{Variant: "easy", Order: "sjf"}},
	}
	table := textplot.Table{
		Title: fmt.Sprintf("Base scheduling policies under bsld(2,16) on %s (%d jobs, %d CPUs)",
			name, model.Jobs, model.CPUs),
		Header: []string{"scheduler", "avgBSLD", "avgWait(s)", "p95Wait(s)", "maxWait(s)", "reduced", "energy"},
		Note:   "energy = computational, normalized to the FCFS row",
	}
	var base float64
	for i, row := range schedulers {
		spec := row.spec
		spec.Trace = trace
		spec.Policy = scenario.PolicyConfig{BSLDThr: 2, WQThr: 16}
		spec.KeepCollector = true
		sc, err := scenario.Compile(spec)
		if err != nil {
			log.Fatal(err)
		}
		out, err := sc.Execute()
		if err != nil {
			log.Fatal(err)
		}
		if i == 0 {
			base = out.Results.CompEnergy
		}
		wp, err := out.Collector.WaitPercentiles()
		if err != nil {
			log.Fatal(err)
		}
		table.AddRow(row.label,
			fmt.Sprintf("%.2f", out.Results.AvgBSLD),
			fmt.Sprintf("%.0f", out.Results.AvgWait),
			fmt.Sprintf("%.0f", wp.P95),
			fmt.Sprintf("%.0f", wp.Max),
			fmt.Sprint(out.Results.ReducedJobs),
			fmt.Sprintf("%.2f%%", 100*out.Results.CompEnergy/base))
	}
	fmt.Print(table.Render())
}
