// Tradeoff sweeps the two tunables of the frequency assignment algorithm
// — BSLDthreshold and WQthreshold — over one workload and renders the
// energy-performance frontier the paper's Section 5.1 explores: stricter
// settings barely touch the schedule, permissive ones trade bounded
// slowdown for CPU energy.
//
//	go run ./examples/tradeoff            # CTC workload
//	go run ./examples/tradeoff SDSCBlue   # any preset name
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/core"
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
	model.Jobs = 2000 // enough to show the trade-off, quick to run
	trace, err := wgen.Generate(model)
	if err != nil {
		log.Fatal(err)
	}
	baseSc, err := scenario.Compile(scenario.Spec{Trace: trace})
	if err != nil {
		log.Fatal(err)
	}
	base, err := baseSc.Execute()
	if err != nil {
		log.Fatal(err)
	}

	table := textplot.Table{
		Title:  fmt.Sprintf("Energy-performance trade-off on %s (%d jobs, %d CPUs)", name, model.Jobs, model.CPUs),
		Header: []string{"policy", "energy(idle=0)", "energy(idle=low)", "avgBSLD", "avgWait(s)", "reduced"},
		Note:   fmt.Sprintf("baseline: avgBSLD %.2f, avgWait %.0f s", base.Results.AvgBSLD, base.Results.AvgWait),
	}
	var groups []string
	var bars [][]float64
	for _, thr := range []float64{1.5, 2, 3} {
		var vals []float64
		for _, wq := range []int{0, 4, 16, core.NoWQLimit} {
			sc, err := scenario.Compile(scenario.Spec{
				Trace:  trace,
				Policy: scenario.PolicyConfig{BSLDThr: thr, WQThr: wq},
			})
			if err != nil {
				log.Fatal(err)
			}
			out, err := sc.Execute()
			if err != nil {
				log.Fatal(err)
			}
			r := out.Results
			table.AddRow(sc.PolicyName(),
				fmt.Sprintf("%.2f%%", 100*r.CompEnergy/base.Results.CompEnergy),
				fmt.Sprintf("%.2f%%", 100*r.TotalEnergyLow/base.Results.TotalEnergyLow),
				fmt.Sprintf("%.2f", r.AvgBSLD),
				fmt.Sprintf("%.0f", r.AvgWait),
				fmt.Sprint(r.ReducedJobs))
			vals = append(vals, 100*(1-r.CompEnergy/base.Results.CompEnergy))
		}
		groups = append(groups, fmt.Sprintf("BSLDthreshold %g — savings %% by WQ limit", thr))
		bars = append(bars, vals)
	}
	fmt.Print(table.Render())
	fmt.Println()
	fmt.Print(textplot.BarChart("Computational energy savings (%)",
		groups, []string{"WQ 0", "WQ 4", "WQ 16", "WQ NO"}, bars, 40))
}
