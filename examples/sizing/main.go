// Sizing reproduces the paper's system-dimensioning study (Section 5.2)
// for one workload: can the same load on a larger DVFS-enabled machine
// cost less CPU energy at equal or better job performance?
//
// For each size factor it runs the power-aware scheduler (BSLDthreshold 2,
// both WQ modes) and reports energy normalized to the ORIGINAL machine
// without DVFS, the way Figures 7–9 are normalized.
//
//	go run ./examples/sizing              # SDSCBlue workload
//	go run ./examples/sizing LLNLAtlas    # any preset name
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
	name := "SDSCBlue"
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
	baseSc, err := scenario.Compile(scenario.Spec{Trace: trace})
	if err != nil {
		log.Fatal(err)
	}
	base, err := baseSc.Execute()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: original %d CPUs, baseline avgBSLD %.2f, avgWait %.0f s\n\n",
		name, model.CPUs, base.Results.AvgBSLD, base.Results.AvgWait)

	sizes := []float64{1.0, 1.1, 1.2, 1.5, 1.75, 2.0, 2.25}

	for _, wq := range []int{0, core.NoWQLimit} {
		pol := scenario.PolicyConfig{BSLDThr: 2, WQThr: wq}
		table := textplot.Table{
			Title: fmt.Sprintf("Power-aware scheduling with BSLD/WQ thresholds %s on enlarged systems", pol.Label()),
			Header: []string{"size", "CPUs", "energy(idle=0)", "energy(idle=low)",
				"avgBSLD", "avgWait(s)", "beats baseline?"},
			Note: "energies normalized to the original system without DVFS",
		}
		for _, sf := range sizes {
			sc, err := scenario.Compile(scenario.Spec{Trace: trace, Policy: pol, SizeFactor: sf})
			if err != nil {
				log.Fatal(err)
			}
			out, err := sc.Execute()
			if err != nil {
				log.Fatal(err)
			}
			r := out.Results
			verdict := "no"
			if r.AvgBSLD <= base.Results.AvgBSLD {
				verdict = "YES"
			}
			table.AddRow(fmt.Sprintf("+%.0f%%", (sf-1)*100), fmt.Sprint(out.CPUs),
				fmt.Sprintf("%.2f%%", 100*r.CompEnergy/base.Results.CompEnergy),
				fmt.Sprintf("%.2f%%", 100*r.TotalEnergyLow/base.Results.TotalEnergyLow),
				fmt.Sprintf("%.2f", r.AvgBSLD),
				fmt.Sprintf("%.0f", r.AvgWait),
				verdict)
		}
		fmt.Print(table.Render())
		fmt.Println()
	}
}
