// Quickstart: the smallest complete use of the library.
//
// It generates a 1000-job synthetic workload modeled after the SDSC Blue
// Horizon log, schedules it twice on a DVFS cluster with EASY backfilling
// — once without frequency scaling and once under the paper's
// BSLD-threshold policy (BSLDthreshold=2, WQthreshold=16) — and prints the
// energy/performance comparison.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/scenario"
	"repro/internal/wgen"
)

func main() {
	// 1. A workload: 1000 jobs of the calibrated SDSC Blue model.
	model := wgen.SDSCBlue()
	model.Jobs = 1000
	trace, err := wgen.Generate(model)
	if err != nil {
		log.Fatal(err)
	}

	// 2. The paper's frequency assignment algorithm: run a job at the
	// lowest gear whose predicted bounded slowdown stays under 2, but
	// only while at most 16 other jobs wait.
	policy := scenario.PolicyConfig{BSLDThr: 2, WQThr: 16}

	// 3. Compile the run description once and simulate both schedules on
	// the original 1152-CPU machine: the policy run and its no-DVFS
	// baseline.
	sc, err := scenario.Compile(scenario.Spec{Trace: trace, Policy: policy})
	if err != nil {
		log.Fatal(err)
	}
	powerAware, baseline, err := sc.ExecutePair()
	if err != nil {
		log.Fatal(err)
	}

	// 4. Compare.
	b, p := baseline.Results, powerAware.Results
	fmt.Printf("%-22s %12s %12s\n", "", "no DVFS", sc.PolicyName())
	fmt.Printf("%-22s %12.2f %12.2f\n", "average BSLD", b.AvgBSLD, p.AvgBSLD)
	fmt.Printf("%-22s %12.0f %12.0f\n", "average wait (s)", b.AvgWait, p.AvgWait)
	fmt.Printf("%-22s %12d %12d\n", "jobs at reduced freq", b.ReducedJobs, p.ReducedJobs)
	fmt.Printf("%-22s %12.1f %12.1f\n", "comp. energy (norm %)",
		100.0, 100*p.CompEnergy/b.CompEnergy)
	fmt.Printf("%-22s %12.1f %12.1f\n", "total energy (norm %)",
		100.0, 100*p.TotalEnergyLow/b.TotalEnergyLow)
	fmt.Printf("\nCPU energy saved: %.1f%% at a BSLD penalty of %.2f\n",
		100*(1-p.CompEnergy/b.CompEnergy), p.AvgBSLD-b.AvgBSLD)
}
