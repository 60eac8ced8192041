// Powerdown contrasts the paper's DVFS approach with the related-work
// alternative it discusses (Section 6): powering down idle nodes (Lawson &
// Smirni; Pinheiro et al.; Hikita et al.), and shows the two compose.
//
// A nodepower.Tracker rides along the simulation as a second recorder,
// collecting per-processor busy intervals; afterwards a shutdown policy
// (idle timeout, wake cost) is evaluated over the idle gaps. First Fit
// packing concentrates idleness on high-numbered processors, which is what
// makes shutdown effective.
//
//	go run ./examples/powerdown            # CTC workload
//	go run ./examples/powerdown SDSCBlue
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/nodepower"
	"repro/internal/scenario"
	"repro/internal/sched"
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
	pm := dvfs.PaperPowerModel()
	policy := scenario.PolicyConfig{BSLDThr: 2, WQThr: core.NoWQLimit}
	shutdown := nodepower.DefaultPolicy()

	// totalEnergy simulates once and returns (total energy, avg BSLD):
	// execution energy plus either always-on idle power or the shutdown
	// policy's idle-side energy.
	totalEnergy := func(pol scenario.PolicyConfig, powerDown bool) (float64, float64) {
		tracker := nodepower.NewTracker(model.CPUs)
		sc, err := scenario.Compile(scenario.Spec{
			Trace: trace, Policy: pol,
			ExtraRecorders: []sched.Recorder{tracker},
		})
		if err != nil {
			log.Fatal(err)
		}
		out, err := sc.Execute()
		if err != nil {
			log.Fatal(err)
		}
		if !powerDown {
			return out.Results.TotalEnergyLow, out.Results.AvgBSLD
		}
		rep, err := tracker.Evaluate(shutdown, pm, trace.Jobs[0].Submit)
		if err != nil {
			log.Fatal(err)
		}
		return out.Results.CompEnergy + rep.TotalIdleSideEnergy(), out.Results.AvgBSLD
	}

	baseline, baseBSLD := totalEnergy(scenario.PolicyConfig{}, false)
	table := textplot.Table{
		Title:  fmt.Sprintf("Total CPU energy management on %s (%d jobs, %d CPUs)", name, model.Jobs, model.CPUs),
		Header: []string{"strategy", "total energy", "avg BSLD"},
		Note: fmt.Sprintf("power-down: %gs idle timeout, %gs wake cost (optimistic accounting-only bound); baseline BSLD %.2f",
			shutdown.IdleOffDelay, shutdown.WakeEnergySeconds, baseBSLD),
	}
	addRow := func(label string, pol scenario.PolicyConfig, pd bool) {
		e, bsld := totalEnergy(pol, pd)
		table.AddRow(label, fmt.Sprintf("%.2f%%", 100*e/baseline), fmt.Sprintf("%.2f", bsld))
	}
	table.AddRow("always-on, no DVFS", "100.00%", fmt.Sprintf("%.2f", baseBSLD))
	addRow("DVFS "+policy.Label(), policy, false)
	addRow("power-down only", scenario.PolicyConfig{}, true)
	addRow("DVFS + power-down", policy, true)
	fmt.Print(table.Render())
}
