// What-if: compile a scenario once, execute it from many goroutines.
//
// The scenario layer (internal/scenario) turns a data-level Spec into an
// immutable, goroutine-safe run description: the workload is resolved
// once into a shared arena, every default is filled in, and the result
// carries a canonical content hash. This example compiles one CTC
// what-if, executes it from four goroutines at once (all four get
// bit-identical results), and then derives its no-DVFS baseline — which
// shares the compiled workload, so nothing is generated twice.
//
//	go run ./examples/whatif
//
// The same Spec shape is what cmd/schedd accepts over HTTP, so the
// round trip below is this program as a service:
//
//	go run ./cmd/schedd -addr :8080 &
//	curl -s localhost:8080/v1/whatif -d '{
//	        "workload": "CTC", "jobs": 2000,
//	        "policy":   {"bsld_thr": 2, "wq_thr": 16}
//	}'
//	# … answers {"hash": "…", "cached": false, "results": {…}}; repeat
//	# the same curl and the answer comes from the LRU cache ("cached":
//	# true) without re-simulating.
//
// "wq_thr" also accepts "NO", the paper's NO LIMIT, and the same JSON
// document runs from a file through bsldsim -config.
package main

import (
	"fmt"
	"log"
	"sync"

	"repro/internal/scenario"
)

func main() {
	// 1. Compile: resolve the workload (generated once, shared), the
	// policy and every default into an immutable scenario.
	sc, err := scenario.Compile(scenario.Spec{
		Workload: "CTC",
		Jobs:     2000,
		Policy:   scenario.PolicyConfig{BSLDThr: 2, WQThr: 16},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scenario %s\n  workload %s (%d jobs), %d CPUs, policy %s\n",
		sc.Hash()[:12], sc.Workload(), sc.Jobs(), sc.CPUs(), sc.PolicyName())

	// 2. Execute many: the scenario is read-only, so concurrent
	// executions share it safely and deterministically.
	const n = 4
	outs := make([]scenario.Outcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := sc.Execute()
			if err != nil {
				log.Fatal(err)
			}
			outs[i] = out
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if outs[i].Results != outs[0].Results {
			log.Fatalf("goroutine %d diverged from goroutine 0", i)
		}
	}
	fmt.Printf("  %d concurrent executions, all bit-identical\n", n)

	// 3. What-if vs baseline: WithBaseline derives the no-DVFS run on
	// the same compiled workload.
	base, err := sc.WithBaseline().Execute()
	if err != nil {
		log.Fatal(err)
	}
	dvfs := outs[0]
	fmt.Printf("\n%-22s %10s %12s %12s\n", "", "avg BSLD", "avg wait (s)", "comp energy")
	fmt.Printf("%-22s %10.2f %12.0f %12.4g\n", "no DVFS",
		base.Results.AvgBSLD, base.Results.AvgWait, base.Results.CompEnergy)
	fmt.Printf("%-22s %10.2f %12.0f %12.4g\n", sc.PolicyName(),
		dvfs.Results.AvgBSLD, dvfs.Results.AvgWait, dvfs.Results.CompEnergy)
	fmt.Printf("\nenergy saved: %.1f%%  (BSLD %.2f → %.2f)\n",
		100*(1-dvfs.Results.CompEnergy/base.Results.CompEnergy),
		base.Results.AvgBSLD, dvfs.Results.AvgBSLD)
}
