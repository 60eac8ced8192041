// Command reprocheck verifies that the repository still reproduces the
// paper: it runs the evaluation grid and checks every qualitative claim
// that internal/experiments/checks.go encodes, printing a ✓/✗ checklist. Exit status 1 means the
// reproduction is broken.
//
// Usage:
//
//	reprocheck              # full 5000-job grid (~20 s)
//	reprocheck -jobs 1000   # faster, looser evidence
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		jobs    = flag.Int("jobs", 0, "trace segment length; 0 = the paper's 5000")
		workers = flag.Int("workers", 0, "parallel simulations; 0 = GOMAXPROCS")
	)
	flag.Parse()
	start := time.Now()
	s := experiments.NewSuite(*jobs)
	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if err := s.Prefetch(experiments.GridConfigs(), w); err != nil {
		fmt.Fprintln(os.Stderr, "reprocheck:", err)
		os.Exit(1)
	}
	checks, err := experiments.RunChecks(s)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reprocheck:", err)
		os.Exit(1)
	}
	failed := 0
	for _, c := range checks {
		mark := "✓"
		if !c.Pass {
			mark = "✗"
			failed++
		}
		fmt.Printf("%s %-55s %s\n", mark, c.Name, c.Detail)
	}
	fmt.Printf("\n%d/%d checks passed in %s (%d-job segments)\n",
		len(checks)-failed, len(checks), time.Since(start).Round(time.Millisecond), s.Jobs())
	if failed > 0 {
		os.Exit(1)
	}
}
