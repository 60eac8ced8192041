// Command reprovet runs the repo's custom static-analysis suite
// (internal/analysis) as a multichecker over package patterns:
//
//	go run ./cmd/reprovet ./...
//
// It machine-checks the correctness contracts the runtime verification
// spine cannot see: RunState pooling (retain), scenario-hash coverage
// (hashcover), nondeterminism sources in the deterministic core
// (determinism), swallowed stream errors (srcerr) and exported names
// under internal/ that nothing in the module references (deadexport).
// See the package documentation of internal/analysis for the contract
// each enforces and the //lint:<analyzer> escape-comment syntax.
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
//
// With -json, diagnostics are emitted as a machine-readable JSON array
// (empty array when clean) on stdout, one object per finding:
//
//	[{"analyzer":"retain","file":"...","line":12,"col":3,"message":"..."}]
//
// so CI tooling can annotate pull requests from the output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

func run(stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("reprovet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: reprovet [-json] [packages]\n\nAnalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.NewLoader().Load(patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "reprovet: %v\n", err)
		return 2
	}
	diags, err := analysis.RunAnalyzers(pkgs, analysis.All())
	if err != nil {
		fmt.Fprintf(stderr, "reprovet: %v\n", err)
		return 2
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(stderr, "reprovet: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "reprovet: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		}
		return 1
	}
	return 0
}
