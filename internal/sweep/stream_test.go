package sweep

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/wgen"
	"repro/internal/workload"
)

// streamGrid is a small but multi-axis grid for the per-run source tests.
func streamGrid() Grid {
	return Grid{
		Traces: []string{"CTC", "SDSCBlue"},
		Policies: []PolicyConfig{
			{},
			{BSLDThr: 2, WQThr: 16},
			{BSLDThr: 3, WQThr: core.NoWQLimit},
		},
		SizeFactors: []float64{1, 1.2},
	}
}

// streamResolver gives every run its own lazily generating source.
func streamResolver(jobs int) *Resolver {
	return &Resolver{Source: func(name string) (workload.JobSource, error) {
		m, err := wgen.Preset(name)
		if err != nil {
			return nil, err
		}
		m.Jobs = jobs
		return wgen.Stream(m)
	}}
}

// traceResolver shares one materialized trace per name across runs (the
// pre-streaming behavior, kept as the reference).
func traceResolver(jobs int) *Resolver {
	return &Resolver{Trace: cachedLoader(func(name string) (*workload.Trace, error) {
		m, err := wgen.Preset(name)
		if err != nil {
			return nil, err
		}
		m.Jobs = jobs
		return wgen.Generate(m)
	})}
}

// TestSweepStreamingSourcesMatchTraces runs the same grid through shared
// materialized traces and through independent per-run streaming sources,
// in parallel, and requires bit-identical results: no cross-run state,
// no worker-count dependence, no drift from the regeneration. Run under
// -race (CI does) this also proves workers never share a source cursor.
func TestSweepStreamingSourcesMatchTraces(t *testing.T) {
	g := streamGrid()
	ctx := context.Background()
	want, err := Sweep(ctx, g, traceResolver(400), &Pool{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 0} {
		got, err := Sweep(ctx, g, streamResolver(400), &Pool{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i].Err != nil {
				t.Fatalf("workers=%d run %d: %v", workers, i, got[i].Err)
			}
			if got[i].Outcome.Results != want[i].Outcome.Results {
				t.Fatalf("workers=%d run %d (%s): streamed results differ",
					workers, i, got[i].Point.Label())
			}
		}
	}
}

// TestSweepStreamingRepeatable: executing the same streamed sweep twice
// yields identical results — per-run sources leave no residue (the
// cross-run mutation the shared-slice design risked).
func TestSweepStreamingRepeatable(t *testing.T) {
	g := streamGrid()
	ctx := context.Background()
	r := streamResolver(300)
	first, err := Sweep(ctx, g, r, &Pool{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	second, err := Sweep(ctx, g, r, &Pool{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i].Outcome.Results != second[i].Outcome.Results {
			t.Fatalf("run %d (%s) drifted across sweep executions", i, first[i].Point.Label())
		}
	}
}
