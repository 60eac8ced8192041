package scenario

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/sched"
	"repro/internal/wgen"
)

// streamSpecPair builds identical specs over the materialized and the
// streamed form of one preset segment.
func streamSpecPair(t *testing.T, jobs int, mutate func(*Spec)) (Spec, Spec) {
	t.Helper()
	m := wgen.CTC()
	m.Jobs = jobs
	tr, err := wgen.Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	src, err := wgen.Stream(m)
	if err != nil {
		t.Fatal(err)
	}
	a := Spec{Trace: tr}
	b := Spec{Source: src}
	if mutate != nil {
		mutate(&a)
		mutate(&b)
	}
	return a, b
}

// policy builds the paper's gear policy for the streaming tests.
func policy(t *testing.T) sched.GearPolicy {
	t.Helper()
	gears := dvfs.PaperGearSet()
	pol, err := core.NewPolicy(core.Params{BSLDThreshold: 2, WQThreshold: 16},
		gears, dvfs.NewTimeModel(DefaultBeta, gears))
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

// TestRunSourceMatchesTrace: a Spec driven by a lazily generating source
// produces bit-identical Results to the same Spec over the materialized
// trace, across scheduling variants and with the power-aware policy.
func TestRunSourceMatchesTrace(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"easy-nodvfs", nil},
		{"easy-policy", func(s *Spec) { s.GearPolicy = policy(t) }},
		{"conservative", func(s *Spec) { s.Variant = "conservative" }},
		{"sjf-sized", func(s *Spec) { s.Order = "sjf"; s.SizeFactor = 1.2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := streamSpecPair(t, 600, tc.mutate)
			outA, err := execute(a)
			if err != nil {
				t.Fatal(err)
			}
			outB, err := execute(b)
			if err != nil {
				t.Fatal(err)
			}
			if outA.Results != outB.Results {
				t.Fatalf("streamed Results differ:\ntrace:  %+v\nsource: %+v", outA.Results, outB.Results)
			}
			if outA.CPUs != outB.CPUs || outA.PeakEvents != outB.PeakEvents {
				t.Fatalf("outcome metadata differs: cpus %d/%d peak %d/%d",
					outA.CPUs, outB.CPUs, outA.PeakEvents, outB.PeakEvents)
			}
		})
	}
}

// TestRunSourceRepeatable: Execute rewinds the source, so a scenario
// compiled from one Spec (and ExecutePair, which reuses it) executes any
// number of times.
func TestRunSourceRepeatable(t *testing.T) {
	_, b := streamSpecPair(t, 400, func(s *Spec) { s.GearPolicy = policy(t) })
	first, err := execute(b)
	if err != nil {
		t.Fatal(err)
	}
	second, err := execute(b)
	if err != nil {
		t.Fatal(err)
	}
	if first.Results != second.Results {
		t.Fatal("rerun over the same source diverged")
	}
	withPol, base, err := executePair(b)
	if err != nil {
		t.Fatal(err)
	}
	if withPol.Results != first.Results {
		t.Fatal("ExecutePair policy run diverged")
	}
	if base.Results == first.Results {
		t.Fatal("baseline unexpectedly identical to the policy run")
	}
}

// TestRunWorkloadInputValidation: exactly one of Trace and Source.
func TestRunWorkloadInputValidation(t *testing.T) {
	if _, err := execute(Spec{}); err == nil {
		t.Fatal("accepted a spec with no workload")
	}
	a, b := streamSpecPair(t, 10, nil)
	both := Spec{Trace: a.Trace, Source: b.Source}
	if _, err := execute(both); err == nil {
		t.Fatal("accepted a spec with both Trace and Source")
	}
}

// TestRunSourceKeepCollector: per-job records work over streamed
// workloads too (the jobs are allocated per arrival and retained by the
// collector).
func TestRunSourceKeepCollector(t *testing.T) {
	a, b := streamSpecPair(t, 300, func(s *Spec) { s.KeepCollector = true })
	outA, err := execute(a)
	if err != nil {
		t.Fatal(err)
	}
	outB, err := execute(b)
	if err != nil {
		t.Fatal(err)
	}
	recA, recB := outA.Collector.Records(), outB.Collector.Records()
	if len(recA) != 300 || len(recB) != 300 {
		t.Fatalf("records %d/%d, want 300", len(recA), len(recB))
	}
	for i := range recA {
		if recA[i].Job.ID != recB[i].Job.ID || recA[i].Start != recB[i].Start ||
			recA[i].BSLD != recB[i].BSLD || recA[i].Energy != recB[i].Energy {
			t.Fatalf("record %d differs: %+v vs %+v", i, recA[i], recB[i])
		}
	}
}
