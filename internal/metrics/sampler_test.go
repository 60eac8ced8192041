package metrics_test

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/wgen"
)

func TestSystemSamplerCollectsPasses(t *testing.T) {
	m := wgen.CTC()
	m.Jobs = 300
	tr, err := wgen.Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	sampler := &metrics.SystemSampler{}
	sc, err := scenario.Compile(scenario.Spec{
		Trace:          tr,
		ExtraRecorders: []sched.Recorder{sampler},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := sc.Execute()
	if err != nil {
		t.Fatal(err)
	}
	// One sample per event: arrivals + completions.
	if len(sampler.Samples) != 2*out.Results.Jobs {
		t.Fatalf("samples = %d, want %d", len(sampler.Samples), 2*out.Results.Jobs)
	}
	prev := -1.0
	for _, s := range sampler.Samples {
		if s.T < prev {
			t.Fatal("sample times not monotone")
		}
		prev = s.T
		if s.Busy < 0 || s.Busy > out.CPUs {
			t.Fatalf("busy %d out of [0,%d]", s.Busy, out.CPUs)
		}
		if s.Queued < 0 {
			t.Fatalf("negative queue %d", s.Queued)
		}
	}
	// The last pass (final completion) must leave an empty system.
	last := sampler.Samples[len(sampler.Samples)-1]
	if last.Busy != 0 || last.Queued != 0 {
		t.Errorf("final sample = %+v, want drained system", last)
	}
}

func TestSamplerSeriesHelpers(t *testing.T) {
	s := &metrics.SystemSampler{Samples: []metrics.SystemSample{
		{T: 0, Queued: 0, Busy: 2},
		{T: 10, Queued: 3, Busy: 4},
		{T: 20, Queued: 1, Busy: 0},
	}}
	if s.MaxQueued() != 3 {
		t.Errorf("MaxQueued = %d", s.MaxQueued())
	}
	u := s.UtilizationSeries(4)
	if len(u) != 3 || u[1][1] != 1.0 || u[0][1] != 0.5 {
		t.Errorf("utilization series = %v", u)
	}
	q := s.QueueSeries()
	if q[1][1] != 3 {
		t.Errorf("queue series = %v", q)
	}
}

func TestSamplerEmpty(t *testing.T) {
	s := &metrics.SystemSampler{}
	if s.MaxQueued() != 0 || len(s.UtilizationSeries(4)) != 0 || len(s.QueueSeries()) != 0 {
		t.Error("empty sampler should return zeros")
	}
}
