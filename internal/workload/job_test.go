package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func validJob() *Job {
	return &Job{ID: 1, Submit: 0, Runtime: 100, Procs: 4, ReqTime: 200, Beta: -1}
}

func TestJobValidate(t *testing.T) {
	if err := validJob().Validate(); err != nil {
		t.Errorf("valid job rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Job)
	}{
		{"zero procs", func(j *Job) { j.Procs = 0 }},
		{"negative submit", func(j *Job) { j.Submit = -1 }},
		{"negative runtime", func(j *Job) { j.Runtime = -5 }},
		{"zero reqtime", func(j *Job) { j.ReqTime = 0 }},
		{"NaN beta", func(j *Job) { j.Beta = math.NaN() }},
		{"infinite beta", func(j *Job) { j.Beta = math.Inf(1) }},
	}
	for _, c := range cases {
		j := validJob()
		c.mutate(j)
		if err := j.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestEffectiveRuntimeCapsAtRequest(t *testing.T) {
	j := validJob()
	j.Runtime, j.ReqTime = 500, 300
	if got := j.EffectiveRuntime(); got != 300 {
		t.Errorf("EffectiveRuntime = %v, want 300 (killed at limit)", got)
	}
	j.Runtime = 100
	if got := j.EffectiveRuntime(); got != 100 {
		t.Errorf("EffectiveRuntime = %v, want 100", got)
	}
}

func TestTraceValidate(t *testing.T) {
	tr := &Trace{Name: "t", CPUs: 8, Jobs: []*Job{validJob()}}
	if err := tr.Validate(); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
	if err := (&Trace{Name: "t", CPUs: 0, Jobs: []*Job{validJob()}}).Validate(); err == nil {
		t.Error("zero-CPU trace accepted")
	}
	if err := (&Trace{Name: "t", CPUs: 8}).Validate(); err == nil {
		t.Error("empty trace accepted")
	}
	big := validJob()
	big.Procs = 16
	if err := (&Trace{Name: "t", CPUs: 8, Jobs: []*Job{big}}).Validate(); err == nil {
		t.Error("oversized job accepted")
	}
}

func TestSortBySubmit(t *testing.T) {
	tr := &Trace{Name: "t", CPUs: 8, Jobs: []*Job{
		{ID: 3, Submit: 50, Runtime: 1, Procs: 1, ReqTime: 1},
		{ID: 1, Submit: 10, Runtime: 1, Procs: 1, ReqTime: 1},
		{ID: 2, Submit: 10, Runtime: 1, Procs: 1, ReqTime: 1},
	}}
	tr.SortBySubmit()
	if tr.Jobs[0].ID != 1 || tr.Jobs[1].ID != 2 || tr.Jobs[2].ID != 3 {
		t.Errorf("sorted order = %d,%d,%d, want 1,2,3", tr.Jobs[0].ID, tr.Jobs[1].ID, tr.Jobs[2].ID)
	}
}

func TestComputeStats(t *testing.T) {
	tr := &Trace{Name: "t", CPUs: 10, Jobs: []*Job{
		{ID: 1, Submit: 0, Runtime: 3600, Procs: 1, ReqTime: 3600},
		{ID: 2, Submit: 3600, Runtime: 1800, Procs: 4, ReqTime: 3600},
	}}
	s := tr.ComputeStats()
	if s.Jobs != 2 {
		t.Errorf("Jobs = %d", s.Jobs)
	}
	wantCPUHours := (3600*1 + 1800*4) / 3600.0
	if math.Abs(s.TotalCPUHours-wantCPUHours) > 1e-9 {
		t.Errorf("TotalCPUHours = %v, want %v", s.TotalCPUHours, wantCPUHours)
	}
	if s.Span != 3600 {
		t.Errorf("Span = %v, want 3600", s.Span)
	}
	wantUtil := (3600.0 + 7200.0) / (10 * 3600)
	if math.Abs(s.Utilization-wantUtil) > 1e-9 {
		t.Errorf("Utilization = %v, want %v", s.Utilization, wantUtil)
	}
	if s.SerialShare != 0.5 {
		t.Errorf("SerialShare = %v, want 0.5", s.SerialShare)
	}
	if s.MeanProcs != 2.5 {
		t.Errorf("MeanProcs = %v, want 2.5", s.MeanProcs)
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	s := (&Trace{Name: "e", CPUs: 4}).ComputeStats()
	if s.Jobs != 0 || s.Utilization != 0 {
		t.Error("empty trace stats should be zero")
	}
}

func TestSlice(t *testing.T) {
	tr := &Trace{Name: "t", CPUs: 4, Jobs: make([]*Job, 10)}
	for i := range tr.Jobs {
		tr.Jobs[i] = &Job{ID: i, Runtime: 1, Procs: 1, ReqTime: 1}
	}
	if got := tr.Slice(2, 5); len(got.Jobs) != 3 || got.Jobs[0].ID != 2 {
		t.Errorf("Slice(2,5) wrong: len=%d", len(got.Jobs))
	}
	if got := tr.Slice(-5, 100); len(got.Jobs) != 10 {
		t.Errorf("clamped slice wrong: len=%d", len(got.Jobs))
	}
	if got := tr.Slice(7, 3); len(got.Jobs) != 0 {
		t.Errorf("inverted slice should be empty, len=%d", len(got.Jobs))
	}
}

// Property: EffectiveRuntime is always <= both Runtime and ReqTime bounds
// that apply, and non-negative for valid jobs.
func TestQuickEffectiveRuntime(t *testing.T) {
	f := func(rt, rq uint32) bool {
		j := &Job{ID: 1, Runtime: float64(rt), Procs: 1, ReqTime: float64(rq) + 1}
		e := j.EffectiveRuntime()
		return e >= 0 && e <= j.Runtime && e <= j.ReqTime
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
