package workload

import (
	"bytes"
	"testing"
)

func TestSWFUserRoundTrip(t *testing.T) {
	tr := &Trace{Name: "u", CPUs: 8, Jobs: []*Job{
		{ID: 1, Submit: 0, Runtime: 10, Procs: 1, ReqTime: 20, Beta: -1, User: 42},
		{ID: 2, Submit: 5, Runtime: 10, Procs: 1, ReqTime: 20, Beta: -1, User: -1},
	}}
	var buf bytes.Buffer
	if err := WriteSWF(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ParseSWF(&buf, "u", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Jobs[0].User != 42 {
		t.Errorf("user = %d, want 42", got.Jobs[0].User)
	}
	if got.Jobs[1].User != -1 {
		t.Errorf("unknown user = %d, want -1", got.Jobs[1].User)
	}
}

func TestScaleLoad(t *testing.T) {
	tr := &Trace{Name: "s", CPUs: 4, Jobs: []*Job{
		{ID: 1, Submit: 100, Runtime: 10, Procs: 1, ReqTime: 10},
		{ID: 2, Submit: 300, Runtime: 10, Procs: 1, ReqTime: 10},
		{ID: 3, Submit: 500, Runtime: 10, Procs: 1, ReqTime: 10},
	}}
	scaled := ScaleLoad(tr, 2)
	// Gaps halve: 100, 200, 300.
	want := []float64{100, 200, 300}
	for i, w := range want {
		if scaled.Jobs[i].Submit != w {
			t.Errorf("job %d submit = %v, want %v", i, scaled.Jobs[i].Submit, w)
		}
	}
	// The original trace must be untouched and jobs independent.
	if tr.Jobs[1].Submit != 300 {
		t.Error("ScaleLoad mutated its input")
	}
	scaled.Jobs[0].Runtime = 999
	if tr.Jobs[0].Runtime != 10 {
		t.Error("ScaleLoad shares job pointers with input")
	}
}

func TestScaleLoadDegenerate(t *testing.T) {
	tr := &Trace{Name: "d", CPUs: 4, Jobs: []*Job{{ID: 1, Submit: 50, Runtime: 1, Procs: 1, ReqTime: 1}}}
	if got := ScaleLoad(tr, 0); got.Jobs[0].Submit != 50 {
		t.Error("zero factor should copy unchanged")
	}
	if got := ScaleLoad(&Trace{Name: "e", CPUs: 4}, 2); len(got.Jobs) != 0 {
		t.Error("empty trace scaling")
	}
}
