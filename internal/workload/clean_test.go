package workload

import (
	"bytes"
	"testing"
)

func flurryTrace() *Trace {
	tr := &Trace{Name: "f", CPUs: 16}
	id := 0
	add := func(user int, submit float64) {
		id++
		tr.Jobs = append(tr.Jobs, &Job{
			ID: id, Submit: submit, Runtime: 10, Procs: 1, ReqTime: 20, Beta: -1, User: user,
		})
	}
	// User 0: a flurry of 10 jobs in 90 seconds.
	for i := 0; i < 10; i++ {
		add(0, float64(i*10))
	}
	// User 1: steady pace, 1 job per 1000 s.
	for i := 0; i < 5; i++ {
		add(1, float64(i*1000))
	}
	// Unknown user: must never be dropped.
	add(-1, 50)
	return tr
}

func TestRemoveFlurriesDropsBurstTail(t *testing.T) {
	tr := flurryTrace()
	cleaned, removed := RemoveFlurries(tr, CleanConfig{Window: 100, MaxJobsPerUser: 3})
	// User 0 submitted 10 jobs within 90 s: the first 3 stay, 7 go.
	if removed != 7 {
		t.Fatalf("removed = %d, want 7", removed)
	}
	count := map[int]int{}
	for _, j := range cleaned.Jobs {
		count[j.User]++
	}
	if count[0] != 3 {
		t.Errorf("user 0 kept %d, want 3", count[0])
	}
	if count[1] != 5 {
		t.Errorf("user 1 kept %d, want 5 (steady user untouched)", count[1])
	}
	if count[-1] != 1 {
		t.Errorf("unknown-user job dropped")
	}
}

func TestRemoveFlurriesSlidingWindow(t *testing.T) {
	tr := &Trace{Name: "w", CPUs: 4}
	// 2 jobs at t=0, 2 at t=200: with window 100 and max 2, all stay.
	for i, s := range []float64{0, 1, 200, 201} {
		tr.Jobs = append(tr.Jobs, &Job{ID: i + 1, Submit: s, Runtime: 1, Procs: 1, ReqTime: 1, User: 7})
	}
	_, removed := RemoveFlurries(tr, CleanConfig{Window: 100, MaxJobsPerUser: 2})
	if removed != 0 {
		t.Errorf("removed = %d, want 0 (bursts in separate windows)", removed)
	}
	// With window 300 the four jobs share one window: two are dropped.
	_, removed = RemoveFlurries(tr, CleanConfig{Window: 300, MaxJobsPerUser: 2})
	if removed != 2 {
		t.Errorf("removed = %d, want 2", removed)
	}
}

func TestRemoveFlurriesDisabled(t *testing.T) {
	tr := flurryTrace()
	cleaned, removed := RemoveFlurries(tr, CleanConfig{})
	if removed != 0 || len(cleaned.Jobs) != len(tr.Jobs) {
		t.Error("zero config should be a no-op copy")
	}
	// The copy must be independent.
	cleaned.Jobs = cleaned.Jobs[:0]
	if len(tr.Jobs) == 0 {
		t.Error("original trace mutated")
	}
}

func TestRemoveFlurriesPreservesOrderAndOriginal(t *testing.T) {
	tr := flurryTrace()
	before := len(tr.Jobs)
	cleaned, _ := RemoveFlurries(tr, DefaultCleanConfig())
	if len(tr.Jobs) != before {
		t.Error("original trace mutated")
	}
	for i := 1; i < len(cleaned.Jobs); i++ {
		if cleaned.Jobs[i].ID < cleaned.Jobs[i-1].ID {
			t.Fatal("cleaning reordered jobs")
		}
	}
}

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
