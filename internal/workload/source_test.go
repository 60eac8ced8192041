package workload

import "testing"

// testTrace builds a small sorted trace for source tests.
func testTrace(name string, cpus int, submits ...float64) *Trace {
	tr := &Trace{Name: name, CPUs: cpus}
	for i, s := range submits {
		tr.Jobs = append(tr.Jobs, &Job{
			ID: i + 1, Submit: s, Runtime: 100, Procs: 1 + i%cpus, ReqTime: 200,
			Beta: -1, User: -1, Status: StatusCompleted,
		})
	}
	tr.SortBySubmit()
	return tr
}

func drain(t *testing.T, src JobSource) []Job {
	t.Helper()
	var out []Job
	for {
		j, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, j)
	}
	if err := src.Err(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	return out
}

func TestSliceSourceRoundTrip(t *testing.T) {
	tr := testTrace("rt", 4, 0, 5, 5, 12)
	src := tr.Source()
	if src.Name() != "rt" || src.CPUs() != 4 || src.Len() != 4 {
		t.Fatalf("metadata %s/%d/%d", src.Name(), src.CPUs(), src.Len())
	}
	got := drain(t, src)
	if len(got) != len(tr.Jobs) {
		t.Fatalf("drained %d jobs, want %d", len(got), len(tr.Jobs))
	}
	for i, j := range got {
		if j != *tr.Jobs[i] {
			t.Fatalf("job %d: %+v, want %+v", i, j, *tr.Jobs[i])
		}
	}
	// Reset replays the same jobs.
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	again := drain(t, src)
	if len(again) != len(got) {
		t.Fatalf("replay drained %d jobs, want %d", len(again), len(got))
	}
	for i := range again {
		if again[i] != got[i] {
			t.Fatalf("replay job %d differs", i)
		}
	}
}

func TestSliceSourceNextPtrIdentity(t *testing.T) {
	tr := testTrace("ptr", 2, 0, 1)
	src := tr.Source()
	j, ok := src.NextPtr()
	if !ok || j != tr.Jobs[0] {
		t.Fatal("NextPtr does not hand out the slice's own pointers")
	}
}

func TestStatsOfMatchesComputeStats(t *testing.T) {
	tr := testTrace("stats", 8, 0, 10, 20, 35, 500)
	tr.Jobs[2].Procs = 1 // a serial job
	want := tr.ComputeStats()
	got, err := StatsOf(tr.Source())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("StatsOf = %+v, want %+v", got, want)
	}
}
