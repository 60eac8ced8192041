package wgen

import (
	"testing"

	"repro/internal/workload"
)

// The EcoUsers hook applies to presets through both resolution paths:
// "*" opts in every generated job, materialized and streamed resolution
// agree job for job, and a malformed hook fails resolution instead of
// silently tagging nothing.
func TestResolvePresetEcoUsers(t *testing.T) {
	const jobs = 200
	plain, err := resolveTrace("CTC", jobs, workload.SWFFilter{})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range plain.Jobs {
		if j.Eco {
			t.Fatalf("job %d eco without an EcoUsers hook", j.ID)
		}
	}

	star := workload.SWFFilter{EcoUsers: "*"}
	tr, err := resolveTrace("CTC", jobs, star)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Jobs) != jobs {
		t.Fatalf("resolved %d jobs, want %d", len(tr.Jobs), jobs)
	}
	for _, j := range tr.Jobs {
		if !j.Eco {
			t.Fatalf("job %d not eco under \"*\"", j.ID)
		}
	}

	src, err := ResolveSource("CTC", 0, jobs, star)
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := src.(workload.Counted); !ok || c.Len() != jobs {
		t.Errorf("tagged stream lost its length: %T", src)
	}
	streamed := drainSource(t, src)
	if len(streamed) != len(tr.Jobs) {
		t.Fatalf("streamed %d jobs vs materialized %d", len(streamed), len(tr.Jobs))
	}
	for i, j := range streamed {
		if j != *tr.Jobs[i] {
			t.Fatalf("streamed job %d differs from materialized: %+v vs %+v", i, j, *tr.Jobs[i])
		}
	}

	// User-ID entries parse fine but cannot match a preset without a
	// user pool: every paper preset leaves Job.User at -1.
	ids, err := resolveTrace("CTC", jobs, workload.SWFFilter{EcoUsers: "1,7"})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range ids.Jobs {
		if j.Eco {
			t.Fatalf("job %d (user %d) eco under an ID list on a userless preset", j.ID, j.User)
		}
	}

	bad := workload.SWFFilter{EcoUsers: "seven"}
	if _, err := resolveTrace("CTC", jobs, bad); err == nil {
		t.Error("ResolveTrace accepted a malformed EcoUsers hook")
	}
	if _, err := ResolveSource("CTC", 0, jobs, bad); err == nil {
		t.Error("ResolveSource accepted a malformed EcoUsers hook")
	}
}

// resolveTrace is ResolveSource's materialized counterpart for presets:
// the generated trace with the EcoUsers hook applied.
func resolveTrace(name string, jobs int, filter workload.SWFFilter) (*workload.Trace, error) {
	m, err := Preset(name)
	if err != nil {
		return nil, err
	}
	m.Jobs = jobs
	eco, err := filter.EcoSet()
	if err != nil {
		return nil, err
	}
	tr, err := Generate(m)
	if err != nil {
		return nil, err
	}
	eco.Tag(tr.Jobs)
	return tr, nil
}

// A user-pool model resolved with an ID hook tags exactly the listed
// users' jobs — the preset pipeline matches the SWF field-12 semantics.
func TestStreamEcoUsersWithUserPool(t *testing.T) {
	m := CTC()
	m.Jobs = 300
	m.Users = 20
	src, err := Stream(m)
	if err != nil {
		t.Fatal(err)
	}
	set, err := workload.SWFFilter{EcoUsers: "0,3"}.EcoSet()
	if err != nil {
		t.Fatal(err)
	}
	matched := 0
	for _, j := range drainSource(t, workload.TagEco(src, set)) {
		want := j.User == 0 || j.User == 3
		if j.Eco != want {
			t.Fatalf("job %d user %d eco=%v, want %v", j.ID, j.User, j.Eco, want)
		}
		if want {
			matched++
		}
	}
	if matched == 0 {
		t.Error("no jobs matched the ID hook despite a 20-user pool")
	}
}

// drainSource reads a source to its end and fails the test on a stream
// error.
func drainSource(t *testing.T, src workload.JobSource) []workload.Job {
	t.Helper()
	var out []workload.Job
	for {
		j, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, j)
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
