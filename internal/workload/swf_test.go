package workload

import (
	"bytes"
	"strings"
	"testing"
)

const sampleSWF = `; Sample workload
; MaxProcs: 64
; MaxJobs: 4
1 0 -1 120 4 -1 -1 4 300 -1 1 -1 -1 -1 -1 -1 -1 -1
2 60 -1 600 -1 -1 -1 8 900 -1 1 -1 -1 -1 -1 -1 -1 -1
3 90 -1 -1 2 -1 -1 2 100 -1 0 -1 -1 -1 -1 -1 -1 -1
4 120 -1 50 1 -1 -1 -1 -1 -1 1 -1 -1 -1 -1 -1 -1 -1
`

func TestParseSWF(t *testing.T) {
	tr, err := ParseSWF(strings.NewReader(sampleSWF), "sample", 0)
	if err != nil {
		t.Fatalf("ParseSWF: %v", err)
	}
	if tr.CPUs != 64 {
		t.Errorf("CPUs = %d, want 64 from MaxProcs header", tr.CPUs)
	}
	// Job 3 has runtime -1 and must be cleaned out.
	if len(tr.Jobs) != 3 {
		t.Fatalf("parsed %d jobs, want 3", len(tr.Jobs))
	}
	j1 := tr.Jobs[0]
	if j1.ID != 1 || j1.Submit != 0 || j1.Runtime != 120 || j1.Procs != 4 || j1.ReqTime != 300 {
		t.Errorf("job 1 = %+v", j1)
	}
	// Job 2: requested procs (field 8) preferred over allocated (-1).
	if tr.Jobs[1].Procs != 8 {
		t.Errorf("job 2 procs = %d, want 8", tr.Jobs[1].Procs)
	}
	// Job 4: no requested procs -> allocated; no requested time -> runtime.
	j4 := tr.Jobs[2]
	if j4.Procs != 1 || j4.ReqTime != 50 {
		t.Errorf("job 4 = %+v, want procs=1 reqtime=50", j4)
	}
}

func TestParseSWFExplicitCPUs(t *testing.T) {
	in := "1 0 -1 10 2 -1 -1 2 20 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
	tr, err := ParseSWF(strings.NewReader(in), "x", 16)
	if err != nil {
		t.Fatalf("ParseSWF: %v", err)
	}
	if tr.CPUs != 16 {
		t.Errorf("CPUs = %d, want 16 from argument", tr.CPUs)
	}
}

func TestParseSWFNoSystemSize(t *testing.T) {
	in := "1 0 -1 10 2 -1 -1 2 20 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
	if _, err := ParseSWF(strings.NewReader(in), "x", 0); err == nil {
		t.Error("expected error when system size is unknown")
	}
}

func TestParseSWFMalformed(t *testing.T) {
	cases := []string{
		"1 2 3\n",                  // too few fields
		"a b c d e f g h i\n",      // non-numeric
		"1 0 -1 10 x -1 -1 2 20\n", // non-numeric field
	}
	for _, in := range cases {
		if _, err := ParseSWF(strings.NewReader(in), "bad", 8); err == nil {
			t.Errorf("malformed input accepted: %q", in)
		}
	}
}

func TestParseSWFSortsBySubmit(t *testing.T) {
	in := `; MaxProcs: 8
2 100 -1 10 1 -1 -1 1 20 -1 1 -1 -1 -1 -1 -1 -1 -1
1 50 -1 10 1 -1 -1 1 20 -1 1 -1 -1 -1 -1 -1 -1 -1
`
	tr, err := ParseSWF(strings.NewReader(in), "x", 0)
	if err != nil {
		t.Fatalf("ParseSWF: %v", err)
	}
	if tr.Jobs[0].ID != 1 {
		t.Error("jobs not sorted by submit time")
	}
}

func TestSWFRoundTrip(t *testing.T) {
	orig := &Trace{Name: "rt", CPUs: 32, Jobs: []*Job{
		{ID: 1, Submit: 0, Runtime: 100, Procs: 4, ReqTime: 200, Beta: -1},
		{ID: 2, Submit: 3600, Runtime: 7200, Procs: 16, ReqTime: 7200, Beta: -1},
	}}
	var buf bytes.Buffer
	if err := WriteSWF(&buf, orig); err != nil {
		t.Fatalf("WriteSWF: %v", err)
	}
	got, err := ParseSWF(&buf, "rt", 0)
	if err != nil {
		t.Fatalf("ParseSWF: %v", err)
	}
	if got.CPUs != orig.CPUs {
		t.Errorf("CPUs = %d, want %d", got.CPUs, orig.CPUs)
	}
	if len(got.Jobs) != len(orig.Jobs) {
		t.Fatalf("jobs = %d, want %d", len(got.Jobs), len(orig.Jobs))
	}
	for i, j := range got.Jobs {
		o := orig.Jobs[i]
		if j.ID != o.ID || j.Submit != o.Submit || j.Runtime != o.Runtime ||
			j.Procs != o.Procs || j.ReqTime != o.ReqTime {
			t.Errorf("job %d = %+v, want %+v", i, j, o)
		}
	}
}

func TestSWFHeaderParsing(t *testing.T) {
	if v, ok := swfHeaderInt("; MaxProcs: 128", "MaxProcs"); !ok || v != 128 {
		t.Errorf("header parse = %d,%v", v, ok)
	}
	if v, ok := swfHeaderInt(";MaxProcs:64", "MaxProcs"); !ok || v != 64 {
		t.Errorf("compact header parse = %d,%v", v, ok)
	}
	if _, ok := swfHeaderInt("; Computer: IBM SP2", "MaxProcs"); ok {
		t.Error("unrelated header matched")
	}
	if _, ok := swfHeaderInt("; MaxProcs: lots", "MaxProcs"); ok {
		t.Error("non-numeric header value accepted")
	}
}

// The SWF status (field 11) is parsed, preserved by WriteSWF, and drives
// the opt-in replay filter; the package doc has always listed it as
// relevant, but the seed parser never read it.
func TestSWFStatusParsedAndFiltered(t *testing.T) {
	const log = `; MaxProcs: 64
1 0 -1 100 4 -1 -1 4 200 -1 1 7 -1 -1 -1 -1 -1 -1
2 10 -1 50 2 -1 -1 2 100 -1 0 7 -1 -1 -1 -1 -1 -1
3 20 -1 60 2 -1 -1 2 100 -1 5 8 -1 -1 -1 -1 -1 -1
4 30 -1 70 2 -1 -1 2 100 -1 -1 8 -1 -1 -1 -1 -1 -1
`
	raw, err := ParseSWF(strings.NewReader(log), "status", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw.Jobs) != 4 {
		t.Fatalf("unfiltered parse kept %d jobs, want 4", len(raw.Jobs))
	}
	wantStatus := []int{StatusCompleted, StatusFailed, StatusCanceled, StatusUnknown}
	for i, j := range raw.Jobs {
		if j.Status != wantStatus[i] {
			t.Errorf("job %d status = %d, want %d", j.ID, j.Status, wantStatus[i])
		}
	}

	noFailed, err := ParseSWFFiltered(strings.NewReader(log), "status", 0, SWFFilter{DropFailed: true})
	if err != nil {
		t.Fatal(err)
	}
	if ids := jobIDs(noFailed); !equalInts(ids, []int{1, 3, 4}) {
		t.Errorf("DropFailed kept %v, want [1 3 4]", ids)
	}
	neither, err := ParseSWFFiltered(strings.NewReader(log), "status", 0,
		SWFFilter{DropFailed: true, DropCanceled: true})
	if err != nil {
		t.Fatal(err)
	}
	if ids := jobIDs(neither); !equalInts(ids, []int{1, 4}) {
		t.Errorf("DropFailed+DropCanceled kept %v, want [1 4]", ids)
	}
}

func jobIDs(t *Trace) []int {
	ids := make([]int, len(t.Jobs))
	for i, j := range t.Jobs {
		ids[i] = j.ID
	}
	return ids
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Statuses survive a write/parse/write cycle bit-for-bit, and a filtered
// reparse of written output drops exactly the failed jobs.
func TestSWFStatusRoundTrip(t *testing.T) {
	orig := &Trace{Name: "rt", CPUs: 32, Jobs: []*Job{
		{ID: 1, Submit: 0, Runtime: 100, Procs: 4, ReqTime: 200, Beta: -1, User: -1, Status: StatusCompleted},
		{ID: 2, Submit: 60, Runtime: 50, Procs: 2, ReqTime: 100, Beta: -1, User: 3, Status: StatusFailed},
		{ID: 3, Submit: 120, Runtime: 70, Procs: 2, ReqTime: 100, Beta: -1, User: 3, Status: StatusCanceled},
	}}
	var buf bytes.Buffer
	if err := WriteSWF(&buf, orig); err != nil {
		t.Fatal(err)
	}
	first := buf.String()
	got, err := ParseSWF(strings.NewReader(first), "rt", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range got.Jobs {
		if j.Status != orig.Jobs[i].Status {
			t.Errorf("job %d status = %d, want %d", j.ID, j.Status, orig.Jobs[i].Status)
		}
	}
	var buf2 bytes.Buffer
	if err := WriteSWF(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != first {
		t.Errorf("second write differs from first:\n%s\nvs\n%s", buf2.String(), first)
	}
	filtered, err := ParseSWFFiltered(strings.NewReader(first), "rt", 0, SWFFilter{DropFailed: true})
	if err != nil {
		t.Fatal(err)
	}
	if ids := jobIDs(filtered); !equalInts(ids, []int{1, 3}) {
		t.Errorf("filtered reparse kept %v, want [1 3]", ids)
	}
}

// A hand-built job that never sets Status must survive a write/parse
// cycle with DropFailed enabled: the zero value is "unknown", not
// "failed", so filters cannot silently empty programmatic traces.
func TestSWFZeroValueStatusIsNotFailed(t *testing.T) {
	tr := &Trace{Name: "zv", CPUs: 8, Jobs: []*Job{
		{ID: 1, Submit: 0, Runtime: 10, Procs: 1, ReqTime: 10, Beta: -1, User: -1},
	}}
	var buf bytes.Buffer
	if err := WriteSWF(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ParseSWFFiltered(strings.NewReader(buf.String()), "zv", 0, SWFFilter{DropFailed: true, DropCanceled: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Jobs) != 1 {
		t.Fatalf("kept %d jobs, want 1 (zero-value status must not be dropped)", len(got.Jobs))
	}
	if got.Jobs[0].Status != StatusUnknown {
		t.Errorf("status = %d, want StatusUnknown", got.Jobs[0].Status)
	}
}
