package workload

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
)

// stringOpener adapts a string to the SWFSource reopen callback.
func stringOpener(s string) func() (io.ReadCloser, error) {
	return func() (io.ReadCloser, error) { return io.NopCloser(strings.NewReader(s)), nil }
}

// TestSWFSourceMatchesParseSWF streams the shared sample log and a
// generated round-trip and checks the incremental reader yields exactly
// the jobs the materializing parser produces.
func TestSWFSourceMatchesParseSWF(t *testing.T) {
	tr := testTrace("gen", 64, 0, 5, 5, 9, 100, 3600)
	tr.Jobs[1].Status = StatusFailed
	var buf bytes.Buffer
	if err := WriteSWF(&buf, tr); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		input  string
		cpus   int
		filter SWFFilter
	}{
		{"sample", sampleSWF, 64, SWFFilter{}},
		{"roundtrip", buf.String(), 0, SWFFilter{}},
		{"roundtrip-dropfailed", buf.String(), 0, SWFFilter{DropFailed: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := ParseSWFFiltered(strings.NewReader(tc.input), "w", tc.cpus, tc.filter)
			if err != nil {
				t.Fatal(err)
			}
			src, err := NewSWFSource(stringOpener(tc.input), "w", tc.cpus, tc.filter)
			if err != nil {
				t.Fatal(err)
			}
			if src.CPUs() != want.CPUs {
				t.Fatalf("CPUs = %d, want %d", src.CPUs(), want.CPUs)
			}
			got := drain(t, src)
			if len(got) != len(want.Jobs) {
				t.Fatalf("streamed %d jobs, want %d", len(got), len(want.Jobs))
			}
			for i := range got {
				if got[i] != *want.Jobs[i] {
					t.Fatalf("job %d: %+v, want %+v", i, got[i], *want.Jobs[i])
				}
			}
			// Reset replays from the top.
			if err := src.Reset(); err != nil {
				t.Fatal(err)
			}
			again := drain(t, src)
			if len(again) != len(got) {
				t.Fatalf("replay yielded %d jobs, want %d", len(again), len(got))
			}
			for i := range got {
				if again[i] != got[i] {
					t.Fatalf("replay job %d differs", i)
				}
			}
		})
	}
}

// TestSWFSourceRejectsUnsorted: the incremental reader cannot sort, so a
// submit-time regression must surface as an error, not silent disorder.
func TestSWFSourceRejectsUnsorted(t *testing.T) {
	input := "; MaxProcs: 8\n" +
		"1 100 -1 10 2 -1 -1 2 20 -1 1 -1 -1 -1 -1 -1 -1 -1\n" +
		"2 50 -1 10 2 -1 -1 2 20 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
	src, err := NewSWFSource(stringOpener(input), "unsorted", 0, SWFFilter{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := src.Next(); !ok {
		t.Fatal("first job rejected")
	}
	if _, ok := src.Next(); ok {
		t.Fatal("out-of-order job accepted")
	}
	if src.Err() == nil {
		t.Fatal("no error for unsorted log")
	}
}

// TestSWFSourceMissingSize mirrors ParseSWF's header requirement, caught
// at open time instead of after a full parse.
func TestSWFSourceMissingSize(t *testing.T) {
	input := "1 0 -1 10 2 -1 -1 2 20 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
	if _, err := NewSWFSource(stringOpener(input), "nosize", 0, SWFFilter{}); err == nil {
		t.Fatal("accepted a log with no system size")
	}
	if _, err := NewSWFSource(stringOpener(input), "sized", 16, SWFFilter{}); err != nil {
		t.Fatalf("explicit size rejected: %v", err)
	}
}

// TestSWFSourceOpenFailure propagates reopen errors from Reset.
func TestSWFSourceOpenFailure(t *testing.T) {
	calls := 0
	open := func() (io.ReadCloser, error) {
		calls++
		if calls > 1 {
			return nil, fmt.Errorf("gone")
		}
		return io.NopCloser(strings.NewReader(sampleSWF)), nil
	}
	src, err := NewSWFSource(open, "flaky", 64, SWFFilter{})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Reset(); err == nil {
		t.Fatal("Reset swallowed the reopen failure")
	}
}

// uncounted hides a source's length: it embeds only the JobSource
// methods, so it does not implement Counted.
type uncounted struct{ JobSource }

// TestWriteSWFStreamUnknownLength: without a Counted source the MaxJobs
// header is omitted but the job lines are identical.
func TestWriteSWFStreamUnknownLength(t *testing.T) {
	tr := testTrace("u", 8, 0, 1, 2)
	var want bytes.Buffer
	if err := WriteSWF(&want, tr); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	n, err := WriteSWFStream(&got, uncounted{tr.Source()})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("wrote %d jobs", n)
	}
	wantStr := strings.Replace(want.String(), "; MaxJobs: 3\n", "", 1)
	if got.String() != wantStr {
		t.Fatalf("streamed output differs:\n%s\nwant:\n%s", got.String(), wantStr)
	}
}
