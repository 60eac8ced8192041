package wgen

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/workload"
)

// streamModels are the models the determinism tests cover: every paper
// preset at its native length plus shortened stress presets (so the
// daily-cycle path and the Million parameters are exercised without
// million-job test runtimes).
func streamModels() []Model {
	models := Presets()
	million := Million()
	million.Jobs = 20_000
	tenM := TenMillion()
	tenM.Jobs = 5_000
	models = append(models, million, tenM)
	// Exercise the per-user and per-job-beta draw paths the presets skip.
	users := CTC()
	users.Name = "CTC-users"
	users.Jobs = 2_000
	users.Users = 50
	users.BetaMin, users.BetaMax = 0.3, 0.7
	// And the daily cycle on a paper-sized machine.
	cycle := SDSC()
	cycle.Name = "SDSC-cycle"
	cycle.Jobs = 2_000
	cycle.DailyCycle = 0.5
	return append(models, users, cycle)
}

// TestStreamMatchesGenerate pins the tentpole property of the streaming
// generator: Stream(m) yields the exact job sequence Generate(m)
// materializes — same IDs, same draws, bit-identical submit times — for
// every preset family, so the streaming pipeline replays the same
// schedules the materialized one does.
func TestStreamMatchesGenerate(t *testing.T) {
	for _, m := range streamModels() {
		t.Run(m.Name, func(t *testing.T) {
			want, err := Generate(m)
			if err != nil {
				t.Fatal(err)
			}
			src, err := Stream(m)
			if err != nil {
				t.Fatal(err)
			}
			if src.Name() != want.Name || src.CPUs() != want.CPUs {
				t.Fatalf("source metadata %s/%d, want %s/%d", src.Name(), src.CPUs(), want.Name, want.CPUs)
			}
			if src.Len() != len(want.Jobs) {
				t.Fatalf("Len() = %d, want %d", src.Len(), len(want.Jobs))
			}
			for i, wj := range want.Jobs {
				gj, ok := src.Next()
				if !ok {
					t.Fatalf("stream ended after %d jobs, want %d", i, len(want.Jobs))
				}
				if gj != *wj {
					t.Fatalf("job %d: streamed %+v, generated %+v", i, gj, *wj)
				}
			}
			if _, ok := src.Next(); ok {
				t.Fatalf("stream yields more than %d jobs", len(want.Jobs))
			}
			if err := src.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStreamSWFByteIdentical pins the end-to-end export: the streaming
// writer over a lazy source produces the identical bytes WriteSWF
// produces from the materialized trace, MaxJobs header included.
func TestStreamSWFByteIdentical(t *testing.T) {
	for _, m := range streamModels() {
		t.Run(m.Name, func(t *testing.T) {
			tr, err := Generate(m)
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := workload.WriteSWF(&want, tr); err != nil {
				t.Fatal(err)
			}
			src, err := Stream(m)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			n, err := workload.WriteSWFStream(&got, src)
			if err != nil {
				t.Fatal(err)
			}
			if n != len(tr.Jobs) {
				t.Fatalf("streamed %d jobs, want %d", n, len(tr.Jobs))
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("streamed SWF differs from materialized (got %d bytes, want %d)", got.Len(), want.Len())
			}
		})
	}
}

// TestStreamReset proves a source rewinds exactly: a partially consumed
// then reset stream replays the identical sequence, so one source can
// back repeated simulation runs.
func TestStreamReset(t *testing.T) {
	m := SDSCBlue()
	m.Jobs = 1_000
	m.DailyCycle = 0.4
	src, err := Stream(m)
	if err != nil {
		t.Fatal(err)
	}
	first := make([]workload.Job, 0, m.Jobs)
	for {
		j, ok := src.Next()
		if !ok {
			break
		}
		first = append(first, j)
	}
	if len(first) != m.Jobs {
		t.Fatalf("first pass yielded %d jobs, want %d", len(first), m.Jobs)
	}
	// Partial consume, then rewind.
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 137; i++ {
		if _, ok := src.Next(); !ok {
			t.Fatalf("partial pass ended at %d", i)
		}
	}
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	for i, w := range first {
		g, ok := src.Next()
		if !ok {
			t.Fatalf("replay ended after %d jobs", i)
		}
		if g != w {
			t.Fatalf("replay job %d: %+v, want %+v", i, g, w)
		}
	}
}

// drainMatches reads src to its end and fails unless it yields exactly
// want's jobs.
func drainMatches(src *Source, want *workload.Trace) error {
	for i, wj := range want.Jobs {
		gj, ok := src.Next()
		if !ok {
			return fmt.Errorf("stream ended after %d jobs, want %d", i, len(want.Jobs))
		}
		if gj != *wj {
			return fmt.Errorf("job %d: streamed %+v, generated %+v", i, gj, *wj)
		}
	}
	if _, ok := src.Next(); ok {
		return fmt.Errorf("stream yields more than %d jobs", len(want.Jobs))
	}
	return nil
}

// TestStreamRepeatedExecutionsMatchGenerate pins the rewinds after the
// first: once a prototype's first rewind has counted the attribute
// section's RNG steps, every later execution of a clone, and of the
// prototype itself after Reset, positions its gap cursor by skipping a
// fresh generator, and must still yield Generate's jobs bit for bit.
func TestStreamRepeatedExecutionsMatchGenerate(t *testing.T) {
	for _, m := range streamModels() {
		t.Run(m.Name, func(t *testing.T) {
			want, err := Generate(m)
			if err != nil {
				t.Fatal(err)
			}
			proto, err := Stream(m)
			if err != nil {
				t.Fatal(err)
			}
			for exec := 1; exec <= 3; exec++ {
				if err := drainMatches(proto.Clone(), want); err != nil {
					t.Fatalf("clone execution %d: %v", exec, err)
				}
			}
			if err := proto.Reset(); err != nil {
				t.Fatal(err)
			}
			if err := drainMatches(proto, want); err != nil {
				t.Fatalf("prototype after the clones: %v", err)
			}
		})
	}
}

// TestStreamConcurrentFirstRewinds has several clones of a fresh
// prototype take their first rewind at once, as concurrent replays of
// one shared workload do: one of them counts the attribute section's
// steps, the others wait for the count, and every clone yields Generate's
// jobs. Run under -race it also checks the count's publication.
func TestStreamConcurrentFirstRewinds(t *testing.T) {
	m := CTC()
	m.Name = "CTC-users"
	m.Jobs = 2_000
	m.Users = 50
	m.DailyCycle = 0.3
	want, err := Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := Stream(m)
	if err != nil {
		t.Fatal(err)
	}
	const clones = 4
	errs := make([]error, clones)
	var wg sync.WaitGroup
	for k := 0; k < clones; k++ {
		src := proto.Clone()
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			errs[k] = drainMatches(src, want)
		}(k)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Errorf("clone %d: %v", k, err)
		}
	}
}

// TestStreamRejectsInvalidModel mirrors Generate's validation.
func TestStreamRejectsInvalidModel(t *testing.T) {
	m := CTC()
	m.Load = -1
	if _, err := Stream(m); err == nil {
		t.Fatal("Stream accepted an invalid model")
	}
}
