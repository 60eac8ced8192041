package profile

import (
	"fmt"
	"testing"
)

// rampProfile returns a profile on a machine of n processors, all busy at
// pass time 0 and released one at each whole second 1..n: bulk-loaded
// into chunks of skyChunkFill deltas, so n = 200 spans seven chunks, and
// the usage at t in [k, k+1) is n−k.
func rampProfile(n int) *Profile {
	rels := make([]Release, n)
	for i := range rels {
		rels[i] = Release{Time: float64(i + 1), CPUs: 1}
	}
	p := New(n)
	p.LoadReleases(n, 0, rels)
	p.BeginPass(0)
	return p
}

// sameSkyline fails unless got's index holds exactly ref's deltas in the
// same chunk layout, both folded to their horizon, and both satisfy the
// index invariants.
func sameSkyline(got, ref *Profile) error {
	for _, p := range []*Profile{got, ref} {
		p.prepare()
		if err := checkSkyDexInvariants(&p.dex); err != nil {
			return err
		}
	}
	if len(got.dex.chunks) != len(ref.dex.chunks) {
		return fmt.Errorf("%d chunks, a search-inserted build %d", len(got.dex.chunks), len(ref.dex.chunks))
	}
	for ci := range got.dex.chunks {
		g, r := got.dex.chunks[ci].ds, ref.dex.chunks[ci].ds
		if len(g) != len(r) {
			return fmt.Errorf("chunk %d holds %d deltas, a search-inserted build %d", ci, len(g), len(r))
		}
		for k := range g {
			if g[k] != r[k] {
				return fmt.Errorf("chunk %d[%d] = %+v, a search-inserted build %+v", ci, k, g[k], r[k])
			}
		}
	}
	return nil
}

// TestReservationInsertedWhereSweepStopped covers the slot the sweep
// leaves for the reservation that follows it. Right after the sweep the
// reservation goes to the recorded positions; after a job start or a cut
// in between — both shift the deltas before the slot inside its chunk —
// the slot must be gone and the reservation searched for. Every case must
// leave the skyline a search-inserting build produces.
func TestReservationInsertedWhereSweepStopped(t *testing.T) {
	resv := Entry{Start: 50, End: 80, CPUs: 50}
	for _, c := range []struct {
		name    string
		prepare func(p *Profile) // before the sweep
		between func(p *Profile) // between the sweep and the reservation
		slot    bool             // the reservation finds the slot
	}{
		{name: "after-sweep", slot: true},
		{name: "job-start-between", between: func(p *Profile) {
			p.Add(Entry{Start: 0, End: 49.5, CPUs: 1})
		}},
		{name: "cut-between", prepare: func(p *Profile) {
			p.AddReservation(Entry{Start: 49.25, End: 49.75, CPUs: 1})
		}, between: func(p *Profile) {
			p.TruncateReservations(0)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			p, ref := rampProfile(200), rampProfile(200)
			if c.prepare != nil {
				c.prepare(p)
				c.prepare(ref)
			}
			if st := p.EarliestStart(resv.CPUs, resv.End-resv.Start, 0); st != resv.Start {
				t.Fatalf("EarliestStart = %v, want %v", st, resv.Start)
			}
			if !p.dex.slot.ok {
				t.Fatal("the sweep recorded no slot")
			}
			if err := checkSkyDexInvariants(&p.dex); err != nil {
				t.Fatal(err)
			}
			if c.between != nil {
				c.between(p)
				c.between(ref)
			}
			if p.dex.slot.ok != c.slot {
				t.Fatalf("slot kept = %v before the reservation, want %v", p.dex.slot.ok, c.slot)
			}
			p.AddReservation(resv)
			ref.AddReservation(resv)
			if p.dex.slot.ok {
				t.Fatal("the slot outlived the reservation that used it")
			}
			if err := sameSkyline(p, ref); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestZeroLengthWindowRecordsNoSlot holds the sweep to recording a slot
// only for a window of positive length: a zero duration, or one that
// vanishes next to the candidate in floating point (cand+dur == cand),
// leaves none, as a reservation of that window occupies nothing.
func TestZeroLengthWindowRecordsNoSlot(t *testing.T) {
	t.Run("zero-duration", func(t *testing.T) {
		p := rampProfile(200)
		if st := p.EarliestStart(50, 0, 0); st != 50 {
			t.Fatalf("EarliestStart = %v, want 50", st)
		}
		if p.dex.slot.ok {
			t.Fatal("a zero-duration sweep recorded a slot")
		}
		if err := checkSkyDexInvariants(&p.dex); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("vanishing-duration", func(t *testing.T) {
		const far = 1e17 // float spacing 16 here: far+1 == far
		p := New(8)
		p.LoadReleases(8, 0, []Release{{Time: far, CPUs: 8}})
		p.BeginPass(0)
		if st := p.EarliestStart(1, 1, 0); st != far {
			t.Fatalf("EarliestStart = %v, want %v", st, far)
		}
		if p.dex.slot.ok {
			t.Fatal("a sweep whose window vanishes recorded a slot")
		}
		if err := checkSkyDexInvariants(&p.dex); err != nil {
			t.Fatal(err)
		}
		p.AddReservation(Entry{Start: far, End: far + 1, CPUs: 1})
		if got := p.UsedAt(far); got != 0 {
			t.Fatalf("a vanishing reservation left UsedAt(%v) = %d, want 0", far, got)
		}
	})
}

// TestPartialScanLeavesChunkStale pins when a scan freshens a chunk: only
// a scan across the whole chunk from its first delta stores the prefix
// extrema. On a seven-chunk ramp, a sweep entering chunk 0 mid-chunk
// crosses chunk 1 whole and stops at its window's end inside chunk 2, so
// only chunk 1 comes out fresh; a later, longer sweep skips chunk 1 and
// must still answer as the linear sweep does.
func TestPartialScanLeavesChunkStale(t *testing.T) {
	p := rampProfile(200)
	if n := len(p.dex.chunks); n < 4 {
		t.Fatalf("ramp spans %d chunks, want at least 4", n)
	}
	// One processor frees at t = 1 (chunk 0's first delta); the window
	// [1, 80) ends inside chunk 2, which holds times 65..96.
	if st := p.EarliestStart(1, 79, 0); st != 1 {
		t.Fatalf("EarliestStart = %v, want 1", st)
	}
	if err := checkSkyDexInvariants(&p.dex); err != nil {
		t.Fatal(err)
	}
	for ci, want := range []bool{false, true, false, false} {
		if got := p.dex.chunks[ci].fresh; got != want {
			t.Fatalf("chunk %d fresh = %v after the sweep, want %v", ci, got, want)
		}
	}
	for _, q := range []struct {
		cpus int
		dur  float64
	}{{1, 150}, {3, 120}, {40, 70}, {120, 60}} {
		want, _ := linearEarliest(p, q.cpus, q.dur, 0)
		if got := p.EarliestStart(q.cpus, q.dur, 0); got != want {
			t.Fatalf("EarliestStart(%d, %v, 0) = %v, linear sweep %v", q.cpus, q.dur, got, want)
		}
		if err := checkSkyDexInvariants(&p.dex); err != nil {
			t.Fatal(err)
		}
	}
}
