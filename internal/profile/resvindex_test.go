package profile

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// checkResvIndexInvariants verifies the reservation index's structural
// contract: every chunk is non-empty and below the split threshold,
// sorted within itself, chunk key ranges are disjoint and ascending, the
// per-chunk sums match their contents and the size matches the entry
// count.
func checkResvIndexInvariants(ix *resvIndex) error {
	if len(ix.chunks) != len(ix.sums) {
		return fmt.Errorf("directory skew: %d chunks, %d sums", len(ix.chunks), len(ix.sums))
	}
	n := 0
	lastT := float64(0)
	for ci, ch := range ix.chunks {
		if len(ch) == 0 {
			return fmt.Errorf("chunk %d empty", ci)
		}
		if len(ch) >= resvChunkMax {
			return fmt.Errorf("chunk %d holds %d entries, max %d", ci, len(ch), resvChunkMax)
		}
		sum := 0
		for k, d := range ch {
			if (ci > 0 || k > 0) && d.t < lastT {
				return fmt.Errorf("chunk %d[%d]: key %v below predecessor %v", ci, k, d.t, lastT)
			}
			lastT = d.t
			sum += d.d
		}
		if sum != ix.sums[ci] {
			return fmt.Errorf("chunk %d: sum %d, cached %d", ci, sum, ix.sums[ci])
		}
		n += len(ch)
	}
	if n != ix.size {
		return fmt.Errorf("size %d, counted %d", ix.size, n)
	}
	return nil
}

// checkSkyDexInvariants verifies the skyline index's structural
// contract: non-empty chunks below the split threshold, strictly
// increasing times within and across chunks (equal-time deltas coalesce
// on insert), prefix sums consistent with the deltas, extrema bounds
// never tighter than the true in-chunk prefix extrema, and a size
// matching the entry count.
func checkSkyDexInvariants(d *skyDex) error {
	n := 0
	lastT := float64(0)
	for ci := range d.chunks {
		c := &d.chunks[ci]
		if len(c.ds) == 0 {
			return fmt.Errorf("chunk %d empty", ci)
		}
		if len(c.ds) >= skyChunkMax {
			return fmt.Errorf("chunk %d holds %d entries, max %d", ci, len(c.ds), skyChunkMax)
		}
		if len(c.ds) != len(c.pre) {
			return fmt.Errorf("chunk %d: %d deltas, %d prefixes", ci, len(c.ds), len(c.pre))
		}
		run := 0
		for k, dd := range c.ds {
			if (ci > 0 || k > 0) && dd.t <= lastT {
				return fmt.Errorf("chunk %d[%d]: key %v not above predecessor %v (uncoalesced?)", ci, k, dd.t, lastT)
			}
			lastT = dd.t
			if dd.d == 0 {
				return fmt.Errorf("chunk %d[%d]: zero delta survived", ci, k)
			}
			run += dd.d
			if c.pre[k] != run {
				return fmt.Errorf("chunk %d[%d]: pre %d, recomputed %d", ci, k, c.pre[k], run)
			}
			if c.pre[k] > c.maxPre {
				return fmt.Errorf("chunk %d[%d]: pre %d above maxPre %d", ci, k, c.pre[k], c.maxPre)
			}
			if c.pre[k] < c.minPre {
				return fmt.Errorf("chunk %d[%d]: pre %d below minPre %d", ci, k, c.pre[k], c.minPre)
			}
		}
		n += len(c.ds)
	}
	if n != d.size {
		return fmt.Errorf("size %d, counted %d", d.size, n)
	}
	return nil
}

// TestQuickReservationTierMatchesFlatTiers is the pairwise differential
// for the chunked tier structures: one profile on the chunked skyline and
// reservation indexes and the flat sorted-slice oracle (flatTiers) are
// driven through the same mixed op stream — starts, completions,
// reservation placements at colliding integer times, suffix truncations
// including full and no-op ones — and must answer every UsedAt and
// EarliestStart identically, with the index invariants intact after
// every pass.
func TestQuickReservationTierMatchesFlatTiers(t *testing.T) {
	passes := 1200
	if testing.Short() {
		passes = 150
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		total := 16 + r.Intn(112)
		now := float64(r.Intn(8))

		idx := New(total)
		flat := &flatTiers{total: total}
		var rels []Release
		for i := 0; i < r.Intn(12); i++ {
			rels = append(rels, Release{Time: now + float64(1+r.Intn(300)), CPUs: 1 + r.Intn(total/3)})
		}
		sortReleases(rels)
		idx.LoadReleases(total, now, rels)
		var running []incJob
		for _, rel := range rels {
			flat.add(Entry{Start: now, End: rel.Time, CPUs: rel.CPUs})
			running = append(running, incJob{cpus: rel.CPUs, end: rel.Time})
		}
		resvs := 0
		for pass := 0; pass < passes; pass++ {
			now += float64(r.Intn(3))
			idx.BeginPass(now)
			switch r.Intn(12) {
			case 0, 1, 2:
				j := incJob{cpus: 1 + r.Intn(total/2), end: now + float64(1+r.Intn(250))}
				idx.Add(Entry{Start: now, End: j.end, CPUs: j.cpus})
				flat.add(Entry{Start: now, End: j.end, CPUs: j.cpus})
				running = append(running, j)
			case 3, 4:
				if len(running) > 0 {
					i := r.Intn(len(running))
					j := running[i]
					idx.Vacate(j.cpus, now, j.end)
					flat.vacate(j.cpus, now, j.end)
					running = append(running[:i], running[i+1:]...)
				}
			case 5, 6, 7, 8:
				// Integer start/duration force equal-time pileups across
				// reservations and the base skyline.
				cpus := 1 + r.Intn(total)
				dur := float64(r.Intn(60))
				st := idx.EarliestStart(cpus, dur, now)
				e := Entry{Start: st, End: st + dur, CPUs: cpus}
				idx.AddReservation(e)
				flat.addReservation(e)
				resvs++
			default:
				keep := 0
				if resvs > 0 {
					keep = r.Intn(resvs + 1) // full, partial and no-op cuts
				}
				idx.TruncateReservations(keep)
				flat.truncate(keep)
				resvs = keep
			}
			if err := checkResvIndexInvariants(&idx.ridx); err != nil {
				t.Logf("seed %d pass %d: reservation index: %v", seed, pass, err)
				return false
			}
			if err := checkSkyDexInvariants(&idx.dex); err != nil {
				t.Logf("seed %d pass %d: skyline index: %v", seed, pass, err)
				return false
			}
			for trial := 0; trial < 3; trial++ {
				q := now + float64(r.Intn(200))
				if iu, fu := idx.UsedAt(q), flat.usedAt(q); iu != fu {
					t.Logf("seed %d pass %d: UsedAt(%v) indexed=%d flat=%d", seed, pass, q, iu, fu)
					return false
				}
				cpus := 1 + r.Intn(total)
				dur := float64(r.Intn(90))
				from := now + float64(r.Intn(40))
				ie := idx.EarliestStart(cpus, dur, from)
				fe := flat.earliestStart(cpus, dur, from)
				if ie != fe {
					t.Logf("seed %d pass %d: EarliestStart(%d,%v,%v) indexed=%v flat=%v (dex=%d ridx=%d)",
						seed, pass, cpus, dur, from, ie, fe, idx.dex.len(), idx.ridx.len())
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestTruncateReservationsWorkBounds pins the rollback cost contract: a
// truncate reprocesses at most min(suffix, prefix) journal entries and a
// full truncate is a free reset; repeated truncation to an
// already-applied prefix — the scheduler's steady state when a pass
// invalidates nothing — costs zero work. The counters are exact, so any
// regression to journal-replay behavior fails the equality, not just a
// loose bound.
func TestTruncateReservationsWorkBounds(t *testing.T) {
	build := func(n int) *Profile {
		p := New(64)
		p.LoadReleases(64, 0, nil)
		p.BeginPass(0)
		for i := 0; i < n; i++ {
			st := float64(1 + i%37)
			p.AddReservation(Entry{Start: st, End: st + 5, CPUs: 1 + i%3})
		}
		return p
	}

	t.Run("indexed-suffix-removal", func(t *testing.T) {
		p := build(1000)
		p.TruncateReservations(990)
		if p.truncWork != 10 {
			t.Fatalf("dropping a 10-entry suffix cost %d, want 10", p.truncWork)
		}
		if p.Reservations() != 990 || p.ridx.len() != 2*990 {
			t.Fatalf("after cut: %d journaled, %d indexed deltas", p.Reservations(), p.ridx.len())
		}
	})
	t.Run("indexed-prefix-rebuild", func(t *testing.T) {
		p := build(1000)
		p.TruncateReservations(10)
		if p.truncWork != 10 {
			t.Fatalf("keeping a 10-entry prefix cost %d, want 10 (rebuilt from the kept side)", p.truncWork)
		}
		if p.ridx.len() != 2*10 {
			t.Fatalf("after rebuild: %d indexed deltas, want 20", p.ridx.len())
		}
	})
	t.Run("indexed-full-reset", func(t *testing.T) {
		p := build(1000)
		p.TruncateReservations(0)
		if p.truncWork != 0 {
			t.Fatalf("full truncate cost %d, want 0 (wholesale reset)", p.truncWork)
		}
		if p.ridx.len() != 0 {
			t.Fatalf("index still holds %d deltas after full truncate", p.ridx.len())
		}
	})
	t.Run("repeated-same-prefix-indexed", func(t *testing.T) {
		p := build(500)
		p.TruncateReservations(200)
		w := p.truncWork
		for i := 0; i < 100; i++ {
			p.TruncateReservations(200) // already applied: the journal shrank
			p.TruncateReservations(700) // beyond the journal: equally free
		}
		if p.truncWork != w {
			t.Fatalf("repeated truncate-to-same-prefix cost %d extra entries, want 0", p.truncWork-w)
		}
		if p.Reservations() != 200 {
			t.Fatalf("journal at %d entries, want 200", p.Reservations())
		}
	})
}

// FuzzReservationTier drives the chunked reservation index from an
// arbitrary byte-encoded op stream and asserts its structural invariants
// and its query answers against a sorted-slice oracle after every
// mutation. Each op consumes two bytes: the opcode selector and an
// argument. Insert times come from the argument's low nibble, so
// equal-time runs pile up and span chunk boundaries; removals target a
// live delta or probe an absent key; rebuilds exercise the bulk loader
// the truncate prefix-rebuild path uses. The seed corpus lives under
// testdata/fuzz/FuzzReservationTier; CI runs a short -fuzz smoke on top
// of the seeds.
func FuzzReservationTier(f *testing.F) {
	f.Add([]byte{})
	// Reservation ramp then rollback-style drain.
	f.Add([]byte{0, 0x21, 0, 0x32, 0, 0x43, 0, 0x54, 1, 0, 1, 0, 1, 0, 1, 0})
	// Tie-heavy inserts with probes and an absent-key miss.
	f.Add([]byte{0, 0x13, 0, 0x13, 0, 0x13, 3, 9, 2, 3, 0, 0x13, 4, 1, 1, 2, 3, 0})
	// Enough churn to split chunks, then a rebuild and partial drain.
	seed := make([]byte, 0, 1500)
	for i := 0; i < 320; i++ {
		seed = append(seed, 0, byte(i))
	}
	seed = append(seed, 4, 0)
	for i := 0; i < 160; i++ {
		seed = append(seed, 1, byte(5*i))
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		var ix resvIndex
		var live []delta // oracle: the exact multiset of indexed deltas
		sum := func(at float64) int {
			s := 0
			for _, d := range live {
				if d.t <= at {
					s += d.d
				}
			}
			return s
		}
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			switch op % 5 {
			case 0: // insert; low-nibble times force equal-time runs
				d := delta{t: float64(arg & 0x0f), d: 1 + int(arg>>4)}
				ix.insert(d)
				live = append(live, d)
			case 1: // remove a live delta (the truncate suffix path)
				if len(live) == 0 {
					continue
				}
				k := int(arg) % len(live)
				d := live[k]
				if !ix.removeOne(d.t, d.d) {
					t.Fatalf("removeOne(%v,%d) missed a live delta", d.t, d.d)
				}
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
			case 2: // removal probe with an impossible magnitude: must miss
				if ix.removeOne(float64(arg&0x0f), 99) {
					t.Fatal("removeOne hit an absent delta")
				}
			case 3: // point and entry queries against the oracle
				at := float64(arg&0x0f) + float64(arg>>4)/32
				if got, want := ix.sumAt(at), sum(at); got != want {
					t.Fatalf("sumAt(%v) = %d, oracle %d", at, got, want)
				}
				ci, k, s := ix.seek(at)
				if s != sum(at) {
					t.Fatalf("seek(%v) sum %d, oracle %d", at, s, sum(at))
				}
				if ci < len(ix.chunks) {
					if k >= len(ix.chunks[ci]) {
						t.Fatalf("seek(%v) cursor (%d,%d) out of chunk", at, ci, k)
					}
					if ix.chunks[ci][k].t <= at {
						t.Fatalf("seek(%v) landed on key %v", at, ix.chunks[ci][k].t)
					}
				}
			case 4: // rebuild from the oracle (the truncate prefix path)
				ds := slices.Clone(live)
				slices.SortFunc(ds, deltaCmp)
				ix.load(ds)
			}
			if ix.len() != len(live) {
				t.Fatalf("op %d: size %d, oracle %d", i/2, ix.len(), len(live))
			}
			if err := checkResvIndexInvariants(&ix); err != nil {
				t.Fatalf("op %d: %v", i/2, err)
			}
		}
		// Final content audit: same multiset, yielded in nondecreasing
		// time order (order within an equal-time run is unspecified).
		var got []delta
		ix.each(func(d delta) bool { got = append(got, d); return true })
		if !sort.SliceIsSorted(got, func(a, b int) bool { return got[a].t < got[b].t }) {
			t.Fatal("final iteration out of time order")
		}
		want := slices.Clone(live)
		key := func(a, b delta) int {
			if c := deltaCmp(a, b); c != 0 {
				return c
			}
			return a.d - b.d
		}
		slices.SortFunc(got, key)
		slices.SortFunc(want, key)
		if !slices.Equal(got, want) {
			t.Fatalf("final content diverged: %d indexed vs %d oracle deltas", len(got), len(want))
		}
	})
}
