package sched

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/profile"
)

// checkRelIndexInvariants verifies the index's structural contract: every
// chunk non-empty and below the split threshold, entries sorted strictly
// by (t, id) within and across chunks, and the size counter exact. Shared
// by the differential suite and the fuzz target.
func checkRelIndexInvariants(ix *relIndex) error {
	n := 0
	var prev release
	first := true
	for ci, ch := range ix.chunks {
		if len(ch) == 0 {
			return fmt.Errorf("chunk %d is empty", ci)
		}
		if len(ch) >= relChunkMax {
			return fmt.Errorf("chunk %d holds %d entries, split threshold %d", ci, len(ch), relChunkMax)
		}
		for k, r := range ch {
			if !first && !relKeyAtOrAfter(r, prev.t, prev.id) {
				return fmt.Errorf("order violated at chunk %d entry %d: (%v,%d) after (%v,%d)",
					ci, k, r.t, r.id, prev.t, prev.id)
			}
			if !first && r.t == prev.t && r.id == prev.id {
				return fmt.Errorf("duplicate key (%v,%d) at chunk %d entry %d", r.t, r.id, ci, k)
			}
			prev, first = r, false
			n++
		}
	}
	if n != ix.size {
		return fmt.Errorf("size counter %d, %d entries present", ix.size, n)
	}
	return nil
}

// relOracle is the naive sorted-slice reference the index is checked
// against: the exact memmove implementation the index replaces.
type relOracle struct {
	rels []release
}

func (o *relOracle) insert(r release) {
	i := sort.Search(len(o.rels), func(k int) bool {
		c := o.rels[k]
		return c.t > r.t || (c.t == r.t && c.id > r.id)
	})
	o.rels = append(o.rels, release{})
	copy(o.rels[i+1:], o.rels[i:])
	o.rels[i] = r
}

func (o *relOracle) remove(t float64, id int) bool {
	i := sort.Search(len(o.rels), func(k int) bool {
		return relKeyAtOrAfter(o.rels[k], t, id)
	})
	if i >= len(o.rels) || o.rels[i].t != t || o.rels[i].id != id {
		return false
	}
	copy(o.rels[i:], o.rels[i+1:])
	o.rels = o.rels[:len(o.rels)-1]
	return true
}

// compareRelIndex asserts the index agrees with the oracle on size, min,
// full iteration order and the clamped bulk snapshot.
func compareRelIndex(t *testing.T, ix *relIndex, o *relOracle, now float64) {
	t.Helper()
	if err := checkRelIndexInvariants(ix); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if ix.len() != len(o.rels) {
		t.Fatalf("len %d, oracle %d", ix.len(), len(o.rels))
	}
	if mn, ok := ix.min(); ok != (len(o.rels) > 0) {
		t.Fatalf("min ok=%v, oracle has %d entries", ok, len(o.rels))
	} else if ok && mn != o.rels[0] {
		t.Fatalf("min %+v, oracle %+v", mn, o.rels[0])
	}
	i := 0
	ix.each(func(r release) bool {
		if r != o.rels[i] {
			t.Fatalf("iteration[%d] = %+v, oracle %+v", i, r, o.rels[i])
		}
		i++
		return true
	})
	if i != len(o.rels) {
		t.Fatalf("iteration yielded %d entries, oracle %d", i, len(o.rels))
	}
	got := ix.appendClamped(nil, now)
	if len(got) != len(o.rels) {
		t.Fatalf("snapshot %d entries, oracle %d", len(got), len(o.rels))
	}
	for k, r := range o.rels {
		want := profile.Release{Time: clampRelease(r.t, now), CPUs: r.cpus}
		if got[k] != want {
			t.Fatalf("snapshot[%d] = %+v, want %+v (now=%v)", k, got[k], want, now)
		}
	}
}

// TestReleaseIndexMatchesSliceOracle drives the chunked index through
// thousands of randomized add/remove/iterate/snapshot sequences — heavy
// PlannedEnd ties, interleaved gear re-adds (remove + re-insert of a live
// id at a new time), removal of just-inserted entries — and cross-checks
// every observable against the naive sorted-slice oracle. CI runs it
// under -race alongside the rest of the suite.
func TestReleaseIndexMatchesSliceOracle(t *testing.T) {
	for _, cfg := range []struct {
		name  string
		times int // distinct release times: small values force heavy ties
		ops   int
	}{
		{"heavy-ties", 7, 4000},
		{"moderate-ties", 97, 4000},
		{"distinct", 1 << 30, 2000},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(cfg.times)*7919 + 42))
			var ix relIndex
			var o relOracle
			live := map[int]release{} // id -> indexed release
			ids := []int(nil)         // iteration-stable view of live's keys
			nextID := 1

			add := func(id int) {
				rel := release{t: float64(r.Intn(cfg.times)), cpus: 1 + r.Intn(64), id: id}
				ix.insert(rel)
				o.insert(rel)
				live[id] = rel
				ids = append(ids, id)
			}
			drop := func(k int) {
				id := ids[k]
				rel := live[id]
				if !ix.remove(rel.t, rel.id) {
					t.Fatalf("remove(%v,%d) reported missing, entry is live", rel.t, rel.id)
				}
				if !o.remove(rel.t, rel.id) {
					t.Fatalf("oracle desync on (%v,%d)", rel.t, rel.id)
				}
				delete(live, id)
				ids[k] = ids[len(ids)-1]
				ids = ids[:len(ids)-1]
			}

			for op := 0; op < cfg.ops; op++ {
				switch c := r.Intn(10); {
				case c < 4 || len(ids) == 0: // insert a fresh release
					add(nextID)
					nextID++
				case c < 6: // remove a random live release
					drop(r.Intn(len(ids)))
				case c == 6: // gear re-add: remove a live id, re-insert at a new time
					k := r.Intn(len(ids))
					id := ids[k]
					drop(k)
					add(id)
				case c == 7: // remove a just-inserted entry
					add(nextID)
					nextID++
					drop(len(ids) - 1)
				case c == 8: // remove of an absent key must miss on both
					tAbs, idAbs := float64(r.Intn(cfg.times)), nextID+1+r.Intn(100)
					if ix.remove(tAbs, idAbs) {
						t.Fatalf("remove(%v,%d) succeeded for an absent key", tAbs, idAbs)
					}
					if o.remove(tAbs, idAbs) {
						t.Fatalf("oracle held absent key (%v,%d)", tAbs, idAbs)
					}
				default: // full comparison including a clamped snapshot
					compareRelIndex(t, &ix, &o, float64(r.Intn(cfg.times)))
				}
				if ix.len() != len(o.rels) {
					t.Fatalf("op %d: len %d, oracle %d", op, ix.len(), len(o.rels))
				}
			}
			compareRelIndex(t, &ix, &o, 0)

			// Drain completely through the index, then rebuild via bulk
			// load and check the loaded shape too.
			for len(ids) > 0 {
				drop(r.Intn(len(ids)))
			}
			compareRelIndex(t, &ix, &o, 0)
			for i := 0; i < 1000; i++ {
				add(nextID)
				nextID++
			}
			sorted := append([]release(nil), o.rels...)
			ix.load(sorted)
			compareRelIndex(t, &ix, &o, 3)
		})
	}
}

// TestReleaseIndexClampGroups pins the snapshot clamp semantics the
// profile depends on: every release at or before now lands on exactly
// math.Nextafter(now, +inf), forming one shared group, and the snapshot
// stays sorted.
func TestReleaseIndexClampGroups(t *testing.T) {
	var ix relIndex
	for id, tm := range []float64{0, 5, 10, 10, 17, 40} {
		ix.insert(release{t: tm, cpus: 2, id: id + 1})
	}
	now := 10.0
	snap := ix.appendClamped(nil, now)
	eps := math.Nextafter(now, math.Inf(1))
	for i, rel := range snap {
		if i < 4 {
			if rel.Time != eps {
				t.Errorf("snapshot[%d].Time = %v, want clamp %v", i, rel.Time, eps)
			}
		} else if rel.Time <= now {
			t.Errorf("snapshot[%d].Time = %v should be unclamped", i, rel.Time)
		}
		if i > 0 && rel.Time < snap[i-1].Time {
			t.Errorf("snapshot not sorted at %d: %v < %v", i, rel.Time, snap[i-1].Time)
		}
	}
}

// each calls fn on every release in (t, id) order until fn returns false:
// the ordered traversal the index tests audit against their oracles.
func (ix *relIndex) each(fn func(release) bool) {
	for _, ch := range ix.chunks {
		for _, r := range ch {
			if !fn(r) {
				return
			}
		}
	}
}
