package profile

import (
	"math"
	"sort"
)

// The skyline chunk index (skyDex) holds the whole profile: the usage
// deltas of running-job occupancies, completion credits and reservations,
// kept totally ordered and mutation-friendly in one directory of small
// sorted chunks (the relindex.go idiom). A mutation binary-searches the
// directory and edits one chunk, O(log chunks + chunk). Equal-time deltas
// coalesce and cancel on contact (an occupancy end and its completion
// credit annihilate immediately instead of waiting for a merge), so the
// live size tracks the running and planned jobs with no deferred
// compaction.
//
// The EarliestStart sweep advances a (chunk, offset, prefix) cursor,
// summing deltas as it scans. A scan that crosses a whole chunk from its
// first delta stores that chunk's in-chunk prefix extrema as a by-product
// and marks it fresh (any edit clears the mark); a later sweep entering a
// fresh chunk at its first delta skips it in O(1) when it contains no
// feasibility crossing. Large skylines keep whole-chunk skipping, and
// small ones, a few chunks that every edit touches, pay nothing for it.
// The sweep stops at the window's end, can record the violated stretches
// it crosses (Blocking), and remembers where its answer's window sits, so
// the reservation that follows it inserts its delta pair there without
// searching (insertPair).
const (
	// skyChunkMax is the split threshold: a chunk reaching this many
	// deltas is halved.
	skyChunkMax = 64
	// skyChunkMin is the merge threshold: a chunk draining below it is
	// folded into a neighbor when the pair fits.
	skyChunkMin = skyChunkMax / 8
	// skyChunkFill is the target fill of bulk-loaded chunks.
	skyChunkFill = skyChunkMax / 2
)

// skyChunk is one directory entry: a sorted run of deltas. On a fresh
// chunk, minPre and maxPre are the extrema of its inclusive in-chunk
// prefix sums (Σ ds[:j+1] over j), as the last scan across the whole
// chunk found them; a chunk entered with absolute prefix P can then be
// skipped by a crossing search whenever P+minPre..P+maxPre stays on one
// side of the level.
type skyChunk struct {
	ds     []delta
	minPre int
	maxPre int
	sum    int     // Σ ds.d, kept current on every edit
	last   float64 // ds[len(ds)-1].t, kept current on every edit
	fresh  bool    // minPre and maxPre are current; cleared by every edit
}

// skySlot is where the latest sweep's answer window [t0, t1) sits in the
// index: (ci0, k0) is the delta at t0 the sweep dropped onto, (ci1, k1)
// the first delta at or after t1 (ci1 = len(chunks) past the end). It is
// recorded only for a positive window found that way, and every mutation
// drops it.
type skySlot struct {
	ok      bool
	t0, t1  float64
	ci0, k0 int
	ci1, k1 int
}

// skyDex is the chunked ordered skyline index over usage deltas. Every
// chunk is non-empty with strictly increasing times (equal-time deltas
// coalesce on insert) and the chunks' key ranges are disjoint and
// ascending. An entry stays while its delta or its base part is nonzero:
// bases counts the entries with a nonzero base part, the base skyline's
// own delta count however reservations coalesce with it. The zero value
// is an empty index.
type skyDex struct {
	chunks []skyChunk
	size   int
	bases  int
	spare  [][]delta
	slot   skySlot
}

// len returns the number of live deltas.
func (d *skyDex) len() int { return d.size }

// reset empties the index, recycling chunk backings.
func (d *skyDex) reset() {
	for i := range d.chunks {
		d.spare = append(d.spare, d.chunks[i].ds[:0])
		d.chunks[i] = skyChunk{}
	}
	d.chunks = d.chunks[:0]
	d.size = 0
	d.bases = 0
	d.slot.ok = false
}

// newChunk returns an empty chunk on a recycled backing or a fresh one.
func (d *skyDex) newChunk() skyChunk {
	var c skyChunk
	if n := len(d.spare); n > 0 {
		c.ds = d.spare[n-1]
		d.spare[n-1] = nil
		d.spare = d.spare[:n-1]
	} else {
		c.ds = make([]delta, 0, skyChunkMax)
	}
	return c
}

// load bulk-initializes the index with the base deltas of a time-sorted
// slice, merging equal-time runs and dropping zero nets on the way in —
// the release schedule may hold several jobs ending at the same instant,
// and every chunk must keep strictly increasing keys (rise and drop evaluate
// per-entry prefixes, so an intermediate prefix inside an equal-time
// group would masquerade as a zero-width feasibility transition). The
// merge runs in place over ds, which is not retained.
func (d *skyDex) load(ds []delta) {
	d.reset()
	w := 0
	for i := 0; i < len(ds); {
		t, dv := ds[i].t, 0
		for ; i < len(ds) && ds[i].t == t; i++ {
			dv += ds[i].d
		}
		if dv != 0 {
			ds[w] = delta{t: t, d: dv, b: dv}
			w++
		}
	}
	d.size, d.bases = w, w
	for ds = ds[:w]; len(ds) > 0; {
		m := min(len(ds), skyChunkFill)
		c := d.newChunk()
		c.ds = append(c.ds, ds[:m]...)
		for _, dd := range ds[:m] {
			c.sum += dd.d
		}
		c.last = ds[m-1].t
		d.chunks = append(d.chunks, c)
		ds = ds[m:]
	}
}

// findChunk returns the index of the first chunk whose last key is at or
// after t, or len(chunks).
func (d *skyDex) findChunk(t float64) int {
	return sort.Search(len(d.chunks), func(i int) bool { return d.chunks[i].last >= t })
}

// insert applies a delta of dv at time t, db of it base usage (dv for a
// running job's occupancy or credit, 0 for a reservation). It coalesces
// with an existing entry at exactly t and removes the entry when both its
// delta and its base part reach zero — this is how an occupancy end and
// its completion credit annihilate.
func (d *skyDex) insert(t float64, dv, db int) {
	if dv == 0 {
		return
	}
	d.slot.ok = false
	ci := 0
	if len(d.chunks) == 0 {
		d.chunks = append(d.chunks, d.newChunk())
	} else if ci = d.findChunk(t); ci == len(d.chunks) {
		ci--
	}
	c := &d.chunks[ci]
	d.place(ci, sort.Search(len(c.ds), func(i int) bool { return c.ds[i].t >= t }), t, dv, db)
}

// insertPair applies a reservation's delta pair, +dv at t0 and −dv at t1.
// When the latest sweep's slot is exactly [t0, t1) — the reservation
// follows the sweep that found it with no mutation in between — the pair
// goes to the recorded positions instead of two searches: the start
// coalesces with the delta the sweep dropped onto, which moves no other
// entry unless the two cancel, so the end position still holds.
func (d *skyDex) insertPair(t0, t1 float64, dv int) {
	s := d.slot
	if !s.ok || s.t0 != t0 || s.t1 != t1 {
		d.insert(t0, dv, 0)
		d.insert(t1, -dv, 0)
		return
	}
	d.slot.ok = false
	if d.place(s.ci0, s.k0, t0, dv, 0) {
		d.insert(t1, -dv, 0)
		return
	}
	ci, k := s.ci1, s.k1
	if ci == len(d.chunks) {
		ci--
		k = len(d.chunks[ci].ds)
	}
	d.place(ci, k, t1, -dv, 0)
}

// place applies insert's delta at the position insert's searches find
// for t: ci is the first chunk whose last key is at or after t (else the
// last chunk) and k the first offset in it at or after t. It reports
// whether the entry at t cancelled out and was removed.
func (d *skyDex) place(ci, k int, t float64, dv, db int) (removed bool) {
	c := &d.chunks[ci]
	c.sum += dv
	c.fresh = false
	if k < len(c.ds) && c.ds[k].t == t {
		e := &c.ds[k]
		wasBase := e.b != 0
		e.d += dv
		e.b += db
		if isBase := e.b != 0; isBase != wasBase {
			if isBase {
				d.bases++
			} else {
				d.bases--
			}
		}
		if e.d != 0 || e.b != 0 {
			return false
		}
		copy(c.ds[k:], c.ds[k+1:])
		c.ds = c.ds[:len(c.ds)-1]
		d.size--
		if k == len(c.ds) && k > 0 {
			c.last = c.ds[k-1].t
		}
		switch {
		case len(c.ds) == 0:
			d.dropChunk(ci)
		case len(c.ds) < skyChunkMin:
			d.mergeAt(ci)
		}
		return true
	}
	if k == len(c.ds) {
		c.last = t
	}
	c.ds = append(c.ds, delta{})
	copy(c.ds[k+1:], c.ds[k:])
	c.ds[k] = delta{t: t, d: dv, b: db}
	d.size++
	if db != 0 {
		d.bases++
	}
	if len(c.ds) >= skyChunkMax {
		d.split(ci)
	}
	return false
}

// split halves the chunk at ci.
func (d *skyDex) split(ci int) {
	right := d.newChunk()
	c := &d.chunks[ci]
	mid := len(c.ds) / 2
	right.ds = append(right.ds, c.ds[mid:]...)
	for _, dd := range right.ds {
		right.sum += dd.d
	}
	right.last = c.last
	c.last = c.ds[mid-1].t
	c.ds = c.ds[:mid]
	c.sum -= right.sum
	c.fresh = false
	d.chunks = append(d.chunks, skyChunk{})
	copy(d.chunks[ci+2:], d.chunks[ci+1:])
	d.chunks[ci+1] = right
}

// dropChunk removes the directory entry at ci; its deltas must already
// be accounted for.
func (d *skyDex) dropChunk(ci int) {
	d.spare = append(d.spare, d.chunks[ci].ds[:0])
	copy(d.chunks[ci:], d.chunks[ci+1:])
	d.chunks[len(d.chunks)-1] = skyChunk{}
	d.chunks = d.chunks[:len(d.chunks)-1]
}

// mergeAt folds the underfull chunk at ci into its smaller neighbor when
// the combined chunk stays clear of the split threshold.
func (d *skyDex) mergeAt(ci int) {
	into := -1
	if ci > 0 {
		into = ci - 1
	}
	if ci+1 < len(d.chunks) && (into < 0 || len(d.chunks[ci+1].ds) < len(d.chunks[into].ds)) {
		into = ci + 1
	}
	if into < 0 || len(d.chunks[ci].ds)+len(d.chunks[into].ds) > 3*skyChunkMax/4 {
		return
	}
	lo, hi := min(ci, into), max(ci, into)
	c, h := &d.chunks[lo], &d.chunks[hi]
	c.ds = append(c.ds, h.ds...)
	c.sum += h.sum
	c.last = h.last
	c.fresh = false
	d.dropChunk(hi)
}

// foldTo removes every delta with time at or before h — indistinguishable
// to queries past the horizon — and returns their sum, which the caller
// folds into its offset. Whole expired chunks drop in O(1) plus a count
// of their base entries; only the boundary chunk is edited.
func (d *skyDex) foldTo(h float64) int {
	folded := 0
	for len(d.chunks) > 0 {
		c := &d.chunks[0]
		if c.ds[0].t > h {
			break
		}
		d.slot.ok = false
		j := len(c.ds)
		if c.last > h {
			j = sort.Search(len(c.ds), func(i int) bool { return c.ds[i].t > h })
		}
		part := 0
		for _, dd := range c.ds[:j] {
			part += dd.d
			if dd.b != 0 {
				d.bases--
			}
		}
		folded += part
		d.size -= j
		if j == len(c.ds) {
			d.dropChunk(0)
			continue
		}
		copy(c.ds, c.ds[j:])
		c.ds = c.ds[:len(c.ds)-j]
		c.sum -= part
		c.fresh = false
		if len(c.ds) < skyChunkMin {
			d.mergeAt(0)
		}
		break
	}
	return folded
}

// seek positions a cursor at the first delta with time strictly after
// `from`, returning its (chunk, offset) position and the sum of every
// delta at or before `from`. Inside the chunk it lands in, it sums the
// side of the offset with fewer deltas. A query from the skyline's front
// — every scheduler query, once the horizon folded — costs one compare.
func (d *skyDex) seek(from float64) (ci, k, sum int) {
	for ; ci < len(d.chunks); ci++ {
		c := &d.chunks[ci]
		if c.last <= from {
			sum += c.sum
			continue
		}
		if c.ds[0].t > from {
			return ci, 0, sum
		}
		k = sort.Search(len(c.ds), func(i int) bool { return c.ds[i].t > from })
		if k <= len(c.ds)/2 {
			for _, dd := range c.ds[:k] {
				sum += dd.d
			}
		} else {
			sum += c.sum
			for _, dd := range c.ds[k:] {
				sum -= dd.d
			}
		}
		return ci, k, sum
	}
	return ci, 0, sum
}

// sumAt returns the sum of every delta at or before t — the point query
// behind UsedAt.
func (d *skyDex) sumAt(t float64) int {
	_, _, sum := d.seek(t)
	return sum
}

// earliest is the feasibility sweep behind EarliestStart: from the
// cursor (ci, k) with prefix P — the usage at `from` — it returns the
// earliest time at or after `from` at which the prefix stays at or below
// L for dur seconds, or +Inf when it never again does. It alternates two
// searches: a violated stretch ends at the first prefix at or below L
// (drop), which becomes the candidate; a feasible one is searched for a
// rise above L only up to the window's end cand+dur. A delta time at or
// beyond the rounded cand+dur can still sit less than dur after cand in
// floating point, so when the delta the bounded search stops at fails
// t-cand >= dur the search resumes unbounded; the answer is then exactly
// the plain merge sweep's (linearSweep), which the profile tests hold it
// to. A non-nil rec receives every violated stretch the sweep crosses on
// the way to its answer, in order, each with drop's lower bound on its
// excess over L; a stretch the sweep starts inside begins at `from`.
//
// When the answer is a drop delta's time and its window [cand, cand+dur)
// has positive length and ended at the bounded search's stop, the sweep
// records both positions in the slot for the insertPair that follows;
// any other answer leaves the slot empty.
func (d *skyDex) earliest(ci, k, P, L int, dur, from float64, rec *Blocking) float64 {
	d.slot.ok = false
	inf := math.Inf(1)
	cand, rose := from, from
	dci, dk := -1, 0 // the cursor one past the delta cand dropped onto
	for {
		var t float64
		var found bool
		if P > L {
			var low int
			ci, k, P, t, low, found = d.drop(ci, k, P, L)
			if !found {
				return inf
			}
			if rec != nil {
				*rec = append(*rec, Stretch{From: rose, To: t, Excess: low - L})
			}
			cand, dci, dk = t, ci, k
			continue
		}
		ci, k, P, t, found = d.rise(ci, k, P, L, cand+dur)
		if !found {
			if ci == len(d.chunks) || d.chunks[ci].ds[k].t-cand >= dur {
				if dci >= 0 && cand+dur > cand {
					d.record(cand, cand+dur, dci, dk, ci, k)
				}
				return cand
			}
			ci, k, P, t, found = d.rise(ci, k, P, L, inf)
			if !found {
				return cand
			}
		}
		if t-cand >= dur {
			return cand
		}
		rose = t
	}
}

// record fills the slot with the window [t0, t1): (dci, dk) is the cursor
// one past the delta at t0, (ci, k) the first delta at or after t1.
func (d *skyDex) record(t0, t1 float64, dci, dk, ci, k int) {
	if dk > 0 {
		dk--
	} else {
		dci--
		dk = len(d.chunks[dci].ds) - 1
	}
	d.slot = skySlot{ok: true, t0: t0, t1: t1, ci0: dci, k0: dk, ci1: ci, k1: k}
}

// rise scans forward from position (ci, k) — entered with absolute
// prefix P, the sum of every delta strictly before it — for the first
// delta with time before tLimit whose inclusive prefix rises above level
// L. A fresh chunk entered at its first delta, wholly before tLimit, whose
// prefix maximum stays at or below L is skipped in O(1); any other chunk
// is scanned, and a scan that crosses a whole chunk leaves it fresh. The
// total scan work of a sweep is thus bounded by the deltas it traverses.
//
// On a hit it returns the rise's time with P its inclusive prefix and
// the cursor one past it. Otherwise found is false and the cursor lands
// on the first delta with time at or after tLimit (or the end), with P
// the prefix before it. A returned cursor is normalized: ci <
// len(chunks) implies k < len(chunks[ci].ds).
func (d *skyDex) rise(ci, k, P, L int, tLimit float64) (nci, nk, nP int, t float64, found bool) {
	cs := d.chunks
	for ; ci < len(cs); ci, k = ci+1, 0 {
		if k == 0 {
			for ci < len(cs) && cs[ci].fresh && cs[ci].last < tLimit && P+cs[ci].maxPre <= L {
				P += cs[ci].sum
				ci++
			}
			if ci == len(cs) {
				break
			}
		}
		c := &cs[ci]
		base, mn, mx := P, math.MaxInt, math.MinInt
		for j := k; j < len(c.ds); j++ {
			e := &c.ds[j]
			if e.t >= tLimit {
				return ci, j, P, 0, false
			}
			if P += e.d; P > L {
				if j+1 == len(c.ds) {
					return ci + 1, 0, P, e.t, true
				}
				return ci, j + 1, P, e.t, true
			}
			mn, mx = min(mn, P), max(mx, P)
		}
		if k == 0 {
			c.minPre, c.maxPre, c.fresh = mn-base, mx-base, true
		}
	}
	return ci, 0, P, 0, false
}

// drop is rise's counterpart over a violated stretch: entered at (ci, k)
// with prefix P > L, it scans forward without a time limit for the first
// delta whose inclusive prefix is at or below L, skipping a fresh chunk
// entered at its first delta whose prefix minimum stays above it. On a
// hit it returns the drop's time with P its inclusive prefix and the
// cursor one past it (found is false only past the last delta). low is
// the minimum of every prefix of the stretch, P included: over a chunk
// drop skips, the chunk's prefix minimum.
func (d *skyDex) drop(ci, k, P, L int) (nci, nk, nP int, t float64, low int, found bool) {
	cs := d.chunks
	low = P
	for ; ci < len(cs); ci, k = ci+1, 0 {
		if k == 0 {
			for ci < len(cs) && cs[ci].fresh && P+cs[ci].minPre > L {
				low = min(low, P+cs[ci].minPre)
				P += cs[ci].sum
				ci++
			}
			if ci == len(cs) {
				break
			}
		}
		c := &cs[ci]
		base, mn, mx := P, math.MaxInt, math.MinInt
		for j := k; j < len(c.ds); j++ {
			e := &c.ds[j]
			if P += e.d; P <= L {
				if low = min(low, mn); j+1 == len(c.ds) {
					return ci + 1, 0, P, e.t, low, true
				}
				return ci, j + 1, P, e.t, low, true
			}
			mn, mx = min(mn, P), max(mx, P)
		}
		low = min(low, mn)
		if k == 0 {
			c.minPre, c.maxPre, c.fresh = mn-base, mx-base, true
		}
	}
	return ci, 0, P, 0, low, false
}
