package sched

import (
	"sort"

	"repro/internal/profile"
)

// The chunked ordered release index replaces the flat (PlannedEnd, id)-
// sorted release slice on the scheduler's hot path, under every variant:
// the replanning passes and classic EASY's blocked-pass shadow sweep. The
// flat slice costs an O(running) memmove per insert and remove — once the
// availability profile persisted across passes, those memmoves were the
// dominant term of conservative/flexible passes. The index keeps the same total order
// over small sorted chunks: an insert or remove binary-searches the chunk
// directory, then moves at most one chunk's worth of entries, so the cost
// is O(log n + C) for chunk capacity C instead of O(n). In-order
// iteration (the shadow sweep, the profile bulk snapshot) walks the
// chunks front to back and is as cache-friendly as the flat slice was.
//
// The flat slice survives behind Compat.SliceReleases as the
// differentially-tested reference, mirroring Compat.RebuildProfile.
const (
	// relChunkMax is the split threshold: a chunk reaching this many
	// entries is halved. 256 releases (16 bytes each) keep a chunk within
	// a few cache lines' worth of memmove per mutation.
	relChunkMax = 256
	// relChunkMin is the merge threshold: a chunk draining below it is
	// folded into a neighbor when the pair fits comfortably, bounding the
	// directory's growth under removal-heavy churn.
	relChunkMin = relChunkMax / 8
	// relChunkFill is the target fill of bulk-loaded chunks, leaving
	// headroom so a load followed by inserts doesn't split immediately.
	relChunkFill = relChunkMax / 2
)

// relIndex is an ordered index over the live jobs' planned releases,
// keyed by (PlannedEnd, job ID): a directory of sorted chunks whose key
// ranges are disjoint and ascending. The zero value is an empty index.
type relIndex struct {
	chunks [][]release // each non-empty, sorted, < relChunkMax entries
	size   int
	spare  [][]release // recycled chunk backings
}

// relKeyAtOrAfter reports whether c's key (t, id) is >= the given key —
// the predicate both binary searches share.
func relKeyAtOrAfter(c release, t float64, id int) bool {
	return c.t > t || (c.t == t && c.id >= id)
}

// len returns the number of indexed releases.
func (ix *relIndex) len() int { return ix.size }

// min returns the first release in (t, id) order.
func (ix *relIndex) min() (release, bool) {
	if len(ix.chunks) == 0 {
		return release{}, false
	}
	return ix.chunks[0][0], true
}

// reset empties the index, recycling every chunk backing.
func (ix *relIndex) reset() {
	for i, ch := range ix.chunks {
		ix.spare = append(ix.spare, ch[:0])
		ix.chunks[i] = nil
	}
	ix.chunks = ix.chunks[:0]
	ix.size = 0
}

// newChunk pops a recycled chunk backing or allocates a fresh one.
func (ix *relIndex) newChunk() []release {
	if n := len(ix.spare); n > 0 {
		ch := ix.spare[n-1]
		ix.spare[n-1] = nil
		ix.spare = ix.spare[:n-1]
		return ch
	}
	return make([]release, 0, relChunkMax)
}

// findChunk returns the index of the first chunk whose last key is at or
// after (t, id) — the only chunk that may hold the key — or len(chunks)
// when the key is beyond every chunk.
func (ix *relIndex) findChunk(t float64, id int) int {
	return sort.Search(len(ix.chunks), func(i int) bool {
		ch := ix.chunks[i]
		return relKeyAtOrAfter(ch[len(ch)-1], t, id)
	})
}

// insert adds r, keeping the chunk holding its position sorted and
// splitting it when it reaches the capacity threshold.
func (ix *relIndex) insert(r release) {
	if len(ix.chunks) == 0 {
		ix.chunks = append(ix.chunks, append(ix.newChunk(), r))
		ix.size = 1
		return
	}
	ci := ix.findChunk(r.t, r.id)
	if ci == len(ix.chunks) {
		ci-- // beyond every key: extend the last chunk
	}
	ch := ix.chunks[ci]
	k := sort.Search(len(ch), func(i int) bool { return relKeyAtOrAfter(ch[i], r.t, r.id) })
	ch = append(ch, release{})
	copy(ch[k+1:], ch[k:])
	ch[k] = r
	ix.chunks[ci] = ch
	ix.size++
	if len(ch) >= relChunkMax {
		ix.split(ci)
	}
}

// split halves the chunk at ci into two directory entries.
func (ix *relIndex) split(ci int) {
	ch := ix.chunks[ci]
	mid := len(ch) / 2
	right := append(ix.newChunk(), ch[mid:]...)
	ix.chunks = append(ix.chunks, nil)
	copy(ix.chunks[ci+2:], ix.chunks[ci+1:])
	ix.chunks[ci] = ch[:mid]
	ix.chunks[ci+1] = right
}

// remove deletes the release keyed (t, id), reporting whether it was
// present. A chunk draining below the merge threshold is folded into a
// neighbor when the pair fits, so removal-heavy churn cannot fragment the
// directory into near-empty chunks.
func (ix *relIndex) remove(t float64, id int) bool {
	ci := ix.findChunk(t, id)
	if ci == len(ix.chunks) {
		return false
	}
	ch := ix.chunks[ci]
	k := sort.Search(len(ch), func(i int) bool { return relKeyAtOrAfter(ch[i], t, id) })
	if k == len(ch) || ch[k].t != t || ch[k].id != id {
		return false
	}
	copy(ch[k:], ch[k+1:])
	ch = ch[:len(ch)-1]
	ix.chunks[ci] = ch
	ix.size--
	switch {
	case len(ch) == 0:
		ix.dropChunk(ci)
	case len(ch) < relChunkMin:
		ix.mergeAt(ci)
	}
	return true
}

// dropChunk removes the (empty) directory entry at ci.
func (ix *relIndex) dropChunk(ci int) {
	ix.spare = append(ix.spare, ix.chunks[ci][:0])
	copy(ix.chunks[ci:], ix.chunks[ci+1:])
	ix.chunks[len(ix.chunks)-1] = nil
	ix.chunks = ix.chunks[:len(ix.chunks)-1]
}

// mergeAt folds the underfull chunk at ci into its smaller neighbor when
// the combined chunk stays clear of the split threshold; a small chunk
// next to two near-full neighbors is left alone (it cannot fragment
// further — its neighbors' fullness bounds the directory size).
func (ix *relIndex) mergeAt(ci int) {
	ch := ix.chunks[ci]
	into := -1
	if ci > 0 {
		into = ci - 1
	}
	if ci+1 < len(ix.chunks) && (into < 0 || len(ix.chunks[ci+1]) < len(ix.chunks[into])) {
		into = ci + 1
	}
	if into < 0 || len(ch)+len(ix.chunks[into]) > 3*relChunkMax/4 {
		return
	}
	if into == ci-1 {
		ix.chunks[into] = append(ix.chunks[into], ch...)
		ix.chunks[ci] = ch[:0]
	} else {
		// Prepend ch to the right neighbor, reusing ch's backing.
		merged := append(ch, ix.chunks[into]...)
		ix.chunks[ci] = ix.chunks[into][:0]
		ix.chunks[into] = merged
	}
	ix.dropChunk(ci)
}

// load bulk-initializes the index from a (t, id)-sorted release slice,
// filling chunks to the target fill so follow-up inserts have headroom.
func (ix *relIndex) load(rels []release) {
	ix.reset()
	for len(rels) > 0 {
		n := relChunkFill
		if len(rels) < n {
			n = len(rels)
		}
		ix.chunks = append(ix.chunks, append(ix.newChunk(), rels[:n]...))
		ix.size += n
		rels = rels[n:]
	}
}

// appendClamped appends every indexed release in (t, id) order to buf,
// with times at or before now clamped strictly after it — the bulk
// snapshot feeding profile.LoadReleases / StartEpoch. Clamping maps a
// prefix of the order onto one shared point, so the result stays sorted.
func (ix *relIndex) appendClamped(buf []profile.Release, now float64) []profile.Release {
	for _, ch := range ix.chunks {
		for _, r := range ch {
			buf = append(buf, profile.Release{Time: clampRelease(r.t, now), CPUs: r.cpus})
		}
	}
	return buf
}

// each calls fn on every release in (t, id) order until fn returns false.
// Hot-path consumers iterate ix.chunks directly; this is the ordered
// traversal for tests and oracles.
func (ix *relIndex) each(fn func(release) bool) {
	for _, ch := range ix.chunks {
		for _, r := range ch {
			if !fn(r) {
				return
			}
		}
	}
}
