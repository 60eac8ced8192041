package cluster

import (
	"math/rand"
	"testing"
)

func mustCluster(t *testing.T, total int, sel Selection) *Cluster {
	t.Helper()
	c, err := NewWithSelection(total, sel)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSelectionString(t *testing.T) {
	cases := map[Selection]string{
		FirstFit: "firstfit", ContiguousBestFit: "contiguous", NextFit: "nextfit",
	}
	for sel, want := range cases {
		if sel.String() != want {
			t.Errorf("%d.String() = %q, want %q", sel, sel.String(), want)
		}
	}
}

func TestParseSelection(t *testing.T) {
	for _, name := range []string{"firstfit", "ff", "", "contiguous", "bestfit", "nextfit", "nf"} {
		if _, err := ParseSelection(name); err != nil {
			t.Errorf("ParseSelection(%q): %v", name, err)
		}
	}
	if _, err := ParseSelection("zigzag"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestAllocRuns(t *testing.T) {
	cases := []struct {
		ids  []int
		want int
	}{
		{nil, 0},
		{[]int{3}, 1},
		{[]int{0, 1, 2}, 1},
		{[]int{0, 2, 3}, 2},
		{[]int{0, 2, 4}, 3},
	}
	for _, c := range cases {
		a := AllocOf(c.ids...)
		if got := len(a.Runs); got != c.want {
			t.Errorf("len(AllocOf(%v).Runs) = %d, want %d", c.ids, got, c.want)
		}
		if got := a.IDs(); !equalInts(got, c.ids) {
			t.Errorf("AllocOf(%v).IDs() = %v", c.ids, got)
		}
		if got := a.Count(); got != len(c.ids) {
			t.Errorf("AllocOf(%v).Count() = %d, want %d", c.ids, got, len(c.ids))
		}
	}
}

// IDs materializes the allocation's processor identifiers in ascending
// order, for assertions that read easier per processor.
func (a Alloc) IDs() []int {
	ids := make([]int, 0, a.Count())
	for _, r := range a.Runs {
		for id := r.Lo; id <= r.Hi; id++ {
			ids = append(ids, id)
		}
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

func TestContiguousBestFitPicksTightestRun(t *testing.T) {
	c := mustCluster(t, 16, ContiguousBestFit)
	// Carve the machine into runs: occupy 4..5 and 9..12.
	a1, _ := c.Allocate(16, 0)
	c.Release(a1, 0) // warm the path; everything free again
	hold1, _ := c.Allocate(16, 1)
	c.Release(AllocOf(0, 1, 2, 3), 1)
	c.Release(AllocOf(6, 7, 8), 1)
	c.Release(AllocOf(13, 14, 15), 1)
	_ = hold1
	// Free runs: [0..3] (4), [6..8] (3), [13..15] (3). A 3-wide job must
	// take one of the tight 3-runs, not split the 4-run.
	got, err := c.Allocate(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != 1 {
		t.Fatalf("allocation %v not contiguous", got.IDs())
	}
	if got.IDs()[0] != 6 {
		t.Errorf("allocation %v, want the tightest run starting at 6", got.IDs())
	}
}

func TestContiguousFallbackSpansRuns(t *testing.T) {
	c := mustCluster(t, 8, ContiguousBestFit)
	all, _ := c.Allocate(8, 0)
	_ = all
	c.Release(AllocOf(0, 1), 0)
	c.Release(AllocOf(4, 5), 0)
	// No contiguous run of 3 exists; fallback takes lowest IDs.
	got, err := c.Allocate(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 4}
	for i, id := range want {
		if got.IDs()[i] != id {
			t.Fatalf("fallback allocation %v, want %v", got.IDs(), want)
		}
	}
}

func TestNextFitAdvancesCursor(t *testing.T) {
	c := mustCluster(t, 8, NextFit)
	a, _ := c.Allocate(3, 0) // takes 0,1,2; cursor at 3
	if a.IDs()[0] != 0 || a.IDs()[2] != 2 {
		t.Fatalf("first allocation %v", a.IDs())
	}
	b, _ := c.Allocate(2, 0) // takes 3,4
	if b.IDs()[0] != 3 || b.IDs()[1] != 4 {
		t.Fatalf("second allocation %v, want [3 4]", b.IDs())
	}
	c.Release(a, 1)
	// Cursor at 5: next allocation wraps 5,6,7 before reusing 0..2.
	d, _ := c.Allocate(3, 1)
	want := []int{5, 6, 7}
	for i, id := range want {
		if d.IDs()[i] != id {
			t.Fatalf("wrapped allocation %v, want %v", d.IDs(), want)
		}
	}
}

func TestNextFitWrapsAround(t *testing.T) {
	c := mustCluster(t, 4, NextFit)
	a, _ := c.Allocate(3, 0)
	c.Release(a, 1)
	// Cursor at 3: allocation of 2 takes 3 and wraps to 0.
	b, err := c.Allocate(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if b.IDs()[0] != 0 || b.IDs()[1] != 3 {
		t.Errorf("wrap allocation %v, want [0 3]", b.IDs())
	}
}

func TestDoubleReleaseDetectedOnBitmapPolicies(t *testing.T) {
	c := mustCluster(t, 4, ContiguousBestFit)
	a, _ := c.Allocate(2, 0)
	if err := c.Release(a, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Release(a, 2); err == nil {
		t.Error("double release accepted")
	}
}

// Property: all selection policies preserve the free+busy invariant and
// never hand out duplicate or out-of-range processors.
func TestQuickSelectionInvariants(t *testing.T) {
	for _, sel := range []Selection{FirstFit, ContiguousBestFit, NextFit} {
		r := rand.New(rand.NewSource(77))
		total := 32
		c := mustCluster(t, total, sel)
		var live []Alloc
		now := 0.0
		for step := 0; step < 500; step++ {
			now += r.Float64()
			if r.Intn(2) == 0 && c.FreeCount() > 0 {
				n := 1 + r.Intn(c.FreeCount())
				a, err := c.Allocate(n, now)
				if err != nil {
					t.Fatalf("%v: %v", sel, err)
				}
				live = append(live, a)
			} else if len(live) > 0 {
				i := r.Intn(len(live))
				if err := c.Release(live[i], now); err != nil {
					t.Fatalf("%v: %v", sel, err)
				}
				live = append(live[:i], live[i+1:]...)
			}
			if c.FreeCount()+c.Busy() != total {
				t.Fatalf("%v: free %d + busy %d != %d", sel, c.FreeCount(), c.Busy(), total)
			}
			seen := map[int]bool{}
			for _, a := range live {
				prev := -1
				for _, id := range a.IDs() {
					if seen[id] || id < 0 || id >= total {
						t.Fatalf("%v: duplicate or out-of-range id %d", sel, id)
					}
					if id <= prev {
						t.Fatalf("%v: allocation ids not ascending: %v", sel, a.IDs())
					}
					prev = id
					seen[id] = true
				}
				// Runs must be canonical: ascending, disjoint, and maximal
				// (no two adjacent runs could be merged).
				for i := 1; i < len(a.Runs); i++ {
					if a.Runs[i].Lo <= a.Runs[i-1].Hi+1 {
						t.Fatalf("%v: non-canonical runs %v", sel, a.Runs)
					}
				}
				for _, r := range a.Runs {
					if r.Lo > r.Hi {
						t.Fatalf("%v: inverted run %v", sel, r)
					}
				}
			}
		}
	}
}

// Contiguity comparison: on a fragmenting random workload the contiguous
// policy produces placements at least as compact as First Fit on average.
func TestContiguousBeatsFirstFitOnRuns(t *testing.T) {
	runsFor := func(sel Selection) float64 {
		r := rand.New(rand.NewSource(99))
		c := mustCluster(t, 64, sel)
		var live []Alloc
		total, count := 0, 0
		now := 0.0
		for step := 0; step < 2000; step++ {
			now += 1
			if r.Intn(3) != 0 && c.FreeCount() >= 8 {
				a, err := c.Allocate(1+r.Intn(8), now)
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, a)
				total += len(a.Runs)
				count++
			} else if len(live) > 0 {
				i := r.Intn(len(live))
				c.Release(live[i], now)
				live = append(live[:i], live[i+1:]...)
			}
		}
		return float64(total) / float64(count)
	}
	ff := runsFor(FirstFit)
	cbf := runsFor(ContiguousBestFit)
	if cbf > ff {
		t.Errorf("contiguous placement runs %.3f worse than first fit %.3f", cbf, ff)
	}
}
