package cluster

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewAllFree(t *testing.T) {
	c := mustCluster(t, 8, FirstFit)
	if c.Total() != 8 || c.FreeCount() != 8 || c.Busy() != 0 {
		t.Errorf("fresh cluster state: total=%d free=%d busy=%d", c.Total(), c.FreeCount(), c.Busy())
	}
}

func TestNewWithSelectionRejectsInvalidSize(t *testing.T) {
	for _, total := range []int{0, -1} {
		if c, err := NewWithSelection(total, FirstFit); err == nil || c != nil {
			t.Errorf("NewWithSelection(%d) = %v, %v; want an error", total, c, err)
		}
	}
	if _, err := NewWithSelection(4, Selection(99)); err == nil {
		t.Error("unknown selection policy accepted")
	}
}

func TestFirstFitLowestIDs(t *testing.T) {
	c := mustCluster(t, 8, FirstFit)
	a, err := c.Allocate(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range a.IDs() {
		if id != i {
			t.Errorf("first allocation IDs = %v, want [0 1 2]", a.IDs())
			break
		}
	}
	b, _ := c.Allocate(2, 0)
	if b.IDs()[0] != 3 || b.IDs()[1] != 4 {
		t.Errorf("second allocation IDs = %v, want [3 4]", b.IDs())
	}
	// Release the first block; next allocation must reuse the lowest IDs.
	if err := c.Release(a, 1); err != nil {
		t.Fatal(err)
	}
	d, _ := c.Allocate(2, 1)
	if d.IDs()[0] != 0 || d.IDs()[1] != 1 {
		t.Errorf("post-release allocation IDs = %v, want [0 1] (First Fit)", d.IDs())
	}
}

func TestAllocateExhaustion(t *testing.T) {
	c := mustCluster(t, 4, FirstFit)
	if _, err := c.Allocate(5, 0); err == nil {
		t.Error("over-allocation accepted")
	}
	c.Allocate(4, 0)
	if _, err := c.Allocate(1, 0); err == nil {
		t.Error("allocation from empty pool accepted")
	}
	if _, err := c.Allocate(0, 0); err == nil {
		t.Error("zero-size allocation accepted")
	}
}

func TestReleaseValidation(t *testing.T) {
	c := mustCluster(t, 4, FirstFit)
	a, _ := c.Allocate(2, 0)
	if err := c.Release(AllocOf(99), 1); err == nil {
		t.Error("foreign processor release accepted")
	}
	if err := c.Release(a, 1); err != nil {
		t.Errorf("valid release rejected: %v", err)
	}
	if c.FreeCount() != 4 {
		t.Errorf("free after release = %d, want 4", c.FreeCount())
	}
}

func TestTimeMonotonicity(t *testing.T) {
	c := mustCluster(t, 4, FirstFit)
	c.Allocate(1, 10)
	if _, err := c.Allocate(1, 5); err == nil {
		t.Error("backwards allocation time accepted")
	}
	a, _ := c.Allocate(1, 10)
	if err := c.Release(a, 5); err == nil {
		t.Error("backwards release time accepted")
	}
}

func TestBusyIntegral(t *testing.T) {
	c := mustCluster(t, 10, FirstFit)
	a, _ := c.Allocate(4, 0)  // 4 busy from t=0
	b, _ := c.Allocate(2, 10) // 6 busy from t=10
	c.Release(a, 20)          // 2 busy from t=20
	c.Release(b, 30)          // 0 busy from t=30
	// Integral: 4*10 + 6*10 + 2*10 = 120 CPU-seconds.
	if got := c.BusyCPUSeconds(30); math.Abs(got-120) > 1e-9 {
		t.Errorf("BusyCPUSeconds(30) = %v, want 120", got)
	}
	// Still 120 later (nothing busy).
	if got := c.BusyCPUSeconds(50); math.Abs(got-120) > 1e-9 {
		t.Errorf("BusyCPUSeconds(50) = %v, want 120", got)
	}
}

func TestBusyIntegralMidAllocation(t *testing.T) {
	c := mustCluster(t, 4, FirstFit)
	c.Allocate(3, 0)
	if got := c.BusyCPUSeconds(10); math.Abs(got-30) > 1e-9 {
		t.Errorf("BusyCPUSeconds(10) = %v, want 30", got)
	}
}

func TestIdleCPUSeconds(t *testing.T) {
	c := mustCluster(t, 10, FirstFit)
	a, _ := c.Allocate(5, 0)
	c.Release(a, 10)
	// Window [0,20]: total 200 CPU-s, busy 50, idle 150.
	if got := c.IdleCPUSeconds(0, 20); math.Abs(got-150) > 1e-9 {
		t.Errorf("IdleCPUSeconds = %v, want 150", got)
	}
	if got := c.IdleCPUSeconds(20, 10); got != 0 {
		t.Errorf("inverted window idle = %v, want 0", got)
	}
}

// Property: random allocate/release sequences preserve the processor
// count invariant free + busy == total and never hand out duplicate IDs.
func TestQuickAllocReleaseInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		total := 1 + r.Intn(64)
		c := mustCluster(t, total, FirstFit)
		var live []Alloc
		now := 0.0
		for step := 0; step < 200; step++ {
			now += r.Float64()
			if r.Intn(2) == 0 && c.FreeCount() > 0 {
				n := 1 + r.Intn(c.FreeCount())
				a, err := c.Allocate(n, now)
				if err != nil {
					return false
				}
				live = append(live, a)
			} else if len(live) > 0 {
				i := r.Intn(len(live))
				if err := c.Release(live[i], now); err != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			}
			if c.FreeCount()+c.Busy() != total {
				return false
			}
			seen := make(map[int]bool)
			for _, a := range live {
				for _, id := range a.IDs() {
					if seen[id] || id < 0 || id >= total {
						return false
					}
					seen[id] = true
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// AllocateInto must reuse the destination's run capacity: after a warmup
// allocation, re-allocating through the same Alloc performs no new slice
// allocation and fully overwrites the previous contents.
func TestAllocateIntoReusesCapacity(t *testing.T) {
	c := mustCluster(t, 16, FirstFit)
	var a Alloc
	if err := c.AllocateInto(&a, 4, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Release(a, 1); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := c.AllocateInto(&a, 4, 1); err != nil {
			t.Fatal(err)
		}
		if err := c.Release(a, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("AllocateInto allocated %.1f objects per cycle, want 0", allocs)
	}
	if got := a.IDs(); !equalInts(got, []int{0, 1, 2, 3}) {
		t.Errorf("reused allocation IDs = %v, want [0 1 2 3]", got)
	}
}

// Property: the busy integral is non-negative and non-decreasing in time.
func TestQuickBusyIntegralMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := mustCluster(t, 8, FirstFit)
		now, prev := 0.0, 0.0
		var live []Alloc
		for step := 0; step < 100; step++ {
			now += r.Float64() * 5
			if r.Intn(2) == 0 && c.FreeCount() > 0 {
				a, _ := c.Allocate(1+r.Intn(c.FreeCount()), now)
				live = append(live, a)
			} else if len(live) > 0 {
				c.Release(live[len(live)-1], now)
				live = live[:len(live)-1]
			}
			cur := c.BusyCPUSeconds(now)
			if cur < prev-1e-9 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Regression: double release must be rejected under EVERY selection
// policy. The seed implementation only consulted the ownership bitmap of
// the contiguous/next-fit policies, so under First Fit (the paper's
// policy) a double release silently pushed duplicate IDs into the free
// heap, corrupting nfree/busy and letting one processor be allocated
// twice.
func TestDoubleReleaseRejectedAllPolicies(t *testing.T) {
	for _, sel := range []Selection{FirstFit, ContiguousBestFit, NextFit} {
		c, err := NewWithSelection(8, sel)
		if err != nil {
			t.Fatal(err)
		}
		a, err := c.Allocate(3, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := c.Allocate(2, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Release(a, 1); err != nil {
			t.Fatalf("%v: first release failed: %v", sel, err)
		}
		if err := c.Release(a, 2); err == nil {
			t.Fatalf("%v: double release accepted", sel)
		}
		// The failed release must not have mutated any accounting.
		if c.FreeCount() != 6 || c.Busy() != 2 {
			t.Fatalf("%v: free=%d busy=%d after rejected double release, want 6/2",
				sel, c.FreeCount(), c.Busy())
		}
		// A duplicate ID within one allocation is also a double release.
		dup := AllocOf(b.IDs()[0], b.IDs()[0])
		if err := c.Release(dup, 3); err == nil {
			t.Fatalf("%v: duplicate-ID release accepted", sel)
		}
		if c.FreeCount() != 6 || c.Busy() != 2 {
			t.Fatalf("%v: free=%d busy=%d after rejected duplicate release, want 6/2",
				sel, c.FreeCount(), c.Busy())
		}
		if err := c.Release(b, 4); err != nil {
			t.Fatalf("%v: valid release rejected after errors: %v", sel, err)
		}
		if c.FreeCount() != 8 || c.Busy() != 0 {
			t.Fatalf("%v: free=%d busy=%d at end, want 8/0", sel, c.FreeCount(), c.Busy())
		}
		// The machine must still allocate every processor exactly once.
		seen := map[int]bool{}
		all, err := c.Allocate(8, 5)
		if err != nil {
			t.Fatalf("%v: full allocation failed: %v", sel, err)
		}
		for _, id := range all.IDs() {
			if seen[id] {
				t.Fatalf("%v: processor %d allocated twice", sel, id)
			}
			seen[id] = true
		}
	}
}

// Release accepts only strictly ascending run lists: a disjoint list out
// of order is rejected like an overlapping one, and neither touches the
// cluster.
func TestReleaseRejectsRunsOutOfOrder(t *testing.T) {
	for _, sel := range []Selection{FirstFit, ContiguousBestFit, NextFit} {
		c := mustCluster(t, 8, sel)
		if _, err := c.Allocate(8, 0); err != nil {
			t.Fatal(err)
		}
		for _, bad := range []Alloc{AllocOf(5, 6, 0, 1), AllocOf(2, 2), {Runs: []Run{{Lo: 0, Hi: 3}, {Lo: 3, Hi: 4}}}} {
			free := append([]Run(nil), c.free...)
			if err := c.Release(bad, 1); err == nil {
				t.Errorf("%v: Release(%v) accepted", sel, bad.Runs)
			}
			if c.FreeCount() != 0 || c.Busy() != 8 || c.BusyCPUSeconds(0) != 0 || !slices.Equal(c.free, free) {
				t.Errorf("%v: rejected Release(%v) changed the cluster: free=%d busy=%d runs=%v",
					sel, bad.Runs, c.FreeCount(), c.Busy(), c.free)
			}
		}
		if err := c.Release(AllocOf(0, 1, 5, 6), 1); err != nil {
			t.Errorf("%v: ascending release rejected: %v", sel, err)
		}
	}
}

// The steady state allocates nothing under any policy: once the free list
// and the scratch have grown to the working set, taking and merging runs
// reuses their backing arrays.
func TestAllocateIntoReleaseAllocateNothing(t *testing.T) {
	for _, sel := range []Selection{FirstFit, ContiguousBestFit, NextFit} {
		c := mustCluster(t, 256, sel)
		// Fragment the machine: hold every other pair of processors.
		var held []Alloc
		for c.FreeCount() > 0 {
			a, err := c.Allocate(min(2, c.FreeCount()), 0)
			if err != nil {
				t.Fatal(err)
			}
			held = append(held, a)
		}
		for i := 0; i < len(held); i += 2 {
			if err := c.Release(held[i], 0); err != nil {
				t.Fatal(err)
			}
		}
		var as [4]Alloc
		cycle := func() {
			for i, n := range []int{1, 5, 2, 9} {
				if err := c.AllocateInto(&as[i], n, 1); err != nil {
					t.Fatal(err)
				}
			}
			for _, i := range []int{2, 0, 3, 1} {
				if err := c.Release(as[i], 1); err != nil {
					t.Fatal(err)
				}
			}
		}
		cycle() // warm-up: grow every backing array to the working set
		if allocs := testing.AllocsPerRun(100, cycle); allocs > 0 {
			t.Errorf("%v: %.1f allocations per allocate/release cycle, want 0", sel, allocs)
		}
	}
}
