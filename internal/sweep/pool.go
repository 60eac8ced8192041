package sweep

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/scenario"
	"repro/internal/workload"
)

// Run pairs a grid point with its compiled scenario, ready for execution.
type Run struct {
	Point    Point
	Scenario *scenario.Scenario
}

// Result is one executed cell. Err carries the per-run failure (or the
// context error for runs skipped after cancellation); Outcome is only
// meaningful when Err is nil.
type Result struct {
	Point   Point
	Outcome scenario.Outcome
	Err     error
}

// Pool executes runs across a fixed set of worker goroutines. The zero
// value is ready to use and sizes itself to runtime.NumCPU().
type Pool struct {
	// Workers is the goroutine count; <= 0 selects runtime.NumCPU().
	Workers int
	// OnProgress, when set, observes each completed run. Calls are
	// serialized and done increases by one per call, but completion
	// order (which cell finishes when) is nondeterministic — only the
	// final result slice is ordered.
	OnProgress func(done, total int, r Result)
}

// workerCount resolves the effective parallelism for n runs.
func (p *Pool) workerCount(n int) int {
	w := p.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Execute runs every item and returns results in input order, regardless
// of worker count or finish order: slot i always holds runs[i]'s result.
// Per-run simulation errors are captured in Result.Err and do not stop the
// sweep. Canceling ctx stops dispatching promptly; runs not yet started
// get ctx's error. The context error is surfaced as Execute's own error
// only when at least one run was actually skipped — a cancellation that
// loses the race against completion leaves a fully valid result set, and
// callers must not be made to discard it.
func (p *Pool) Execute(ctx context.Context, runs []Run) ([]Result, error) {
	results := make([]Result, len(runs))
	if len(runs) == 0 {
		return results, nil
	}
	var (
		next    int64 = -1
		done    int64
		skipped int64
		mu      sync.Mutex // serializes OnProgress
		wg      sync.WaitGroup
	)
	for w := p.workerCount(len(runs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(runs) {
					return
				}
				r := Result{Point: runs[i].Point}
				if err := ctx.Err(); err != nil {
					r.Err = err
					atomic.AddInt64(&skipped, 1)
				} else {
					r.Outcome, r.Err = runs[i].Scenario.Execute()
				}
				results[i] = r
				if p.OnProgress != nil {
					mu.Lock()
					p.OnProgress(int(atomic.AddInt64(&done, 1)), len(runs), r)
					mu.Unlock()
				} else {
					atomic.AddInt64(&done, 1)
				}
			}
		}()
	}
	wg.Wait()
	if atomic.LoadInt64(&skipped) > 0 {
		return results, ctx.Err()
	}
	return results, nil
}

// ForEach applies fn to every index in [0, n) across the pool's workers,
// stopping early on the first error or context cancellation. When several
// indices fail concurrently, the error of the smallest index is returned,
// so the reported failure does not depend on goroutine scheduling.
func (p *Pool) ForEach(ctx context.Context, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next   int64 = -1
		mu     sync.Mutex
		errIdx = n
		first  error
		wg     sync.WaitGroup
	)
	fail := func(i int, err error) {
		mu.Lock()
		if i < errIdx {
			errIdx, first = i, err
		}
		mu.Unlock()
		cancel()
	}
	for w := p.workerCount(n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n || ctx.Err() != nil {
					return
				}
				if err := fn(i); err != nil {
					fail(i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if first != nil {
		return first
	}
	return context.Cause(ctx)
}

// Sweep expands the grid, compiles every point into a scenario through
// the resolver's shared compiler and executes the runs on the pool (a nil
// pool runs with defaults). Grid axis problems and workload
// loading/compilation failures abort before any simulation starts;
// simulation errors are captured per result.
func Sweep(ctx context.Context, g Grid, r *Resolver, p *Pool) ([]Result, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	pts := g.Points()
	runs := make([]Run, len(pts))
	for i, pt := range pts {
		sc, err := r.Scenario(pt)
		if err != nil {
			return nil, err
		}
		runs[i] = Run{Point: pt, Scenario: sc}
	}
	if p == nil {
		p = &Pool{}
	}
	return p.Execute(ctx, runs)
}

// CachedLoader wraps a trace loader so each distinct name is loaded once.
// The returned function is safe for concurrent use.
func CachedLoader(load func(name string) (*workload.Trace, error)) func(name string) (*workload.Trace, error) {
	var mu sync.Mutex
	cache := make(map[string]*workload.Trace)
	return func(name string) (*workload.Trace, error) {
		mu.Lock()
		defer mu.Unlock()
		if tr, ok := cache[name]; ok {
			return tr, nil
		}
		tr, err := load(name)
		if err != nil {
			return nil, err
		}
		cache[name] = tr
		return tr, nil
	}
}
