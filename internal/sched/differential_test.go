package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dvfs"
	"repro/internal/workload"
)

// matchReference replays tr through the production scheduler and through
// the reference simulator under the same configuration, with ctrl (nil
// for none) as the cluster-level controller rule, and reports the first
// job whose start or end time differs. It returns the production run's
// audit. The production run takes the path Simulate takes after
// validating, so fixtures may hold zero-ReqTime jobs, which only
// white-box callers can submit.
func matchReference(t *testing.T, cfg Config, ctrl regearRule, tr *workload.Trace) (*auditRecorder, error) {
	t.Helper()
	rec := newAudit(t, cfg.CPUs)
	pcfg := cfg
	pcfg.Recorder = rec
	if ctrl != nil {
		pcfg.Controller = ruleController{rule: ctrl}
	}
	sys, err := New(pcfg)
	if err != nil {
		return nil, err
	}
	if err := sys.simulateSource(workload.NewSliceSource(tr.Name, tr.CPUs, tr.Jobs), true); err != nil {
		return nil, fmt.Errorf("production: %w", err)
	}
	ref := newRefSim(cfg, ctrl)
	ref.run(tr.Jobs)
	if len(rec.starts) != len(tr.Jobs) || len(ref.ends) != len(tr.Jobs) {
		return rec, fmt.Errorf("%d jobs in the trace: production started %d, reference finished %d",
			len(tr.Jobs), len(rec.starts), len(ref.ends))
	}
	for _, j := range tr.Jobs {
		if rec.starts[j.ID] != ref.starts[j.ID] || rec.ends[j.ID] != ref.ends[j.ID] {
			return rec, fmt.Errorf("job %d ran [%v, %v], reference [%v, %v]",
				j.ID, rec.starts[j.ID], rec.ends[j.ID], ref.starts[j.ID], ref.ends[j.ID])
		}
	}
	return rec, nil
}

// tieTrace is a random trace on integer times that piles up the edge
// cases: equal submit times, zero-ReqTime jobs (occupying nothing but an
// instant), killed jobs, and — integer starts plus integer requested
// times at the top gear — equal planned ends.
func tieTrace(seed int64, cpus, n int) *workload.Trace {
	r := rand.New(rand.NewSource(seed))
	tr := &workload.Trace{Name: "ties", CPUs: cpus}
	t := 0.0
	for i := 0; i < n; i++ {
		t += float64(r.Intn(3)) * float64(r.Intn(4))
		req := float64(r.Intn(40))
		if r.Intn(6) == 0 {
			req = 0
		}
		tr.Jobs = append(tr.Jobs, &workload.Job{
			ID: i + 1, Submit: t, Runtime: float64(r.Intn(50)), Procs: 1 + r.Intn(cpus), ReqTime: req, Beta: -1,
		})
	}
	return tr
}

// TestCompatModesProduceIdenticalSchedules is the differential suite for
// the production scheduler: the streamed, pooled, tombstoned,
// index-backed implementation with its persistent profile must replay
// every trace exactly like the reference simulator (reference_test.go),
// which stands in for the superseded implementations the name recalls.
// It runs every base variant, both queue orders, gear policies that flip
// gears with queue depth and earliest start, and per-pass controllers
// that re-gear running jobs up and down, over random traces and over
// tie-heavy ones with zero-ReqTime jobs. Start and end times are compared
// exactly — any ordering drift in the run-list iteration, the event heap
// or the retained reservations shows up as a changed schedule.
func TestCompatModesProduceIdenticalSchedules(t *testing.T) {
	type fixture struct {
		name    string
		variant Variant
		order   Order
		resv    int
	}
	fixtures := []fixture{
		{"easy", EASY, FCFSOrder, 0},
		{"fcfs", FCFS, FCFSOrder, 0},
		{"conservative", Conservative, FCFSOrder, 0},
		{"easy-sjf", EASY, SJFOrder, 0},
		{"flexible-4", EASY, FCFSOrder, 4},
		{"conservative-sjf", Conservative, SJFOrder, 0},
	}
	gears := dvfs.PaperGearSet()
	policies := []struct {
		name string
		mk   func() GearPolicy
		ctrl regearRule
	}{
		{"top", topPolicy, nil},
		// The wait/wq-sensitive policy flips gears as queues grow and
		// earliest starts drift, stressing the persistent profile's
		// changed-prefix revalidation: a retained reservation may only be
		// reused when re-asking the policy provably returns the same gear.
		{"varying", func() GearPolicy { return varyingPolicy{gears: gears} }, nil},
		// The parity policy flips gears with every change of the queue
		// depth, so a retained reservation survives an arrival only if
		// the reuse proof re-asks the policy and gets the same answer.
		{"parity", func() GearPolicy { return parityPolicy{gears: gears} }, nil},
		// The boosting policy re-gears running jobs from its own hook, so
		// the persistent profile must swap their base occupancies
		// mid-epoch.
		{"boosting", func() GearPolicy { return boostingPolicy{gears: gears} }, nil},
		// A cluster-level clamp lowers and raises running jobs' gears,
		// after the policy's own hook when there is one.
		{"varying+clamp", func() GearPolicy { return varyingPolicy{gears: gears} }, clampRule(gears)},
		{"boosting+clamp", func() GearPolicy { return boostingPolicy{gears: gears} }, clampRule(gears)},
	}
	for _, fx := range fixtures {
		for _, pol := range policies {
			fx, pol := fx, pol
			t.Run(fx.name+"/"+pol.name, func(t *testing.T) {
				t.Parallel()
				for seed := int64(1); seed <= 4; seed++ {
					for _, tr := range []*workload.Trace{randomTrace(seed, 16, 250), tieTrace(seed, 16, 250)} {
						cfg := Config{
							CPUs: 16, Gears: gears,
							TimeModel:    dvfs.NewTimeModel(0.5, gears),
							Policy:       pol.mk(),
							Variant:      fx.variant,
							Order:        fx.order,
							Reservations: fx.resv,
						}
						if _, err := matchReference(t, cfg, pol.ctrl, tr); err != nil {
							t.Fatalf("seed %d %s trace: %v", seed, tr.Name, err)
						}
					}
				}
			})
		}
	}
}

// FuzzScheduleMatchesReference decodes a small trace and a configuration
// from the fuzz input and requires the production scheduler to match the
// reference simulator exactly. The first byte picks the variant (EASY,
// FCFS, conservative, flexible), the second the order (bit 0), the
// flexible depth K (bits 1-2), the gear policy (bits 3-4) and the
// controller rule (bits 5-7); every following four bytes
// are one job on an 8-CPU machine: the submit gap (zero piles arrivals
// onto one instant), processors, requested time (zero included) and
// runtime, all integers so planned ends collide. The seed corpus lives
// under testdata/fuzz/FuzzScheduleMatchesReference; CI runs a short
// -fuzz smoke on top of it.
func FuzzScheduleMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 3, 5, 7, 0, 2, 0, 4, 1, 8, 2, 9})
	f.Add([]byte{2, 0x21, 0, 8, 9, 9, 0, 1, 0, 3, 0, 4, 4, 4, 1, 2, 2, 2, 0, 8, 6, 6})
	f.Add([]byte{3, 0x47, 0, 5, 7, 9, 0, 5, 7, 9, 0, 5, 7, 9, 1, 3, 0, 1, 0, 8, 3, 3})
	const cpus = 8
	gears := dvfs.PaperGearSet()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		cfg := Config{CPUs: cpus, Gears: gears, TimeModel: dvfs.NewTimeModel(0.5, gears)}
		switch data[0] % 4 {
		case 0:
			cfg.Variant = EASY
		case 1:
			cfg.Variant = FCFS
		case 2:
			cfg.Variant = Conservative
		case 3:
			cfg.Variant, cfg.Reservations = EASY, 2+int(data[1]>>1)%4
		}
		cfg.Order = Order(data[1] & 1)
		switch (data[1] >> 3) % 4 {
		case 0:
			cfg.Policy = topPolicy()
		case 1:
			cfg.Policy = varyingPolicy{gears: gears}
		case 2:
			cfg.Policy = boostingPolicy{gears: gears}
		case 3:
			cfg.Policy = parityPolicy{gears: gears}
		}
		var ctrl regearRule
		switch (data[1] >> 5) % 3 {
		case 1:
			ctrl = clampRule(gears)
		case 2:
			ctrl = boostRule(gears)
		}
		tr := &workload.Trace{Name: "fuzz", CPUs: cpus}
		submit := 0.0
		for i := 2; i+3 < len(data) && len(tr.Jobs) < 64; i += 4 {
			submit += float64(data[i] % 4)
			tr.Jobs = append(tr.Jobs, &workload.Job{
				ID: len(tr.Jobs) + 1, Submit: submit, Procs: 1 + int(data[i+1])%cpus,
				ReqTime: float64(data[i+2] % 16), Runtime: float64(data[i+3] % 20), Beta: -1,
			})
		}
		if _, err := matchReference(t, cfg, ctrl, tr); err != nil {
			t.Fatal(err)
		}
	})
}

// varyingPolicy is a deterministic gear policy whose decisions depend on
// everything a pass may change — the queue depth and the reservation's
// earliest start — so any stale reservation reuse in the persistent
// profile shows up as a schedule divergence.
type varyingPolicy struct {
	gears dvfs.GearSet
}

func (p varyingPolicy) Name() string { return "varying" }

// EstMonotone marks the policy for the widened changed-prefix analysis:
// as the start grows the decision flips gears[0] -> Top at the 120 s
// wait boundary and never back, so it satisfies the monotonicity
// contract while still being genuinely start-dependent — the
// differential fixtures therefore pin the widened reuse path against the
// reference's replan-everything passes. boostingPolicy stays unmarked on
// purpose, so the conservative any-mutation-replans path keeps coverage
// too.
func (varyingPolicy) EstMonotone() {}

func (p varyingPolicy) ReserveGear(j *workload.Job, start, now float64, wqOthers int) dvfs.Gear {
	if wqOthers > 3 {
		return p.gears.Top()
	}
	if start-j.Submit > 120 {
		return p.gears.Top()
	}
	return p.gears[0]
}

func (p varyingPolicy) BackfillGear(j *workload.Job, now float64, wqOthers int, feasible func(dvfs.Gear) bool) (dvfs.Gear, bool) {
	start := len(p.gears) - 1
	if wqOthers <= 3 && now-j.Submit <= 120 {
		start = 0
	}
	for i := start; i < len(p.gears); i++ {
		if feasible(p.gears[i]) {
			return p.gears[i], true
		}
	}
	return dvfs.Gear{}, false
}

// parityPolicy picks the lowest gear when an even number of other jobs
// wait and the top gear otherwise. It is not EstMonotone, so it drives
// the conservative reuse analysis, in which any base mutation replans.
type parityPolicy struct {
	gears dvfs.GearSet
}

func (p parityPolicy) Name() string { return "parity" }

func (p parityPolicy) ReserveGear(j *workload.Job, start, now float64, wqOthers int) dvfs.Gear {
	if wqOthers%2 == 0 {
		return p.gears[0]
	}
	return p.gears.Top()
}

func (p parityPolicy) BackfillGear(j *workload.Job, now float64, wqOthers int, feasible func(dvfs.Gear) bool) (dvfs.Gear, bool) {
	if g := p.ReserveGear(j, now, now, wqOthers); feasible(g) {
		return g, true
	}
	return p.gears.Top(), feasible(p.gears.Top())
}

// boostingPolicy starts everything at the lowest gear and, through
// boostRule, raises running reduced jobs to the top gear whenever more
// than two jobs wait — the paper's dynamic boost shape — so gear switches
// (SetGear) hit the persistent profile's occupancy-swap path on every
// variant.
type boostingPolicy struct {
	gears dvfs.GearSet
}

func (p boostingPolicy) Name() string { return "boosting" }

func (p boostingPolicy) ReserveGear(j *workload.Job, start, now float64, wqOthers int) dvfs.Gear {
	return p.gears[0]
}

func (p boostingPolicy) BackfillGear(j *workload.Job, now float64, wqOthers int, feasible func(dvfs.Gear) bool) (dvfs.Gear, bool) {
	for _, g := range p.gears {
		if feasible(g) {
			return g, true
		}
	}
	return dvfs.Gear{}, false
}

func (p boostingPolicy) Bind(*System) {}

func (p boostingPolicy) ControlPass(sys *System, now float64) { p.rule().apply(sys, now) }

func (p boostingPolicy) rule() regearRule { return boostRule(p.gears) }

// The tombstoned run list must preserve start order across heavy churn:
// Running() always reports live jobs in the order they started, and the
// indexes stay consistent after compaction.
func TestRunListTombstoneCompaction(t *testing.T) {
	checker := runOrderChecker{t: t}
	sys := paperSystem(t, 8, EASY, orderAuditPolicy{checker: &checker}, nil)
	tr := randomTrace(7, 8, 300)
	if err := sys.Simulate(tr); err != nil {
		t.Fatal(err)
	}
	if sys.runningCount() != 0 {
		t.Errorf("runningCount = %d after drain, want 0", sys.runningCount())
	}
	if checker.passes == 0 {
		t.Fatal("order checker never ran")
	}
}

type runOrderChecker struct {
	t      *testing.T
	passes int
}

// orderAuditPolicy verifies Running()'s ordering and index invariants
// after every pass, mid-simulation, where tombstones are live.
type orderAuditPolicy struct {
	checker *runOrderChecker
}

func (p orderAuditPolicy) Name() string { return "order-audit" }
func (p orderAuditPolicy) ReserveGear(j *workload.Job, start, now float64, wq int) dvfs.Gear {
	return dvfs.PaperGearSet().Top()
}
func (p orderAuditPolicy) BackfillGear(j *workload.Job, now float64, wq int, feasible func(dvfs.Gear) bool) (dvfs.Gear, bool) {
	g := dvfs.PaperGearSet().Top()
	return g, feasible(g)
}
func (p orderAuditPolicy) Bind(*System) {}
func (p orderAuditPolicy) ControlPass(sys *System, now float64) {
	p.checker.passes++
	running := sys.Running()
	for i, rs := range running {
		if rs == nil {
			p.checker.t.Fatalf("Running()[%d] is nil", i)
		}
		if rs.runIdx != i {
			p.checker.t.Fatalf("Running()[%d].runIdx = %d", i, rs.runIdx)
		}
		if i > 0 && rs.Start < running[i-1].Start {
			p.checker.t.Fatalf("Running() out of start order at %d: %v < %v",
				i, rs.Start, running[i-1].Start)
		}
	}
	if got := sys.runningCount(); got != len(running) {
		p.checker.t.Fatalf("runningCount = %d, Running() has %d", got, len(running))
	}
}
