// Package repro reproduces "BSLD Threshold Driven Power Management Policy
// for HPC Centers" (Etinski, Corbalan, Labarta, Valero — IPDPS 2010): a
// power-aware EASY backfilling job scheduler for DVFS-enabled clusters
// that assigns each job the lowest CPU frequency keeping its predicted
// bounded slowdown under a threshold.
//
// The root package carries the benchmark harness regenerating every table
// and figure of the paper (bench_test.go); the implementation lives under
// internal/ and the runnable entry points under cmd/ and examples/.
//
// Parameter studies — the paper's headline results are sweeps over BSLD
// threshold × machine size × workload — run through internal/sweep: a
// declarative Grid expands to a deterministic ordered run list and a Pool
// executes it across all cores with byte-identical output regardless of
// worker count. The experiments suite, cmd/calibrate and the standalone
// cmd/sweep CLI (JSON/flag-defined grids, CSV or JSON results) all drive
// their simulations through that pool.
//
// # Scenarios
//
// Every run flows through internal/scenario: a Spec (workload name or
// pre-built source, gear policy as data, machine size, platform
// overrides) compiles into an immutable, goroutine-safe Scenario — the
// workload resolved once into a shared arena (SWF logs parse once,
// presets generate once, streamed presets clone independent RNG cursors
// from one summed prototype), every default filled in, and a canonical
// SHA-256 content hash identifying the run. Compile once, Execute many:
// N goroutines executing one shared scenario produce bit-identical
// metrics.Results (stateful gear policies clone per execution through
// sched.PolicyCloner). Spec is the only run description: callers
// holding resolved objects (a generated trace, a streaming source, a
// pre-built gear policy) pass them through its escape-hatch fields, and
// Scenario.ExecutePair runs the no-DVFS baseline every normalized energy
// divides by. Sweeps compile grid points through a shared Compiler so
// arenas dedup across cells, and cmd/schedd serves what-if queries over
// HTTP with an LRU result cache keyed by the scenario hash, in-flight
// coalescing of identical queries, a bounded simulation worker pool and
// graceful drain on shutdown. See examples/whatif for the pattern end to
// end.
//
// # Power control
//
// Cluster-level power management is a first-class layer over the
// per-job gear decision. sched.PowerController is the seam: a
// controller binds to the System, observes it, and actuates running
// jobs through SetGear at the end of every scheduling pass — composing
// with, not replacing, the per-job sched.GearPolicy (a policy that
// also implements the interface keeps its per-pass hook, e.g. the
// paper's §7 dynamic boost, and an explicit cluster controller runs
// after it: per-job boosting proposes, cluster-level enforcement
// disposes). Observation is O(1): nodepower.Meter maintains the
// instantaneous active draw and running energy integrals online from
// start/finish/regear events, differentially tested against the
// post-hoc nodepower.Evaluate replay. On this seam live
// altpolicy.UtilizationDriven (the utilization-adaptive gear floor)
// and altpolicy.PowerCap — closed-loop power capping: a velocity-form
// PI controller moves a continuous gear-ceiling level on the
// normalized cap error, clamping jobs to min(policy-chosen gear,
// ceiling) and restoring them as headroom returns, with per-job
// eco-mode consent (workload.Job.Eco, opted in via the workload
// filter's EcoUsers hook — user IDs or "*" for all — which
// workload.EcoSet applies uniformly to SWF logs and wgen presets,
// materialized or streamed). The controller is data in scenario.Spec
// (ControllerConfig: cap fraction, PI gains, eco-only), covered by the
// canonical hash, swept as a grid axis (sweep.Grid.CapFracs), tabled
// by the experiments suite (cap levels × BSLD thresholds), and served
// by cmd/schedd (cap tracking stats ride the what-if response). A
// controller-free or cap-disabled run is byte-identical to the
// pre-controller path, and a cap at peak draw never actuates — both
// pinned by determinism tests.
//
// # Scale
//
// The scheduler hot path is built for multi-million-job workloads (the
// wgen Million and TenMillion presets; BENCH_sched.json tracks the
// trajectory and CI's cmd/benchgate fails the build when the allocs/op
// of the EASY Million or the conservative full-Million replay, or the
// streamed replay's peak heap, grows more than 20%, or the
// power-controller capped/off throughput ratio drops more than 20%,
// against it; wall-clock regressions are the repo benchmark's job,
// BENCHMARK.json). For digging into a regression, cmd/bsldsim takes
// -cpuprofile/-memprofile and writes pprof profiles of a whole run
// (bench_test.go's benchmarks equally accept go test's own -cpuprofile).
// Twelve properties keep the path fast and flat in memory:
//
//   - Streaming workloads: workload.JobSource streams jobs one at a time
//     end to end — wgen.Stream generates presets lazily from replayed
//     RNG cursors (byte-identical to the materialized Generate),
//     and workload.SWFSource reads logs incrementally with the same
//     filter hooks. The scheduler (sched.System.SimulateSource, scenario.Spec.Source) pulls
//     from the cursor, so a ten-million-job replay peaks below 20 MB
//     where the trace slice alone would cost ~920 MB; sweeps give every
//     worker an independent source instead of one shared slice.
//   - Streaming arrivals: the scheduler feeds arrivals lazily from the
//     source cursor, so the event heap holds only running-job
//     completions plus a single pending arrival — O(running jobs), not
//     O(trace). That holds under gear switches too: a switch cancels
//     the job's completion event and schedules a new one, and the
//     engine compacts canceled events out of the heap once they
//     outnumber the live ones, so a power controller re-gearing most
//     running jobs every pass does not grow the heap by one entry per
//     switch (a 1000-job CTC run capped at 60% cancels about 118k
//     completion events).
//   - O(1) completion removal: the run list tombstones finished entries
//     by index and compacts lazily, preserving exact start-order
//     iteration (which the EASY shadow computation and the
//     profile-based variants replay deterministically).
//   - Interval placements: cluster.Alloc stores run-length intervals
//     (Runs []Run) instead of explicit processor ID slices — First Fit
//     packs a 1024-processor job into one 16-byte run — and the
//     nodepower tracker consumes the same intervals through
//     processor-indexed slices.
//   - Allocation-free steady state: the engine pools events, the
//     scheduler pools RunStates (with their Runs and Phases capacity),
//     cluster.AllocateInto refills a pooled allocation in place, the
//     queue backing stays anchored so arrival appends reuse it, and
//     metrics stream: without scenario.Spec.KeepCollector the collector
//     folds Results online and holds no per-job records. A 1M-job EASY
//     replay runs at ~1.3M jobs/s with ~0.12 allocations per job.
//   - Log-time availability profile: internal/profile keeps its usage
//     deltas in chunked ordered indexes (point queries and edits cost a
//     directory search plus one chunk), and bulk-loads the scheduler's
//     incrementally maintained release schedule in one pass —
//     conservative backfilling's replanning is not quadratic in profile
//     size.
//   - Persistent replanning profile: the conservative/flexible variants
//     no longer rebuild the profile each pass. The base skyline persists
//     across passes (job starts, completions and gear switches apply
//     occupancy/credit deltas; cancelling pairs annihilate on contact and
//     expired history folds behind the pass horizon), reservations placed in earlier passes are
//     retained and reused verbatim up to the first queue position whose
//     replan could differ (the changed-prefix invariant: an untouched
//     base, the same job at the same position, planning inputs still in
//     the future, and the gear policy re-confirming its choice — for
//     policies declaring sched.EstMonotonePolicy, re-asking only the two
//     endpoints of the start interval). A pass pays one gear-policy
//     re-ask per retained reservation plus full replanning of the
//     changed suffix — no O(running) profile rebuild and no profile
//     queries for the reused prefix; conservative backfilling on the
//     Million preset runs 7.4x faster than the rebuild-per-pass path it
//     replaces (BENCH_sched.json, 40k jobs).
//   - Chunked release index: the (PlannedEnd, id)-sorted release
//     schedule — every running job's planned processor release, the
//     input to both the EASY shadow sweep and the replanning profile's
//     bulk loads — lives in a directory of sorted bounded chunks
//     (internal/sched/relindex.go) instead of one flat slice, so each
//     start, completion and gear switch costs a binary search plus a
//     single-chunk memmove rather than an O(running) shift. A
//     sorted-slice oracle suite and FuzzReleaseIndex pin it, and a
//     release-schedule inconsistency surfaces as an error from Simulate
//     instead of a panic. Conservative backfilling over the flat profile
//     tiers of the time ran the FULL Million preset at 72k jobs/s, 2.3x
//     over the memmove slice it replaced (BENCH_sched.json).
//   - Blocked EASY passes on the index: classic EASY keeps the same
//     release index as the replanning variants. Its first blocked pass
//     (a queue head that cannot start) builds the index from the run
//     list; from then on every start, completion and gear switch
//     updates it in O(log n + chunk), and each blocked pass's shadow
//     sweep walks only the releases the head needs instead of
//     re-sorting every running job's release. Updates stop once those
//     since the last read outgrow a sixteenth of the index, as when a
//     power controller re-gears most running jobs in one pass: the
//     index is marked dirty and the next reader rebuilds it once. A
//     run that never blocks (the Million EASY preset, FCFS) never
//     builds it. The backfill scan hands GearPolicy.BackfillGear one
//     feasibility predicate bound per System, re-targeted per
//     candidate, so a blocked pass allocates nothing
//     (TestBlockedPassesAllocateNothing). On the
//     benchmark's dvfs-queue workload (Million mix on 2048 CPUs, BSLD 2
//     / WQ 16, about 1,200 jobs running behind a standing queue)
//     throughput rises from 10.9k to 275k jobs/s, medians of seeds 1-5
//     on a 2-vCPU Intel Xeon.
//   - One chunked profile skyline: the persistent profile's own
//     structure follows the same idiom (internal/profile/skydex.go).
//     Running jobs, completion credits and reservations share one
//     directory of bounded chunks holding deltas with in-chunk prefix
//     sums and prefix extrema; AddReservation pushes a delta pair into
//     it and TruncateReservations pushes the negated pairs of the dropped
//     journal suffix (exactly the suffix's cost; re-truncating an
//     already-applied prefix is free). Inserts coalesce equal-time
//     deltas in one chunk memmove and leave the chunk's prefix sums for
//     its next reader, expiring history folds away chunk-at-a-time, and
//     EarliestStart's feasibility sweep skips whole chunks whose
//     extrema cannot cross the limit and searches a feasible window only
//     up to its end. Queries resume: a version-stamped memo lets
//     consecutive EarliestStart calls from the same time re-enter the
//     sweep at the previous cursor; every mutation and fold bumps the
//     version, reservation changes included. A flat sorted-slice oracle
//     in the profile tests and FuzzProfileMatchesFlatTiers pin it.
//     Conservative replanning behind a standing queue (eight 1000-job
//     LLNLThunder traces, BSLD 2 / WQ 16) runs at 55.7k jobs/s against
//     40.7k with reservations in a separate index, medians of five
//     rounds on a 2-vCPU Intel Xeon (BENCH_sched.json).
//   - Free runs as the cluster's occupancy: internal/cluster keeps only
//     the sorted list of maximal free processor runs. First Fit takes
//     whole runs off its low end, contiguous best fit and next fit pick
//     from the same list, and a release binary-searches and merges each
//     run — no selection policy touches processors one by one. The list
//     is the ownership ledger too: a double, foreign or out-of-order
//     release is an error that leaves the cluster untouched. The
//     per-processor bitmap it replaced survives only as the test oracle
//     (oracle_test.go, FuzzClusterMatchesBitmap), which pins every
//     placement. The benchmark's paper-grid workload (the paper's 125
//     grid cells) went from 87.1k to 605k jobs/s, medians of ten runs
//     (seeds 1-10) on a 2-vCPU Intel Xeon.
//   - Each scheduling question once: a replanning pass asks the profile
//     for a reservation's slot at the chosen gear only when that gear's
//     planned duration differs from the top gear's; otherwise the
//     top-gear earliest start the gear decision saw is the slot. Both
//     backfill scans run the top-gear feasibility check themselves and
//     keep a candidate that fails it queued without calling
//     GearPolicy.BackfillGear: with β ≥ 0, which sched.New enforces, no
//     slower gear plans a shorter run, and a policy gear faster than the
//     top one aborts the run. Schedules are unchanged (the reference
//     simulator asks every question afresh). The benchmark's
//     thunder-conservative workload went from 29.6k to 45.5k jobs/s,
//     medians of ten runs (seeds 1-10) on a 2-vCPU Intel Xeon; a traced
//     seed-0 paper-grid run makes 373k BackfillGear calls and 817k
//     feasibility checks instead of 5.12M and 20.2M.
//
// Each layer has exactly one implementation. The differential oracle is
// a test-only reference simulator in internal/sched (reference_test.go):
// a linear-scan event list, free-CPU counts, an EASY shadow that
// re-sorts the releases every pass and a conservative/flexible pass that
// replans every reservation from scratch. The production scheduler must
// match it start and end time of every job across every variant, queue
// order, gear policy and re-gearing controller (the differential suite
// and FuzzScheduleMatchesReference), metamorphic tests in
// internal/scenario check relations that need no second implementation,
// and TestGoldenArtifactCSVs pins every paper table and figure
// byte-for-byte against testdata/golden.
//
// # Static analysis
//
// The conventions the runtime spine cannot test — contracts between
// packages rather than behaviors of one run — are machine-checked by
// reprovet, a custom analyzer suite (internal/analysis) run three ways:
// as the driver test in internal/analysis under plain `go test ./...`,
// as `go run ./cmd/reprovet ./...` in CI (-json for machine-readable
// diagnostics), and per-analyzer against fixtures under
// internal/analysis/testdata/src. Five analyzers:
//
//   - retain: sched.Recorder / sched.GearObserver implementations must
//     not store a pooled *sched.RunState (or pooled memory reachable
//     from one — rs.Phases, rs.Alloc.Runs) into fields, elements or
//     globals: the scheduler recycles run states after JobFinished.
//   - hashcover: every scenario.Spec field must be folded into the
//     canonical content hash or allowlisted as result-neutral in the
//     hashedVia/hashNeutral declaration next to contentHash — adding a
//     Spec field without deciding its hash status fails the build.
//   - determinism: the deterministic core (sched, profile, sim, cluster,
//     scenario) must stay free of observed map iteration, wall-clock
//     time, the global math/rand source and goroutine spawns.
//   - srcerr: workload.JobSource drain loops must check Err(), and
//     error results must never be blank-discarded in non-test code.
//   - deadexport: an exported package-level name under internal/ must be
//     referenced by a non-test file of the module outside its own
//     declaration (a blank interface assertion does not count), so
//     library surface no CLI, Spec field or example reaches does not
//     accumulate. References are read from the whole module even when
//     only some packages are analyzed.
//
// A finding is waived only by `//lint:<analyzer> <justification>` on the
// flagged line or the line above (determinism uses //lint:nondeterm);
// the justification is mandatory and its absence is itself reported.
package repro
