//! Differential proof of schedule-independence for the supervised worker
//! pool (DESIGN.md §4j): every supervised stage must produce output
//! **bit-identical** to its sequential execution at any worker count —
//! whichever worker is free claims the next item, but items are pure
//! functions of their index and faults key on the item index, so nothing
//! observable may depend on who ran what.
//!
//! Covers the cold exhaustive build (undisturbed and under injected
//! faults, absorbed-fault sets included), the horizon-sweep `extend` path
//! (undisturbed and under injected faults), budget-partial prefixes, and a
//! straggler workload where a static round-robin split would serialize
//! behind one slow item.

use eba_model::{FailureMode, ProcessorId, RunBudget, Scenario, ScenarioSpace, Time};
use eba_sim::chaos::{supervised_indexed, ChaosPlan, FaultInjector, FaultKind};
use eba_sim::{BuildOutcome, GeneratedSystem, SystemBuilder};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Id-exact equality: run records, view table size, and the `ViewId` at
/// every `(run, processor, time)` slot. Stronger than the render-based
/// equivalence used for warm-vs-cold comparisons — across worker counts
/// the engine promises identical interning, not just identical content.
fn assert_identical(a: &GeneratedSystem, b: &GeneratedSystem, what: &str) {
    assert_eq!(a.num_runs(), b.num_runs(), "{what}: run count");
    assert_eq!(a.table().len(), b.table().len(), "{what}: view table size");
    let n = a.n();
    for r in a.run_ids() {
        assert_eq!(a.run(r).config, b.run(r).config, "{what}: config of {r:?}");
        assert_eq!(
            a.run(r).pattern,
            b.run(r).pattern,
            "{what}: pattern of {r:?}"
        );
        for p in ProcessorId::all(n) {
            for time in 0..=a.horizon().index() {
                let t = Time::new(time as u16);
                assert_eq!(
                    a.view(r, p, t),
                    b.view(r, p, t),
                    "{what}: view id at {r:?}, {p}, {t}"
                );
            }
        }
    }
}

/// The straggler regression: one item takes ~50ms while 63 others are
/// instant. A static round-robin split pins a quarter of the items
/// behind the straggler's thread; the shared next-index counter hands
/// them to whichever worker is free.
/// Results must be bit-identical to sequential at every worker count,
/// and on a multi-core host the parallel wall time must beat the serial
/// sum of sleeps.
#[test]
fn straggler_workload_is_bit_identical_and_not_serialized() {
    const ITEMS: usize = 64;
    let job = |i: usize| {
        if i == 0 {
            std::thread::sleep(Duration::from_millis(50));
        } else {
            std::thread::sleep(Duration::from_millis(1));
        }
        (i as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(17)
    };
    let (sequential, faults) = supervised_indexed(ITEMS, 1, job).unwrap();
    assert!(faults.is_empty());

    for workers in [2, 4, 8] {
        let started = Instant::now();
        let (parallel, faults) = supervised_indexed(ITEMS, workers, job).unwrap();
        let elapsed = started.elapsed();
        assert!(faults.is_empty(), "{workers} workers");
        assert_eq!(sequential, parallel, "{workers} workers");
        // The serial sum is 50ms + 63×1ms ≈ 113ms. Only assert the
        // speedup where the host can actually run two threads at once —
        // on a single-core container the scheduler interleaves but
        // cannot overlap the sleeps.
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        if cores > 1 {
            assert!(
                elapsed < Duration::from_millis(113),
                "{workers} workers: stragglers must not serialize the pool \
                 (took {elapsed:?})"
            );
        }
    }
}

/// The cold exhaustive build is id-exact across worker counts: the
/// shard merge happens in shard order regardless of which thread built
/// which shard.
#[test]
fn exhaustive_build_is_identical_at_every_worker_count() {
    for scenario in [
        Scenario::new(3, 1, FailureMode::Omission, 2).unwrap(),
        Scenario::new(3, 2, FailureMode::Crash, 3).unwrap(),
    ] {
        let baseline = SystemBuilder::new(&scenario)
            .threads(1)
            .shards(8)
            .build()
            .unwrap();
        for workers in WORKER_COUNTS {
            let system = SystemBuilder::new(&scenario)
                .threads(workers)
                .shards(8)
                .build()
                .unwrap();
            assert_identical(&baseline, &system, &format!("build @{workers}"));
        }
    }
}

/// A horizon sweep (1 → 2 → 3) through `extend` is id-exact across
/// worker counts: each block's table is the base table plus the block's
/// new views in enumeration order, and the block-order absorb merge
/// re-interns them exactly where a sequential extension would.
#[test]
fn horizon_sweep_extend_is_identical_at_every_worker_count() {
    let base_scenario = Scenario::new(3, 1, FailureMode::Omission, 1).unwrap();
    let base = SystemBuilder::new(&base_scenario)
        .threads(1)
        .build()
        .unwrap();

    let mut baseline = None;
    for workers in WORKER_COUNTS {
        let mut system = base.clone();
        for horizon in [2u16, 3] {
            let target = Scenario::new(3, 1, FailureMode::Omission, horizon).unwrap();
            let (extended, report) = SystemBuilder::new(&target)
                .threads(workers)
                .extend(&system)
                .unwrap();
            assert!(report.reused_runs > 0, "@{workers} h={horizon}");
            system = extended;
        }
        match &baseline {
            None => baseline = Some(system),
            Some(first) => assert_identical(first, &system, &format!("extend @{workers}")),
        }
    }

    // And the sweep agrees with a cold build of the final horizon on
    // every observable (content; `ViewId` numbering may legitimately
    // differ from a cold table, which is what the incremental oracle in
    // `incremental_equivalence.rs` checks exhaustively).
    let cold = SystemBuilder::new(&Scenario::new(3, 1, FailureMode::Omission, 3).unwrap())
        .threads(1)
        .build()
        .unwrap();
    let swept = baseline.unwrap();
    assert_eq!(swept.num_runs(), cold.num_runs());
    assert_eq!(swept.table().len(), cold.table().len());
}

/// Injected panics and a delay in the extension blocks leave the
/// extended system id-exact to an undisturbed extension at every worker
/// count: an extension block is a pure function of its index, so the
/// supervisor's retry rebuilds it exactly.
#[test]
fn chaos_disturbed_extensions_are_identical_at_every_worker_count() {
    let base = SystemBuilder::new(&Scenario::new(3, 1, FailureMode::Omission, 2).unwrap())
        .threads(1)
        .build()
        .unwrap();
    let target = Scenario::new(3, 1, FailureMode::Omission, 3).unwrap();
    let (undisturbed, _) = SystemBuilder::new(&target)
        .threads(1)
        .shards(4)
        .extend(&base)
        .unwrap();
    for workers in WORKER_COUNTS {
        let plan = Arc::new(
            ChaosPlan::new()
                .with_fault(0, FaultKind::Panic)
                .with_fault(2, FaultKind::Panic)
                .with_fault(1, FaultKind::Delay(Duration::from_millis(5))),
        );
        let (system, _) = SystemBuilder::new(&target)
            .threads(workers)
            .shards(4)
            .chaos(Arc::clone(&plan) as Arc<dyn FaultInjector>)
            .extend(&base)
            .unwrap();
        assert_eq!(plan.fired(), 3, "@{workers}: all planned faults fire");
        assert_identical(&undisturbed, &system, &format!("chaos extend @{workers}"));
    }
}

/// Injected builder panics leave the system id-exact and the absorbed
/// `WorkerFault` set identical at every worker count: supervision
/// records faults by item index in `settle`'s index-order pass, so the
/// fault log is as schedule-independent as the results.
#[test]
fn chaos_disturbed_builds_agree_on_faults_and_system_at_every_worker_count() {
    let scenario = Scenario::new(3, 1, FailureMode::Omission, 2).unwrap();
    let make_plan = || {
        ChaosPlan::new()
            .with_fault(0, FaultKind::Panic)
            .with_fault(3, FaultKind::Panic)
            .with_fault(7, FaultKind::Panic)
            .with_fault(5, FaultKind::Delay(Duration::from_millis(5)))
    };

    let mut baseline: Option<(GeneratedSystem, Vec<_>)> = None;
    for workers in WORKER_COUNTS {
        let plan = Arc::new(make_plan());
        let outcome = SystemBuilder::new(&scenario)
            .threads(workers)
            .shards(8)
            .chaos(Arc::clone(&plan) as Arc<dyn FaultInjector>)
            .build_governed()
            .unwrap();
        assert_eq!(plan.fired(), 4, "@{workers}: all planned faults fire");
        let faults = outcome.report().worker_faults.clone();
        let system = outcome.into_system();
        match &baseline {
            None => baseline = Some((system, faults)),
            Some((first, first_faults)) => {
                assert_identical(first, &system, &format!("chaos build @{workers}"));
                assert_eq!(first_faults, &faults, "@{workers}: absorbed fault log");
            }
        }
    }
}

/// A run-bound budget keeps the same pattern prefix at every worker count
/// and the default block split each count brings: ⌊max_runs / 2^n⌋ whole
/// patterns, planned from the scenario and the bound before any work. The
/// partial systems are id-exact to the first runs of a complete build.
#[test]
fn budget_partial_prefix_is_identical_at_every_worker_count() {
    let scenario = Scenario::new(3, 1, FailureMode::Omission, 2).unwrap();
    let space = ScenarioSpace::new(scenario);
    let complete = SystemBuilder::new(&scenario).threads(1).build().unwrap();
    // 13 whole patterns and part of a fourteenth.
    let limit = 13 * space.num_configs() as u64 + 3;
    let prefix_runs = 13 * space.num_configs() as usize;
    let complete_prefix = GeneratedSystem::from_runs(
        &scenario,
        complete
            .run_ids()
            .take(prefix_runs)
            .map(|r| {
                let record = complete.run(r);
                (record.config.clone(), record.pattern.clone())
            })
            .collect(),
    );

    for workers in WORKER_COUNTS {
        let outcome = SystemBuilder::new(&scenario)
            .threads(workers)
            .budget(RunBudget::unlimited().with_max_runs(limit))
            .build_governed()
            .unwrap();
        match outcome {
            BuildOutcome::Partial {
                system, partial, ..
            } => {
                assert_eq!(partial.patterns, 13, "@{workers}");
                assert_eq!(partial.total_patterns, space.num_patterns(), "@{workers}");
                assert_identical(&complete_prefix, &system, &format!("partial @{workers}"));
            }
            BuildOutcome::Complete { .. } => panic!("@{workers}: budget should bite"),
        }
    }
}
