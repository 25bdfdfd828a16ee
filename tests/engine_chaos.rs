//! Acceptance tests for the engine's fault tolerance (DESIGN.md §4c):
//! an injected panic in any single worker must leave results
//! bit-identical, and an exceeded `RunBudget` must terminate promptly
//! with a typed `Partial` outcome — across the builder and the knowledge
//! engine together.

use eba_kripke::{Evaluator, Formula, NonRigidSet};
use eba_model::{FailureMode, RunBudget, Scenario, ScenarioSpace};
use eba_sim::chaos::{ChaosPlan, FaultInjector, FaultKind, FaultSite};
use eba_sim::{BuildOutcome, Partial, SystemBuilder};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn scenario() -> Scenario {
    Scenario::new(3, 1, FailureMode::Omission, 2).unwrap()
}

/// End-to-end: a panicked builder shard is absorbed by supervision, and
/// every downstream artifact — the generated system and a knowledge
/// verdict — is identical to a fault-free execution.
#[test]
fn single_worker_panics_leave_all_results_bit_identical() {
    let scenario = scenario();
    let baseline = SystemBuilder::new(&scenario).threads(1).build().unwrap();
    let formula = Formula::exists(eba_model::Value::Zero).common(NonRigidSet::Nonfaulty);
    let baseline_verdict = {
        let mut eval = Evaluator::new(&baseline);
        Arc::unwrap_or_clone(eval.eval(&formula))
    };

    for victim in 0..4 {
        let plan = Arc::new(ChaosPlan::new().with_fault(
            FaultSite::BuilderShard,
            victim,
            FaultKind::Panic,
        ));
        let outcome = SystemBuilder::new(&scenario)
            .threads(4)
            .shards(4)
            .chaos(Arc::clone(&plan) as Arc<dyn FaultInjector>)
            .build_governed()
            .unwrap();
        assert_eq!(plan.fired(), 1, "shard {victim}: fault must fire");
        let report = outcome.report();
        assert_eq!(report.worker_faults.len(), 1, "shard {victim}");
        assert_eq!(report.worker_faults[0].index, victim);
        let system = outcome.into_system();
        assert_eq!(system.num_runs(), baseline.num_runs(), "shard {victim}");
        assert_eq!(
            system.table().len(),
            baseline.table().len(),
            "shard {victim}: view tables must be bit-identical"
        );
        let mut eval = Evaluator::new(&system);
        let verdict = Arc::unwrap_or_clone(eval.eval(&formula));
        assert_eq!(verdict, baseline_verdict, "shard {victim}");
    }
}

/// An exceeded run budget yields `Partial` with the pattern prefix planned
/// from the bound alone — ⌊max_runs / 2^n⌋ whole patterns — and the
/// prefix is the one a complete build would have produced.
#[test]
fn exceeded_run_budget_is_a_typed_deterministic_partial() {
    let scenario = scenario();
    let space = ScenarioSpace::new(scenario);
    let limit = 100;
    let patterns = u128::from(limit) / space.num_configs();
    let outcome = SystemBuilder::new(&scenario)
        .budget(RunBudget::unlimited().with_max_runs(limit))
        .build_governed()
        .unwrap();
    match outcome {
        BuildOutcome::Partial {
            system, partial, ..
        } => {
            assert_eq!(
                partial,
                Partial {
                    patterns,
                    total_patterns: space.num_patterns(),
                    budget_hit: eba_model::BudgetHit::MaxRuns { limit },
                }
            );
            assert_eq!(system.num_runs() as u128, patterns * space.num_configs());
            let full = SystemBuilder::new(&scenario).build().unwrap();
            for (run, full_run) in system.run_ids().zip(full.run_ids()) {
                assert_eq!(system.run(run).pattern, full.run(full_run).pattern);
                assert_eq!(system.run(run).config, full.run(full_run).config);
            }
        }
        BuildOutcome::Complete { .. } => panic!("budget should have been exceeded"),
    }
}

/// A deadline budget terminates well within 2× the deadline even on a
/// scenario whose complete build is much larger, and reports the hit.
#[test]
fn deadline_budget_terminates_within_twice_the_deadline() {
    // A deliberately heavy scenario so an unbudgeted build would dwarf
    // the deadline.
    let scenario = Scenario::new(4, 2, FailureMode::Omission, 3).unwrap();
    let deadline = Duration::from_millis(500);
    let start = Instant::now();
    let outcome = SystemBuilder::new(&scenario)
        .budget(RunBudget::unlimited().with_deadline(deadline))
        .build_governed()
        .unwrap();
    let elapsed = start.elapsed();
    match outcome {
        BuildOutcome::Partial { partial, .. } => {
            assert_eq!(
                partial.budget_hit,
                eba_model::BudgetHit::Deadline { limit: deadline }
            );
        }
        BuildOutcome::Complete { .. } => {
            // The machine finished the whole build inside the deadline;
            // nothing to assert about truncation, and the time bound
            // below still holds trivially.
        }
    }
    // The per-pattern deadline checks bound the overshoot to one
    // pattern's work plus the merge of the already-built prefix, both
    // well under one deadline's worth.
    assert!(
        elapsed < deadline * 2,
        "build ran {elapsed:?} against a {deadline:?} deadline"
    );
}
