//! Differential oracle for the incremental engine (DESIGN.md §4f): a
//! session that grows its horizon append-only must be **observationally
//! identical** to cold-building each horizon from scratch — same runs in
//! the same order, same view structure, same decisions, same optimality
//! verdicts, same fixed-point iteration counts — with the cold path
//! serving as the independent oracle. Sessions opened on chaos-disturbed
//! bases are covered too. (Sampled and budget-partial sessions do not
//! extend; `eba_core`'s session tests pin their typed refusal.)

use eba::prelude::*;
use eba::sim::chaos::{ChaosPlan, FaultInjector, FaultKind};
use eba_core::protocols::{f_lambda_2, zero_chain_pair};
use eba_kripke::oracle::Oracle;
use eba_kripke::parse::parse_formula;
use std::sync::Arc;

/// Run-by-run, point-by-point content equality. The incremental path
/// clones the base view table, so its `ViewId` numbering is a permutation
/// of a cold build's — views are compared by structural rendering, which
/// is table-independent.
fn assert_systems_equivalent(warm: &GeneratedSystem, cold: &GeneratedSystem) {
    assert_eq!(warm.num_runs(), cold.num_runs());
    assert_eq!(warm.table().len(), cold.table().len());
    assert_eq!(warm.horizon(), cold.horizon());
    let n = warm.n();
    for r in cold.run_ids() {
        assert_eq!(warm.run(r).config, cold.run(r).config);
        assert_eq!(warm.run(r).pattern, cold.run(r).pattern);
        assert_eq!(warm.nonfaulty(r), cold.nonfaulty(r));
        for time in 0..=cold.horizon().index() {
            for p in ProcessorId::all(n) {
                let t = Time::new(time as u16);
                assert_eq!(
                    warm.table().render(warm.view(r, p, t)),
                    cold.table().render(cold.view(r, p, t)),
                    "view content diverges at run {r:?}, time {time}, {p}"
                );
            }
        }
    }
}

/// Computes a protocol's decisions, its optimality verdict, and the
/// `C_N(∃0)` greatest-fixed-point result over `system` — the downstream
/// artifacts the equivalence must extend to.
fn downstream_artifacts(
    system: &GeneratedSystem,
    cache: Option<KnowledgeCache>,
    build: fn(&mut Constructor<'_>) -> DecisionPair,
) -> (FipDecisions, bool, (u64, usize)) {
    let mut ctor = match cache {
        Some(cache) => Constructor::with_cache(system, cache),
        None => Constructor::new(system),
    };
    let pair = build(&mut ctor);
    let decisions = FipDecisions::compute(system, &pair, "pair");
    let optimal = check_optimality(&mut ctor, &pair).is_optimal();
    let phi = parse_formula("E0").unwrap();
    let (sat, iterations) =
        Oracle::new(ctor.evaluator()).common_by_gfp(NonRigidSet::Nonfaulty, &phi);
    (decisions, optimal, (sat.count_ones() as u64, iterations))
}

fn assert_artifacts_match(
    warm_system: &GeneratedSystem,
    warm_cache: &KnowledgeCache,
    cold_system: &GeneratedSystem,
    build: fn(&mut Constructor<'_>) -> DecisionPair,
) {
    let (warm_dec, warm_opt, warm_gfp) =
        downstream_artifacts(warm_system, Some(warm_cache.clone()), build);
    let (cold_dec, cold_opt, cold_gfp) = downstream_artifacts(cold_system, None, build);
    for r in cold_system.run_ids() {
        for p in ProcessorId::all(cold_system.n()) {
            assert_eq!(
                warm_dec.decision(r, p),
                cold_dec.decision(r, p),
                "decision diverges at run {r:?}, {p}"
            );
        }
    }
    assert_eq!(warm_opt, cold_opt, "optimality verdict diverges");
    assert_eq!(
        warm_gfp, cold_gfp,
        "C_N(E0) gfp result or iteration count diverges"
    );
}

#[test]
fn crash_sweep_matches_cold_builds_at_every_horizon() {
    let scenario = Scenario::new(3, 1, FailureMode::Crash, 2).unwrap();
    let mut session = EngineSession::exhaustive(&scenario).unwrap();
    for h in [3u16, 4] {
        let report = session.extend_to(h).unwrap();
        assert_eq!(
            report.total_runs(),
            session.system().num_runs(),
            "report accounts for every run"
        );
        assert!(report.reused_runs > 0);
        assert!(report.fresh_runs > 0, "new crash rounds add fresh patterns");

        let cold = GeneratedSystem::exhaustive(&scenario.with_horizon(h).unwrap());
        assert_systems_equivalent(session.system(), &cold);
        assert_artifacts_match(session.system(), session.cache(), &cold, f_lambda_2);
    }
    assert_eq!(session.epoch(), 2);
}

#[test]
fn omission_sweep_matches_cold_builds() {
    let scenario = Scenario::new(3, 1, FailureMode::Omission, 1).unwrap();
    let mut session = EngineSession::exhaustive(&scenario).unwrap();
    for h in [2u16, 3] {
        session.extend_to(h).unwrap();
        let cold = GeneratedSystem::exhaustive(&scenario.with_horizon(h).unwrap());
        assert_systems_equivalent(session.system(), &cold);
    }
    assert_artifacts_match(
        session.system(),
        session.cache(),
        &GeneratedSystem::exhaustive(&scenario.with_horizon(3).unwrap()),
        zero_chain_pair,
    );
}

#[test]
fn one_jump_equals_many_small_steps() {
    let scenario = Scenario::new(3, 1, FailureMode::Crash, 2).unwrap();
    let mut stepped = EngineSession::exhaustive(&scenario).unwrap();
    stepped.extend_to(3).unwrap();
    stepped.extend_to(4).unwrap();
    let mut jumped = EngineSession::exhaustive(&scenario).unwrap();
    jumped.extend_to(4).unwrap();
    assert_systems_equivalent(stepped.system(), jumped.system());
    assert_eq!(stepped.extensions().len(), 2);
    assert_eq!(jumped.extensions().len(), 1);
}

#[test]
fn chaos_disturbed_base_extends_identically() {
    // A shard panic during base generation is absorbed by supervision and
    // must leave no trace in the extended system.
    let scenario = Scenario::new(3, 2, FailureMode::Crash, 2).unwrap();
    let plan = Arc::new(ChaosPlan::new().with_fault(1, FaultKind::Panic));
    let outcome = SystemBuilder::new(&scenario)
        .threads(4)
        .shards(4)
        .chaos(plan as Arc<dyn FaultInjector>)
        .build_governed()
        .unwrap();
    assert!(outcome.is_complete());
    let mut session = EngineSession::from_system(outcome.into_system());
    session.extend_to(3).unwrap();
    let cold = GeneratedSystem::exhaustive(&scenario.with_horizon(3).unwrap());
    assert_systems_equivalent(session.system(), &cold);
}

#[test]
fn stale_knowledge_artifacts_never_survive_an_extension() {
    let scenario = Scenario::new(3, 1, FailureMode::Crash, 2).unwrap();
    let mut session = EngineSession::exhaustive(&scenario).unwrap();

    // Populate the cache with point-indexed artifacts at the base
    // horizon — including the content-independent `Nonfaulty` key, the
    // dangerous one: it would hit verbatim at the next horizon if epochs
    // did not fence it. `C(E0)` forces the reachability structure and the
    // scope columns of `Nonfaulty` through the shared cache.
    let phi = parse_formula("E0").unwrap();
    let common = parse_formula("C(E0)").unwrap();
    let mut eval = session.evaluator();
    let base_sat = eval.eval(&common);
    assert_eq!(base_sat.len(), session.system().num_points());
    drop(eval);
    assert!(!session.cache().is_empty(), "base evaluation must cache");

    session.extend_to(3).unwrap();
    let stats = session.cache().stats();
    assert_eq!(stats.epoch, 1);
    assert!(stats.invalidated > 0, "epoch advance must purge entries");

    // Post-extension evaluation through the warm cache is sized to the
    // new system and equal to a cold evaluator's result, and to the gfp
    // that defines it.
    let mut warm_eval = session.evaluator();
    let warm_sat = warm_eval.eval(&common);
    assert_eq!(warm_sat.len(), session.system().num_points());
    let (warm_gfp, warm_iters) =
        Oracle::new(&warm_eval).common_by_gfp(NonRigidSet::Nonfaulty, &phi);
    assert_eq!(*warm_sat, warm_gfp);

    let cold_system = GeneratedSystem::exhaustive(&scenario.with_horizon(3).unwrap());
    let cold_eval = Evaluator::new(&cold_system);
    let (cold_sat, cold_iters) =
        Oracle::new(&cold_eval).common_by_gfp(NonRigidSet::Nonfaulty, &phi);
    assert_eq!(warm_sat.count_ones(), cold_sat.count_ones());
    assert_eq!(warm_iters, cold_iters);
}

#[test]
fn find_run_is_loadbearing_and_consistent_after_extension() {
    let scenario = Scenario::new(3, 1, FailureMode::Crash, 2).unwrap();
    let base = GeneratedSystem::exhaustive(&scenario);
    let mut session = EngineSession::from_system(base.clone());
    let report = session.extend_to(3).unwrap();
    let extended = session.system();

    // The hash-map index answers exactly like a linear scan, for every
    // extended run.
    for r in extended.run_ids() {
        let record = extended.run(r);
        assert_eq!(extended.find_run(&record.config, &record.pattern), Some(r));
    }

    // Every base run's padding is found in the extended system — this is
    // the reuse channel `SystemBuilder::extend` resolves through
    // `find_run`, so the reuse count is bounded by these lookups.
    let delta = scenario.extend_horizon(3).unwrap();
    let mut padded_found = 0usize;
    for r in base.run_ids() {
        let record = base.run(r);
        let padded = delta.pad_pattern(&record.pattern);
        if extended.find_run(&record.config, &padded).is_some() {
            padded_found += 1;
        }
    }
    assert_eq!(padded_found, base.num_runs());
    assert!(report.reused_runs >= padded_found);

    // Absent runs answer None.
    assert!(extended
        .find_run(
            &InitialConfig::uniform(4, Value::One),
            &FailurePattern::failure_free(4)
        )
        .is_none());
}
