//! Differential oracle for the exchange abstraction (DESIGN.md §4g): on
//! spaces where the bounded digest exchange is **lossless** — its state
//! partition of the system's points coincides with the full-information
//! view partition — a digest-built system must be observationally
//! identical to the full-information oracle: same runs in the same order,
//! same indistinguishability structure, same decisions, same optimality
//! verdicts, same fixed-point iteration counts. Losslessness itself is
//! asserted first in every test (a bijection between the two view spaces
//! over all points), so a digest that silently coarsened the partition
//! fails loudly here rather than corrupting the downstream comparison.
//!
//! Chaos-disturbed, budget-partial, and incremental (session-extension)
//! digest builds are covered against the same oracles, mirroring the
//! incremental_equivalence suite.

use eba::model::ScenarioSpace;
use eba::prelude::*;
use eba::sim::chaos::{ChaosPlan, FaultInjector, FaultKind};
use eba::sim::ViewId;
use eba_core::protocols::{f_lambda_2, zero_chain_pair};
use eba_kripke::oracle::Oracle;
use eba_kripke::parse::parse_formula;
use std::collections::HashMap;
use std::sync::Arc;

fn digest(scenario: &Scenario, bits: u8) -> Scenario {
    scenario
        .with_exchange(ExchangeKind::Digest { bits })
        .unwrap()
}

/// Asserts the digest partition of points equals the full-information
/// partition: the slot-wise correspondence `full view ↔ digest view` is a
/// bijection over every `(run, time, proc)` slot, and the decision-
/// relevant cached attributes agree on every corresponding pair. This is
/// the "lossless" premise of the equivalence; everything downstream
/// (knowledge, decisions, optimality) is a function of the partition and
/// these attributes.
fn assert_digest_lossless(full: &GeneratedSystem, digest: &GeneratedSystem) {
    assert_eq!(full.num_runs(), digest.num_runs());
    assert_eq!(full.horizon(), digest.horizon());
    let n = full.n();
    let mut fwd: HashMap<ViewId, ViewId> = HashMap::new();
    let mut bwd: HashMap<ViewId, ViewId> = HashMap::new();
    for r in full.run_ids() {
        assert_eq!(full.run(r).config, digest.run(r).config);
        assert_eq!(full.run(r).pattern, digest.run(r).pattern);
        assert_eq!(full.nonfaulty(r), digest.nonfaulty(r));
        for time in 0..=full.horizon().index() {
            for p in ProcessorId::all(n) {
                let t = Time::new(time as u16);
                let fv = full.view(r, p, t);
                let dv = digest.view(r, p, t);
                if let Some(prev) = fwd.insert(fv, dv) {
                    assert_eq!(
                        prev, dv,
                        "digest splits a full-info class at run {r:?}, {t}, {p}"
                    );
                }
                if let Some(prev) = bwd.insert(dv, fv) {
                    assert_eq!(
                        prev, fv,
                        "digest merges full-info classes at run {r:?}, {t}, {p} \
                         (the digest is lossy on this space)"
                    );
                }
                let (ft, dt) = (full.table(), digest.table());
                assert_eq!(ft.proc(fv), dt.proc(dv));
                assert_eq!(ft.time(fv), dt.time(dv));
                assert_eq!(ft.own_value(fv), dt.own_value(dv));
                assert_eq!(ft.exists_zero(fv), dt.exists_zero(dv));
                assert_eq!(ft.exists_one(fv), dt.exists_one(dv));
                assert_eq!(ft.known_procs(fv), dt.known_procs(dv));
                assert_eq!(ft.known_zeros(fv), dt.known_zeros(dv));
                assert_eq!(ft.heard_from(fv), dt.heard_from(dv));
            }
        }
    }
}

/// Computes a protocol's decisions, its optimality verdict, and the
/// `C_N(∃0)` greatest-fixed-point result over `system` — the artifacts
/// that must be bit-identical between the exchanges.
fn downstream_artifacts(
    system: &GeneratedSystem,
    build: fn(&mut Constructor<'_>) -> DecisionPair,
) -> (FipDecisions, bool, (u64, usize)) {
    let mut ctor = Constructor::new(system);
    let pair = build(&mut ctor);
    let decisions = FipDecisions::compute(system, &pair, "pair");
    let optimal = check_optimality(&mut ctor, &pair).is_optimal();
    let phi = parse_formula("E0").unwrap();
    let (sat, iterations) =
        Oracle::new(ctor.evaluator()).common_by_gfp(NonRigidSet::Nonfaulty, &phi);
    (decisions, optimal, (sat.count_ones() as u64, iterations))
}

fn assert_artifacts_match(
    full: &GeneratedSystem,
    digest: &GeneratedSystem,
    build: fn(&mut Constructor<'_>) -> DecisionPair,
) {
    let (full_dec, full_opt, full_gfp) = downstream_artifacts(full, build);
    let (dig_dec, dig_opt, dig_gfp) = downstream_artifacts(digest, build);
    for r in full.run_ids() {
        for p in ProcessorId::all(full.n()) {
            assert_eq!(
                full_dec.decision(r, p),
                dig_dec.decision(r, p),
                "decision diverges at run {r:?}, {p}"
            );
        }
    }
    assert_eq!(full_opt, dig_opt, "optimality verdict diverges");
    assert_eq!(
        full_gfp, dig_gfp,
        "C_N(E0) gfp result or iteration count diverges"
    );
}

/// Render-based content equality between two systems of the **same**
/// exchange (e.g. warm vs cold digest builds), whose id numberings may be
/// permutations of each other.
fn assert_same_exchange_equivalent(a: &GeneratedSystem, b: &GeneratedSystem) {
    assert_eq!(a.num_runs(), b.num_runs());
    assert_eq!(a.table().len(), b.table().len());
    let n = a.n();
    for r in b.run_ids() {
        assert_eq!(a.run(r).config, b.run(r).config);
        assert_eq!(a.run(r).pattern, b.run(r).pattern);
        for time in 0..=b.horizon().index() {
            for p in ProcessorId::all(n) {
                let t = Time::new(time as u16);
                assert_eq!(
                    a.table().render(a.view(r, p, t)),
                    b.table().render(b.view(r, p, t)),
                    "view content diverges at run {r:?}, time {time}, {p}"
                );
            }
        }
    }
}

#[test]
fn crash_digest_matches_full_info_oracle() {
    let full_scenario = Scenario::new(3, 1, FailureMode::Crash, 3).unwrap();
    let full = GeneratedSystem::exhaustive(&full_scenario);
    for bits in [0, 32] {
        let dig = GeneratedSystem::exhaustive(&digest(&full_scenario, bits));
        assert_digest_lossless(&full, &dig);
        assert_artifacts_match(&full, &dig, f_lambda_2);
    }
}

#[test]
fn omission_digest_matches_full_info_oracle() {
    let full_scenario = Scenario::new(3, 1, FailureMode::Omission, 2).unwrap();
    let full = GeneratedSystem::exhaustive(&full_scenario);
    for bits in [0, 32] {
        let dig = GeneratedSystem::exhaustive(&digest(&full_scenario, bits));
        assert_digest_lossless(&full, &dig);
        assert_artifacts_match(&full, &dig, zero_chain_pair);
    }
}

#[test]
fn general_omission_digest_matches_full_info_oracle() {
    let full_scenario = Scenario::new(3, 1, FailureMode::GeneralOmission, 2).unwrap();
    let full = GeneratedSystem::exhaustive(&full_scenario);
    let dig = GeneratedSystem::exhaustive(&digest(&full_scenario, 0));
    assert_digest_lossless(&full, &dig);
    assert_artifacts_match(&full, &dig, zero_chain_pair);
}

#[test]
fn chaos_disturbed_digest_build_is_undisturbed() {
    // A shard panic during digest generation is absorbed by supervision
    // and must leave no trace: the chaos build equals the plain build,
    // and both equal the full-info oracle.
    let scenario = digest(&Scenario::new(3, 2, FailureMode::Crash, 2).unwrap(), 0);
    let plan = Arc::new(ChaosPlan::new().with_fault(1, FaultKind::Panic));
    let outcome = SystemBuilder::new(&scenario)
        .threads(4)
        .shards(4)
        .chaos(plan as Arc<dyn FaultInjector>)
        .build_governed()
        .unwrap();
    assert!(outcome.is_complete());
    let disturbed = outcome.into_system();
    assert_same_exchange_equivalent(&disturbed, &GeneratedSystem::exhaustive(&scenario));
    let full = GeneratedSystem::exhaustive(&Scenario::new(3, 2, FailureMode::Crash, 2).unwrap());
    assert_digest_lossless(&full, &disturbed);
}

#[test]
fn budget_partial_digest_prefix_matches_full_info_prefix() {
    // The same budget of half the patterns applied under both exchanges
    // must keep the same deterministic run prefix, and the digest prefix
    // must be lossless against the full-info prefix.
    let full_scenario = Scenario::new(3, 2, FailureMode::Crash, 2).unwrap();
    let space = ScenarioSpace::new(full_scenario);
    let half = space.num_patterns() / 2 * space.num_configs();
    let budgeted = |scenario: &Scenario| {
        let outcome = SystemBuilder::new(scenario)
            .threads(2)
            .budget(RunBudget::unlimited().with_max_runs(half as u64))
            .build_governed()
            .unwrap();
        assert!(outcome.budget_hit().is_some(), "budget must bind");
        outcome.into_system()
    };
    let full = budgeted(&full_scenario);
    let dig = budgeted(&digest(&full_scenario, 0));
    assert!(full.num_runs() > 0);
    assert_digest_lossless(&full, &dig);
}

#[test]
fn digest_session_extension_matches_cold_digest_builds() {
    // digest:0 supports the incremental engine; every swept horizon must
    // equal a cold digest build AND stay lossless against the cold
    // full-info oracle of that horizon.
    let scenario = digest(&Scenario::new(3, 1, FailureMode::Crash, 2).unwrap(), 0);
    let mut session = EngineSession::exhaustive(&scenario).unwrap();
    for h in [3u16, 4] {
        session.extend_to(h).unwrap();
        let cold = GeneratedSystem::exhaustive(&scenario.with_horizon(h).unwrap());
        assert_same_exchange_equivalent(session.system(), &cold);
        let full =
            GeneratedSystem::exhaustive(&Scenario::new(3, 1, FailureMode::Crash, h).unwrap());
        assert_digest_lossless(&full, session.system());
    }
}

#[test]
fn fingerprinted_digest_extension_fails_typed() {
    // bits > 0 digests are rebuild-only: the builder-level extension path
    // reports a typed InvalidScenario, not a panic.
    let scenario = digest(&Scenario::new(3, 1, FailureMode::Crash, 2).unwrap(), 32);
    let base = GeneratedSystem::exhaustive(&scenario);
    let target = scenario.with_horizon(3).unwrap();
    let err = SystemBuilder::new(&target).extend(&base).unwrap_err();
    assert!(err.to_string().contains("session extension"), "{err}");
}

#[test]
fn knowledge_cache_never_mixes_exchanges() {
    // A lossless digest system has exactly the full-info system's point
    // count, and content keys such as `Nonfaulty` do not say which
    // exchange built their set, so one cache handle over both systems
    // would serve the full-info reachability to the digest evaluator.
    // A cache serves one system: the digest system is refused.
    let full_scenario = Scenario::new(3, 1, FailureMode::Crash, 2).unwrap();
    let full = GeneratedSystem::exhaustive(&full_scenario);
    let dig = GeneratedSystem::exhaustive(&digest(&full_scenario, 0));
    assert_eq!(full.num_points(), dig.num_points());

    let cache = KnowledgeCache::new();
    let mut full_eval = Evaluator::with_cache(&full, cache.clone());
    full_eval.reachability(NonRigidSet::Nonfaulty);
    assert_eq!(cache.stats().reach_misses, 1);

    let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = Evaluator::with_cache(&dig, cache.clone());
    }))
    .expect_err("a cache bound to the full-info system must refuse the digest system");
    let message = refused
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| refused.downcast_ref::<&str>().copied())
        .unwrap_or_default();
    assert!(
        message.contains("knowledge cache already serves another system"),
        "unexpected panic: {message:?}"
    );

    // The refusal leaves the binding intact: the same system still
    // shares, so a second evaluator over it hits, and a fresh cache
    // serves the digest system from scratch.
    let mut second = Evaluator::with_cache(&full, cache.clone());
    second.reachability(NonRigidSet::Nonfaulty);
    assert_eq!(cache.stats().reach_misses, 1);
    assert!(cache.stats().reach_hits >= 1);
    let dig_cache = KnowledgeCache::new();
    Evaluator::with_cache(&dig, dig_cache.clone()).reachability(NonRigidSet::Nonfaulty);
    assert_eq!(dig_cache.stats().reach_misses, 1);
}
