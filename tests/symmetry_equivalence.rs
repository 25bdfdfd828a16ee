//! Differential oracle for the symmetry quotient (DESIGN.md §4i): the
//! engine run on the orbit-reduced system — one representative failure
//! pattern per `Sym(n)` orbit, knowledge twisted through orbit-canonical
//! view classes — must agree **bit-identically** with the unreduced
//! engine on every observable: protocol decisions (transported along the
//! witnessing relabeling), Theorem 5.3 optimality verdicts, greatest-
//! fixed-point iteration counts, and point-level satisfaction of every
//! processor-symmetric formula. Covered across all three failure modes,
//! under chaos injection, on budget-partial prefixes (against the orbit
//! closure of the kept prefix), and across incremental `extend_to`.

use eba::prelude::*;
use eba::sim::chaos::{ChaosPlan, FaultInjector, FaultKind};
use eba_core::OptimalityReport;
use eba_kripke::oracle::Oracle;
use eba_kripke::parse::parse_formula;
use eba_kripke::StateSetsId;
use eba_model::symmetry::canonicalize;
use eba_model::{enumerate, ScenarioSpace};
use eba_protocols::P0Opt;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Processor-symmetric formulas exercising every knowledge-kernel shape
/// the quotient twists: `K`-free atoms, `E`/`SK`/`D`/`C`/`CC`, and
/// temporal wrappers. `D_All(E(E0))` is one whose `D` classes need the
/// orbit merge of joint rows: on the general-omission and two-fault
/// scenarios, exact rows of representatives alone answer it wrongly.
const SYMMETRIC_FORMULAS: &[&str] = &[
    "E0",
    "C(E0)",
    "CC(E0)",
    "E(E0)",
    "SK(E1)",
    "D(E0)",
    "D(E0) & D(E1)",
    "D(E0 -> D(E1))",
    "D_All(E(E0))",
    "G(E(E0))",
    "F(C(E0))",
    "C(E0) -> CC(E0)",
];

fn build_pair(scenario: &Scenario) -> (GeneratedSystem, GeneratedSystem) {
    let reduced = SystemBuilder::new(scenario).symmetry(true).build().unwrap();
    let full = SystemBuilder::new(scenario).build().unwrap();
    (reduced, full)
}

/// `(run, time) -> point index`, oracle-side address book for
/// transporting full-system points onto their representatives.
fn point_index(system: &GeneratedSystem) -> HashMap<(RunId, Time), usize> {
    let eval = Evaluator::new(system);
    (0..system.num_points())
        .map(|idx| (eval.point_of(idx), idx))
        .collect()
}

/// Every observable of the quotiented engine equals the unreduced
/// oracle's, with full-system runs resolved onto representatives by
/// [`GeneratedSystem::resolve_run`]'s witnessing permutation.
fn assert_quotient_equivalent(reduced: &GeneratedSystem, full: &GeneratedSystem) {
    let n = full.n();
    let info = reduced
        .symmetry()
        .expect("quotient build carries accounting");
    let space = ScenarioSpace::new(*full.scenario());

    // Orbit accounting: orbit count × multiplicities = raw pattern
    // count. On budget-partial prefixes `covered < total`; the oracle
    // system is then the closure of exactly the covered patterns.
    let covered: u128 = info.orbit_sizes().iter().map(|&s| u128::from(s)).sum();
    assert_eq!(covered, info.raw_patterns_covered());
    assert!(info.raw_patterns_covered() <= info.raw_pattern_total());
    assert_eq!(full.num_runs() as u128, covered * space.num_configs());
    assert_eq!(
        reduced.num_runs() as u128,
        info.num_orbits() as u128 * space.num_configs()
    );

    // Point-level satisfaction of symmetric formulas, by the compiled
    // plan and by the recursive oracle: a full-system point (r, t) must
    // agree with its representative point (resolve(r), t).
    let reduced_points = point_index(reduced);
    let transported: Vec<(usize, usize)> = {
        let full_eval = Evaluator::new(full);
        (0..full.num_points())
            .map(|idx| {
                let (r, t) = full_eval.point_of(idx);
                let record = full.run(r);
                let (rep, _w) = reduced
                    .resolve_run(&record.config, &record.pattern)
                    .expect("every raw run resolves through the quotient");
                (idx, reduced_points[&(rep, t)])
            })
            .collect()
    };
    for compiled in [true, false] {
        let mut full_eval = Evaluator::new(full);
        let mut reduced_eval = Evaluator::new(reduced);
        for text in SYMMETRIC_FORMULAS {
            let f = parse_formula(text).unwrap();
            let (full_sat, reduced_sat) = if compiled {
                (full_eval.eval(&f), reduced_eval.eval(&f))
            } else {
                (
                    Oracle::new(&full_eval).eval(&f),
                    Oracle::new(&reduced_eval).eval(&f),
                )
            };
            for &(full_idx, reduced_idx) in &transported {
                assert_eq!(
                    full_sat.get(full_idx),
                    reduced_sat.get(reduced_idx),
                    "`{text}` diverges at full point {full_idx} (plan={compiled})"
                );
            }
        }
    }

    // Greatest-fixed-point iteration counts: the gfp iterates are
    // symmetric sets, so the quotient must converge in exactly as many
    // rounds as the unreduced system.
    for text in ["E0", "E(E0)", "E0 | E1"] {
        let phi = parse_formula(text).unwrap();
        let full_eval = Evaluator::new(full);
        let reduced_eval = Evaluator::new(reduced);
        let (_, full_iters) = Oracle::new(&full_eval).common_by_gfp(NonRigidSet::Nonfaulty, &phi);
        let (_, reduced_iters) =
            Oracle::new(&reduced_eval).common_by_gfp(NonRigidSet::Nonfaulty, &phi);
        assert_eq!(
            full_iters, reduced_iters,
            "gfp iteration count diverges for `{text}`"
        );
    }

    // Protocol decisions: decision((c, q), p) in the full system equals
    // decision((σc, σq), σ(p)) at the representative, σ the witness.
    let mut full_ctor = Constructor::new(full);
    let full_fip = full_ctor.optimize(&DecisionPair::empty(n));
    let mut reduced_ctor = Constructor::new(reduced);
    let reduced_fip = reduced_ctor.optimize(&DecisionPair::empty(n));
    let full_dec = FipDecisions::compute(full, &full_fip, "full");
    let reduced_dec = FipDecisions::compute(reduced, &reduced_fip, "reduced");
    for r in full.run_ids() {
        let record = full.run(r);
        let (rep, witness) = reduced
            .resolve_run(&record.config, &record.pattern)
            .expect("every raw run resolves");
        for p in ProcessorId::all(n) {
            assert_eq!(
                full_dec.decision(r, p),
                reduced_dec.decision(rep, witness.apply(p)),
                "decision diverges at run {r:?}, {p}"
            );
        }
    }

    // Theorem 5.3 optimality: same verdict, condition by condition.
    let full_report = check_optimality(&mut full_ctor, &full_fip);
    let reduced_report = check_optimality(&mut reduced_ctor, &reduced_fip);
    assert_eq!(full_report.is_optimal(), reduced_report.is_optimal());
    assert_eq!(full_report.checks.len(), reduced_report.checks.len());
    for (fc, rc) in full_report.checks.iter().zip(&reduced_report.checks) {
        assert_eq!((fc.proc, fc.value), (rc.proc, rc.value));
        assert_eq!(
            fc.holds, rc.holds,
            "optimality condition for {} deciding {:?} diverges",
            fc.proc, fc.value
        );
    }
}

#[test]
fn crash_quotient_matches_the_unreduced_oracle() {
    let scenario = Scenario::new(3, 1, FailureMode::Crash, 3).unwrap();
    let (reduced, full) = build_pair(&scenario);
    assert!(reduced.num_runs() < full.num_runs());
    let info = reduced.symmetry().unwrap();
    assert_eq!(
        info.raw_patterns_covered(),
        info.raw_pattern_total(),
        "a complete quotient build covers the whole pattern space"
    );
    assert_quotient_equivalent(&reduced, &full);
}

#[test]
fn sending_omission_quotient_matches_the_unreduced_oracle() {
    let scenario = Scenario::new(3, 1, FailureMode::Omission, 2).unwrap();
    let (reduced, full) = build_pair(&scenario);
    assert_quotient_equivalent(&reduced, &full);
}

#[test]
fn general_omission_quotient_matches_the_unreduced_oracle() {
    let scenario = Scenario::new(3, 1, FailureMode::GeneralOmission, 2).unwrap();
    let (reduced, full) = build_pair(&scenario);
    assert_quotient_equivalent(&reduced, &full);
}

#[test]
fn two_fault_quotient_matches_the_unreduced_oracle() {
    // t = 2 exercises orbits with non-trivial stabilizers (two faulty
    // processors with equal behaviors).
    let scenario = Scenario::new(3, 2, FailureMode::Crash, 2).unwrap();
    let (reduced, full) = build_pair(&scenario);
    assert_quotient_equivalent(&reduced, &full);
}

#[test]
fn chaos_disturbed_quotient_build_is_identical_to_a_clean_one() {
    // A shard panic during the quotiented build is absorbed by
    // supervision and must leave no trace: same runs, same decisions.
    let scenario = Scenario::new(3, 1, FailureMode::Omission, 2).unwrap();
    let plan = Arc::new(ChaosPlan::new().with_fault(1, FaultKind::Panic));
    let outcome = SystemBuilder::new(&scenario)
        .threads(4)
        .shards(4)
        .symmetry(true)
        .chaos(plan as Arc<dyn FaultInjector>)
        .build_governed()
        .unwrap();
    assert!(outcome.is_complete());
    let disturbed = outcome.into_system();
    let clean = SystemBuilder::new(&scenario)
        .symmetry(true)
        .build()
        .unwrap();
    assert_eq!(disturbed.num_runs(), clean.num_runs());
    for r in clean.run_ids() {
        assert_eq!(disturbed.run(r).config, clean.run(r).config);
        assert_eq!(disturbed.run(r).pattern, clean.run(r).pattern);
    }
    assert_eq!(
        disturbed.symmetry().unwrap().orbit_sizes(),
        clean.symmetry().unwrap().orbit_sizes()
    );
    // And the disturbed quotient still matches the unreduced oracle.
    let full = SystemBuilder::new(&scenario).build().unwrap();
    assert_quotient_equivalent(&disturbed, &full);
}

#[test]
fn budget_partial_quotient_prefix_matches_its_orbit_closure() {
    // A run budget cuts the quotiented build to a prefix of patterns. The
    // oracle for that prefix is the *orbit closure* of the kept
    // representative patterns — every raw pattern whose canonical form
    // was kept, crossed with every config — built unreduced.
    let scenario = Scenario::new(3, 2, FailureMode::Crash, 2).unwrap();
    let space = ScenarioSpace::new(scenario);
    // Run budgets are planned against raw (pre-skip) pattern counts, so
    // size the budget to admit exactly half the raw patterns.
    let half = space.num_patterns() / 2 * space.num_configs();
    let reduced_total = SystemBuilder::new(&scenario)
        .symmetry(true)
        .build()
        .unwrap()
        .num_runs();
    let outcome = SystemBuilder::new(&scenario)
        .threads(1)
        .shards(4)
        .symmetry(true)
        .budget(RunBudget::unlimited().with_max_runs(half as u64))
        .build_governed()
        .unwrap();
    let BuildOutcome::Partial {
        system: reduced,
        partial,
        ..
    } = outcome
    else {
        panic!("the budget must bind");
    };
    assert_eq!(partial.patterns, space.num_patterns() / 2);
    assert!(
        reduced.num_runs() > 0,
        "prefix must be non-empty: {}",
        partial.budget_hit
    );
    assert!(reduced.num_runs() < reduced_total);

    let kept: HashSet<FailurePattern> = reduced
        .run_ids()
        .map(|r| reduced.run(r).pattern.clone())
        .collect();
    let closure_specs: Vec<(InitialConfig, FailurePattern)> = enumerate::patterns(&scenario)
        .filter(|q| kept.contains(&canonicalize(q).canonical))
        .flat_map(|q| {
            space
                .configs()
                .map(move |c| (c, q.clone()))
                .collect::<Vec<_>>()
        })
        .collect();
    let full = GeneratedSystem::from_runs(&scenario, closure_specs);
    assert!(full.num_runs() > reduced.num_runs());
    assert_quotient_equivalent(&reduced, &full);
}

#[test]
fn incremental_extension_preserves_the_quotient() {
    // Growing a quotiented session append-only must equal a cold
    // quotiented build at the target horizon — and keep matching the
    // unreduced oracle there.
    let scenario = Scenario::new(3, 1, FailureMode::Crash, 2).unwrap();
    let base = SystemBuilder::new(&scenario)
        .symmetry(true)
        .build()
        .unwrap();
    let mut session = EngineSession::from_system(base);
    for h in [3u16, 4] {
        session.extend_to(h).unwrap();
        let target = scenario.with_horizon(h).unwrap();
        let cold = SystemBuilder::new(&target).symmetry(true).build().unwrap();
        let warm = session.system();
        assert_eq!(warm.num_runs(), cold.num_runs());
        for r in cold.run_ids() {
            assert_eq!(warm.run(r).config, cold.run(r).config);
            assert_eq!(warm.run(r).pattern, cold.run(r).pattern);
        }
        assert_eq!(
            warm.symmetry().unwrap().orbit_sizes(),
            cold.symmetry().unwrap().orbit_sizes()
        );
    }
    let full = SystemBuilder::new(&scenario.with_horizon(4).unwrap())
        .build()
        .unwrap();
    assert_quotient_equivalent(session.system(), &full);

    // The session's epoch-fenced cache kept serving the quotient: a
    // symmetric formula evaluated through the warm cache matches a cold
    // quotient evaluator.
    let phi = parse_formula("CC(E0)").unwrap();
    let warm_sat = session.evaluator().eval(&phi).clone();
    let cold_reduced = SystemBuilder::new(&scenario.with_horizon(4).unwrap())
        .symmetry(true)
        .build()
        .unwrap();
    let cold_sat = Evaluator::new(&cold_reduced).eval(&phi).clone();
    assert_eq!(warm_sat, cold_sat);
}

#[test]
fn four_processor_quotient_matches_on_formulas() {
    // A larger fan-out (n = 4): formula-level differential only, to keep
    // the suite fast; decisions/optimality are covered at n = 3.
    let scenario = Scenario::new(4, 1, FailureMode::Crash, 3).unwrap();
    let (reduced, full) = build_pair(&scenario);
    let info = reduced.symmetry().unwrap();
    assert!(info.reduction_ratio() > 3.0, "n=4 must reduce at least 3x");
    let reduced_points = point_index(&reduced);
    let mut full_eval = Evaluator::new(&full);
    let mut reduced_eval = Evaluator::new(&reduced);
    for text in ["C(E0)", "CC(E0)", "D(E1)"] {
        let f = parse_formula(text).unwrap();
        let full_sat = full_eval.eval(&f).clone();
        let reduced_sat = reduced_eval.eval(&f).clone();
        for idx in 0..full.num_points() {
            let (r, t) = full_eval.point_of(idx);
            let record = full.run(r);
            let (rep, _w) = reduced
                .resolve_run(&record.config, &record.pattern)
                .unwrap();
            assert_eq!(
                full_sat.get(idx),
                reduced_sat.get(reduced_points[&(rep, t)]),
                "`{text}` diverges at point {idx}"
            );
        }
    }
}

/// Processor `j`'s Theorem 5.3 condition for deciding `value` under
/// `pair`, whose families `evaluator` registers as `z_id`/`o_id`:
/// `N(j) ⇒ (decide_j(v) ⇔ B^N_j(∃v ∧ C□_{N∧other}∃v ∧ ¬decide_j(v̄)))`.
fn condition(j: ProcessorId, value: Value, z_id: StateSetsId, o_id: StateSetsId) -> Formula {
    let (decide, other) = match value {
        Value::Zero => (z_id, o_id),
        Value::One => (o_id, z_id),
    };
    let belief = Formula::exists(value)
        .and(Formula::exists(value).continual_common(NonRigidSet::NonfaultyAnd(other)))
        .and(Formula::StateIn(j, other).not())
        .believed_by(j, NonRigidSet::Nonfaulty);
    Formula::Nonfaulty(j).implies(Formula::StateIn(j, decide).iff(belief))
}

#[test]
fn non_optimal_pairs_fail_alike_on_quotient_and_unreduced() {
    // The failure path of the quotient's family fold: on pairs that are
    // not optimal, every `(proc, value)` verdict matches the unreduced
    // check, and every quotient counterexample is a full-system point
    // where some processor's condition for that value fails.
    for scenario in [
        Scenario::new(3, 1, FailureMode::Crash, 3).unwrap(),
        Scenario::new(4, 1, FailureMode::Omission, 2).unwrap(),
        Scenario::new(4, 2, FailureMode::Crash, 3).unwrap(),
    ] {
        let (reduced, full) = build_pair(&scenario);
        let n = scenario.n();
        let empty = DecisionPair::empty(n);
        let mut full_ctor = Constructor::new(&full);
        let mut reduced_ctor = Constructor::new(&reduced);
        let mut full_pairs = vec![
            empty.clone(),
            full_ctor.step_zero(&empty),
            full_ctor.step_one(&empty),
        ];
        let mut reduced_pairs = vec![
            empty.clone(),
            reduced_ctor.step_zero(&empty),
            reduced_ctor.step_one(&empty),
        ];
        if scenario.t() == 2 {
            // P0opt's lifted pair makes the orbit fold load-bearing: on
            // representatives only processor 0's value-1 condition fails,
            // while on the unreduced system every processor's does.
            full_pairs.push(lift_protocol(&full, &P0Opt::new(2)));
            reduced_pairs.push(lift_protocol(&reduced, &P0Opt::new(2)));
        }
        for (full_pair, reduced_pair) in full_pairs.iter().zip(&reduced_pairs) {
            let full_report = check_optimality(&mut full_ctor, full_pair);
            let reduced_report = check_optimality(&mut reduced_ctor, reduced_pair);
            assert!(!reduced_report.is_optimal(), "{scenario}");
            let verdicts = |report: &OptimalityReport| -> Vec<_> {
                report
                    .checks
                    .iter()
                    .map(|c| (c.proc, c.value, c.holds))
                    .collect()
            };
            assert_eq!(
                verdicts(&full_report),
                verdicts(&reduced_report),
                "{scenario}"
            );

            let eval = full_ctor.evaluator();
            let z_id = eval.register_state_sets(full_pair.zero().clone());
            let o_id = eval.register_state_sets(full_pair.one().clone());
            for check in reduced_report.failures() {
                let (rep, time) = check.counterexample.expect("a failed check has a witness");
                let record = reduced.run(rep);
                let run = full
                    .find_run(&record.config, &record.pattern)
                    .expect("representatives are full-system runs");
                assert!(
                    ProcessorId::all(n).any(|j| !eval.holds_at(
                        &condition(j, check.value, z_id, o_id),
                        run,
                        time
                    )),
                    "{scenario}: no condition for {:?} fails at the counterexample of {}",
                    check.value,
                    check.proc
                );
            }
        }
    }
}
