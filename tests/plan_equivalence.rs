//! Differential suite for the compiled evaluation plans: on random
//! formulas and across scenario spaces, the plan pipeline (CSR knowledge
//! kernels, word-level `E_S`/`S_S`, native gfp iteration, batched
//! reachability) must produce **bit-identical** extensions to the
//! reference implementations of `eba_kripke::oracle` — including on
//! symmetry quotients and on budget-partial systems.

use eba::prelude::*;
use eba_kripke::{fixpoint, oracle::Oracle, BatchBuilder, Reachability};
use proptest::prelude::*;
use std::sync::OnceLock;

fn crash_system() -> &'static GeneratedSystem {
    static SYSTEM: OnceLock<GeneratedSystem> = OnceLock::new();
    SYSTEM.get_or_init(|| {
        let scenario = Scenario::new(3, 1, FailureMode::Crash, 3).unwrap();
        GeneratedSystem::exhaustive(&scenario)
    })
}

fn omission_system() -> &'static GeneratedSystem {
    static SYSTEM: OnceLock<GeneratedSystem> = OnceLock::new();
    SYSTEM.get_or_init(|| {
        let scenario = Scenario::new(3, 1, FailureMode::Omission, 2).unwrap();
        GeneratedSystem::exhaustive(&scenario)
    })
}

/// A sampled (non-exhaustive) scenario space: the plan kernels must not
/// assume anything about which runs are present.
fn sampled_system() -> &'static GeneratedSystem {
    static SYSTEM: OnceLock<GeneratedSystem> = OnceLock::new();
    SYSTEM.get_or_init(|| {
        let scenario = Scenario::new(4, 1, FailureMode::Crash, 3).unwrap();
        GeneratedSystem::sampled(&scenario, 120, 0xEBA)
    })
}

/// A symmetry quotient with two faults: the plan's orbit-twisted kernels
/// must match the reference evaluator's on every formula, symmetric or
/// not.
fn crash_quotient() -> &'static GeneratedSystem {
    static SYSTEM: OnceLock<GeneratedSystem> = OnceLock::new();
    SYSTEM.get_or_init(|| {
        let scenario = Scenario::new(4, 2, FailureMode::Crash, 3).unwrap();
        SystemBuilder::new(&scenario)
            .symmetry(true)
            .build()
            .unwrap()
    })
}

/// A sending-omission symmetry quotient.
fn omission_quotient() -> &'static GeneratedSystem {
    static SYSTEM: OnceLock<GeneratedSystem> = OnceLock::new();
    SYSTEM.get_or_init(|| {
        let scenario = Scenario::new(4, 1, FailureMode::Omission, 2).unwrap();
        SystemBuilder::new(&scenario)
            .symmetry(true)
            .build()
            .unwrap()
    })
}

/// The differential inputs by index: three unreduced spaces, then the
/// two quotients.
fn input_system(which: usize) -> (&'static GeneratedSystem, &'static str) {
    match which {
        0 => (crash_system(), "crash (exhaustive)"),
        1 => (omission_system(), "omission (exhaustive)"),
        2 => (sampled_system(), "crash (sampled)"),
        3 => (crash_quotient(), "crash n=4 t=2 (quotient)"),
        _ => (omission_quotient(), "omission n=4 t=1 (quotient)"),
    }
}

/// A generator of epistemic-temporal formulas over 3 processors (no
/// registered ids, so formulas are portable across evaluators).
fn formula_strategy() -> impl Strategy<Value = Formula> {
    let leaf = prop_oneof![
        Just(Formula::True),
        Just(Formula::False),
        Just(Formula::exists(Value::Zero)),
        Just(Formula::exists(Value::One)),
        (0usize..3, prop_oneof![Just(Value::Zero), Just(Value::One)])
            .prop_map(|(i, v)| Formula::Initial(ProcessorId::new(i), v)),
        (0usize..3).prop_map(|i| Formula::Nonfaulty(ProcessorId::new(i))),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|f| f.not()),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            (0usize..3, inner.clone()).prop_map(|(i, f)| f.known_by(ProcessorId::new(i))),
            (0usize..3, inner.clone())
                .prop_map(|(i, f)| { f.believed_by(ProcessorId::new(i), NonRigidSet::Nonfaulty) }),
            inner
                .clone()
                .prop_map(|f| f.everyone(NonRigidSet::Nonfaulty)),
            inner
                .clone()
                .prop_map(|f| f.someone(NonRigidSet::Nonfaulty)),
            inner
                .clone()
                .prop_map(|f| f.distributed(NonRigidSet::Nonfaulty)),
            inner.clone().prop_map(|f| f.common(NonRigidSet::Nonfaulty)),
            inner
                .clone()
                .prop_map(|f| f.continual_common(NonRigidSet::Nonfaulty)),
            inner.clone().prop_map(Formula::always),
            inner.clone().prop_map(Formula::eventually),
            inner.clone().prop_map(Formula::always_all),
            inner.prop_map(Formula::sometime_all),
        ]
    })
}

/// Evaluates `phi` twice over `system` — compiled plan vs recursive
/// oracle — and asserts the extensions are bit-identical.
fn assert_plan_matches_oracle(
    system: &GeneratedSystem,
    phi: &Formula,
    label: &str,
) -> Result<(), TestCaseError> {
    let mut compiled = Evaluator::new(system);
    let via_plan = compiled.eval(phi);
    // The oracle keeps its own memos, so sharing the evaluator cannot
    // serve it the plan's answer.
    let via_rec = Oracle::new(&compiled).eval(phi);
    prop_assert_eq!(
        &*via_plan,
        &*via_rec,
        "compiled plan and recursive oracle disagree on {} over {}",
        phi,
        label
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// Core differential property: on random formulas, plan extensions
    /// equal the recursive evaluator's on exhaustive crash and omission
    /// systems, on a sampled scenario space and on two symmetry
    /// quotients.
    #[test]
    fn plan_matches_recursive_oracle(
        phi in formula_strategy(),
        which in 0usize..5,
    ) {
        let (system, label) = input_system(which);
        assert_plan_matches_oracle(system, &phi, label)?;
    }

    /// The native gfp loop matches the oracle's formula-iteration
    /// loop in result *and* iteration count, for both `C_S` and `C□_S`,
    /// on exhaustive crash and omission systems and on two symmetry
    /// quotients.
    #[test]
    fn gfp_kernel_matches_formula_iteration(
        phi in formula_strategy(),
        which in 0usize..4,
        continual in proptest::bool::ANY,
    ) {
        let system = match which {
            0 => crash_system(),
            1 => omission_system(),
            2 => crash_quotient(),
            _ => omission_quotient(),
        };
        let mut plan_eval = Evaluator::new(system);
        let rec_eval = Evaluator::new(system);
        let mut rec = Oracle::new(&rec_eval);
        let s = NonRigidSet::Nonfaulty;
        let ((a, ia), (b, ib)) = if continual {
            (
                fixpoint::continual_common_by_gfp(&mut plan_eval, s, &phi),
                rec.continual_common_by_gfp(s, &phi),
            )
        } else {
            (
                fixpoint::common_by_gfp(&mut plan_eval, s, &phi),
                rec.common_by_gfp(s, &phi),
            )
        };
        prop_assert_eq!(&a, &b, "gfp engines disagree on {}", &phi);
        prop_assert_eq!(ia, ib, "gfp iteration counts diverge on {}", &phi);
    }
}

/// A pseudo-random state-set family over `system`'s view table, derived
/// deterministically from `seed` (splitmix64 per `(processor, view)`), so
/// the same seed registers the same family on any evaluator.
fn random_family(system: &GeneratedSystem, seed: u64, keep_mod: u64) -> StateSets {
    let n = system.n();
    let mut family = StateSets::empty(n);
    for p in ProcessorId::all(n) {
        for (k, v) in system.table().ids().enumerate() {
            let mut x = seed
                .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(1 + k as u64))
                .wrapping_add(0x1000_0000 * p.index() as u64);
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^= x >> 31;
            if x.is_multiple_of(keep_mod) {
                family.insert(p, v);
            }
        }
    }
    family
}

/// Asserts two reachability structures agree bit for bit: point
/// components (and their count), run components, and the `S`-emptiness
/// mask.
fn assert_reach_identical(
    system: &GeneratedSystem,
    want: &Reachability,
    got: &Reachability,
    label: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        want.num_point_components(),
        got.num_point_components(),
        "component counts diverge under {}",
        label
    );
    for idx in 0..system.num_points() {
        prop_assert_eq!(
            want.point_component(idx),
            got.point_component(idx),
            "component of point {} diverges under {}",
            idx,
            label
        );
    }
    for run in system.run_ids() {
        prop_assert_eq!(
            want.run_component(run),
            got.run_component(run),
            "run component of {} diverges under {}",
            run.index(),
            label
        );
        prop_assert_eq!(want.run_has_s_points(run), got.run_has_s_points(run));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Batched reachability differential: random nonrigid-set families
    /// resolved by one `BatchBuilder` sweep produce components, run
    /// projections, *and* scope columns bit-identical to the oracle's
    /// per-set builds, across the three scenario spaces and the two
    /// quotients.
    #[test]
    fn batched_reachability_matches_per_set_path(
        seed in proptest::num::u64::ANY,
        keep_mod in 1u64..5,
        which in 0usize..5,
    ) {
        let (system, label) = input_system(which);
        let mut batched = Evaluator::new(system);
        let mut per_set_eval = Evaluator::new(system);
        let fam_a = random_family(system, seed, keep_mod);
        let fam_b = random_family(system, seed ^ 0xABCD, keep_mod);
        let a = batched.register_state_sets(fam_a.clone());
        let b = batched.register_state_sets(fam_b.clone());
        prop_assert_eq!(a, per_set_eval.register_state_sets(fam_a));
        prop_assert_eq!(b, per_set_eval.register_state_sets(fam_b));
        let mut per_set = Oracle::new(&per_set_eval);
        let family = [
            NonRigidSet::Everyone,
            NonRigidSet::Nonfaulty,
            NonRigidSet::NonfaultyAnd(a),
            NonRigidSet::NonfaultyAnd(b),
        ];
        // One sweep serves every reachability *and* scope request.
        let mut batch = BatchBuilder::new();
        for &s in &family {
            batch.request_reachability(s);
            batch.request_scopes(s);
        }
        batch.run(&mut batched);
        for &s in &family {
            let got = batched.reachability(s);
            let want = per_set.reachability(s);
            assert_reach_identical(system, &want, &got, &format!("{s:?} over {label}"))?;
            prop_assert_eq!(
                &*per_set.scope_columns(s),
                &*batched.scope_columns(s),
                "scope columns diverge under {:?} over {}",
                s,
                label
            );
        }
    }

}

/// Budget-partial systems: the batched sweep over a prefix-of-shards
/// system agrees with the oracle's per-set builds on every requested set.
#[test]
fn batched_reachability_matches_per_set_on_budget_partial_system() {
    let scenario = Scenario::new(3, 1, FailureMode::Crash, 3).unwrap();
    let outcome = SystemBuilder::new(&scenario)
        .threads(2)
        .shards(8)
        .budget(RunBudget::unlimited().with_max_runs(40))
        .build_governed()
        .expect("governed build failed");
    let system = match outcome {
        BuildOutcome::Partial { system, .. } => system,
        BuildOutcome::Complete { .. } => {
            panic!("max-runs budget should have cut the build short")
        }
    };
    assert!(system.num_runs() > 0, "need a nonempty partial prefix");

    let mut batched = Evaluator::new(&system);
    let mut per_set_eval = Evaluator::new(&system);
    let fam = random_family(&system, 0xEBA, 2);
    let a = batched.register_state_sets(fam.clone());
    assert_eq!(a, per_set_eval.register_state_sets(fam));
    let mut per_set = Oracle::new(&per_set_eval);
    let family = [
        NonRigidSet::Everyone,
        NonRigidSet::Nonfaulty,
        NonRigidSet::NonfaultyAnd(a),
    ];
    let mut batch = BatchBuilder::new();
    for &s in &family {
        batch.request_reachability(s);
    }
    batch.run(&mut batched);
    for &s in &family {
        let got = batched.reachability(s);
        let want = per_set.reachability(s);
        assert_reach_identical(&system, &want, &got, &format!("{s:?} on partial system")).unwrap();
        assert_eq!(
            *per_set.scope_columns(s),
            *batched.scope_columns(s),
            "scope columns diverge under {s:?} on the partial system"
        );
    }
}

/// The decision sets `{ v : B^N_i ψ throughout v }` of the explicit
/// per-processor formulas, evaluated by the recursive oracle.
fn oracle_views_believed(eval: &Evaluator<'_>, psi: &Formula) -> StateSets {
    let n = eval.system().n();
    let mut oracle = Oracle::new(eval);
    let mut sets = StateSets::empty(n);
    for i in ProcessorId::all(n) {
        let belief = psi.clone().believed_by(i, NonRigidSet::Nonfaulty);
        oracle.views_where_into(i, &belief, &mut sets);
    }
    sets
}

/// Theorem 5.2's `step_one(step_zero(base))` with every decision set
/// extracted by [`oracle_views_believed`]: the reference for
/// `Constructor::optimize`, which prefetches in batches and extracts
/// with one fused belief sweep.
fn optimize_by_oracle(system: &GeneratedSystem, base: &DecisionPair) -> DecisionPair {
    let mut eval = Evaluator::new(system);
    // Z′_i = B^N_i(∃0 ∧ C□_{N∧O} ∃0); step_one reads only Z′.
    let o = NonRigidSet::NonfaultyAnd(eval.register_state_sets(base.one().clone()));
    let c0 = Formula::exists(Value::Zero).continual_common(o);
    let zero = oracle_views_believed(&eval, &Formula::exists(Value::Zero).and(c0));
    // Z″_i = B^N_i(∃0 ∧ ¬C□_{N∧Z} ∃1), O″_i = B^N_i(∃1 ∧ C□_{N∧Z} ∃1).
    let z = NonRigidSet::NonfaultyAnd(eval.register_state_sets(zero));
    let c1 = Formula::exists(Value::One).continual_common(z);
    DecisionPair::new(
        oracle_views_believed(&eval, &Formula::exists(Value::Zero).and(c1.clone().not())),
        oracle_views_believed(&eval, &Formula::exists(Value::One).and(c1)),
    )
}

/// The optimization pipeline must produce the *same decision sets* either
/// way: `optimize` under plans equals the construction evaluated by the
/// recursive oracle, down to the per-view decision tables.
#[test]
fn construction_decision_vectors_agree() {
    let system = crash_system();
    let bases = [
        DecisionPair::empty(3),
        eba_core::protocols::crash_rule(&mut Constructor::new(system)),
    ];
    for base in bases {
        let mut plan_ctor = Constructor::new(system);
        let optimized_plan = plan_ctor.optimize(&base);
        let optimized_rec = optimize_by_oracle(system, &base);
        assert_eq!(
            optimized_plan, optimized_rec,
            "optimized decision pairs diverge between plan and recursive evaluation"
        );
        // And the run-level decision vectors they induce.
        let d_plan = FipDecisions::compute(system, &optimized_plan, "plan");
        let d_rec = FipDecisions::compute(system, &optimized_rec, "recursive");
        for r in system.run_ids() {
            for i in ProcessorId::all(3) {
                let a = d_plan.decision(r, i).map(|d| (d.time, d.value));
                let b = d_rec.decision(r, i).map(|d| (d.time, d.value));
                assert_eq!(a, b, "decision of {i} in run {} diverges", r.index());
            }
        }
    }
}

/// Budget-partial systems (prefix of shards) still build their point
/// store, and plan extensions on them equal the recursive oracle's.
#[test]
fn plan_matches_oracle_on_budget_partial_system() {
    let scenario = Scenario::new(3, 1, FailureMode::Crash, 3).unwrap();
    let outcome = SystemBuilder::new(&scenario)
        .threads(2)
        .shards(8)
        .budget(RunBudget::unlimited().with_max_runs(40))
        .build_governed()
        .expect("governed build failed");
    let system = match outcome {
        BuildOutcome::Partial { system, .. } => system,
        BuildOutcome::Complete { .. } => {
            panic!("max-runs budget should have cut the build short")
        }
    };
    assert!(system.num_runs() > 0, "need a nonempty partial prefix");
    let store = system.points();
    assert_eq!(store.num_points(), system.num_points());

    let phi = Formula::exists(Value::One);
    for formula in [
        phi.clone().everyone(NonRigidSet::Nonfaulty),
        phi.clone().common(NonRigidSet::Nonfaulty),
        phi.clone().continual_common(NonRigidSet::Nonfaulty).not(),
        phi.clone().distributed(NonRigidSet::Everyone).eventually(),
    ] {
        let mut compiled = Evaluator::new(&system);
        let oracle_eval = Evaluator::new(&system);
        assert_eq!(
            *compiled.eval(&formula),
            *Oracle::new(&oracle_eval).eval(&formula),
            "partial-system extensions diverge on {formula}"
        );
    }
}
