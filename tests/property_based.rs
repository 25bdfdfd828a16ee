//! Property-based tests (proptest) over the model, the knowledge engine,
//! and the optimization construction.

use eba::prelude::*;
use eba_kripke::{axioms, Bitset};
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

/// The two symmetry quotients of `tests/plan_equivalence.rs`.
fn quotient_system(crash: bool) -> &'static GeneratedSystem {
    static CRASH: OnceLock<GeneratedSystem> = OnceLock::new();
    static OMISSION: OnceLock<GeneratedSystem> = OnceLock::new();
    let (cell, scenario) = if crash {
        (&CRASH, Scenario::new(4, 2, FailureMode::Crash, 3).unwrap())
    } else {
        (
            &OMISSION,
            Scenario::new(4, 1, FailureMode::Omission, 2).unwrap(),
        )
    };
    cell.get_or_init(|| {
        SystemBuilder::new(&scenario)
            .symmetry(true)
            .build()
            .unwrap()
    })
}

/// The number of points where two satisfaction sets disagree and the
/// first of them, if any.
fn diff(a: &Bitset, b: &Bitset) -> Option<(usize, usize)> {
    let mut mismatches = (0..a.len()).filter(|&idx| a.get(idx) != b.get(idx));
    let first = mismatches.next()?;
    Some((1 + mismatches.count(), first))
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// S5 holds for K_i on arbitrary formulas (Proposition 3.1).
    #[test]
    fn s5_axioms_on_random_formulas(
        phi in formula_strategy(),
        psi in formula_strategy(),
        i in 0usize..3,
    ) {
        let mut eval = Evaluator::new(crash_system());
        for report in axioms::check_s5(&mut eval, ProcessorId::new(i), &phi, &psi) {
            prop_assert!(report.holds(), "{}: {:?}", report.name, report.violation);
        }
    }

    /// The continual-common-knowledge properties of Lemma 3.4 hold on
    /// arbitrary formulas, in both failure modes.
    #[test]
    fn continual_common_axioms_on_random_formulas(
        phi in formula_strategy(),
        psi in formula_strategy(),
        crash in proptest::bool::ANY,
    ) {
        let system = if crash { crash_system() } else { omission_system() };
        let mut eval = Evaluator::new(system);
        for report in axioms::check_continual_common(
            &mut eval,
            NonRigidSet::Nonfaulty,
            &phi,
            &psi,
        ) {
            prop_assert!(report.holds(), "{}: {:?}", report.name, report.violation);
        }
    }

    /// The temporal ladder `□̄φ ⇒ □φ ⇒ φ ⇒ ◇φ ⇒ ◇̄φ` is valid.
    #[test]
    fn temporal_ladder(phi in formula_strategy()) {
        let mut eval = Evaluator::new(crash_system());
        let steps = [
            phi.clone().always_all().implies(phi.clone().always()),
            phi.clone().always().implies(phi.clone()),
            phi.clone().implies(phi.clone().eventually()),
            phi.clone().eventually().implies(phi.clone().sometime_all()),
        ];
        for step in &steps {
            prop_assert!(eval.valid(step), "failed: {step}");
        }
    }

    /// Knowledge of stable (run-level) facts persists: for formulas built
    /// only from run-level atoms, `K_i φ ⇒ □ K_i φ`.
    #[test]
    fn knowledge_of_run_level_facts_persists(
        v in prop_oneof![Just(Value::Zero), Just(Value::One)],
        i in 0usize..3,
        negate in proptest::bool::ANY,
    ) {
        let mut eval = Evaluator::new(crash_system());
        let fact = if negate {
            Formula::exists(v).not()
        } else {
            Formula::exists(v)
        };
        let k = fact.known_by(ProcessorId::new(i));
        prop_assert!(eval.valid(&k.clone().implies(k.always())));
    }

    /// The union-find reachability engine agrees with the textbook
    /// greatest-fixed-point computation (the oracle's formula iteration,
    /// Lemma 3.4) on random formulas, for both common knowledge and
    /// continual common knowledge (differential test of the core
    /// algorithm, Prop 3.2 / Cor 3.3), on exhaustive crash and omission
    /// systems and on two symmetry quotients.
    #[test]
    fn reachability_agrees_with_fixed_point(
        phi in formula_strategy(),
        which in 0usize..4,
        continual in proptest::bool::ANY,
    ) {
        use eba_kripke::oracle::Oracle;
        let system = match which {
            0 => crash_system(),
            1 => omission_system(),
            2 => quotient_system(true),
            _ => quotient_system(false),
        };
        let mut eval = Evaluator::new(system);
        let s = NonRigidSet::Nonfaulty;
        let (via_reach, (via_gfp, _)) = if continual {
            let reach = eval.eval(&phi.clone().continual_common(s));
            (reach, Oracle::new(&eval).continual_common_by_gfp(s, &phi))
        } else {
            let reach = eval.eval(&phi.clone().common(s));
            (reach, Oracle::new(&eval).common_by_gfp(s, &phi))
        };
        prop_assert_eq!(
            diff(&via_reach, &via_gfp),
            None,
            "engines disagree on {} (system {})",
            phi,
            which
        );
    }

    /// Display and the parser are inverse on the N-indexed fragment:
    /// `parse(format!("{f}")) == f`.
    #[test]
    fn display_parse_round_trip(f in formula_strategy()) {
        use eba_kripke::parse::parse_formula;
        let rendered = f.to_string();
        let reparsed = parse_formula(&rendered)
            .map_err(|e| TestCaseError::fail(format!("`{rendered}`: {e}")))?;
        prop_assert_eq!(reparsed, f, "round trip changed `{}`", rendered);
    }

    /// ProcSet algebra laws.
    #[test]
    fn procset_algebra(a in 0u128..1 << 8, b in 0u128..1 << 8, c in 0u128..1 << 8) {
        let (a, b, c) = (
            ProcSet::from_bits(a),
            ProcSet::from_bits(b),
            ProcSet::from_bits(c),
        );
        // De Morgan within an 8-processor universe.
        prop_assert_eq!(
            (a | b).complement(8),
            a.complement(8) & b.complement(8)
        );
        // Distributivity.
        prop_assert_eq!(a & (b | c), (a & b) | (a & c));
        // Difference via complement.
        prop_assert_eq!(a - b, a & b.complement(8));
        // Cardinality of disjoint unions adds up.
        let disjoint = a & b.complement(8);
        prop_assert_eq!((disjoint | b).len(), disjoint.len() + b.len());
    }

    /// Sampled failure patterns always validate against their scenario.
    #[test]
    fn sampled_patterns_validate(
        seed in proptest::num::u64::ANY,
        crash in proptest::bool::ANY,
        n in 3usize..10,
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let t = (n - 1).min(3);
        let mode = if crash { FailureMode::Crash } else { FailureMode::Omission };
        let scenario = Scenario::new(n, t, mode, 4).unwrap();
        let sampler = eba_model::sample::PatternSampler::new(scenario);
        let mut rng = StdRng::seed_from_u64(seed);
        let pattern = sampler.sample(&mut rng);
        prop_assert!(scenario.validate_pattern(&pattern).is_ok());
    }
}

/// Random *nontrivial agreement* protocols: per-processor delayed
/// variants of the crash rule (delaying any sound rule preserves weak
/// agreement and weak validity). The two-step construction must turn
/// every one of them into an optimal protocol that dominates it
/// (Theorem 5.2 + Theorem 5.3).
fn delayed_crash_pair(
    ctor: &mut Constructor<'_>,
    delays0: [u16; 3],
    delays1: [u16; 3],
) -> DecisionPair {
    let base = eba_core::protocols::crash_rule(ctor);
    let table = ctor.system().table();
    let n = ctor.system().n();
    let mut zero = StateSets::empty(n);
    let mut one = StateSets::empty(n);
    for i in ProcessorId::all(n) {
        for v in base.zero().of(i).iter() {
            if table.time(v).ticks() >= delays0[i.index()] {
                zero.insert(i, v);
            }
        }
        for v in base.one().of(i).iter() {
            if table.time(v).ticks() >= delays1[i.index()] {
                one.insert(i, v);
            }
        }
    }
    DecisionPair::new(zero, one)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn two_step_optimization_of_random_bases(
        d0 in proptest::array::uniform3(0u16..3),
        d1 in proptest::array::uniform3(0u16..3),
    ) {
        let system = crash_system();
        let mut ctor = Constructor::new(system);
        let base = delayed_crash_pair(&mut ctor, d0, d1);

        // The base really is a nontrivial agreement protocol.
        let d_base = FipDecisions::compute(system, &base, "delayed base");
        let base_report = verify_properties(system, &d_base);
        prop_assert!(base_report.is_nontrivial_agreement(), "{base_report}");

        // Theorem 5.2: two steps give an optimal protocol dominating it.
        let optimized = ctor.optimize(&base);
        let d_opt = FipDecisions::compute(system, &optimized, "F²");
        let report = verify_properties(system, &d_opt);
        prop_assert!(report.is_nontrivial_agreement(), "{report}");
        let dom = dominates(system, &d_opt, &d_base);
        prop_assert!(dom.dominates, "{dom}");
        prop_assert!(check_optimality(&mut ctor, &optimized).is_optimal());
    }
}
