//! The fixed-point characterization of `C_S` and `C□_S` (Lemma 3.4),
//! computed by iteration.
//!
//! The paper defines `C_S φ` as the infinite conjunction `⋀_k E_S^k φ`,
//! equivalently the greatest fixed point of `X ↔ E_S(φ ∧ X)`, and
//! `C□_S φ` as the greatest fixed point of `X ↔ E□_S(φ ∧ X)`
//! (Section 3.3). On a finite system the greatest fixed point is reached
//! by iterating from `True`, which is what these functions do.
//! [`crate::Evaluator`] computes the same operators via reachability
//! components (Proposition 3.2 / Corollary 3.3); the
//! `gfp_agrees_with_reachability` tests and the property suite check the
//! two agree bit-for-bit.

use crate::bitset::Bitset;
use crate::{Evaluator, Formula, NonRigidSet};
use eba_model::Time;

/// Computes `C_S φ` by greatest-fixed-point iteration of
/// `X ← E_S(φ ∧ X)`, starting from `True`.
///
/// Returns the satisfaction bitset and the number of iterations needed
/// (including the final confirming pass).
///
/// The loop is a native bitset iteration over the columnar point store
/// that never constructs intermediate formulas. It starts after `φ` is
/// evaluated in the evaluator's node table, with one
/// [`crate::reach::BatchBuilder`] sweep resolving the iteration's scope
/// columns and every nonrigid set of `φ`'s new nodes. The formula
/// iteration it replaced is kept as [`crate::oracle::Oracle::common_by_gfp`],
/// with the same iterates and iteration counts.
pub fn common_by_gfp(eval: &mut Evaluator<'_>, s: NonRigidSet, phi: &Formula) -> (Bitset, usize) {
    crate::plan::gfp(eval, s, phi, false)
}

/// Computes `C□_S φ` by greatest-fixed-point iteration of
/// `X ← E□_S(φ ∧ X)` where `E□_S ψ = □̄ E_S ψ`; see [`common_by_gfp`].
pub fn continual_common_by_gfp(
    eval: &mut Evaluator<'_>,
    s: NonRigidSet,
    phi: &Formula,
) -> (Bitset, usize) {
    crate::plan::gfp(eval, s, phi, true)
}

/// Computes the bounded conjunction `⋀_{k=1..depth} E_S^k φ` — the
/// textbook definition of common knowledge truncated at `depth`. On a
/// finite system, `C_S φ` equals the value of this at any depth at least
/// the number of distinct `(i, view)` buckets; the tests use it to
/// cross-check small instances directly against the definition.
pub fn everyone_iterated(
    eval: &mut Evaluator<'_>,
    s: NonRigidSet,
    phi: &Formula,
    depth: usize,
) -> Bitset {
    let mut conjunction = Bitset::new_true(eval.num_points());
    let mut layer = phi.clone();
    for _ in 0..depth {
        layer = layer.everyone(s);
        conjunction &= &eval.eval(&layer);
    }
    conjunction
}

/// A convenience report for diffing two satisfaction sets: the number of
/// points where they disagree and a sample point.
#[must_use]
pub fn diff(eval: &Evaluator<'_>, a: &Bitset, b: &Bitset) -> Option<(usize, (usize, Time))> {
    let mut mismatches = 0;
    let mut sample = None;
    for idx in 0..a.len() {
        if a.get(idx) != b.get(idx) {
            mismatches += 1;
            if sample.is_none() {
                let (run, time) = eval.point_of(idx);
                sample = Some((run.index(), time));
            }
        }
    }
    sample.map(|s| (mismatches, s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eba_model::{FailureMode, ProcessorId, Scenario, Value};
    use eba_sim::GeneratedSystem;

    fn systems() -> Vec<GeneratedSystem> {
        vec![
            GeneratedSystem::exhaustive(&Scenario::new(3, 1, FailureMode::Crash, 2).unwrap()),
            GeneratedSystem::exhaustive(&Scenario::new(3, 1, FailureMode::Omission, 2).unwrap()),
        ]
    }

    fn formulas() -> Vec<Formula> {
        vec![
            Formula::exists(Value::Zero),
            Formula::exists(Value::One),
            Formula::exists(Value::Zero).not(),
            Formula::exists(Value::One).known_by(ProcessorId::new(0)),
            Formula::False,
            Formula::True,
        ]
    }

    #[test]
    fn gfp_agrees_with_reachability_for_common_knowledge() {
        for system in systems() {
            for phi in formulas() {
                let mut eval = Evaluator::new(&system);
                let via_reach = eval.eval(&phi.clone().common(NonRigidSet::Nonfaulty));
                let (via_gfp, iters) = common_by_gfp(&mut eval, NonRigidSet::Nonfaulty, &phi);
                assert!(iters < 50, "gfp failed to converge quickly");
                assert_eq!(
                    diff(&eval, &via_reach, &via_gfp),
                    None,
                    "C_N({phi}) differs between union-find and gfp"
                );
            }
        }
    }

    #[test]
    fn gfp_agrees_with_reachability_for_continual_common_knowledge() {
        for system in systems() {
            for phi in formulas() {
                let mut eval = Evaluator::new(&system);
                let via_reach = eval.eval(&phi.clone().continual_common(NonRigidSet::Nonfaulty));
                let (via_gfp, _) = continual_common_by_gfp(&mut eval, NonRigidSet::Nonfaulty, &phi);
                assert_eq!(
                    diff(&eval, &via_reach, &via_gfp),
                    None,
                    "C□_N({phi}) differs between union-find and gfp"
                );
            }
        }
    }

    #[test]
    fn iterated_everyone_converges_to_common_knowledge() {
        for system in systems() {
            let phi = Formula::exists(Value::Zero);
            let mut eval = Evaluator::new(&system);
            let exact = eval.eval(&phi.clone().common(NonRigidSet::Nonfaulty));
            // E^k must be ⊇ C for every k, and equal for large k.
            for depth in 1..=3 {
                let approx = everyone_iterated(&mut eval, NonRigidSet::Nonfaulty, &phi, depth);
                assert!(exact.is_subset(&approx), "C ⊆ E^{depth} violated");
            }
            let deep = everyone_iterated(&mut eval, NonRigidSet::Nonfaulty, &phi, 64);
            assert_eq!(diff(&eval, &exact, &deep), None);
        }
    }

    #[test]
    fn gfp_with_empty_set_is_all_true() {
        let system = &systems()[0];
        let mut eval = Evaluator::new(system);
        let empty = eval.register_state_sets(crate::StateSets::empty(3));
        let s = NonRigidSet::NonfaultyAnd(empty);
        let (set, _) = continual_common_by_gfp(&mut eval, s, &Formula::False);
        assert!(set.all(), "C□ over an empty nonrigid set must be vacuous");
    }
}
