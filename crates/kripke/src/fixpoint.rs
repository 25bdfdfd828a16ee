//! Reference fixed-point implementations of `C_S` and `C□_S`, used for
//! differential testing of the union-find reachability engine.
//!
//! The paper defines `C_S φ` as the infinite conjunction `⋀_k E_S^k φ`,
//! equivalently the greatest fixed point of `X ↔ E_S(φ ∧ X)`, and
//! `C□_S φ` as the greatest fixed point of `X ↔ E□_S(φ ∧ X)`
//! (Section 3.3). On a finite system the greatest fixed point is reached
//! by iterating from `True`, which is what these functions do — slowly
//! but by-the-definition. [`crate::Evaluator`] computes the same
//! operators via reachability components (Proposition 3.2 /
//! Corollary 3.3); the `gfp_agrees_with_reachability` tests and the
//! property suite check the two agree bit-for-bit.

use crate::bitset::Bitset;
use crate::{Evaluator, Formula, NonRigidSet};
use eba_model::{ArmedBudget, BudgetHit, ModelError, RunBudget, Time};
use std::fmt;
use std::sync::Arc;

/// Why a governed fixpoint iteration stopped before converging.
#[derive(Clone, Debug)]
pub enum GfpInterrupt {
    /// The budget ran out mid-iteration (wall-clock deadline).
    Budget(BudgetHit),
    /// The evaluator could not intern another intermediate predicate
    /// (point-predicate id space exhausted).
    Model(ModelError),
}

impl fmt::Display for GfpInterrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GfpInterrupt::Budget(hit) => write!(f, "fixpoint iteration stopped: {hit}"),
            GfpInterrupt::Model(e) => write!(f, "fixpoint iteration failed: {e}"),
        }
    }
}

impl std::error::Error for GfpInterrupt {}

/// Computes `C_S φ` by greatest-fixed-point iteration of
/// `X ← E_S(φ ∧ X)`, starting from `True`.
///
/// Returns the satisfaction bitset and the number of iterations needed
/// (including the final confirming pass).
pub fn common_by_gfp(eval: &mut Evaluator<'_>, s: NonRigidSet, phi: &Formula) -> (Bitset, usize) {
    unlimited(gfp(eval, phi, s, false, &RunBudget::unlimited().arm()))
}

/// Computes `C□_S φ` by greatest-fixed-point iteration of
/// `X ← E□_S(φ ∧ X)` where `E□_S ψ = □̄ E_S ψ`.
pub fn continual_common_by_gfp(
    eval: &mut Evaluator<'_>,
    s: NonRigidSet,
    phi: &Formula,
) -> (Bitset, usize) {
    unlimited(gfp(eval, phi, s, true, &RunBudget::unlimited().arm()))
}

/// [`common_by_gfp`] under a budget: the deadline is checked once per
/// iteration, and intermediate-predicate interning surfaces typed
/// capacity errors instead of aborting.
///
/// # Errors
///
/// Returns [`GfpInterrupt::Budget`] when the budget ran out and
/// [`GfpInterrupt::Model`] when the evaluator's id space overflowed.
pub fn common_by_gfp_governed(
    eval: &mut Evaluator<'_>,
    s: NonRigidSet,
    phi: &Formula,
    budget: &ArmedBudget,
) -> Result<(Bitset, usize), GfpInterrupt> {
    gfp(eval, phi, s, false, budget)
}

/// [`continual_common_by_gfp`] under a budget; see
/// [`common_by_gfp_governed`].
///
/// # Errors
///
/// Returns [`GfpInterrupt::Budget`] when the budget ran out and
/// [`GfpInterrupt::Model`] when the evaluator's id space overflowed.
pub fn continual_common_by_gfp_governed(
    eval: &mut Evaluator<'_>,
    s: NonRigidSet,
    phi: &Formula,
    budget: &ArmedBudget,
) -> Result<(Bitset, usize), GfpInterrupt> {
    gfp(eval, phi, s, true, budget)
}

/// Unwraps a governed result produced under an unlimited budget, where
/// interruption is impossible in practice (a budget never fires; id
/// exhaustion needs 2³² iterations).
fn unlimited(result: Result<(Bitset, usize), GfpInterrupt>) -> (Bitset, usize) {
    match result {
        Ok(out) => out,
        Err(e) => panic!("{e}"),
    }
}

/// Iterates `X ← E_S(φ ∧ X)` (boxed: `X ← □̄ E_S(φ ∧ X)`) from `X = True`
/// until stable, checking the budget's deadline cooperatively at each
/// iteration.
///
/// In plan mode (the evaluator default) the loop runs as the compiled
/// `GfpIter` kernel — a native bitset iteration over the columnar point
/// store that never constructs intermediate formulas (see
/// [`crate::plan`]); with batch mode on, the iteration's scope columns
/// and every nonrigid set of `φ`'s plan are resolved up front by one
/// [`crate::reach::BatchBuilder`] sweep. Otherwise the intermediate `X`
/// is injected into
/// formulas as a registered point predicate, so each iteration is a
/// single evaluator pass; the evaluator cache is still effective for the
/// `φ` sub-evaluation. Both paths perform the same iteration sequence
/// and return bit-identical results and iteration counts.
fn gfp(
    eval: &mut Evaluator<'_>,
    phi: &Formula,
    s: NonRigidSet,
    boxed: bool,
    budget: &ArmedBudget,
) -> Result<(Bitset, usize), GfpInterrupt> {
    if eval.plan_mode() {
        return crate::plan::gfp(eval, s, phi, boxed, budget);
    }
    let step = |inner: Formula| {
        if boxed {
            inner.everyone_box(s)
        } else {
            inner.everyone(s)
        }
    };
    let mut current = Bitset::new_true(eval.num_points());
    let mut iterations = 0;
    loop {
        budget.check_deadline().map_err(GfpInterrupt::Budget)?;
        iterations += 1;
        let x_id = eval
            .try_register_point_pred(current.clone())
            .map_err(GfpInterrupt::Model)?;
        let formula = step(phi.clone().and(Formula::PointPred(x_id)));
        let next = Arc::unwrap_or_clone(eval.eval(&formula));
        if next == current {
            return Ok((current, iterations));
        }
        current = next;
    }
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
    fn governed_gfp_with_unlimited_budget_matches_ungoverned() {
        for system in systems() {
            for phi in formulas() {
                let mut eval = Evaluator::new(&system);
                let budget = eba_model::RunBudget::unlimited().arm();
                let (plain, plain_iters) = common_by_gfp(&mut eval, NonRigidSet::Nonfaulty, &phi);
                let (governed, governed_iters) =
                    common_by_gfp_governed(&mut eval, NonRigidSet::Nonfaulty, &phi, &budget)
                        .unwrap();
                assert_eq!(plain, governed, "C_N({phi}) differs under a no-op budget");
                assert_eq!(plain_iters, governed_iters);
                let (plain_box, _) =
                    continual_common_by_gfp(&mut eval, NonRigidSet::Nonfaulty, &phi);
                let (governed_box, _) = continual_common_by_gfp_governed(
                    &mut eval,
                    NonRigidSet::Nonfaulty,
                    &phi,
                    &budget,
                )
                .unwrap();
                assert_eq!(plain_box, governed_box);
            }
        }
    }

    #[test]
    fn governed_gfp_honors_an_expired_deadline() {
        let system = &systems()[0];
        let mut eval = Evaluator::new(system);
        let budget = eba_model::RunBudget::unlimited()
            .with_deadline(std::time::Duration::ZERO)
            .arm();
        let phi = Formula::exists(Value::Zero);
        let err =
            common_by_gfp_governed(&mut eval, NonRigidSet::Nonfaulty, &phi, &budget).unwrap_err();
        match err {
            GfpInterrupt::Budget(eba_model::BudgetHit::Deadline { .. }) => {}
            other => panic!("expected a deadline hit, got {other}"),
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
