//! The optimality characterization of Theorem 5.3.

use crate::{Constructor, DecisionPair};
use eba_kripke::{BatchBuilder, Formula, NonRigidSet, StateSetsId};
use eba_model::{ProcessorId, Time, Value};
use eba_sim::RunId;
use std::fmt;

/// The result of checking one direction of Theorem 5.3's characterization
/// for one processor and decided value.
#[derive(Clone, Debug)]
pub struct ConditionCheck {
    /// The processor whose decision rule was checked.
    pub proc: ProcessorId,
    /// The decided value whose condition was checked.
    pub value: Value,
    /// Whether the biconditional held at every point.
    pub holds: bool,
    /// A failing point, when it did not.
    pub counterexample: Option<(RunId, Time)>,
}

/// The outcome of the Theorem 5.3 optimality check over a full decision
/// pair: a full-information nontrivial agreement protocol `FIP(Z, O)` is
/// **optimal** iff for every nonfaulty processor `i`:
///
/// * `decide_i(0) ⇔ B^N_i(∃0 ∧ C□_{N∧O} ∃0 ∧ ¬decide_i(1))`, and
/// * `decide_i(1) ⇔ B^N_i(∃1 ∧ C□_{N∧Z} ∃1 ∧ ¬decide_i(0))`.
#[derive(Clone, Debug)]
pub struct OptimalityReport {
    /// Per-processor, per-value condition checks.
    pub checks: Vec<ConditionCheck>,
}

impl OptimalityReport {
    /// Whether every condition held — i.e. the protocol is optimal.
    #[must_use]
    pub fn is_optimal(&self) -> bool {
        self.checks.iter().all(|c| c.holds)
    }

    /// The failed checks.
    #[must_use]
    pub fn failures(&self) -> Vec<&ConditionCheck> {
        self.checks.iter().filter(|c| !c.holds).collect()
    }
}

impl fmt::Display for OptimalityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_optimal() {
            write!(f, "optimal ({} conditions verified)", self.checks.len())
        } else {
            write!(
                f,
                "NOT optimal ({}/{} conditions failed)",
                self.failures().len(),
                self.checks.len()
            )
        }
    }
}

/// Checks the Theorem 5.3 characterization for `FIP(Z, O)` over the
/// constructor's system.
///
/// `decide_i(y)` is interpreted as membership of `i`'s current state in
/// the corresponding decision set — exact for the cumulative decision
/// sets produced by the constructions of Section 5 (once a processor's
/// state enters such a set, all its later states are in it too).
///
/// # Example
///
/// ```
/// use eba_core::{check_optimality, Constructor, DecisionPair};
/// use eba_model::{FailureMode, Scenario};
/// use eba_sim::GeneratedSystem;
///
/// # fn main() -> Result<(), eba_model::ModelError> {
/// let scenario = Scenario::new(3, 1, FailureMode::Crash, 3)?;
/// let system = GeneratedSystem::exhaustive(&scenario);
/// let mut ctor = Constructor::new(&system);
/// let f2 = ctor.optimize(&DecisionPair::empty(3));
/// assert!(check_optimality(&mut ctor, &f2).is_optimal());
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn check_optimality(ctor: &mut Constructor<'_>, pair: &DecisionPair) -> OptimalityReport {
    let n = ctor.system().n();
    let (z_id, o_id) = {
        let eval = ctor.evaluator();
        (
            eval.register_state_sets(pair.zero().clone()),
            eval.register_state_sets(pair.one().clone()),
        )
    };
    // Both C□ closures and every B^N_i below draw on three nonrigid
    // sets; resolve them in one batched traversal instead of three.
    let mut batch = BatchBuilder::new();
    batch.request_reachability(NonRigidSet::NonfaultyAnd(o_id));
    batch.request_reachability(NonRigidSet::NonfaultyAnd(z_id));
    batch.request_scopes(NonRigidSet::Nonfaulty);
    batch.run(ctor.evaluator());
    let c0 = Formula::exists(Value::Zero).continual_common(NonRigidSet::NonfaultyAnd(o_id));
    let c1 = Formula::exists(Value::One).continual_common(NonRigidSet::NonfaultyAnd(z_id));

    if ctor.system().symmetry().is_some() {
        return check_optimality_quotient(ctor, n, z_id, o_id, &c0, &c1);
    }

    let mut checks = Vec::with_capacity(2 * n);
    for i in ProcessorId::all(n) {
        let decide0 = Formula::StateIn(i, z_id);
        let decide1 = Formula::StateIn(i, o_id);

        // decide_i(0) ⇔ B^N_i(∃0 ∧ C□_{N∧O}∃0 ∧ ¬decide_i(1)).
        let rhs0 = Formula::exists(Value::Zero)
            .and(c0.clone())
            .and(decide1.clone().not())
            .believed_by(i, NonRigidSet::Nonfaulty);
        let cond0 = Formula::Nonfaulty(i).implies(decide0.clone().iff(rhs0));

        // decide_i(1) ⇔ B^N_i(∃1 ∧ C□_{N∧Z}∃1 ∧ ¬decide_i(0)).
        let rhs1 = Formula::exists(Value::One)
            .and(c1.clone())
            .and(decide0.clone().not())
            .believed_by(i, NonRigidSet::Nonfaulty);
        let cond1 = Formula::Nonfaulty(i).implies(decide1.iff(rhs1));

        for (value, cond) in [(Value::Zero, cond0), (Value::One, cond1)] {
            let counterexample = ctor.evaluator().counterexample(&cond);
            checks.push(ConditionCheck {
                proc: i,
                value,
                holds: counterexample.is_none(),
                counterexample,
            });
        }
    }
    OptimalityReport { checks }
}

/// The Theorem 5.3 check over a symmetry-quotiented system.
///
/// The per-processor conditions are *equivariant*, not symmetric:
/// relabeling by `σ` maps processor `i`'s condition onto `σ(i)`'s. Two
/// consequences (DESIGN.md §4i):
///
/// * the belief kernels must be twisted family-wise — processor `q`'s
///   view at a falsifying point is checked against `ψ_q`, not `ψ_i` —
///   which is what [`eba_kripke::Evaluator::family_believes`] computes;
/// * full-system validity of any one processor's condition is the
///   conjunction over the *whole family* of representative-validity, so
///   the per-processor verdicts coincide. A check whose own condition
///   holds on representatives but whose family fails reports the first
///   failing member's representative counterexample (the full-system
///   failing point for `i` is a relabeling of it).
fn check_optimality_quotient(
    ctor: &mut Constructor<'_>,
    n: usize,
    z_id: StateSetsId,
    o_id: StateSetsId,
    c0: &Formula,
    c1: &Formula,
) -> OptimalityReport {
    type FamilyFailures = Vec<Option<(RunId, Time)>>;
    let mut per_value: Vec<(Value, FamilyFailures)> = Vec::with_capacity(2);
    for (value, decide_id, other_id, closure) in
        [(Value::Zero, z_id, o_id, c0), (Value::One, o_id, z_id, c1)]
    {
        let psi: Vec<Formula> = ProcessorId::all(n)
            .map(|j| {
                Formula::exists(value)
                    .and(closure.clone())
                    .and(Formula::StateIn(j, other_id).not())
            })
            .collect();
        let eval = ctor.evaluator();
        let believes = eval.family_believes(NonRigidSet::Nonfaulty, &psi);
        let fails: Vec<Option<(RunId, Time)>> = ProcessorId::all(n)
            .zip(&believes)
            .map(|(j, b)| {
                // Nonfaulty(j) ⇒ (StateIn(j, decide) ⇔ B^N_j ψ_j),
                // folded on bitsets: a violation is an in-scope point
                // where exactly one side holds.
                let lhs = eval.eval(&Formula::StateIn(j, decide_id));
                let nf = eval.eval(&Formula::Nonfaulty(j));
                let mut bad = (*lhs).clone();
                bad.and_not(b);
                let mut missing = b.clone();
                missing.and_not(&lhs);
                bad |= &missing;
                bad &= &nf;
                let first = bad.ones().next();
                first.map(|idx| eval.point_of(idx))
            })
            .collect();
        per_value.push((value, fails));
    }
    let mut checks = Vec::with_capacity(2 * n);
    for i in ProcessorId::all(n) {
        for (value, fails) in &per_value {
            let holds = fails.iter().all(Option::is_none);
            let counterexample =
                fails[i.index()].or_else(|| fails.iter().flatten().next().copied());
            checks.push(ConditionCheck {
                proc: i,
                value: *value,
                holds,
                counterexample,
            });
        }
    }
    OptimalityReport { checks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eba_model::{FailureMode, Scenario};
    use eba_sim::GeneratedSystem;

    fn crash_system() -> GeneratedSystem {
        let scenario = Scenario::new(3, 1, FailureMode::Crash, 3).unwrap();
        GeneratedSystem::exhaustive(&scenario)
    }

    #[test]
    fn f_lambda_is_not_optimal() {
        let system = crash_system();
        let mut ctor = Constructor::new(&system);
        let report = check_optimality(&mut ctor, &DecisionPair::empty(3));
        assert!(!report.is_optimal());
        assert!(!report.failures().is_empty());
        assert!(report.to_string().contains("NOT optimal"));
    }

    #[test]
    fn f_lambda_1_is_not_optimal() {
        let system = crash_system();
        let mut ctor = Constructor::new(&system);
        let f1 = ctor.step_zero(&DecisionPair::empty(3));
        let report = check_optimality(&mut ctor, &f1);
        assert!(!report.is_optimal());
    }

    #[test]
    fn two_step_optimization_passes_the_characterization() {
        let system = crash_system();
        let mut ctor = Constructor::new(&system);
        let f2 = ctor.optimize(&DecisionPair::empty(3));
        let report = check_optimality(&mut ctor, &f2);
        assert!(report.is_optimal(), "{report}: {:?}", report.failures());
        assert!(report.to_string().contains("optimal"));
    }

    #[test]
    fn symmetric_optimization_is_also_optimal() {
        let system = crash_system();
        let mut ctor = Constructor::new(&system);
        let f2 = ctor.optimize_one_first(&DecisionPair::empty(3));
        let report = check_optimality(&mut ctor, &f2);
        assert!(report.is_optimal(), "{:?}", report.failures());
    }
}
