//! The knowledge-level optimization construction (Proposition 5.1 and
//! Theorem 5.2).
//!
//! Starting from any full-information nontrivial agreement protocol
//! `F = FIP(Z, O)`, one *optimization step* builds a dominating protocol:
//!
//! * [`Constructor::step_zero`] (the `(Z′, O′)` of Proposition 5.1 —
//!   optimize the decision on 0 given the rule for 1):
//!   `Z′_i = B^N_i(∃0 ∧ C□_{N∧O} ∃0)`,
//!   `O′_i = B^N_i(∃1 ∧ ¬C□_{N∧O} ∃0)`;
//! * [`Constructor::step_one`] (the `(Z″, O″)`):
//!   `Z″_i = B^N_i(∃0 ∧ ¬C□_{N∧Z} ∃1)`,
//!   `O″_i = B^N_i(∃1 ∧ C□_{N∧Z} ∃1)`.
//!
//! Theorem 5.2 proves two steps suffice: [`Constructor::optimize`]
//! computes `F² = step_one(step_zero(F))`, an **optimal** nontrivial
//! agreement protocol dominating `F` (an optimal EBA protocol when `F` is
//! an EBA protocol). The test suites verify that a third step is a fixed
//! point.
//!
//! Each step prefetches its nonrigid sets in one batched sweep and
//! extracts all processors' decision sets with one fused belief sweep
//! ([`Evaluator::views_believing`]). `tests/plan_equivalence.rs` checks
//! the result against the explicit per-processor `B^N_i` formulas
//! evaluated by the reference evaluator (`eba_kripke::oracle`).

use crate::{DecisionPair, FipDecisions};
use eba_kripke::{BatchBuilder, Evaluator, Formula, KnowledgeCache, NonRigidSet, StateSets};
use eba_model::{ProcessorId, Value};
use eba_sim::GeneratedSystem;

/// Builds optimized decision pairs over a generated system; wraps the
/// epistemic [`Evaluator`] and implements the constructions of Section 5.
///
/// # Example
///
/// Optimizing the never-deciding protocol `F^Λ` yields the paper's
/// `F^{Λ,2}` (Section 6.1):
///
/// ```
/// use eba_core::{Constructor, DecisionPair};
/// use eba_model::{FailureMode, Scenario};
/// use eba_sim::GeneratedSystem;
///
/// # fn main() -> Result<(), eba_model::ModelError> {
/// let scenario = Scenario::new(3, 1, FailureMode::Crash, 3)?;
/// let system = GeneratedSystem::exhaustive(&scenario);
/// let mut ctor = Constructor::new(&system);
/// let f_lambda_2 = ctor.optimize(&DecisionPair::empty(3));
/// assert!(!f_lambda_2.is_empty());
/// # Ok(())
/// # }
/// ```
pub struct Constructor<'a> {
    eval: Evaluator<'a>,
}

impl<'a> Constructor<'a> {
    /// Creates a constructor over `system`.
    #[must_use]
    pub fn new(system: &'a GeneratedSystem) -> Self {
        Constructor {
            eval: Evaluator::new(system),
        }
    }

    /// Creates a constructor whose evaluator publishes reachability
    /// structures to (and reads them from) the given shared
    /// [`KnowledgeCache`]. Constructors and ad-hoc evaluators over the
    /// same system can then reuse each other's `C_S`/`C□_S` work — the
    /// optimization steps re-derive the same `N ∧ O`/`N ∧ Z` families
    /// often enough that this removes the dominant repeated cost.
    #[must_use]
    pub fn with_cache(system: &'a GeneratedSystem, cache: KnowledgeCache) -> Self {
        Constructor {
            eval: Evaluator::with_cache(system, cache),
        }
    }

    /// Creates a constructor around an evaluator (which brings its system,
    /// cache and thread count).
    pub(crate) fn from_evaluator(eval: Evaluator<'a>) -> Self {
        Constructor { eval }
    }

    /// The underlying system.
    #[must_use]
    pub fn system(&self) -> &'a GeneratedSystem {
        self.eval.system()
    }

    /// The underlying evaluator (for ad-hoc formula checks over the same
    /// caches).
    pub fn evaluator(&mut self) -> &mut Evaluator<'a> {
        &mut self.eval
    }

    /// Extracts, for every processor, the views at which `make(i)` holds;
    /// the workhorse for turning `B^N_i(…)` formulas into decision sets.
    pub fn views_satisfying<F>(&mut self, make: F) -> StateSets
    where
        F: Fn(ProcessorId) -> Formula,
    {
        let n = self.system().n();
        let mut sets = StateSets::empty(n);
        for i in ProcessorId::all(n) {
            let formula = make(i);
            self.eval.views_where_into(i, &formula, &mut sets);
        }
        sets
    }

    /// One optimization step in the *zero-first* direction
    /// (Proposition 5.1's `(Z′, O′)`): given `F = FIP(Z, O)`, returns the
    /// pair with
    /// `Z′_i = B^N_i(∃0 ∧ C□_{N∧O} ∃0)` and
    /// `O′_i = B^N_i(∃1 ∧ ¬C□_{N∧O} ∃0)`.
    ///
    /// The new pair depends only on `O` (the original decide-1 sets).
    pub fn step_zero(&mut self, pair: &DecisionPair) -> DecisionPair {
        let o_id = self.eval.register_state_sets(pair.one().clone());
        let s = NonRigidSet::NonfaultyAnd(o_id);
        self.prefetch_step_sets(s);
        let c0 = Formula::exists(Value::Zero).continual_common(s);
        let zero = self.views_believed(Formula::exists(Value::Zero).and(c0.clone()));
        let one = self.views_believed(Formula::exists(Value::One).and(c0.not()));
        DecisionPair::new(zero, one)
    }

    /// One optimization step in the *one-first* direction
    /// (Proposition 5.1's `(Z″, O″)`): given `F = FIP(Z, O)`, returns the
    /// pair with
    /// `Z″_i = B^N_i(∃0 ∧ ¬C□_{N∧Z} ∃1)` and
    /// `O″_i = B^N_i(∃1 ∧ C□_{N∧Z} ∃1)`.
    ///
    /// The new pair depends only on `Z` (the original decide-0 sets).
    pub fn step_one(&mut self, pair: &DecisionPair) -> DecisionPair {
        let z_id = self.eval.register_state_sets(pair.zero().clone());
        let s = NonRigidSet::NonfaultyAnd(z_id);
        self.prefetch_step_sets(s);
        let c1 = Formula::exists(Value::One).continual_common(s);
        let zero = self.views_believed(Formula::exists(Value::Zero).and(c1.clone().not()));
        let one = self.views_believed(Formula::exists(Value::One).and(c1));
        DecisionPair::new(zero, one)
    }

    /// Resolves everything an optimization step will ask of the knowledge
    /// engine in one batched sweep: the `C□_S` closure needs `S`'s
    /// reachability components, and every `B^N_i` extraction needs `N`'s
    /// scope columns.
    fn prefetch_step_sets(&mut self, s: NonRigidSet) {
        let mut batch = BatchBuilder::new();
        batch.request_reachability(s);
        batch.request_scopes(NonRigidSet::Nonfaulty);
        batch.run(&mut self.eval);
    }

    /// The decision sets `{ v : B^N_i ψ throughout v }` for every
    /// processor, by the fused all-processor extraction
    /// ([`Evaluator::views_believing`]: `ψ` evaluated once, one bucket
    /// sweep per processor).
    fn views_believed(&mut self, psi: Formula) -> StateSets {
        let mut sets = StateSets::empty(self.system().n());
        self.eval
            .views_believing(NonRigidSet::Nonfaulty, &psi, &mut sets);
        sets
    }

    /// The two-step construction of Theorem 5.2:
    /// `F² = step_one(step_zero(F))`, an optimal nontrivial agreement
    /// protocol dominating `F` (an optimal EBA protocol when `F` is one).
    pub fn optimize(&mut self, pair: &DecisionPair) -> DecisionPair {
        let f1 = self.step_zero(pair);
        self.step_one(&f1)
    }

    /// The symmetric two-step construction (exchange the roles of 0 and
    /// 1): `step_zero(step_one(F))`, also optimal by the symmetry noted
    /// after Proposition 5.1.
    pub fn optimize_one_first(&mut self, pair: &DecisionPair) -> DecisionPair {
        let f1 = self.step_one(pair);
        self.step_zero(&f1)
    }

    /// Iterates optimization steps (alternating zero-first/one-first as in
    /// the `F^{2,1}, F^{2,2}, …` discussion of Section 5) until the
    /// *induced decisions of nonfaulty processors* stop changing,
    /// returning the fixed point and the number of steps taken.
    ///
    /// Decision sets themselves may keep differing on views that occur
    /// only for faulty processors (where every `B^N_i` is vacuous), so the
    /// fixed point is detected on decisions, which is what domination and
    /// optimality are about. Theorem 5.2 predicts at most two steps from
    /// any nontrivial agreement protocol; exposed so the tests can
    /// *verify* that prediction rather than assume it.
    pub fn optimize_to_fixed_point(
        &mut self,
        pair: &DecisionPair,
        max_steps: usize,
    ) -> (DecisionPair, usize) {
        let mut current = self.step_zero(pair);
        let mut current_table = self.nonfaulty_decision_table(&current);
        let mut steps = 1;
        let mut zero_first = false; // next step: one-first
        while steps < max_steps {
            let next = if zero_first {
                self.step_zero(&current)
            } else {
                self.step_one(&current)
            };
            steps += 1;
            zero_first = !zero_first;
            let next_table = self.nonfaulty_decision_table(&next);
            if next_table == current_table {
                return (next, steps);
            }
            current = next;
            current_table = next_table;
        }
        (current, steps)
    }

    /// The decision table of `FIP(pair)` masked to nonfaulty processors,
    /// used for fixed-point detection.
    fn nonfaulty_decision_table(&self, pair: &DecisionPair) -> Vec<Option<eba_sim::Decision>> {
        let system = self.system();
        let d = FipDecisions::compute(system, pair, "probe");
        let n = system.n();
        let mut table = vec![None; system.num_runs() * n];
        for run in system.run_ids() {
            for p in system.nonfaulty(run) {
                table[run.index() * n + p.index()] = d.decision(run, p);
            }
        }
        table
    }

    /// Convenience: compute the decisions of `FIP(pair)` over the
    /// constructor's system.
    #[must_use]
    pub fn decisions(&self, pair: &DecisionPair, name: impl Into<String>) -> FipDecisions {
        FipDecisions::compute(self.system(), pair, name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dominates, verify_properties};
    use eba_model::{FailureMode, Scenario};

    fn crash_system() -> GeneratedSystem {
        let scenario = Scenario::new(3, 1, FailureMode::Crash, 3).unwrap();
        GeneratedSystem::exhaustive(&scenario)
    }

    #[test]
    fn step_zero_of_empty_is_learn_zero_rule() {
        // Section 6.1: F^{Λ,1} has Z_i = B^N_i ∃0 and O_i = B^N_i false.
        let system = crash_system();
        let mut ctor = Constructor::new(&system);
        let f1 = ctor.step_zero(&DecisionPair::empty(3));
        // O must contain only views at which the owner knows it is faulty
        // (B^N_i false); decisions of 1 never happen for nonfaulty
        // processors.
        let d = ctor.decisions(&f1, "F^{Λ,1}");
        let (zeros, ones, _) = crate::decision_profile(&system, &d);
        assert!(zeros > 0);
        assert_eq!(ones, 0);
        // And the Z rule matches B^N_i ∃0 exactly.
        let direct = ctor.views_satisfying(|i| {
            Formula::exists(Value::Zero).believed_by(i, NonRigidSet::Nonfaulty)
        });
        assert_eq!(f1.zero(), &direct);
    }

    #[test]
    fn each_step_dominates() {
        let system = crash_system();
        let mut ctor = Constructor::new(&system);
        let f0 = DecisionPair::empty(3);
        let f1 = ctor.step_zero(&f0);
        let f2 = ctor.step_one(&f1);
        let d0 = ctor.decisions(&f0, "F^Λ");
        let d1 = ctor.decisions(&f1, "F^{Λ,1}");
        let d2 = ctor.decisions(&f2, "F^{Λ,2}");
        assert!(dominates(&system, &d1, &d0).dominates);
        assert!(dominates(&system, &d2, &d1).dominates);
        assert!(dominates(&system, &d2, &d0).strict);
    }

    #[test]
    fn steps_preserve_nontrivial_agreement() {
        let system = crash_system();
        let mut ctor = Constructor::new(&system);
        let f1 = ctor.step_zero(&DecisionPair::empty(3));
        let f2 = ctor.step_one(&f1);
        for (pair, name) in [(&f1, "F^{Λ,1}"), (&f2, "F^{Λ,2}")] {
            let d = ctor.decisions(pair, name);
            let report = verify_properties(&system, &d);
            assert!(report.is_nontrivial_agreement(), "{name}: {report}");
        }
    }

    #[test]
    fn two_steps_reach_a_fixed_point_in_crash_mode() {
        // Theorem 5.2: F² is optimal, so a further step cannot change it.
        let system = crash_system();
        let mut ctor = Constructor::new(&system);
        let f2 = ctor.optimize(&DecisionPair::empty(3));
        let f3 = ctor.step_zero(&f2);
        let d2 = ctor.decisions(&f2, "F²");
        let d3 = ctor.decisions(&f3, "F³");
        // Decisions (for nonfaulty processors) must coincide.
        let fwd = dominates(&system, &d3, &d2);
        let bwd = dominates(&system, &d2, &d3);
        assert!(fwd.equivalent_times() && bwd.equivalent_times());
    }

    #[test]
    fn optimize_to_fixed_point_terminates_quickly() {
        let system = crash_system();
        let mut ctor = Constructor::new(&system);
        let (pair, steps) = ctor.optimize_to_fixed_point(&DecisionPair::empty(3), 10);
        assert!(steps <= 4, "took {steps} steps");
        assert!(!pair.is_empty());
    }

    #[test]
    fn f_lambda_2_is_an_eba_protocol_in_crash_mode() {
        let system = crash_system();
        let mut ctor = Constructor::new(&system);
        let f2 = ctor.optimize(&DecisionPair::empty(3));
        let d = ctor.decisions(&f2, "F^{Λ,2}");
        let report = verify_properties(&system, &d);
        assert!(report.is_eba(), "{report}");
    }
}
