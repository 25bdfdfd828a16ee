//! Reference implementations of the knowledge operators, kept for the
//! differential suites.
//!
//! Production evaluation has one path per operator: compiled plans
//! ([`crate::plan`]) over batched reachability ([`crate::reach`]), with
//! the Lemma 3.4 fixed points run as the native `GfpIter` loop. This
//! module keeps the direct implementations those paths replaced, so the
//! suites can check them bit for bit:
//!
//! * the **recursive evaluator**: one bitset per formula node, with `K_p`
//!   and `B^S_p` as a per-point scan over the system's views;
//! * the **per-set reachability and scope-column builds**, one set and
//!   one thread at a time;
//! * the **formula-iteration gfp** of `X ← E_S(φ ∧ X)` (boxed: `E□_S`),
//!   which injects each iterate into the formula as a point predicate
//!   and reports its iteration count.
//!
//! An [`Oracle`] borrows an [`Evaluator`] for its system and registered
//! families but keeps memos of its own: it never reads or fills the
//! evaluator's formula memo, its reachability and scope memos, or the
//! [`crate::KnowledgeCache`]. A differential assertion therefore never
//! compares a production result with itself. No production code calls
//! this module, so the linker drops it from release binaries.
//!
//! # Example
//!
//! ```
//! use eba_kripke::{oracle::Oracle, Evaluator, Formula, NonRigidSet};
//! use eba_model::{FailureMode, Scenario, Value};
//! use eba_sim::GeneratedSystem;
//!
//! # fn main() -> Result<(), eba_model::ModelError> {
//! let scenario = Scenario::new(3, 1, FailureMode::Crash, 2)?;
//! let system = GeneratedSystem::exhaustive(&scenario);
//! let mut eval = Evaluator::new(&system);
//! let phi = Formula::exists(Value::Zero).continual_common(NonRigidSet::Nonfaulty);
//! let via_plan = eval.eval(&phi);
//! assert_eq!(via_plan, Oracle::new(&eval).eval(&phi));
//! # Ok(())
//! # }
//! ```

use crate::bitset::Bitset;
use crate::cache::ScopeColumns;
use crate::eval::{Evaluator, Reachability};
use crate::formula::Formula;
use crate::nonrigid::{NonRigidSet, PointPredId, StateSets};
use crate::uf::UnionFind;
use eba_model::fasthash::FastMap;
use eba_model::{ProcSet, ProcessorId, Time};
use eba_sim::symmetry::ViewClasses;
use std::sync::Arc;

/// The reference evaluator over one [`Evaluator`]'s system and
/// registrations; see the module docs.
pub struct Oracle<'e, 'a> {
    ev: &'e Evaluator<'a>,
    memo: FastMap<Formula, Arc<Bitset>>,
    reach: FastMap<NonRigidSet, Arc<Reachability>>,
    scopes: FastMap<NonRigidSet, ScopeColumns>,
    /// The iterates the gfp loop injects, numbered after the evaluator's
    /// own point predicates.
    point_preds: Vec<Bitset>,
}

impl<'e, 'a> Oracle<'e, 'a> {
    /// An oracle over `eval`'s system and registered families, with
    /// empty memos.
    #[must_use]
    pub fn new(eval: &'e Evaluator<'a>) -> Self {
        Oracle {
            ev: eval,
            memo: FastMap::default(),
            reach: FastMap::default(),
            scopes: FastMap::default(),
            point_preds: Vec::new(),
        }
    }

    /// The set of points satisfying `formula`, by recursive evaluation.
    pub fn eval(&mut self, formula: &Formula) -> Arc<Bitset> {
        if let Some(cached) = self.memo.get(formula) {
            return Arc::clone(cached);
        }
        let result = Arc::new(self.compute(formula));
        self.memo.insert(formula.clone(), Arc::clone(&result));
        result
    }

    /// Inserts into `sets` the views of `p` at which `formula` holds
    /// throughout: [`Evaluator::views_where_into`] over the recursive
    /// evaluator.
    pub fn views_where_into(&mut self, p: ProcessorId, formula: &Formula, sets: &mut StateSets) {
        let set = self.eval(formula);
        self.ev.for_each_view_in(p, &set, |v| {
            sets.insert(p, v);
        });
    }

    /// The reachability structure of `s`, built for this set alone on the
    /// calling thread.
    pub fn reachability(&mut self, s: NonRigidSet) -> Arc<Reachability> {
        if let Some(cached) = self.reach.get(&s) {
            return Arc::clone(cached);
        }
        let built = Arc::new(self.build_reachability(s));
        self.reach.insert(s, Arc::clone(&built));
        built
    }

    /// The per-processor scope columns of `s`, built for this set alone
    /// by a membership test per interned view.
    pub fn scope_columns(&mut self, s: NonRigidSet) -> ScopeColumns {
        if let Some(cached) = self.scopes.get(&s) {
            return Arc::clone(cached);
        }
        let built = Arc::new(self.build_scope_columns(s));
        self.scopes.insert(s, Arc::clone(&built));
        built
    }

    /// `C_S φ` by iterating `X ← E_S(φ ∧ X)` from `True`; returns the
    /// fixed point and the iteration count (including the final
    /// confirming pass).
    pub fn common_by_gfp(&mut self, s: NonRigidSet, phi: &Formula) -> (Bitset, usize) {
        self.gfp(s, phi, false)
    }

    /// `C□_S φ` by iterating `X ← E□_S(φ ∧ X)` from `True`, where
    /// `E□_S ψ = □̄ E_S ψ`; returns the fixed point and the iteration
    /// count.
    pub fn continual_common_by_gfp(&mut self, s: NonRigidSet, phi: &Formula) -> (Bitset, usize) {
        self.gfp(s, phi, true)
    }

    /// The gfp loop: each iterate `X` is injected into the step formula
    /// as a point predicate, so an iteration is a single recursive pass;
    /// the memo still serves `φ`'s subformulas across iterations.
    fn gfp(&mut self, s: NonRigidSet, phi: &Formula, boxed: bool) -> (Bitset, usize) {
        let step = |inner: Formula| {
            if boxed {
                inner.everyone_box(s)
            } else {
                inner.everyone(s)
            }
        };
        let mut current = Bitset::new_true(self.ev.num_points());
        let mut iterations = 0;
        loop {
            iterations += 1;
            let x = self.inject_point_pred(current.clone());
            let formula = step(phi.clone().and(Formula::PointPred(x)));
            let next = Arc::unwrap_or_clone(self.eval(&formula));
            if next == current {
                return (current, iterations);
            }
            current = next;
        }
    }

    fn inject_point_pred(&mut self, pred: Bitset) -> PointPredId {
        let id = self.ev.point_preds.len() + self.point_preds.len();
        self.point_preds.push(pred);
        PointPredId(u32::try_from(id).expect("point predicate ids exhausted"))
    }

    fn compute(&mut self, formula: &Formula) -> Bitset {
        let ev = self.ev;
        match formula {
            Formula::PointPred(id) if id.0 as usize >= ev.point_preds.len() => {
                self.point_preds[id.0 as usize - ev.point_preds.len()].clone()
            }
            Formula::True
            | Formula::False
            | Formula::Exists(_)
            | Formula::Initial(..)
            | Formula::Nonfaulty(_)
            | Formula::StateIn(..)
            | Formula::RunPred(_)
            | Formula::PointPred(_) => ev.load_leaf(formula),
            Formula::Not(inner) => {
                let mut out = (*self.eval(inner)).clone();
                out.invert();
                out
            }
            Formula::And(fs) => {
                let mut out = Bitset::new_true(ev.num_points);
                for f in fs {
                    out &= &self.eval(f);
                }
                out
            }
            Formula::Or(fs) => {
                let mut out = Bitset::new_false(ev.num_points);
                for f in fs {
                    out |= &self.eval(f);
                }
                out
            }
            Formula::Knows(p, inner) => {
                let phi = self.eval(inner);
                self.knowledge_like(*p, &phi, None)
            }
            Formula::Believes(p, s, inner) => {
                let phi = self.eval(inner);
                self.knowledge_like(*p, &phi, Some(*s))
            }
            Formula::Everyone(s, inner) => {
                let believes: Vec<Bitset> = (0..ev.n)
                    .map(|i| {
                        let phi = self.eval(inner);
                        self.knowledge_like(ProcessorId::new(i), &phi, Some(*s))
                    })
                    .collect();
                let mut out = Bitset::new_true(ev.num_points);
                for run in ev.system.run_ids() {
                    for time in Time::upto(ev.system.horizon()) {
                        let idx = ev.point_index(run, time);
                        let members = ev.members(*s, run, time);
                        let ok = members.iter().all(|i| believes[i.index()].get(idx));
                        out.set(idx, ok);
                    }
                }
                out
            }
            Formula::Someone(s, inner) => {
                let believes: Vec<Bitset> = (0..ev.n)
                    .map(|i| {
                        let phi = self.eval(inner);
                        self.knowledge_like(ProcessorId::new(i), &phi, Some(*s))
                    })
                    .collect();
                let mut out = Bitset::new_false(ev.num_points);
                for run in ev.system.run_ids() {
                    for time in Time::upto(ev.system.horizon()) {
                        let idx = ev.point_index(run, time);
                        let members = ev.members(*s, run, time);
                        let ok = members.iter().any(|i| believes[i.index()].get(idx));
                        out.set(idx, ok);
                    }
                }
                out
            }
            Formula::Distributed(s, inner) => {
                let phi = self.eval(inner);
                ev.distributed_knowledge(*s, &phi)
            }
            Formula::Common(s, inner) => {
                let phi = self.eval(inner);
                let reach = self.reachability(*s);
                ev.common_from_reach(&phi, &reach)
            }
            Formula::ContinualCommon(s, inner) => {
                let phi = self.eval(inner);
                let reach = self.reachability(*s);
                ev.continual_common_from_reach(&phi, &reach)
            }
            Formula::Always(inner) => {
                let phi = self.eval(inner);
                ev.always_of(&phi)
            }
            Formula::Eventually(inner) => {
                let phi = self.eval(inner);
                ev.eventually_of(&phi)
            }
            Formula::AlwaysAll(inner) => {
                let phi = self.eval(inner);
                ev.always_all_of(&phi)
            }
            Formula::SometimeAll(inner) => {
                let phi = self.eval(inner);
                ev.sometime_all_of(&phi)
            }
        }
    }

    /// The orbit twist of [`Oracle::knowledge_like`]: on a quotiented
    /// system a point is disqualified when the *orbit class* of its view
    /// equals the class of some falsifying point's view — taken over
    /// **every** processor `q` there (restricted to `q ∈ S` for `B`).
    /// Full-information views encode their owner, so cross-processor
    /// class equality already carries the witnessing relabeling, which
    /// makes the per-class marking answer the full system's question
    /// exactly for symmetric `φ` (DESIGN.md §4i).
    fn knowledge_like_quotient(
        &mut self,
        p: ProcessorId,
        phi: &Bitset,
        restrict: Option<NonRigidSet>,
        classes: &ViewClasses,
    ) -> Bitset {
        let class_ok = match restrict {
            None => self.ev.class_ok_unscoped(phi, classes),
            Some(s) => {
                let scopes = self.scope_columns(s);
                self.ev.class_ok_scoped(phi, &scopes, classes)
            }
        };
        self.ev.project_class_ok(p, &class_ok, classes)
    }

    /// Shared implementation of `K_p` (with `restrict = None`) and `B^S_p`
    /// (with `restrict = Some(S)`): the result at a point depends only on
    /// `p`'s view there, and is the conjunction of `φ` over all points
    /// where `p` has that view (and, for `B`, belongs to `S`).
    fn knowledge_like(
        &mut self,
        p: ProcessorId,
        phi: &Bitset,
        restrict: Option<NonRigidSet>,
    ) -> Bitset {
        let ev = self.ev;
        if let Some(classes) = ev.classes() {
            return self.knowledge_like_quotient(p, phi, restrict, classes);
        }
        let table_len = ev.system.table().len();
        let mut view_ok = vec![true; table_len];
        for run in ev.system.run_ids() {
            for time in Time::upto(ev.system.horizon()) {
                let idx = ev.point_index(run, time);
                if phi.get(idx) {
                    continue;
                }
                let in_scope = match restrict {
                    None => true,
                    Some(s) => ev.members(s, run, time).contains(p),
                };
                if in_scope {
                    let v = ev.system.view(run, p, time);
                    view_ok[v.index()] = false;
                }
            }
        }
        let mut out = Bitset::new_false(ev.num_points);
        for run in ev.system.run_ids() {
            for time in Time::upto(ev.system.horizon()) {
                let idx = ev.point_index(run, time);
                let v = ev.system.view(run, p, time);
                out.set(idx, view_ok[v.index()]);
            }
        }
        out
    }

    /// Point-level union-find: two points are linked when some `i ∈ S` at
    /// both has the same view at both. The unions are applied in
    /// processor order, one CSR bucket sweep per processor (on a
    /// quotient, the batched sweep's class-root rule).
    fn build_reachability(&self, s: NonRigidSet) -> Reachability {
        let ev = self.ev;
        let s_members = ev.collect_s_members(s);
        let mut uf = UnionFind::new(ev.num_points);
        if let Some(classes) = ev.classes() {
            ev.union_quotient_reach_edges(&s_members, classes, &mut uf);
        } else {
            for i in ProcessorId::all(ev.n) {
                union_reach_edges(ev, i, &s_members, &mut uf);
            }
        }
        ev.finish_reachability(&s_members, &mut uf)
    }

    fn build_scope_columns(&self, s: NonRigidSet) -> Vec<Bitset> {
        let ev = self.ev;
        let store = ev.system.points();
        ProcessorId::all(ev.n)
            .map(|p| match s {
                NonRigidSet::Everyone => Bitset::new_true(ev.num_points),
                NonRigidSet::Nonfaulty => {
                    ev.broadcast_run_level(|r| ev.system.nonfaulty(r).contains(p))
                }
                NonRigidSet::NonfaultyAnd(id) => {
                    let sets = ev.state_sets(id);
                    // Membership test per interned view, then a column
                    // scan — no hashing per point.
                    let mut in_sets = vec![false; ev.system.table().len()];
                    for v in ev.system.table().ids() {
                        in_sets[v.index()] = sets.contains(p, v);
                    }
                    let mut out = ev.broadcast_run_level(|r| ev.system.nonfaulty(r).contains(p));
                    for (idx, v) in store.column(p).iter().enumerate() {
                        if !in_sets[v.index()] {
                            out.set(idx, false);
                        }
                    }
                    out
                }
            })
            .collect()
    }
}

/// Applies the union edges contributed by processor `i`: each
/// `S`-containing point of a bucket (the points where `i` has one view)
/// is linked to the bucket's first such point. Buckets hold their points
/// in increasing point order, so the root is the one a sequential point
/// scan would pick.
fn union_reach_edges(
    ev: &Evaluator<'_>,
    i: ProcessorId,
    s_members: &[ProcSet],
    uf: &mut UnionFind,
) {
    let (offsets, items) = ev.system.points().buckets(i);
    for b in offsets.windows(2) {
        let mut root = u32::MAX;
        for &idx in &items[b[0] as usize..b[1] as usize] {
            if !s_members[idx as usize].contains(i) {
                continue;
            }
            if root == u32::MAX {
                root = idx;
            } else {
                uf.union(root as usize, idx as usize);
            }
        }
    }
}
