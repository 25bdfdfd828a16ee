//! Reference implementations of the knowledge operators, kept for the
//! differential suites.
//!
//! Production evaluation has one path per operator: the evaluator's
//! hash-consed bitset kernels over batched reachability
//! ([`crate::reach`]). This module keeps direct implementations of the
//! same operators, so the suites can check them bit for bit:
//!
//! * the **recursive evaluator**: one bitset per formula node, with `K_p`
//!   and `B^S_p` as a per-point scan over the system's views, and `D_S`
//!   as a per-point bucketing by the members' exact views (by a
//!   per-point minimum over `Sym(n)` on a quotient);
//! * the **per-set reachability and scope-column builds**, one set and
//!   one thread at a time;
//! * the **formula-iteration gfp** of `X ← E_S(φ ∧ X)` (boxed: `E□_S`),
//!   the Lemma 3.4 definition of `C_S` (`C□_S`), which injects each
//!   iterate into the formula as a point predicate and reports its
//!   iteration count.
//!
//! An [`Oracle`] borrows an [`Evaluator`] for its system and registered
//! families but keeps memos of its own: it never reads or fills the
//! evaluator's node table, its reachability and scope memos, or the
//! [`crate::KnowledgeCache`]. It builds every relation a knowledge
//! operator closes over itself, sharing only the evaluator's leaf
//! loads, temporal folds and final closure steps over a partition it
//! built. A differential assertion therefore never compares a
//! production result with itself. No production code calls this
//! module, so the linker drops it from release binaries.
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
use eba_sim::ViewId;
use std::hash::Hash;
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
                self.distributed_knowledge(*s, &phi)
            }
            Formula::Common(s, inner) => {
                let phi = self.eval(inner);
                let reach = self.reachability(*s);
                ev.close_over(&phi, &reach.points)
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

    /// Shared implementation of `K_p` (with `restrict = None`) and `B^S_p`
    /// (with `restrict = Some(S)`): the result at a point depends only on
    /// `p`'s view there, and is the conjunction of `φ` over all points
    /// where `p` has that view (and, for `B`, belongs to `S`).
    ///
    /// On a quotient a view is replaced by its orbit class, taken over
    /// **every** processor `q` (restricted to `q ∈ S` for `B`): a point is
    /// disqualified when `p`'s view there shares a class with `q`'s view
    /// at some falsifying point. Full-information views encode their
    /// owner, so cross-processor class equality already carries the
    /// witnessing relabeling, which makes the per-class marking answer
    /// the full system's question exactly for symmetric `φ` (DESIGN.md
    /// §4i).
    fn knowledge_like(
        &self,
        p: ProcessorId,
        phi: &Bitset,
        restrict: Option<NonRigidSet>,
    ) -> Bitset {
        let ev = self.ev;
        let classes = ev.classes();
        let key = |v: ViewId| classes.map_or(v.index(), |c| c.class(v) as usize);
        let (num_keys, knowers) = match classes {
            Some(c) => (c.num_classes(), ProcSet::full(ev.n)),
            None => (ev.system.table().len(), ProcSet::singleton(p)),
        };
        let mut key_ok = vec![true; num_keys];
        for run in ev.system.run_ids() {
            for time in Time::upto(ev.system.horizon()) {
                let idx = ev.point_index(run, time);
                if phi.get(idx) {
                    continue;
                }
                for q in knowers.iter() {
                    let in_scope = match restrict {
                        None => true,
                        Some(s) => ev.members(s, run, time).contains(q),
                    };
                    if in_scope {
                        key_ok[key(ev.system.view(run, q, time))] = false;
                    }
                }
            }
        }
        let mut out = Bitset::new_false(ev.num_points);
        for run in ev.system.run_ids() {
            for time in Time::upto(ev.system.horizon()) {
                let idx = ev.point_index(run, time);
                out.set(idx, key_ok[key(ev.system.view(run, p, time))]);
            }
        }
        out
    }

    /// `D_S φ`: at a point, `φ` holds at every point that the members of
    /// `S` there *jointly* cannot distinguish from it — the same members
    /// with the same views. Points are bucketed by `(S(p), members'
    /// views)`; `D` holds iff `φ` holds throughout the bucket. All
    /// `S`-empty points are one bucket, so there `D_S φ` is the
    /// conjunction of `φ` over every `S`-empty point.
    ///
    /// On a quotient the bucket key is a *canonical joint key* per point
    /// instead: the minimum over all relabelings `π` of a slot-ascending
    /// mix of the members' `π`-relabeled view hashes (slot `j` holds
    /// processor `π⁻¹(j)`; non-members contribute a fixed marker). Two
    /// representative points get equal keys exactly when some relabeling
    /// maps one's membership-and-views profile onto the other's, which is
    /// joint indistinguishability in the full system (DESIGN.md §4i).
    fn distributed_knowledge(&self, s: NonRigidSet, phi: &Bitset) -> Bitset {
        use eba_sim::symmetry::{for_each_permuted_hashes, mix};
        let ev = self.ev;
        let s_members = collect_s_members(ev, s);
        let view = |idx: usize, i: ProcessorId| {
            let (run, time) = ev.point_of(idx);
            ev.system.view(run, i, time)
        };
        if ev.classes().is_none() {
            let keys = s_members.iter().enumerate().map(|(idx, members)| {
                let views: Vec<ViewId> = members.iter().map(|i| view(idx, i)).collect();
                (members.bits(), views)
            });
            return conjoin_by_key(phi, keys);
        }
        let mut keys = vec![u128::MAX; ev.num_points];
        for_each_permuted_hashes(ev.system.table(), ev.n, |perm, hashes| {
            let inv = perm.inverse();
            for (idx, members) in s_members.iter().enumerate() {
                let mut h = 3u128;
                for j in 0..ev.n {
                    let q = inv.apply(ProcessorId::new(j));
                    h = if members.contains(q) {
                        mix(h, hashes[view(idx, q).index()])
                    } else {
                        mix(h, u128::MAX - 2)
                    };
                }
                keys[idx] = keys[idx].min(h);
            }
        });
        let keys = keys
            .into_iter()
            .zip(&s_members)
            .map(|(key, m)| (!m.is_empty()).then_some(key));
        conjoin_by_key(phi, keys)
    }

    /// Point-level union-find: two points are linked when some `i ∈ S` at
    /// both has the same view at both. The unions are applied in
    /// processor order, one CSR bucket sweep per processor (on a
    /// quotient, one pass linking points whose in-scope views share an
    /// orbit class).
    fn build_reachability(&self, s: NonRigidSet) -> Reachability {
        let ev = self.ev;
        let s_members = collect_s_members(ev, s);
        let mut uf = UnionFind::new(ev.num_points);
        if let Some(classes) = ev.classes() {
            union_quotient_edges(ev, &s_members, classes, &mut uf);
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

/// `φ` conjoined over the points of equal key: a point's bit is whether
/// `φ` holds at every point whose key equals its own.
fn conjoin_by_key<K: Hash + Eq>(phi: &Bitset, keys: impl Iterator<Item = K>) -> Bitset {
    let mut bucket_of = Vec::with_capacity(phi.len());
    let mut index: FastMap<K, usize> = FastMap::default();
    let mut sat: Vec<bool> = Vec::new();
    for (idx, key) in keys.enumerate() {
        let next = index.len();
        let bucket = *index.entry(key).or_insert(next);
        if bucket == sat.len() {
            sat.push(true);
        }
        sat[bucket] &= phi.get(idx);
        bucket_of.push(bucket);
    }
    let mut out = Bitset::new_false(phi.len());
    for (idx, &bucket) in bucket_of.iter().enumerate() {
        out.set(idx, sat[bucket]);
    }
    out
}

/// The members of `s` at every point, indexed linearly.
fn collect_s_members(ev: &Evaluator<'_>, s: NonRigidSet) -> Vec<ProcSet> {
    let mut s_members = vec![ProcSet::empty(); ev.num_points];
    for run in ev.system.run_ids() {
        for time in Time::upto(ev.system.horizon()) {
            s_members[ev.point_index(run, time)] = ev.members(s, run, time);
        }
    }
    s_members
}

/// The quotient edge rule: points whose in-scope views share an *orbit
/// class* are linked, through the first point seen per class. The
/// partition can be coarser than the full system's components restricted
/// to representatives, but the per-component clean/dirty verdict — all
/// that `C_S`/`C□_S` ever read — agrees for symmetric `φ` (DESIGN.md
/// §4i).
fn union_quotient_edges(
    ev: &Evaluator<'_>,
    s_members: &[ProcSet],
    classes: &ViewClasses,
    uf: &mut UnionFind,
) {
    let store = ev.system.points();
    let mut root = vec![u32::MAX; classes.num_classes()];
    for (idx, members) in s_members.iter().enumerate() {
        for q in members.iter() {
            let c = classes.class(store.column(q)[idx]) as usize;
            if root[c] == u32::MAX {
                root[c] = idx as u32;
            } else {
                uf.union(idx, root[c] as usize);
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use eba_model::{FailureMode, Scenario, Value};
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

    /// The bounded conjunction `⋀_{k=1..depth} E_S^k φ` — the textbook
    /// definition of common knowledge truncated at `depth`. On a finite
    /// system, `C_S φ` equals it at any depth at least the number of
    /// distinct `(i, view)` buckets.
    fn everyone_iterated(
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

    #[test]
    fn gfp_agrees_with_reachability_for_common_knowledge() {
        for system in systems() {
            for phi in formulas() {
                let mut eval = Evaluator::new(&system);
                let via_reach = eval.eval(&phi.clone().common(NonRigidSet::Nonfaulty));
                let (via_gfp, iters) =
                    Oracle::new(&eval).common_by_gfp(NonRigidSet::Nonfaulty, &phi);
                assert!(iters < 50, "gfp failed to converge quickly");
                assert_eq!(
                    *via_reach, via_gfp,
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
                let (via_gfp, _) =
                    Oracle::new(&eval).continual_common_by_gfp(NonRigidSet::Nonfaulty, &phi);
                assert_eq!(
                    *via_reach, via_gfp,
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
            let (exact, _) = Oracle::new(&eval).common_by_gfp(NonRigidSet::Nonfaulty, &phi);
            // E^k must be ⊇ C for every k, and equal for large k.
            for depth in 1..=3 {
                let approx = everyone_iterated(&mut eval, NonRigidSet::Nonfaulty, &phi, depth);
                assert!(exact.is_subset(&approx), "C ⊆ E^{depth} violated");
            }
            let deep = everyone_iterated(&mut eval, NonRigidSet::Nonfaulty, &phi, 64);
            assert_eq!(exact, deep);
        }
    }

    #[test]
    fn gfp_with_empty_set_is_all_true() {
        let system = &systems()[0];
        let mut eval = Evaluator::new(system);
        let empty = eval.register_state_sets(StateSets::empty(3));
        let s = NonRigidSet::NonfaultyAnd(empty);
        let (set, _) = Oracle::new(&eval).continual_common_by_gfp(s, &Formula::False);
        assert!(set.all(), "C□ over an empty nonrigid set must be vacuous");
    }
}
