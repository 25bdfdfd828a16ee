//! Formulas lowered to hash-consed dense-bitset kernels over the columnar
//! point store.
//!
//! A recursive evaluator ([`crate::oracle`]) walks a [`Formula`] tree and
//! materializes one bitset per node, recomputing knowledge closures with
//! a per-point scan. The [`Evaluator`] instead owns a *node table*: one
//! [`Kernel`] per distinct subformula it has seen, numbered in
//! topological order, and one result per node that has run.
//!
//! 1. **Lowering** ([`NodeTable::lower`]) walks a formula children-first
//!    and looks each kernel up in the table. A kernel names its inputs by
//!    node id and a leaf carries its (shallow) formula, so the kernel is
//!    its own hash-cons key and a lookup hashes O(1) words per node.
//!    Structurally equal subformulas — within one formula (`φ ∨ ¬φ`
//!    evaluates `φ` once) or across every formula the evaluator has
//!    seen — are one node; only unseen ones are appended.
//! 2. **Execution** ([`run_pending`]) runs the appended nodes in id
//!    order. `K`/`B`/`E`/`S` share one sparse closure ([`Falsified`])
//!    over the evaluator's [`ViewPartition`]: it marks the view classes
//!    of violating points and clears the precomputed CSR buckets of the
//!    [`eba_sim::PointStore`] (all points sharing one processor's view
//!    are contiguous) of the marked classes. The group operators
//!    `E_S`/`S_S` fold per-processor results with word-level bitset ops
//!    ([`Bitset::and_implication`] / [`Bitset::or_conjunction`]) against
//!    cached per-processor *scope columns*. `C`/`C□`/`D` close over a
//!    partition of the points instead: the reachability components of
//!    `S` for `C_S`/`C□_S`, the joint-view classes of `S` for `D_S`
//!    ([`crate::reach`]). Each partition is built once per knowledge
//!    cache and set, and read from the evaluator's memo or the shared
//!    cache after that. Unreduced and quotiented systems differ only in
//!    the partitions.
//!
//! Every kernel is implemented to be extensionally *identical* to the
//! recursive evaluator — same bits, not just same truth values — and the
//! `Bitset` representation is canonical, so equality is bit-identity.
//! The differential suite in `tests/plan_equivalence.rs` enforces this on
//! random formulas against [`crate::oracle`].
//!
//! Before the first appended kernel runs, every nonrigid set the appended
//! nodes touch is resolved by one [`BatchBuilder`] sweep. Every node keeps
//! its result for the evaluator's lifetime, so the nodes without a result
//! are exactly the ones the last lowering appended, and re-evaluating a
//! formula (or any subformula of one already evaluated) runs no kernel.

use crate::bitset::Bitset;
use crate::eval::Evaluator;
use crate::formula::Formula;
use crate::nonrigid::NonRigidSet;
use crate::reach::BatchBuilder;
use eba_model::fasthash::FastMap;
use eba_model::{ProcSet, ProcessorId};
use eba_sim::symmetry::ViewClasses;
use eba_sim::{PointStore, ViewId};
use std::collections::hash_map::Entry;
use std::sync::Arc;

/// Which knowledge closure a [`Kernel::KnowClose`] computes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) enum KnowKind {
    /// `K_p φ` — knowledge of processor `p`.
    Knows(ProcessorId),
    /// `B^S_p φ` — belief of `p` relative to the nonrigid set `S`.
    Believes(ProcessorId, NonRigidSet),
    /// `E_S φ` — every member of `S` believes `φ`.
    Everyone(NonRigidSet),
    /// `S_S φ` — some member of `S` believes `φ`.
    Someone(NonRigidSet),
    /// `D_S φ` — distributed knowledge of `S`.
    Distributed(NonRigidSet),
}

/// Which per-run temporal fold a [`Kernel::Temporal`] computes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) enum TemporalOp {
    /// `□φ` — at every time from now on.
    Always,
    /// `◇φ` — at some time from now on.
    Eventually,
    /// `□̄φ` — at every time of the run.
    AlwaysAll,
    /// `◇̄φ` — at some time of the run.
    SometimeAll,
}

/// One node of the node table, and its hash-cons key. Inputs are ids of
/// earlier nodes (the table is in topological order by construction).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) enum Kernel {
    /// Evaluate a leaf formula (`True`, `∃v`, `init`, registered
    /// predicates, …) directly into a bitset.
    Load(Formula),
    /// Pointwise complement of the input.
    Not(u32),
    /// Pointwise conjunction of the inputs (empty = all-true).
    And(Vec<u32>),
    /// Pointwise disjunction of the inputs (empty = all-false).
    Or(Vec<u32>),
    /// A knowledge closure over the CSR bucket partition of the point
    /// store; see [`KnowKind`].
    KnowClose {
        /// Which closure to compute.
        kind: KnowKind,
        /// The node holding `φ`.
        input: u32,
    },
    /// `C_S φ` (or `C□_S φ` when `continual`) via the union-find
    /// reachability components of `S`.
    ReachClose {
        /// The nonrigid set `S`.
        set: NonRigidSet,
        /// `false` computes `C_S`, `true` computes `C□_S`.
        continual: bool,
        /// The node holding `φ`.
        input: u32,
    },
    /// A per-run temporal fold; see [`TemporalOp`].
    Temporal {
        /// Which fold to compute.
        op: TemporalOp,
        /// The node holding `φ`.
        input: u32,
    },
}

/// The hash-consed nodes an [`Evaluator`] has lowered, in id order, and
/// the result of every node that has run; see the module docs.
#[derive(Default)]
pub(crate) struct NodeTable {
    ids: FastMap<Kernel, u32>,
    kernels: Vec<Kernel>,
    results: Vec<Arc<Bitset>>,
}

impl NodeTable {
    /// Interns `f` children-first, appending a node for every subformula
    /// not seen before, and returns the id of the node computing `f`.
    pub(crate) fn lower(&mut self, f: &Formula) -> u32 {
        let know = |kind, input| Kernel::KnowClose { kind, input };
        let reach = |set, continual, input| Kernel::ReachClose {
            set,
            continual,
            input,
        };
        let temporal = |op, input| Kernel::Temporal { op, input };
        let kernel = match f {
            Formula::True
            | Formula::False
            | Formula::Exists(_)
            | Formula::Initial(..)
            | Formula::Nonfaulty(_)
            | Formula::StateIn(..)
            | Formula::RunPred(_)
            | Formula::PointPred(_) => Kernel::Load(f.clone()),
            Formula::Not(inner) => Kernel::Not(self.lower(inner)),
            Formula::And(fs) => Kernel::And(fs.iter().map(|g| self.lower(g)).collect()),
            Formula::Or(fs) => Kernel::Or(fs.iter().map(|g| self.lower(g)).collect()),
            Formula::Knows(p, inner) => know(KnowKind::Knows(*p), self.lower(inner)),
            Formula::Believes(p, s, inner) => know(KnowKind::Believes(*p, *s), self.lower(inner)),
            Formula::Everyone(s, inner) => know(KnowKind::Everyone(*s), self.lower(inner)),
            Formula::Someone(s, inner) => know(KnowKind::Someone(*s), self.lower(inner)),
            Formula::Distributed(s, inner) => know(KnowKind::Distributed(*s), self.lower(inner)),
            Formula::Common(s, inner) => reach(*s, false, self.lower(inner)),
            Formula::ContinualCommon(s, inner) => reach(*s, true, self.lower(inner)),
            Formula::Always(inner) => temporal(TemporalOp::Always, self.lower(inner)),
            Formula::Eventually(inner) => temporal(TemporalOp::Eventually, self.lower(inner)),
            Formula::AlwaysAll(inner) => temporal(TemporalOp::AlwaysAll, self.lower(inner)),
            Formula::SometimeAll(inner) => temporal(TemporalOp::SometimeAll, self.lower(inner)),
        };
        match self.ids.entry(kernel) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let id = u32::try_from(self.kernels.len()).expect("node table exceeds u32 ids");
                self.kernels.push(e.key().clone());
                e.insert(id);
                id
            }
        }
    }

    /// The result of a node that has run.
    pub(crate) fn result(&self, id: u32) -> Arc<Bitset> {
        Arc::clone(&self.results[id as usize])
    }
}

/// Runs every node without a result, in id order, after one
/// [`BatchBuilder`] sweep has resolved each nonrigid set they read —
/// reachability for `ReachClose`, scope columns for scoped `KnowClose`.
/// Sets already memoized cost one staged lookup each; the rest share a
/// single traversal of the point store instead of one per set.
pub(crate) fn run_pending(eval: &mut Evaluator<'_>) {
    let first = eval.nodes.results.len();
    let mut batch = BatchBuilder::new();
    for kernel in &eval.nodes.kernels[first..] {
        match kernel {
            Kernel::ReachClose { set, .. } => batch.request_reachability(*set),
            Kernel::KnowClose {
                kind: KnowKind::Believes(_, s) | KnowKind::Everyone(s) | KnowKind::Someone(s),
                ..
            } => batch.request_scopes(*s),
            _ => {}
        }
    }
    if !batch.is_empty() {
        batch.run(eval);
    }
    for id in first..eval.nodes.kernels.len() {
        let kernel = eval.nodes.kernels[id].clone();
        let bits = run_kernel(eval, &kernel);
        eval.nodes.results.push(Arc::new(bits));
    }
}

fn run_kernel(eval: &mut Evaluator<'_>, kernel: &Kernel) -> Bitset {
    match kernel {
        Kernel::Load(leaf) => eval.load_leaf(leaf),
        Kernel::Not(a) => {
            let mut out = Bitset::clone(&eval.nodes.results[*a as usize]);
            out.invert();
            out
        }
        Kernel::And(inputs) => {
            let mut out = Bitset::new_true(eval.num_points);
            for &id in inputs {
                out &= eval.nodes.results[id as usize].as_ref();
            }
            out
        }
        Kernel::Or(inputs) => {
            let mut out = Bitset::new_false(eval.num_points);
            for &id in inputs {
                out |= eval.nodes.results[id as usize].as_ref();
            }
            out
        }
        Kernel::KnowClose { kind, input } => {
            let phi = eval.nodes.result(*input);
            know_close_kind(eval, *kind, &phi)
        }
        Kernel::ReachClose {
            set,
            continual,
            input,
        } => {
            let phi = eval.nodes.result(*input);
            let reach = eval.reachability(*set);
            if *continual {
                eval.continual_common_from_reach(&phi, &reach)
            } else {
                eval.close_over(&phi, &reach.points)
            }
        }
        Kernel::Temporal { op, input } => {
            let phi = &eval.nodes.results[*input as usize];
            match op {
                TemporalOp::Always => eval.always_of(phi),
                TemporalOp::Eventually => eval.eventually_of(phi),
                TemporalOp::AlwaysAll => eval.always_all_of(phi),
                TemporalOp::SometimeAll => eval.sometime_all_of(phi),
            }
        }
    }
}

fn know_close_kind(eval: &mut Evaluator<'_>, kind: KnowKind, phi: &Bitset) -> Bitset {
    match kind {
        KnowKind::Knows(p) => Falsified::marked(eval, eval.orbit(p), |_| phi, None).believes(p),
        KnowKind::Believes(p, s) => {
            let scopes = eval.scope_columns(s);
            Falsified::marked(eval, eval.orbit(p), |_| phi, Some(&scopes)).believes(p)
        }
        KnowKind::Everyone(s) => {
            let scopes = eval.scope_columns(s);
            let all = ProcSet::full(eval.n);
            let falsified = Falsified::marked(eval, all, |_| phi, Some(&scopes));
            let mut out = Bitset::new_true(eval.num_points);
            for p in all.iter() {
                out.and_implication(&scopes[p.index()], &falsified.believes(p));
            }
            out
        }
        KnowKind::Someone(s) => {
            let scopes = eval.scope_columns(s);
            let all = ProcSet::full(eval.n);
            let falsified = Falsified::marked(eval, all, |_| phi, Some(&scopes));
            let mut out = Bitset::new_false(eval.num_points);
            for p in all.iter() {
                out.or_conjunction(&scopes[p.index()], &falsified.believes(p));
            }
            out
        }
        KnowKind::Distributed(s) => {
            let classes = eval.joint_view_partition(s);
            eval.close_over(phi, &classes)
        }
    }
}

/// The view classes falsified by violating points, and the one sparse
/// closure `K`/`B`/`E`/`S` share (DESIGN.md §4r).
///
/// `K_p φ` (or `B^S_p φ`) holds at a point iff no point whose view (of an
/// in-scope processor) lies in the class of `p`'s view violates `φ`. The
/// classes come from the evaluator's [`ViewPartition`]: one view each on
/// an unreduced system, the `Sym(n)` orbit classes on a quotient, where
/// processor `q`'s view at a falsifying point carries the witnessing
/// relabeling onto `p`'s. [`Falsified::marked`] walks only violation
/// sets' bits, and [`Falsified::believes`] clears only the buckets of
/// marked classes, so a closure costs `O(words + violations + |cleared
/// buckets|)`. Results are bit-identical to the per-point scans of the
/// reference evaluator ([`crate::oracle`]).
pub(crate) struct Falsified<'e> {
    store: &'e PointStore,
    partition: ViewPartition<'e>,
    num_points: usize,
    marked: Vec<bool>,
    /// Per marking processor, the classes its violations marked first.
    marked_by: Vec<Vec<u32>>,
}

impl<'e> Falsified<'e> {
    /// Marks, for every processor `q` of `procs`, the class of `q`'s view
    /// at every point where `q` is in scope (its column of `scopes`;
    /// everywhere without them) and `phi_of(q)` fails.
    pub(crate) fn marked<'f>(
        eval: &Evaluator<'e>,
        procs: ProcSet,
        phi_of: impl Fn(ProcessorId) -> &'f Bitset,
        scopes: Option<&[Bitset]>,
    ) -> Self {
        let partition = eval.partition();
        let store = eval.system.points();
        let mut marked = vec![false; partition.num_classes()];
        let mut marked_by = vec![Vec::new(); eval.n];
        for q in procs.iter() {
            let mut viol = match scopes {
                Some(scopes) => scopes[q.index()].clone(),
                None => Bitset::new_true(eval.num_points),
            };
            viol.and_not(phi_of(q));
            let column = store.column(q);
            for pt in viol.ones() {
                let c = partition.class(column[pt]);
                if !marked[c] {
                    marked[c] = true;
                    marked_by[q.index()].push(c as u32);
                }
            }
        }
        Falsified {
            store,
            partition,
            num_points: eval.num_points,
            marked,
            marked_by,
        }
    }

    /// Whether no marked class holds view `v`.
    pub(crate) fn holds(&self, v: ViewId) -> bool {
        !self.marked[self.partition.class(v)]
    }

    /// The points where `p`'s view lies in no marked class: all-true with
    /// the buckets of `p`'s views in marked classes cleared. Only the
    /// processors of `p`'s orbit can have marked a class holding one of
    /// `p`'s views.
    pub(crate) fn believes(&self, p: ProcessorId) -> Bitset {
        let mut out = Bitset::new_true(self.num_points);
        for q in self.partition.orbit(p, self.marked_by.len()).iter() {
            for &c in &self.marked_by[q.index()] {
                self.partition.for_each_member(c as usize, p, |v| {
                    for &pt in self.store.bucket(p, v) {
                        out.set(pt as usize, false);
                    }
                });
            }
        }
        out
    }
}

/// The partition of the interned views the knowledge kernels close over:
/// every view its own class on an unreduced system, the orbit classes of
/// [`ViewClasses`] on a quotient. Views encode their owner, so a class of
/// one view is falsified only by its owner's violations, while an orbit
/// class spans owners.
#[derive(Clone, Copy)]
pub(crate) struct ViewPartition<'a> {
    classes: Option<&'a ViewClasses>,
    num_views: usize,
}

impl<'a> ViewPartition<'a> {
    pub(crate) fn new(classes: Option<&'a ViewClasses>, num_views: usize) -> Self {
        ViewPartition { classes, num_views }
    }

    /// Whether a class can hold views of more than one owner, i.e. the
    /// partition is a quotient's.
    pub(crate) fn spans_owners(self) -> bool {
        self.classes.is_some()
    }

    /// The owners whose views can share a class with `p`'s: every one of
    /// the `n` processors when classes span owners, `p` alone otherwise.
    pub(crate) fn orbit(self, p: ProcessorId, n: usize) -> ProcSet {
        if self.spans_owners() {
            ProcSet::full(n)
        } else {
            ProcSet::singleton(p)
        }
    }

    pub(crate) fn num_classes(self) -> usize {
        self.classes
            .map_or(self.num_views, ViewClasses::num_classes)
    }

    pub(crate) fn class(self, v: ViewId) -> usize {
        self.classes.map_or(v.index(), |c| c.class(v) as usize)
    }

    /// Calls `f` on the views of class `c` that `p` may own. A class of
    /// one view passes that view whoever owns it; its bucket for any
    /// other processor is empty.
    fn for_each_member(self, c: usize, p: ProcessorId, mut f: impl FnMut(ViewId)) {
        match self.classes {
            Some(classes) => classes.members(c, p).iter().for_each(|&v| f(v)),
            None => f(ViewId::from_index(c)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StateSets;
    use eba_model::{FailureMode, Scenario, Value};
    use eba_sim::GeneratedSystem;

    fn p(i: usize) -> ProcessorId {
        ProcessorId::new(i)
    }

    fn crash_system() -> GeneratedSystem {
        let scenario = Scenario::new(3, 1, FailureMode::Crash, 2).unwrap();
        GeneratedSystem::exhaustive(&scenario)
    }

    fn sample_formulas(eval: &mut Evaluator<'_>) -> Vec<Formula> {
        let seen_zero = StateSets::with_value_seen(eval.system().table(), 3, Value::Zero);
        let id = eval.register_state_sets(seen_zero);
        let s = NonRigidSet::NonfaultyAnd(id);
        let phi = Formula::exists(Value::Zero);
        vec![
            phi.clone(),
            phi.clone().not().or(phi.clone()),
            phi.clone().known_by(p(0)).and(phi.clone().known_by(p(1))),
            phi.clone().believed_by(p(2), NonRigidSet::Nonfaulty),
            phi.clone().everyone(s),
            phi.clone().someone(s),
            phi.clone().distributed(NonRigidSet::Nonfaulty),
            phi.clone().common(NonRigidSet::Nonfaulty),
            phi.clone().continual_common(s),
            phi.clone().always().eventually(),
            phi.clone().always_all().or(phi.sometime_all().not()),
        ]
    }

    #[test]
    fn plans_match_the_recursive_oracle_on_sample_formulas() {
        let system = crash_system();
        let mut compiled = Evaluator::new(&system);
        let mut oracle_eval = Evaluator::new(&system);
        let formulas = sample_formulas(&mut compiled);
        // The same registrations in the same order, so ids line up.
        let _ = sample_formulas(&mut oracle_eval);
        let mut oracle = crate::oracle::Oracle::new(&oracle_eval);
        for f in formulas {
            let via_plan = compiled.eval(&f);
            let via_rec = oracle.eval(&f);
            assert_eq!(*via_plan, *via_rec, "plan and oracle disagree on {f}");
        }
    }

    #[test]
    fn compilation_deduplicates_shared_subformulas() {
        let system = crash_system();
        let mut eval = Evaluator::new(&system);
        let phi = Formula::exists(Value::Zero).known_by(p(0));
        // (K φ) ∧ ¬(K φ) shares the K φ node *and* its leaf.
        let _ = eval.eval(&phi.clone().and(phi.not()));
        let kernels = &eval.nodes.kernels;
        assert_eq!(kernels.len(), 4, "expected leaf, K, ¬, ∧");
        assert!(matches!(kernels[0], Kernel::Load(_)));
        assert!(matches!(kernels[3], Kernel::And(_)));
    }

    #[test]
    fn evaluated_nodes_are_never_lowered_or_run_again() {
        let system = crash_system();
        let mut eval = Evaluator::new(&system);
        let common = Formula::exists(Value::Zero).common(NonRigidSet::Nonfaulty);
        let first = eval.eval(&common);
        let (nodes, results) = (eval.nodes.kernels.len(), eval.nodes.results.len());
        assert_eq!((nodes, results), (2, 2), "expected leaf and C");
        // Again: no node appended, no kernel run, the same result.
        let again = eval.eval(&common);
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(eval.nodes.kernels.len(), nodes);
        assert_eq!(eval.nodes.results.len(), results);
        // C(E0) ∧ E1 reuses C(E0) and appends only the E1 leaf and the ∧.
        let _ = eval.eval(&common.and(Formula::exists(Value::One)));
        assert_eq!(eval.nodes.kernels.len(), nodes + 2);
        assert_eq!(eval.nodes.results.len(), results + 2);
    }

    #[test]
    fn scope_columns_match_pointwise_membership() {
        let system = crash_system();
        let mut eval = Evaluator::new(&system);
        let id =
            eval.register_state_sets(StateSets::with_value_seen(system.table(), 3, Value::One));
        for s in [
            NonRigidSet::Everyone,
            NonRigidSet::Nonfaulty,
            NonRigidSet::NonfaultyAnd(id),
        ] {
            let scopes = eval.scope_columns(s);
            for i in 0..3 {
                for idx in 0..eval.num_points() {
                    let (run, time) = eval.point_of(idx);
                    assert_eq!(
                        scopes[i].get(idx),
                        eval.members(s, run, time).contains(p(i)),
                        "scope column of processor {i} at point {idx} under {s:?}"
                    );
                }
            }
        }
    }
}
