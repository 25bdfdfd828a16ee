//! Compiled evaluation plans: formulas lowered to a DAG of dense-bitset
//! kernels executed over the columnar point store.
//!
//! A recursive evaluator ([`crate::oracle`]) walks a [`Formula`] tree and
//! materializes one bitset per node, recomputing knowledge closures with
//! a per-point scan. A [`FormulaPlan`] performs the same computation as a
//! flat program, and is the only way [`Evaluator`] evaluates:
//!
//! 1. **Lowering** ([`FormulaPlan::compile`]) turns the tree into a
//!    post-order list of [`Kernel`]s, *deduplicating* structurally equal
//!    subformulas — `φ ∨ ¬φ` evaluates `φ` once — so the plan is a DAG
//!    rather than a tree.
//! 2. **Execution** ([`Evaluator::eval_plan`](crate::Evaluator::eval_plan))
//!    runs the kernels in order. Knowledge kernels walk the precomputed
//!    CSR bucket partitions of the [`eba_sim::PointStore`] (all points
//!    sharing one processor's view are contiguous), and the group
//!    operators `E_S`/`S_S` fold per-processor results with word-level
//!    bitset ops ([`Bitset::and_implication`] / [`Bitset::or_conjunction`])
//!    against cached per-processor *scope columns*.
//! 3. **Fixpoints** run as the [`Kernel::GfpIter`] loop: `X ← E_S(φ ∧ X)`
//!    iterated natively on bitsets, with no per-iteration formula
//!    construction, hashing, or point-predicate registration. This is
//!    what [`crate::fixpoint`] runs.
//!
//! Every kernel is implemented to be extensionally *identical* to the
//! recursive evaluator — same bits, not just same truth values — and the
//! `Bitset` representation is canonical, so equality is bit-identity.
//! The differential suite in `tests/plan_equivalence.rs` enforces this on
//! random formulas against [`crate::oracle`].
//!
//! Before the first kernel runs, every nonrigid set the plan touches is
//! resolved by one [`crate::reach::BatchBuilder`] sweep. Plan results are
//! recorded in the evaluator's formula-keyed memo for the nodes worth
//! remembering — leaves, knowledge/reachability closures, temporal folds,
//! and the root. Interior `Not`/`And`/`Or` nodes are *not* memoized:
//! their kernels are a handful of word ops, cheaper than hashing their
//! (large) formulas as cache keys. The other exception is `GfpIter`: its
//! result provably equals `C_S φ` / `C□_S φ`, but caching it under that
//! key would let the fixpoint result mask the reachability-based one (or
//! vice versa) and silently weaken the tests that compare them, so gfp
//! nodes are never memoized.

use crate::bitset::Bitset;
use crate::eval::Evaluator;
use crate::formula::Formula;
use crate::nonrigid::NonRigidSet;
use crate::reach::BatchBuilder;
use eba_model::fasthash::FastMap;
use eba_model::ProcessorId;
use std::sync::Arc;

/// Which knowledge closure a [`Kernel::KnowClose`] computes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum KnowKind {
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
pub enum TemporalOp {
    /// `□φ` — at every time from now on.
    Always,
    /// `◇φ` — at some time from now on.
    Eventually,
    /// `□̄φ` — at every time of the run.
    AlwaysAll,
    /// `◇̄φ` — at some time of the run.
    SometimeAll,
}

/// One node of a compiled plan. Inputs are indices of earlier nodes
/// (plans are in topological order by construction).
#[derive(Clone, Debug)]
pub enum Kernel {
    /// Evaluate a leaf formula (`True`, `∃v`, `init`, registered
    /// predicates, …) directly into a bitset.
    Load,
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
    /// The greatest-fixed-point loop `X ← E_S(φ ∧ X)` (boxed:
    /// `X ← □̄ E_S(φ ∧ X)`) from `X = True`, run natively on bitsets.
    GfpIter {
        /// The nonrigid set `S`.
        set: NonRigidSet,
        /// Whether each step is boxed (`E□_S`, yielding `C□_S`).
        boxed: bool,
        /// The node holding `φ`.
        input: u32,
    },
}

/// A formula compiled to a deduplicated DAG of bitset kernels; see the
/// module docs.
///
/// # Example
///
/// ```
/// use eba_kripke::{Evaluator, Formula, FormulaPlan};
/// use eba_model::{FailureMode, Scenario, Value};
/// use eba_sim::GeneratedSystem;
///
/// # fn main() -> Result<(), eba_model::ModelError> {
/// let scenario = Scenario::new(3, 1, FailureMode::Crash, 2)?;
/// let system = GeneratedSystem::exhaustive(&scenario);
/// let phi = Formula::exists(Value::Zero);
/// // φ ∨ ¬φ: three kernels (φ is shared), not four.
/// let plan = FormulaPlan::compile(&phi.clone().or(phi.not()));
/// assert_eq!(plan.len(), 3);
/// let mut eval = Evaluator::new(&system);
/// assert!(eval.eval_plan(&plan).all());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct FormulaPlan {
    kernels: Vec<Kernel>,
    /// Per node: the subformula it computes, used as the evaluator's memo
    /// key — or `None` for nodes that skip the memo (cheap word-level
    /// boolean ops, and gfp nodes which must never be memoized).
    formulas: Vec<Option<Formula>>,
}

/// The structural identity of a plan node: its operator plus the ids of
/// its already-lowered inputs. Keying the compile-time memo on this
/// instead of the `Formula` makes dedup `O(1)` hashing per node (child
/// ids, not whole subtrees); since leaves are keyed by their (shallow)
/// formula, equal keys coincide with structurally equal subformulas.
#[derive(PartialEq, Eq, Hash)]
enum NodeKey {
    Leaf(Formula),
    Not(u32),
    And(Vec<u32>),
    Or(Vec<u32>),
    Know(KnowKind, u32),
    Reach(NonRigidSet, bool, u32),
    Temporal(TemporalOp, u32),
}

impl FormulaPlan {
    /// Lowers a formula into a plan whose last node computes it.
    #[must_use]
    pub fn compile(root: &Formula) -> Self {
        let mut plan = FormulaPlan {
            kernels: Vec::new(),
            formulas: Vec::new(),
        };
        let mut memo = FastMap::default();
        let root_id = plan.lower(root, &mut memo) as usize;
        debug_assert_eq!(root_id + 1, plan.kernels.len());
        // The root always participates in the evaluator's memo, even when
        // it is a boolean node, so re-evaluating the same formula hits
        // the cache instead of re-running the plan.
        if plan.formulas[root_id].is_none() {
            plan.formulas[root_id] = Some(root.clone());
        }
        plan
    }

    /// Lowers `φ` and appends a [`Kernel::GfpIter`] root computing the
    /// greatest fixed point of `X ← E_S(φ ∧ X)` (boxed: `E□_S`) — that
    /// is, `C_S φ` (`C□_S φ`) by iteration rather than reachability.
    #[must_use]
    pub fn compile_gfp(s: NonRigidSet, phi: &Formula, boxed: bool) -> Self {
        let mut plan = FormulaPlan {
            kernels: Vec::new(),
            formulas: Vec::new(),
        };
        let mut memo = FastMap::default();
        let input = plan.lower(phi, &mut memo);
        plan.kernels.push(Kernel::GfpIter {
            set: s,
            boxed,
            input,
        });
        plan.formulas.push(None);
        plan
    }

    /// Number of kernels (deduplicated nodes) in the plan.
    #[must_use]
    pub fn len(&self) -> usize {
        self.kernels.len()
    }

    /// Whether the plan has no kernels (never true for compiled plans).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.kernels.is_empty()
    }

    /// The kernels in execution (topological) order; the last is the
    /// root.
    #[must_use]
    pub fn kernels(&self) -> &[Kernel] {
        &self.kernels
    }

    fn lower(&mut self, f: &Formula, memo: &mut FastMap<NodeKey, u32>) -> u32 {
        // Children first, so the key is over already-deduplicated ids.
        // `memoize` marks nodes that participate in the evaluator's
        // formula-keyed result cache (see the module docs).
        let (key, memoize) = match f {
            Formula::True
            | Formula::False
            | Formula::Exists(_)
            | Formula::Initial(..)
            | Formula::Nonfaulty(_)
            | Formula::StateIn(..)
            | Formula::RunPred(_)
            | Formula::PointPred(_) => (NodeKey::Leaf(f.clone()), true),
            Formula::Not(inner) => (NodeKey::Not(self.lower(inner, memo)), false),
            Formula::And(fs) => (
                NodeKey::And(fs.iter().map(|g| self.lower(g, memo)).collect()),
                false,
            ),
            Formula::Or(fs) => (
                NodeKey::Or(fs.iter().map(|g| self.lower(g, memo)).collect()),
                false,
            ),
            Formula::Knows(p, inner) => (
                NodeKey::Know(KnowKind::Knows(*p), self.lower(inner, memo)),
                true,
            ),
            Formula::Believes(p, s, inner) => (
                NodeKey::Know(KnowKind::Believes(*p, *s), self.lower(inner, memo)),
                true,
            ),
            Formula::Everyone(s, inner) => (
                NodeKey::Know(KnowKind::Everyone(*s), self.lower(inner, memo)),
                true,
            ),
            Formula::Someone(s, inner) => (
                NodeKey::Know(KnowKind::Someone(*s), self.lower(inner, memo)),
                true,
            ),
            Formula::Distributed(s, inner) => (
                NodeKey::Know(KnowKind::Distributed(*s), self.lower(inner, memo)),
                true,
            ),
            Formula::Common(s, inner) => (NodeKey::Reach(*s, false, self.lower(inner, memo)), true),
            Formula::ContinualCommon(s, inner) => {
                (NodeKey::Reach(*s, true, self.lower(inner, memo)), true)
            }
            Formula::Always(inner) => (
                NodeKey::Temporal(TemporalOp::Always, self.lower(inner, memo)),
                true,
            ),
            Formula::Eventually(inner) => (
                NodeKey::Temporal(TemporalOp::Eventually, self.lower(inner, memo)),
                true,
            ),
            Formula::AlwaysAll(inner) => (
                NodeKey::Temporal(TemporalOp::AlwaysAll, self.lower(inner, memo)),
                true,
            ),
            Formula::SometimeAll(inner) => (
                NodeKey::Temporal(TemporalOp::SometimeAll, self.lower(inner, memo)),
                true,
            ),
        };
        if let Some(&id) = memo.get(&key) {
            return id;
        }
        let kernel = match &key {
            NodeKey::Leaf(_) => Kernel::Load,
            NodeKey::Not(a) => Kernel::Not(*a),
            NodeKey::And(ids) => Kernel::And(ids.clone()),
            NodeKey::Or(ids) => Kernel::Or(ids.clone()),
            NodeKey::Know(kind, input) => Kernel::KnowClose {
                kind: *kind,
                input: *input,
            },
            NodeKey::Reach(set, continual, input) => Kernel::ReachClose {
                set: *set,
                continual: *continual,
                input: *input,
            },
            NodeKey::Temporal(op, input) => Kernel::Temporal {
                op: *op,
                input: *input,
            },
        };
        let id = u32::try_from(self.kernels.len()).expect("plan larger than the formula");
        self.kernels.push(kernel);
        self.formulas.push(memoize.then(|| f.clone()));
        memo.insert(key, id);
        id
    }
}

/// Executes a plan on an evaluator, serving and filling the evaluator's
/// formula-keyed memo per node; returns the root's extension.
pub(crate) fn execute(eval: &mut Evaluator<'_>, plan: &FormulaPlan) -> Arc<Bitset> {
    let mut batch = BatchBuilder::new();
    collect_plan_sets(plan, &mut batch);
    if !batch.is_empty() {
        batch.run(eval);
    }
    let mut results: Vec<Option<Arc<Bitset>>> = vec![None; plan.kernels.len()];
    for i in 0..plan.kernels.len() {
        if let Some(f) = &plan.formulas[i] {
            if let Some(cached) = eval.cache.get(f) {
                results[i] = Some(Arc::clone(cached));
                continue;
            }
        }
        let bits = run_kernel(eval, plan, i, &results);
        let arc = Arc::new(bits);
        if let Some(f) = &plan.formulas[i] {
            eval.cache.insert(f.clone(), Arc::clone(&arc));
        }
        results[i] = Some(arc);
    }
    results
        .pop()
        .flatten()
        .expect("compiled plans have at least one kernel")
}

/// Scans a plan's kernels for every nonrigid set they will resolve —
/// reachability for `ReachClose`, scope columns for scoped `KnowClose`
/// and `GfpIter` — and adds the requests to `batch`, so one
/// [`BatchBuilder`] sweep serves the whole plan before execution
/// starts. Sets already memoized cost one staged lookup each; the rest
/// share a single traversal of the point store instead of one per set.
fn collect_plan_sets(plan: &FormulaPlan, batch: &mut BatchBuilder) {
    for kernel in &plan.kernels {
        match kernel {
            Kernel::ReachClose { set, .. } => batch.request_reachability(*set),
            Kernel::KnowClose { kind, .. } => match kind {
                KnowKind::Believes(_, s) | KnowKind::Everyone(s) | KnowKind::Someone(s) => {
                    batch.request_scopes(*s);
                }
                KnowKind::Knows(_) | KnowKind::Distributed(_) => {}
            },
            Kernel::GfpIter { set, .. } => batch.request_scopes(*set),
            Kernel::Load
            | Kernel::Not(_)
            | Kernel::And(_)
            | Kernel::Or(_)
            | Kernel::Temporal { .. } => {}
        }
    }
}

fn run_kernel(
    eval: &mut Evaluator<'_>,
    plan: &FormulaPlan,
    i: usize,
    results: &[Option<Arc<Bitset>>],
) -> Bitset {
    let arg = |id: &u32| -> Arc<Bitset> {
        Arc::clone(
            results[*id as usize]
                .as_ref()
                .expect("plan inputs precede their consumers"),
        )
    };
    match &plan.kernels[i] {
        Kernel::Load => {
            let f = plan.formulas[i]
                .as_ref()
                .expect("Load kernels always carry their leaf formula");
            eval.load_leaf(f)
        }
        Kernel::Not(a) => {
            let mut out = (*arg(a)).clone();
            out.invert();
            out
        }
        Kernel::And(inputs) => {
            let mut out = Bitset::new_true(eval.num_points);
            for id in inputs {
                out &= &arg(id);
            }
            out
        }
        Kernel::Or(inputs) => {
            let mut out = Bitset::new_false(eval.num_points);
            for id in inputs {
                out |= &arg(id);
            }
            out
        }
        Kernel::KnowClose { kind, input } => {
            let phi = arg(input);
            know_close_kind(eval, *kind, &phi)
        }
        Kernel::ReachClose {
            set,
            continual,
            input,
        } => {
            let phi = arg(input);
            let reach = eval.reachability(*set);
            if *continual {
                eval.continual_common_from_reach(&phi, &reach)
            } else {
                eval.common_from_reach(&phi, &reach)
            }
        }
        Kernel::Temporal { op, input } => {
            let phi = arg(input);
            match op {
                TemporalOp::Always => eval.always_of(&phi),
                TemporalOp::Eventually => eval.eventually_of(&phi),
                TemporalOp::AlwaysAll => eval.always_all_of(&phi),
                TemporalOp::SometimeAll => eval.sometime_all_of(&phi),
            }
        }
        Kernel::GfpIter { set, boxed, input } => {
            let phi = arg(input);
            gfp_over(eval, *set, &phi, *boxed).0
        }
    }
}

/// `C_S φ` / `C□_S φ` by native gfp iteration; the engine behind
/// [`crate::fixpoint`]'s entry points.
///
/// Returns the satisfaction bitset and the iteration count (including
/// the final confirming pass) — identical to the formula-iteration
/// reference ([`crate::oracle`]) for both.
pub(crate) fn gfp(
    eval: &mut Evaluator<'_>,
    s: NonRigidSet,
    phi: &Formula,
    boxed: bool,
) -> (Bitset, usize) {
    // One batched sweep covers both the iteration's own scope columns
    // and every set `φ`'s plan will resolve.
    let plan = FormulaPlan::compile(phi);
    let mut batch = BatchBuilder::new();
    batch.request_scopes(s);
    collect_plan_sets(&plan, &mut batch);
    batch.run(eval);
    let phi_bits = eval.eval_plan(&plan);
    gfp_over(eval, s, &phi_bits, boxed)
}

fn gfp_over(
    eval: &mut Evaluator<'_>,
    s: NonRigidSet,
    phi_bits: &Bitset,
    boxed: bool,
) -> (Bitset, usize) {
    let scopes = eval.scope_columns(s);
    let classes = eval.classes();
    let mut current = Bitset::new_true(eval.num_points);
    let mut iterations = 0;
    loop {
        iterations += 1;
        let mut conj = phi_bits.clone();
        conj &= &current;
        let mut next = Bitset::new_true(eval.num_points);
        if let Some(classes) = classes {
            // Orbit twist: the falsified classes of this iterate are
            // collected once across all processors and projected per
            // processor — the same `E_S` step the unreduced loop takes,
            // evaluated on representatives (DESIGN.md §4i). Iteration
            // counts agree with the unreduced loop because each iterate
            // is a symmetric set, determined by its restriction to
            // representatives.
            let class_ok = eval.class_ok_scoped(&conj, &scopes, classes);
            for p in ProcessorId::all(eval.n) {
                let believes = eval.project_class_ok(p, &class_ok, classes);
                next.and_implication(&scopes[p.index()], &believes);
            }
        } else {
            for p in ProcessorId::all(eval.n) {
                let believes = know_close(eval, p, &conj, Some(&scopes[p.index()]));
                next.and_implication(&scopes[p.index()], &believes);
            }
        }
        if boxed {
            next = eval.always_all_of(&next);
        }
        if next == current {
            return (current, iterations);
        }
        current = next;
    }
}

/// The orbit twist of [`know_close_kind`]: every closure goes through a
/// per-class verdict shared across processors (see
/// `Evaluator::class_ok_scoped`), so the bucket sweep of [`know_close`]
/// is replaced by class projection. Results are bit-identical to the
/// quotient kernels of the recursive evaluator ([`crate::oracle`]).
fn know_close_kind_quotient(
    eval: &mut Evaluator<'_>,
    kind: KnowKind,
    phi: &Bitset,
    classes: &eba_sim::symmetry::ViewClasses,
) -> Bitset {
    match kind {
        KnowKind::Knows(p) => {
            let class_ok = eval.class_ok_unscoped(phi, classes);
            eval.project_class_ok(p, &class_ok, classes)
        }
        KnowKind::Believes(p, s) => {
            let scopes = eval.scope_columns(s);
            let class_ok = eval.class_ok_scoped(phi, &scopes, classes);
            eval.project_class_ok(p, &class_ok, classes)
        }
        KnowKind::Everyone(s) => {
            let scopes = eval.scope_columns(s);
            let class_ok = eval.class_ok_scoped(phi, &scopes, classes);
            let mut out = Bitset::new_true(eval.num_points);
            for p in ProcessorId::all(eval.n) {
                let believes = eval.project_class_ok(p, &class_ok, classes);
                out.and_implication(&scopes[p.index()], &believes);
            }
            out
        }
        KnowKind::Someone(s) => {
            let scopes = eval.scope_columns(s);
            let class_ok = eval.class_ok_scoped(phi, &scopes, classes);
            let mut out = Bitset::new_false(eval.num_points);
            for p in ProcessorId::all(eval.n) {
                let believes = eval.project_class_ok(p, &class_ok, classes);
                out.or_conjunction(&scopes[p.index()], &believes);
            }
            out
        }
        KnowKind::Distributed(s) => eval.distributed_knowledge(s, phi),
    }
}

fn know_close_kind(eval: &mut Evaluator<'_>, kind: KnowKind, phi: &Bitset) -> Bitset {
    if let Some(classes) = eval.classes() {
        return know_close_kind_quotient(eval, kind, phi, classes);
    }
    match kind {
        KnowKind::Knows(p) => know_close(eval, p, phi, None),
        KnowKind::Believes(p, s) => {
            let scopes = eval.scope_columns(s);
            know_close(eval, p, phi, Some(&scopes[p.index()]))
        }
        KnowKind::Everyone(s) => {
            let scopes = eval.scope_columns(s);
            let mut out = Bitset::new_true(eval.num_points);
            for p in ProcessorId::all(eval.n) {
                let believes = know_close(eval, p, phi, Some(&scopes[p.index()]));
                out.and_implication(&scopes[p.index()], &believes);
            }
            out
        }
        KnowKind::Someone(s) => {
            let scopes = eval.scope_columns(s);
            let mut out = Bitset::new_false(eval.num_points);
            for p in ProcessorId::all(eval.n) {
                let believes = know_close(eval, p, phi, Some(&scopes[p.index()]));
                out.or_conjunction(&scopes[p.index()], &believes);
            }
            out
        }
        KnowKind::Distributed(s) => eval.distributed_knowledge(s, phi),
    }
}

/// `K_p` (`scope = None`) or `B^S_p` (`scope = Some`) over the CSR bucket
/// partition: a bucket (all points where `p` has one view) satisfies the
/// closure iff every in-scope point of the bucket satisfies `φ`; the
/// result then holds at *every* point of such a bucket. Extensionally
/// identical to the per-point scan of the recursive evaluator
/// ([`crate::oracle`]).
///
/// Since the buckets partition the points, the closure is the complement
/// of the union of *bad* buckets — those containing a violating point
/// (in scope, `¬φ`). Computing the violation set with word-level ops and
/// walking only its set bits makes the sweep `O(words + violations +
/// |bad buckets|)` instead of touching every point of every bucket; near
/// a gfp's fixed point violations are sparse, which is where this runs
/// hottest.
pub(crate) fn know_close(
    eval: &Evaluator<'_>,
    p: ProcessorId,
    phi: &Bitset,
    scope: Option<&Bitset>,
) -> Bitset {
    let store = eval.system.points();
    let (offsets, items) = store.buckets(p);
    let column = store.column(p);
    let viol = match scope {
        Some(s) => {
            let mut v = s.clone();
            v.and_not(phi);
            v
        }
        None => {
            let mut v = phi.clone();
            v.invert();
            v
        }
    };
    let mut out = Bitset::new_true(eval.num_points);
    for pt in viol.ones() {
        let v = column[pt].index();
        let bucket = &items[offsets[v] as usize..offsets[v + 1] as usize];
        // The bucket contains `pt`, so its first item doubles as a
        // cheap "already cleared" marker.
        if !out.get(bucket[0] as usize) {
            continue;
        }
        for &q in bucket {
            out.set(q as usize, false);
        }
    }
    out
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
        let phi = Formula::exists(Value::Zero).known_by(p(0));
        // (K φ) ∧ ¬(K φ) shares the K φ node *and* its leaf.
        let f = phi.clone().and(phi.not());
        let plan = FormulaPlan::compile(&f);
        assert_eq!(plan.len(), 4, "expected leaf, K, ¬, ∧");
        assert!(matches!(plan.kernels()[0], Kernel::Load));
        assert!(matches!(plan.kernels()[3], Kernel::And(_)));
    }

    #[test]
    fn gfp_plan_matches_reachability_closure() {
        let system = crash_system();
        let mut eval = Evaluator::new(&system);
        let phi = Formula::exists(Value::One);
        for (boxed, closure) in [
            (false, phi.clone().common(NonRigidSet::Nonfaulty)),
            (true, phi.clone().continual_common(NonRigidSet::Nonfaulty)),
        ] {
            let plan = FormulaPlan::compile_gfp(NonRigidSet::Nonfaulty, &phi, boxed);
            assert!(matches!(
                plan.kernels().last(),
                Some(Kernel::GfpIter { .. })
            ));
            let via_gfp = eval.eval_plan(&plan);
            let via_reach = eval.eval(&closure);
            assert_eq!(*via_gfp, *via_reach, "gfp kernel differs (boxed={boxed})");
        }
    }

    #[test]
    fn gfp_results_are_not_memoized_under_closure_keys() {
        let system = crash_system();
        let mut eval = Evaluator::new(&system);
        let phi = Formula::exists(Value::Zero);
        let plan = FormulaPlan::compile_gfp(NonRigidSet::Nonfaulty, &phi, false);
        let _ = eval.eval_plan(&plan);
        // The closure formula must still be computed from reachability,
        // not served from a cache entry the gfp loop planted.
        assert!(!eval
            .cache
            .contains_key(&phi.clone().common(NonRigidSet::Nonfaulty)));
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
