//! The memoizing formula evaluator over a generated system.

use crate::bitset::Bitset;
use crate::cache::{HashedReachKey, KnowledgeCache, ReachKey, ReachSel, ScopeColumns};
use crate::formula::Formula;
use crate::nonrigid::{NonRigidSet, PointPredId, RunPredId, StateSets, StateSetsId};
use crate::plan::{Falsified, NodeTable, ViewPartition};
use crate::uf::UnionFind;
use eba_model::fasthash::{FastMap, FastSet};
use eba_model::{ModelError, ProcSet, ProcessorId, Time};
use eba_sim::symmetry::{SymmetryInfo, ViewClasses};
use eba_sim::{GeneratedSystem, RunId, ViewId};
use std::sync::Arc;

/// Ids interned by the evaluator are `u32`s; this is how many of each
/// kind it can issue.
const ID_CAPACITY: u128 = 1 << 32;

/// The reachability structure of a nonrigid set `S` over a generated
/// system: the point-level components behind `C_S` (the \[DM90\]
/// characterization) and their projection onto runs behind `C□_S`
/// (Corollary 3.3); see DESIGN.md §4.
///
/// Two points are linked when some processor belongs to `S` at both and
/// has the same local state at both. Since FIP states encode the clock,
/// links preserve time; the `□̄` in `E□_S` lets a chain restart at any time
/// of the current run, which projects reachability onto runs.
#[derive(Clone, Debug)]
pub struct Reachability {
    /// The point-level components; a point where `S` is empty has none.
    pub(crate) points: PointClasses,
    /// Per run: compact run-component id.
    run_comp: Vec<u32>,
    /// Per run: whether the run contains any point with `S` nonempty.
    run_has_s_points: Vec<bool>,
}

impl Reachability {
    /// The component id of a point, or `None` where `S` is empty.
    #[must_use]
    pub fn point_component(&self, point: usize) -> Option<u32> {
        let c = self.points.class_of[point];
        (c != u32::MAX).then_some(c)
    }

    /// Number of point-level components.
    #[must_use]
    pub fn num_point_components(&self) -> usize {
        self.points.num_classes
    }

    /// The run-component id of a run.
    #[must_use]
    pub fn run_component(&self, run: RunId) -> u32 {
        self.run_comp[run.index()]
    }

    /// Whether the run contains any point where `S` is nonempty.
    #[must_use]
    pub fn run_has_s_points(&self, run: RunId) -> bool {
        self.run_has_s_points[run.index()]
    }

    /// Approximate resident heap bytes of the structure's per-point and
    /// per-run vectors (for the knowledge cache's memory accounting).
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.points.approx_bytes()
            + self.run_comp.len() * std::mem::size_of::<u32>()
            + self.run_has_s_points.len()
    }
}

/// A partition of the points into numbered classes, the structure the
/// point-level closures read: `C_S` closes over reachability components,
/// `D_S` over joint-view classes ([`crate::reach`]). `u32::MAX` marks a
/// point in no class.
#[derive(Clone, Debug)]
pub(crate) struct PointClasses {
    pub(crate) class_of: Vec<u32>,
    pub(crate) num_classes: usize,
}

impl PointClasses {
    /// Resident heap bytes of the per-point class ids.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.class_of.len() * std::mem::size_of::<u32>()
    }
}

/// A memoizing evaluator of [`Formula`]s over a [`GeneratedSystem`].
///
/// Points of the system are indexed linearly (`run × (horizon + 1) +
/// time`); every formula evaluates to the [`Bitset`] of points satisfying
/// it. The evaluator hash-conses every subformula it lowers into one node
/// table and keeps each node's result, so a subformula shared between
/// formulas is evaluated once. State-set families and per-run predicates
/// are registered up front and referenced by id from formulas.
///
/// # Example
///
/// ```
/// use eba_kripke::{Evaluator, Formula};
/// use eba_model::{FailureMode, Scenario, Value};
/// use eba_sim::GeneratedSystem;
///
/// # fn main() -> Result<(), eba_model::ModelError> {
/// let scenario = Scenario::new(3, 1, FailureMode::Crash, 2)?;
/// let system = GeneratedSystem::exhaustive(&scenario);
/// let mut eval = Evaluator::new(&system);
/// // "Some processor started with 0 or some processor started with 1"
/// // holds everywhere.
/// let f = Formula::exists(Value::Zero).or(Formula::exists(Value::One));
/// assert!(eval.valid(&f));
/// # Ok(())
/// # }
/// ```
pub struct Evaluator<'a> {
    pub(crate) system: &'a GeneratedSystem,
    pub(crate) n: usize,
    pub(crate) times: usize,
    pub(crate) num_points: usize,
    state_sets: Vec<StateSets>,
    run_preds: Vec<Vec<bool>>,
    pub(crate) point_preds: Vec<Arc<Bitset>>,
    pub(crate) nodes: NodeTable,
    pub(crate) reach_cache: FastMap<NonRigidSet, Arc<Reachability>>,
    pub(crate) scope_cache: FastMap<NonRigidSet, ScopeColumns>,
    partition_cache: FastMap<NonRigidSet, Arc<PointClasses>>,
    /// Content keys are canonicalized and hashed once per set, then
    /// reused across the staged reachability, scope and partition
    /// lookups.
    key_memo: FastMap<NonRigidSet, Arc<HashedReachKey>>,
    /// The symmetry metadata of a quotiented system (`None` on unreduced
    /// systems). Present, its view-orbit classes are the partition the
    /// knowledge kernels close over ([`Evaluator::partition`]), which
    /// makes the reduced system answer full-space questions exactly for
    /// symmetric formulas (DESIGN.md §4i).
    symmetry: Option<&'a SymmetryInfo>,
    /// Orbit-closure verdicts per registered state-set family, memoized
    /// (the check is O(occurring views)).
    family_closed_memo: FastMap<u32, bool>,
    pub(crate) shared: KnowledgeCache,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator over `system` with a private knowledge cache.
    #[must_use]
    pub fn new(system: &'a GeneratedSystem) -> Self {
        Evaluator::with_cache(system, KnowledgeCache::new())
    }

    /// Creates an evaluator over `system` backed by a shared
    /// [`KnowledgeCache`]: reachability structures, scope columns and
    /// `D_S` partitions computed here are visible to every other
    /// evaluator holding a clone of `cache`, and vice versa. All sharers
    /// must evaluate over the same system; see the cache's docs.
    #[must_use]
    pub fn with_cache(system: &'a GeneratedSystem, cache: KnowledgeCache) -> Self {
        let n = system.n();
        let times = system.horizon().index() + 1;
        Evaluator {
            system,
            n,
            times,
            num_points: system.num_runs() * times,
            state_sets: Vec::new(),
            run_preds: Vec::new(),
            point_preds: Vec::new(),
            nodes: NodeTable::default(),
            reach_cache: FastMap::default(),
            scope_cache: FastMap::default(),
            partition_cache: FastMap::default(),
            key_memo: FastMap::default(),
            symmetry: system.symmetry(),
            family_closed_memo: FastMap::default(),
            shared: cache,
        }
    }

    /// The shared knowledge cache backing this evaluator (clone it to
    /// share with further evaluators over the same system).
    #[must_use]
    pub fn knowledge_cache(&self) -> &KnowledgeCache {
        &self.shared
    }

    /// The underlying system.
    #[must_use]
    pub fn system(&self) -> &'a GeneratedSystem {
        self.system
    }

    /// Number of linear point indices.
    #[must_use]
    pub fn num_points(&self) -> usize {
        self.num_points
    }

    /// Registers a state-set family for use in formulas.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::CapacityExceeded`] when the `u32` id space
    /// for state-set families is full.
    ///
    /// # Panics
    ///
    /// Panics if the family's processor count differs from the system's.
    pub fn try_register_state_sets(&mut self, sets: StateSets) -> Result<StateSetsId, ModelError> {
        assert_eq!(
            sets.n(),
            self.n,
            "state-set family has the wrong processor count"
        );
        let id = u32::try_from(self.state_sets.len())
            .map_err(|_| ModelError::capacity_exceeded("state-set family ids", ID_CAPACITY))?;
        self.state_sets.push(sets);
        Ok(StateSetsId(id))
    }

    /// [`try_register_state_sets`](Evaluator::try_register_state_sets)
    /// for callers without an error channel.
    ///
    /// # Panics
    ///
    /// Panics with the rendered [`ModelError::CapacityExceeded`] when the
    /// id space is full, or if the family's processor count differs from
    /// the system's.
    pub fn register_state_sets(&mut self, sets: StateSets) -> StateSetsId {
        match self.try_register_state_sets(sets) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        }
    }

    /// The registered family behind an id.
    ///
    /// # Panics
    ///
    /// Panics if the id was not issued by this evaluator.
    #[must_use]
    pub fn state_sets(&self, id: StateSetsId) -> &StateSets {
        &self.state_sets[id.0 as usize]
    }

    /// Registers a per-run predicate for use in formulas.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::CapacityExceeded`] when the `u32` id space
    /// for run predicates is full.
    ///
    /// # Panics
    ///
    /// Panics if the vector's length differs from the number of runs.
    pub fn try_register_run_pred(&mut self, pred: Vec<bool>) -> Result<RunPredId, ModelError> {
        assert_eq!(
            pred.len(),
            self.system.num_runs(),
            "run predicate has the wrong length"
        );
        let id = u32::try_from(self.run_preds.len())
            .map_err(|_| ModelError::capacity_exceeded("run predicate ids", ID_CAPACITY))?;
        self.run_preds.push(pred);
        Ok(RunPredId(id))
    }

    /// [`try_register_run_pred`](Evaluator::try_register_run_pred) for
    /// callers without an error channel.
    ///
    /// # Panics
    ///
    /// Panics with the rendered [`ModelError::CapacityExceeded`] when the
    /// id space is full, or if the vector's length differs from the
    /// number of runs.
    pub fn register_run_pred(&mut self, pred: Vec<bool>) -> RunPredId {
        match self.try_register_run_pred(pred) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        }
    }

    /// Registers a per-point predicate for use in formulas; the bitset is
    /// indexed by linear point index (see [`Evaluator::point_index`]).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::CapacityExceeded`] when the `u32` id space
    /// for point predicates is full.
    ///
    /// # Panics
    ///
    /// Panics if the bitset's length differs from [`Evaluator::num_points`].
    pub fn try_register_point_pred(&mut self, pred: Bitset) -> Result<PointPredId, ModelError> {
        assert_eq!(
            pred.len(),
            self.num_points,
            "point predicate has the wrong length"
        );
        let id = u32::try_from(self.point_preds.len())
            .map_err(|_| ModelError::capacity_exceeded("point predicate ids", ID_CAPACITY))?;
        self.point_preds.push(Arc::new(pred));
        Ok(PointPredId(id))
    }

    /// [`try_register_point_pred`](Evaluator::try_register_point_pred)
    /// for callers without an error channel.
    ///
    /// # Panics
    ///
    /// Panics with the rendered [`ModelError::CapacityExceeded`] when the
    /// id space is full, or if the bitset's length differs from
    /// [`Evaluator::num_points`].
    pub fn register_point_pred(&mut self, pred: Bitset) -> PointPredId {
        match self.try_register_point_pred(pred) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        }
    }

    /// The linear index of a point.
    #[must_use]
    pub fn point_index(&self, run: RunId, time: Time) -> usize {
        run.index() * self.times + time.index()
    }

    /// The (run, time) of a linear point index.
    #[must_use]
    pub fn point_of(&self, index: usize) -> (RunId, Time) {
        (
            RunId::new(index / self.times),
            Time::new((index % self.times) as u16),
        )
    }

    /// The members of nonrigid set `s` at a point.
    #[must_use]
    pub fn members(&self, s: NonRigidSet, run: RunId, time: Time) -> ProcSet {
        match s {
            NonRigidSet::Everyone => ProcSet::full(self.n),
            NonRigidSet::Nonfaulty => self.system.nonfaulty(run),
            NonRigidSet::NonfaultyAnd(id) => {
                let sets = &self.state_sets[id.0 as usize];
                self.system
                    .nonfaulty(run)
                    .iter()
                    .filter(|&p| sets.contains(p, self.system.view(run, p, time)))
                    .collect()
            }
        }
    }

    /// Evaluates a formula, returning the set of points satisfying it.
    ///
    /// The formula's unseen subformulas are appended to the evaluator's
    /// node table as dense-bitset kernels and run over the system's
    /// columnar [`eba_sim::PointStore`]; subformulas evaluated before are
    /// served from their nodes' kept results.
    pub fn eval(&mut self, formula: &Formula) -> Arc<Bitset> {
        let root = self.nodes.lower(formula);
        crate::plan::run_pending(self);
        self.nodes.result(root)
    }

    /// Whether the formula holds at the given point.
    pub fn holds_at(&mut self, formula: &Formula, run: RunId, time: Time) -> bool {
        let idx = self.point_index(run, time);
        self.eval(formula).get(idx)
    }

    /// Whether the formula is valid in the system (holds at every point).
    pub fn valid(&mut self, formula: &Formula) -> bool {
        self.eval(formula).all()
    }

    /// A point where the formula fails, if any.
    pub fn counterexample(&mut self, formula: &Formula) -> Option<(RunId, Time)> {
        let set = self.eval(formula);
        set.first_zero().map(|idx| self.point_of(idx))
    }

    /// The views of processor `p` at which the formula holds.
    ///
    /// Since a formula like `B^N_p φ` depends only on `p`'s local state,
    /// the result is exact for such formulas: it is the decision set the
    /// formula describes. For formulas that are not state-determined, a
    /// view is included only if the formula holds at *every* point where
    /// `p` has that view.
    pub fn views_where(&mut self, p: ProcessorId, formula: &Formula) -> FastSet<ViewId> {
        let mut views = FastSet::default();
        self.for_each_view_where(p, formula, |v| {
            views.insert(v);
        });
        views
    }

    /// Like [`Evaluator::views_where`], but inserts the qualifying views
    /// of `p` straight into a [`StateSets`] family — the decision-set
    /// extraction loop of an optimize step calls this once per
    /// processor, and skipping the intermediate set materialization is
    /// measurable there.
    pub fn views_where_into(&mut self, p: ProcessorId, formula: &Formula, sets: &mut StateSets) {
        self.for_each_view_where(p, formula, |v| {
            sets.insert(p, v);
        });
    }

    /// For every processor `i` at once, the views at which `B^S_i ψ`
    /// holds, inserted into `sets` — value-identical to calling
    /// [`Evaluator::views_where_into`] with `ψ.believed_by(i, scope)`
    /// per processor, but `ψ` is evaluated **once** and each processor
    /// costs one bucket sweep instead of a formula build, a lowering,
    /// and a closure kernel.
    ///
    /// The fusion is sound because `B^S_i ψ` is constant across a bucket
    /// (all its points share `i`'s view): it fails somewhere in bucket
    /// `v` iff `v`'s bucket contains an in-scope point falsifying `ψ`,
    /// which is exactly the views-where disqualification rule. The
    /// optimize steps use this for their decision-set extractions.
    pub fn views_believing(&mut self, scope: NonRigidSet, psi: &Formula, sets: &mut StateSets) {
        let psi_bits = self.eval(psi);
        let scopes = self.scope_columns(scope);
        // Marked over every processor: on a quotient a view is
        // disqualified when its class is falsified from any in-scope
        // processor anywhere, so the extracted family is orbit-closed
        // over occurring views by construction.
        let all = ProcSet::full(self.n);
        let falsified = Falsified::marked(self, all, |_| &psi_bits, Some(&scopes));
        let store = self.system.points();
        for p in all.iter() {
            let (offsets, _) = store.buckets(p);
            for (v, w) in self.system.table().ids().zip(offsets.windows(2)) {
                if w[0] != w[1] && falsified.holds(v) {
                    sets.insert(p, v);
                }
            }
        }
    }

    /// For an *equivariant family* `(ψ_i)` — one where `ψ_{σ(i)}` holds
    /// at a relabeled point exactly when `ψ_i` holds at the original —
    /// the per-processor belief columns `B^S_i ψ_i`, indexed by `i`.
    ///
    /// The falsified view classes are collected **once** across the
    /// whole family (processor `q`'s in-scope `¬ψ_q` points mark the
    /// class of `q`'s view) and then cleared per processor. Unreduced,
    /// every class is one view of one owner, so column `i` is `B^S_i ψ_i`
    /// evaluated on its own. On a quotient, by equivariance, it is the
    /// full system's answer restricted to representatives even though
    /// each `ψ_i` alone is asymmetric (DESIGN.md §4i). The optimality
    /// checker uses this to fold its per-processor decision conditions.
    ///
    /// # Panics
    ///
    /// Panics if `psi.len()` differs from the processor count.
    pub fn family_believes(&mut self, scope: NonRigidSet, psi: &[Formula]) -> Vec<Bitset> {
        assert_eq!(
            psi.len(),
            self.n,
            "equivariant family must have one formula per processor"
        );
        let psi_bits: Vec<Arc<Bitset>> = psi.iter().map(|f| self.eval(f)).collect();
        let scopes = self.scope_columns(scope);
        let all = ProcSet::full(self.n);
        let falsified = Falsified::marked(self, all, |q| &psi_bits[q.index()], Some(&scopes));
        all.iter().map(|p| falsified.believes(p)).collect()
    }

    /// The processors a relabeling can carry `p` onto: every processor
    /// on a quotient, `p` alone on an unreduced system. The knowledge
    /// kernels mark `p`'s closures from the violations of exactly these
    /// processors, and a per-processor condition holds on the full
    /// system iff it holds on this system for every processor of the
    /// orbit.
    #[must_use]
    pub fn orbit(&self, p: ProcessorId) -> ProcSet {
        self.partition().orbit(p, self.n)
    }

    /// Whether a registered family is *orbit-closed* over the occurring
    /// views: membership `v ∈ A_p` is constant across each view orbit,
    /// restricted to views that actually occur for their owner. Families
    /// extracted by [`Evaluator::views_believing`] on a quotient are
    /// closed by construction; this check guards externally supplied
    /// families before they may scope a quotient evaluation. Memoized
    /// per id; vacuously `true` on unreduced systems.
    pub fn family_orbit_closed(&mut self, id: StateSetsId) -> bool {
        let Some(classes) = self.classes() else {
            return true;
        };
        if let Some(&ok) = self.family_closed_memo.get(&id.0) {
            return ok;
        }
        let sets = &self.state_sets[id.0 as usize];
        let store = self.system.points();
        let table = self.system.table();
        // 0 = class unseen, 1 = seen excluded, 2 = seen included.
        let mut verdict = vec![0u8; classes.num_classes()];
        let mut ok = true;
        'scan: for p in ProcessorId::all(self.n) {
            let (offsets, _) = store.buckets(p);
            for (v, w) in table.ids().zip(offsets.windows(2)) {
                if w[0] == w[1] {
                    continue;
                }
                let c = classes.class(v) as usize;
                let seen = if sets.contains(p, v) { 2 } else { 1 };
                if verdict[c] == 0 {
                    verdict[c] = seen;
                } else if verdict[c] != seen {
                    ok = false;
                    break 'scan;
                }
            }
        }
        self.family_closed_memo.insert(id.0, ok);
        ok
    }

    /// Whether the formula is *fully symmetric* — invariant under every
    /// processor relabeling — so its full-system validity can be decided
    /// on a quotiented system directly. `NonfaultyAnd` scopes
    /// additionally require the referenced family to be orbit-closed
    /// (checked via [`Evaluator::family_orbit_closed`]).
    pub fn formula_symmetric(&mut self, f: &Formula) -> bool {
        let mut family_ok = |id: StateSetsId| self.family_orbit_closed(id);
        f.symmetric_under_relabeling(&mut family_ok)
    }

    /// Whether every knowledge operator in the formula has a symmetric
    /// body and scope, so each kernel, closing over orbit classes, is
    /// pointwise-exact on representatives. Weaker than [`Evaluator::formula_symmetric`]
    /// (asymmetric leaves like `StateIn` may appear *outside* knowledge
    /// operators); such formulas evaluate correctly **at** representative
    /// points but their quotient validity is not full-system validity —
    /// the optimality checker folds the whole equivariant family for
    /// that.
    pub fn quotient_compatible(&mut self, f: &Formula) -> bool {
        let mut family_ok = |id: StateSetsId| self.family_orbit_closed(id);
        f.quotient_compatible(&mut family_ok)
    }

    fn for_each_view_where(&mut self, p: ProcessorId, formula: &Formula, emit: impl FnMut(ViewId)) {
        let set = self.eval(formula);
        self.for_each_view_in(p, &set, emit);
    }

    /// Emits the views of `p` whose every point lies in `set`.
    pub(crate) fn for_each_view_in(
        &self,
        p: ProcessorId,
        set: &Bitset,
        mut emit: impl FnMut(ViewId),
    ) {
        // A view qualifies iff its bucket (the points where `p` has it)
        // is nonempty and contains no point outside `set`, so walk the
        // falsifying points and disqualify their buckets.
        let store = self.system.points();
        let column = store.column(p);
        let (offsets, _) = store.buckets(p);
        let table = self.system.table();
        let mut bad = vec![false; table.len()];
        let mut unsat = set.clone();
        unsat.invert();
        for pt in unsat.ones() {
            bad[column[pt].index()] = true;
        }
        for (v, w) in table.ids().zip(offsets.windows(2)) {
            if w[0] != w[1] && !bad[v.index()] {
                emit(v);
            }
        }
    }

    pub(crate) fn broadcast_run_level<F: Fn(RunId) -> bool>(&self, f: F) -> Bitset {
        let mut out = Bitset::new_false(self.num_points);
        for run in self.system.run_ids() {
            if f(run) {
                let base = run.index() * self.times;
                out.set_range(base, base + self.times);
            }
        }
        out
    }

    /// `φ` closed over a point partition: a point qualifies where `φ`
    /// holds at every point of its class, or where it has no class. The
    /// `C_S` kernel over reachability components (no class where `S` is
    /// empty: vacuous `E_S^k` for all `k`) and the `D_S` kernel over
    /// joint-view classes; the reference evaluator ([`crate::oracle`])
    /// shares it for `C_S`.
    pub(crate) fn close_over(&self, phi: &Bitset, classes: &PointClasses) -> Bitset {
        // class_sat[c] = φ holds at every point of class c. Only the
        // violations matter, so sweep φ's zero bits word-parallel.
        let mut class_sat = vec![true; classes.num_classes];
        for idx in phi.zeros() {
            let c = classes.class_of[idx];
            if c != u32::MAX {
                class_sat[c as usize] = false;
            }
        }
        // Assemble the output a word at a time.
        let mut out = Bitset::new_false(self.num_points);
        for (word, chunk) in out.words_mut().iter_mut().zip(classes.class_of.chunks(64)) {
            let mut w = 0u64;
            for (bit, &c) in chunk.iter().enumerate() {
                let ok = c == u32::MAX || class_sat[c as usize];
                w |= u64::from(ok) << bit;
            }
            *word = w;
        }
        out
    }

    /// `C□_S φ` from a reachability structure: the run-component
    /// projection of [`Evaluator::close_over`].
    pub(crate) fn continual_common_from_reach(&self, phi: &Bitset, reach: &Reachability) -> Bitset {
        // run_comp_sat[rc] = φ holds at every S-nonempty point of
        // every run in run-component rc.
        let num_run_comps = self
            .system
            .run_ids()
            .map(|r| reach.run_component(r) as usize + 1)
            .max()
            .unwrap_or(0);
        let mut run_comp_sat = vec![true; num_run_comps];
        for idx in phi.zeros() {
            if reach.points.class_of[idx] != u32::MAX {
                let run = idx / self.times;
                run_comp_sat[reach.run_comp[run] as usize] = false;
            }
        }
        let mut out = Bitset::new_false(self.num_points);
        for run in self.system.run_ids() {
            let ok = if reach.run_has_s_points(run) {
                run_comp_sat[reach.run_component(run) as usize]
            } else {
                true // no reachable points at all: vacuously true
            };
            if ok {
                let base = run.index() * self.times;
                out.set_range(base, base + self.times);
            }
        }
        out
    }

    /// `□φ` as a per-run suffix conjunction of the input bitset.
    pub(crate) fn always_of(&self, phi: &Bitset) -> Bitset {
        let mut out = Bitset::new_false(self.num_points);
        for run in self.system.run_ids() {
            let base = run.index() * self.times;
            let mut suffix = true;
            for time in (0..self.times).rev() {
                suffix &= phi.get(base + time);
                out.set(base + time, suffix);
            }
        }
        out
    }

    /// `◇φ` as a per-run suffix disjunction of the input bitset.
    pub(crate) fn eventually_of(&self, phi: &Bitset) -> Bitset {
        let mut out = Bitset::new_false(self.num_points);
        for run in self.system.run_ids() {
            let base = run.index() * self.times;
            let mut suffix = false;
            for time in (0..self.times).rev() {
                suffix |= phi.get(base + time);
                out.set(base + time, suffix);
            }
        }
        out
    }

    /// `□̄φ` (at all times of the run) broadcast to every point of the run.
    pub(crate) fn always_all_of(&self, phi: &Bitset) -> Bitset {
        self.broadcast_run_level(|run| {
            let base = run.index() * self.times;
            (0..self.times).all(|time| phi.get(base + time))
        })
    }

    /// `◇̄φ` (at some time of the run) broadcast to every point of the run.
    pub(crate) fn sometime_all_of(&self, phi: &Bitset) -> Bitset {
        self.broadcast_run_level(|run| {
            let base = run.index() * self.times;
            (0..self.times).any(|time| phi.get(base + time))
        })
    }

    /// Evaluates a leaf formula (no subformulas) directly; the `Load`
    /// kernel.
    ///
    /// # Panics
    ///
    /// Panics if called on a non-leaf formula — lowering only emits
    /// `Load` for leaves.
    pub(crate) fn load_leaf(&self, formula: &Formula) -> Bitset {
        match formula {
            Formula::True => Bitset::new_true(self.num_points),
            Formula::False => Bitset::new_false(self.num_points),
            Formula::Exists(v) => {
                self.broadcast_run_level(|r| self.system.run(r).config.exists(*v))
            }
            Formula::Initial(p, v) => {
                self.broadcast_run_level(|r| self.system.run(r).config.value(*p) == *v)
            }
            Formula::Nonfaulty(p) => {
                self.broadcast_run_level(|r| self.system.nonfaulty(r).contains(*p))
            }
            Formula::StateIn(p, id) => {
                let sets = &self.state_sets[id.0 as usize];
                let mut out = Bitset::new_false(self.num_points);
                for run in self.system.run_ids() {
                    for time in Time::upto(self.system.horizon()) {
                        if sets.contains(*p, self.system.view(run, *p, time)) {
                            out.set(self.point_index(run, time), true);
                        }
                    }
                }
                out
            }
            Formula::RunPred(id) => {
                let pred = &self.run_preds[id.0 as usize];
                self.broadcast_run_level(|r| pred[r.index()])
            }
            Formula::PointPred(id) => (*self.point_preds[id.0 as usize]).clone(),
            _ => panic!("Load kernel applied to a non-leaf formula: {formula}"),
        }
    }

    /// The view-orbit classes of a quotiented system, or `None` on an
    /// unreduced one. The reference outlives `&self` (the classes live in
    /// the system's [`SymmetryInfo`]), so callers can hold it across
    /// subsequent `&mut self` calls.
    pub(crate) fn classes(&self) -> Option<&'a ViewClasses> {
        self.symmetry.map(SymmetryInfo::classes)
    }

    /// The view partition the knowledge kernels close over: the orbit
    /// classes on a quotient, every view its own class otherwise.
    pub(crate) fn partition(&self) -> ViewPartition<'a> {
        ViewPartition::new(self.classes(), self.system.table().len())
    }

    /// Computes (or fetches) the reachability structure of `s`.
    ///
    /// Lookup is staged: this evaluator's local memo first, then the
    /// shared [`KnowledgeCache`] (keyed by the set's *content*, so a hit
    /// can come from a different evaluator over the same system), and only
    /// then a fresh computation — a one-set
    /// [`BatchBuilder`](crate::reach::BatchBuilder) sweep — which is
    /// published to both.
    pub fn reachability(&mut self, s: NonRigidSet) -> Arc<Reachability> {
        if let Some(cached) = self.reach_cache.get(&s) {
            return Arc::clone(cached);
        }
        let mut batch = crate::reach::BatchBuilder::new();
        batch.request_reachability(s);
        batch.run(self);
        Arc::clone(&self.reach_cache[&s])
    }

    /// The content key of `s`, canonicalized and hashed **once** per
    /// `(evaluator, set)` and reused across every staged lookup — the
    /// get/insert pairs of reachability, scope columns and `D_S`
    /// partitions all share one digest instead of re-hashing the
    /// (potentially large) canonical view lists.
    pub(crate) fn hashed_key(&mut self, s: NonRigidSet) -> Arc<HashedReachKey> {
        if let Some(key) = self.key_memo.get(&s) {
            return Arc::clone(key);
        }
        // Keys carry the system's exchange fingerprint: full-info and
        // digest systems have unrelated interned state spaces, so their
        // entries must never be interchangeable even when a cache handle
        // is (legally) shared across same-shape systems.
        let exchange = self.system.scenario().exchange().fingerprint();
        let key = Arc::new(HashedReachKey::new(ReachKey {
            exchange,
            // Quotiented structures answer the same *question* but over a
            // different point space, so they must never collide with
            // unreduced entries even on a legally shared cache handle.
            symmetry: self.classes().map_or(0, ViewClasses::fingerprint),
            sel: match s {
                NonRigidSet::Everyone => ReachSel::Everyone,
                NonRigidSet::Nonfaulty => ReachSel::Nonfaulty,
                NonRigidSet::NonfaultyAnd(id) => {
                    ReachSel::NonfaultyAnd(self.state_sets[id.0 as usize].canonical())
                }
            },
        }));
        self.key_memo.insert(s, Arc::clone(&key));
        key
    }

    /// The per-processor scope columns of `s`: entry `p` is the bitset of
    /// points at which `p ∈ S(r, k)` (the column form of
    /// [`Evaluator::members`], used by the knowledge kernels).
    ///
    /// Lookup is staged like [`Evaluator::reachability`]: the local memo,
    /// then the shared [`KnowledgeCache`] under the set's content key,
    /// then a one-set [`BatchBuilder`](crate::reach::BatchBuilder) sweep.
    pub fn scope_columns(&mut self, s: NonRigidSet) -> ScopeColumns {
        if let Some(cached) = self.scope_cache.get(&s) {
            return Arc::clone(cached);
        }
        let mut batch = crate::reach::BatchBuilder::new();
        batch.request_scopes(s);
        batch.run(self);
        Arc::clone(&self.scope_cache[&s])
    }

    /// The joint-view partition of `s` that `D_S` closes over (DESIGN.md
    /// §4s, §4u).
    ///
    /// Lookup is staged like [`Evaluator::reachability`]: the local memo,
    /// then the shared [`KnowledgeCache`] under the set's content key,
    /// then a fresh [`joint_view_classes`](crate::reach::joint_view_classes)
    /// build, published to both.
    pub(crate) fn joint_view_partition(&mut self, s: NonRigidSet) -> Arc<PointClasses> {
        if let Some(cached) = self.partition_cache.get(&s) {
            return Arc::clone(cached);
        }
        let key = self.hashed_key(s);
        let classes = match self.shared.get_partition(&key) {
            Some(found) => {
                debug_assert_eq!(
                    found.class_of.len(),
                    self.num_points,
                    "knowledge cache shared across different systems"
                );
                found
            }
            None => {
                let built = Arc::new(crate::reach::joint_view_classes(self, s));
                self.shared.insert_partition(&key, Arc::clone(&built));
                built
            }
        };
        self.partition_cache.insert(s, Arc::clone(&classes));
        classes
    }

    /// Compacts a fully-unioned point partition into a [`Reachability`]:
    /// component numbering, the run projection, and the `S`-emptiness
    /// mask. The membership vector is read for `S`-emptiness only, not
    /// kept. Used by the batched sweep and the reference per-set build
    /// ([`crate::oracle`]); given the same partition, the output is
    /// bit-identical either way.
    pub(crate) fn finish_reachability(
        &self,
        s_members: &[ProcSet],
        uf: &mut UnionFind,
    ) -> Reachability {
        // Compact point components, restricted to S-nonempty points, and
        // project onto runs (runs sharing a point component are merged)
        // in the same pass. Numbering is by first-seen point order, so it
        // only depends on the partition — not on the union order that
        // produced it. Roots are point indices, so a flat remap table
        // replaces hashing.
        let num_runs = self.system.num_runs();
        let mut comp_remap = vec![u32::MAX; self.num_points];
        let mut point_comp = vec![u32::MAX; self.num_points];
        let mut run_uf = UnionFind::new(num_runs);
        let mut first_run_of_comp: Vec<u32> = Vec::new();
        let mut run_has_s_points = vec![false; num_runs];
        for idx in 0..self.num_points {
            if s_members[idx].is_empty() {
                continue;
            }
            let root = uf.find(idx);
            let run = idx / self.times;
            run_has_s_points[run] = true;
            let c = comp_remap[root];
            if c == u32::MAX {
                comp_remap[root] = first_run_of_comp.len() as u32;
                point_comp[idx] = first_run_of_comp.len() as u32;
                first_run_of_comp.push(run as u32);
            } else {
                point_comp[idx] = c;
                run_uf.union(first_run_of_comp[c as usize] as usize, run);
            }
        }
        let (run_comp, _) = run_uf.component_ids();

        Reachability {
            points: PointClasses {
                class_of: point_comp,
                num_classes: first_run_of_comp.len(),
            },
            run_comp,
            run_has_s_points,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eba_model::{FailureMode, Scenario, Value};

    fn p(i: usize) -> ProcessorId {
        ProcessorId::new(i)
    }

    fn crash_system() -> GeneratedSystem {
        let scenario = Scenario::new(3, 1, FailureMode::Crash, 2).unwrap();
        GeneratedSystem::exhaustive(&scenario)
    }

    #[test]
    fn tautologies_are_valid() {
        let system = crash_system();
        let mut eval = Evaluator::new(&system);
        assert!(eval.valid(&Formula::True));
        assert!(!eval.valid(&Formula::False));
        assert!(eval.valid(&Formula::exists(Value::Zero).or(Formula::exists(Value::One))));
        let f = Formula::exists(Value::Zero);
        assert!(eval.valid(&f.clone().or(f.not())));
    }

    #[test]
    fn processors_know_their_own_value() {
        let system = crash_system();
        let mut eval = Evaluator::new(&system);
        for i in 0..3 {
            for v in Value::ALL {
                // init(i)=v ⇒ K_i ∃v.
                let f = Formula::Initial(p(i), v).implies(Formula::exists(v).known_by(p(i)));
                assert!(eval.valid(&f));
            }
        }
    }

    #[test]
    fn knowledge_axiom_holds() {
        let system = crash_system();
        let mut eval = Evaluator::new(&system);
        let phi = Formula::exists(Value::Zero);
        let f = phi.clone().known_by(p(0)).implies(phi);
        assert!(eval.valid(&f));
    }

    #[test]
    fn knowledge_is_not_omniscience() {
        let system = crash_system();
        let mut eval = Evaluator::new(&system);
        // ∃0 ⇒ K_1 ∃0 is NOT valid at time 0 (p1 may hold 1 while p2
        // holds 0).
        let f = Formula::exists(Value::Zero).implies(Formula::exists(Value::Zero).known_by(p(0)));
        assert!(!eval.valid(&f));
        let (run, time) = eval.counterexample(&f).unwrap();
        assert_eq!(time, Time::ZERO);
        let config = &system.run(run).config;
        assert_ne!(config.value(p(0)), Value::Zero);
        assert!(config.exists(Value::Zero));
    }

    #[test]
    fn after_failure_free_round_everyone_knows() {
        let system = crash_system();
        let mut eval = Evaluator::new(&system);
        // In failure-free runs, by time 1 everyone knows every initial
        // value: check K_i ∃0 whenever ∃0.
        let config = eba_model::InitialConfig::from_bits(3, 0b110);
        let pattern = eba_model::FailurePattern::failure_free(3);
        let run = system.find_run(&config, &pattern).unwrap();
        for i in 0..3 {
            assert!(eval.holds_at(
                &Formula::exists(Value::Zero).known_by(p(i)),
                run,
                Time::new(1)
            ));
            assert!(
                !eval.holds_at(
                    &Formula::exists(Value::Zero).known_by(p(i)),
                    run,
                    Time::ZERO
                ) || i == 0
            );
        }
    }

    #[test]
    fn belief_is_vacuous_for_known_faulty() {
        let system = crash_system();
        let mut eval = Evaluator::new(&system);
        // B^N_i φ ⇒ (i ∈ N ⇒ φ) is valid (belief is knowledge guarded by
        // membership).
        let phi = Formula::exists(Value::Zero);
        let f = phi
            .clone()
            .believed_by(p(1), NonRigidSet::Nonfaulty)
            .implies(Formula::Nonfaulty(p(1)).implies(phi));
        assert!(eval.valid(&f));
    }

    #[test]
    fn common_knowledge_implies_everyone_knows() {
        let system = crash_system();
        let mut eval = Evaluator::new(&system);
        let phi = Formula::exists(Value::One);
        let f = phi
            .clone()
            .common(NonRigidSet::Nonfaulty)
            .implies(phi.everyone(NonRigidSet::Nonfaulty));
        assert!(eval.valid(&f));
    }

    #[test]
    fn continual_common_implies_common() {
        let system = crash_system();
        let mut eval = Evaluator::new(&system);
        for v in Value::ALL {
            let phi = Formula::exists(v);
            let f = phi
                .clone()
                .continual_common(NonRigidSet::Nonfaulty)
                .implies(phi.common(NonRigidSet::Nonfaulty));
            assert!(eval.valid(&f), "C□ ⇒ C failed for ∃{v}");
        }
    }

    #[test]
    fn continual_common_is_constant_along_runs() {
        let system = crash_system();
        let mut eval = Evaluator::new(&system);
        let f = Formula::exists(Value::One).continual_common(NonRigidSet::Nonfaulty);
        let set = eval.eval(&f);
        for run in system.run_ids() {
            let base = run.index() * 3;
            let v0 = set.get(base);
            for t in 1..3 {
                assert_eq!(set.get(base + t), v0);
            }
        }
    }

    #[test]
    fn temporal_operators() {
        let system = crash_system();
        let mut eval = Evaluator::new(&system);
        // □φ ⇒ φ and φ ⇒ ◇φ.
        let phi = Formula::exists(Value::Zero).known_by(p(0));
        assert!(eval.valid(&phi.clone().always().implies(phi.clone())));
        assert!(eval.valid(&phi.clone().implies(phi.clone().eventually())));
        // □̄φ ⇒ □φ.
        assert!(eval.valid(&phi.clone().always_all().implies(phi.clone().always())));
        // φ ⇒ ◇̄φ.
        assert!(eval.valid(&phi.clone().implies(phi.sometime_all())));
    }

    #[test]
    fn knowledge_is_monotone_over_time_for_stable_facts() {
        // With perfect recall, K_i of a run-level fact persists: K_i ∃0 ⇒
        // □ K_i ∃0.
        let system = crash_system();
        let mut eval = Evaluator::new(&system);
        let k = Formula::exists(Value::Zero).known_by(p(2));
        assert!(eval.valid(&k.clone().implies(k.always())));
    }

    #[test]
    fn views_where_extracts_state_sets() {
        let system = crash_system();
        let mut eval = Evaluator::new(&system);
        let f = Formula::exists(Value::Zero).believed_by(p(0), NonRigidSet::Nonfaulty);
        let views = eval.views_where(p(0), &f);
        // Every extracted view sees a zero (B^N implies the fact when the
        // view occurs for a nonfaulty p0 somewhere — all p0 views here).
        assert!(!views.is_empty());
        for v in &views {
            assert_eq!(system.table().proc(*v), p(0));
        }
    }

    #[test]
    fn registered_state_sets_work_as_atoms() {
        let system = crash_system();
        let mut eval = Evaluator::new(&system);
        let sets = StateSets::with_value_seen(system.table(), 3, Value::Zero);
        let id = eval.register_state_sets(sets);
        // StateIn(p, A) ⇔ K_p ∃0 — "has seen a zero" is exactly knowing
        // ∃0 in a full-information system … at least the ⇒ direction: the
        // view contains a zero, so every compatible run has a zero.
        let f = Formula::StateIn(p(1), id).implies(Formula::exists(Value::Zero).known_by(p(1)));
        assert!(eval.valid(&f));
    }

    #[test]
    fn run_predicates_broadcast() {
        let system = crash_system();
        let mut eval = Evaluator::new(&system);
        let pred: Vec<bool> = system
            .run_ids()
            .map(|r| system.run(r).config.all_same())
            .collect();
        let id = eval.register_run_pred(pred);
        let f = Formula::RunPred(id).implies(
            Formula::exists(Value::Zero)
                .and(Formula::exists(Value::One))
                .not(),
        );
        assert!(eval.valid(&f));
    }

    #[test]
    fn knowledge_hierarchy_c_e_k_d() {
        // The [HM90] hierarchy over the (always nonempty) nonfaulty set:
        // C ⇒ E ⇒ B_i (for members) ⇒ D ⇒ φ, and E ⇒ S.
        let system = crash_system();
        let mut eval = Evaluator::new(&system);
        for v in Value::ALL {
            let phi = Formula::exists(v);
            let n = NonRigidSet::Nonfaulty;
            let c = phi.clone().common(n);
            let e = phi.clone().everyone(n);
            let s = phi.clone().someone(n);
            let d = phi.clone().distributed(n);
            assert!(eval.valid(&c.clone().implies(e.clone())));
            assert!(eval.valid(&e.clone().implies(s.clone())));
            for i in 0..3 {
                let member = Formula::Nonfaulty(p(i));
                let b = phi.clone().believed_by(p(i), n);
                assert!(eval.valid(&member.clone().and(e.clone()).implies(b.clone())));
                assert!(eval.valid(&member.and(b).implies(d.clone())));
            }
            assert!(eval.valid(&d.implies(phi)));
        }
    }

    #[test]
    fn distributed_knowledge_pools_information() {
        // At time 0 nobody alone knows ∃0 unless it holds it, but the
        // group's pooled information always settles ∃0 one way or the
        // other: D_N(∃0) ∨ D_N(¬∃0) is valid at time 0 … and in fact
        // everywhere only if the faulty processors' values never matter.
        let system = crash_system();
        let mut eval = Evaluator::new(&system);
        let phi = Formula::exists(Value::Zero);
        let d_pos = phi.clone().distributed(NonRigidSet::Nonfaulty);
        let d_neg = phi.clone().not().distributed(NonRigidSet::Nonfaulty);
        // Pooled knowledge decides ∃0 whenever every processor is
        // nonfaulty (the failure-free runs), since the group jointly sees
        // every initial value.
        let everyone_fine = Formula::conj((0..3).map(|i| Formula::Nonfaulty(p(i))));
        assert!(eval.valid(&everyone_fine.implies(d_pos.clone().or(d_neg))));
        // A *member's* knowledge feeds the pool — but only a member's: a
        // faulty processor's private knowledge does not reach D_N.
        let k = phi.known_by(p(0));
        let member = Formula::Nonfaulty(p(0));
        assert!(eval.valid(&member.and(k.clone()).implies(d_pos.clone())));
        assert!(
            !eval.valid(&k.clone().implies(d_pos.clone())),
            "unguarded K_1 ⇒ D_N must fail (the knower may be faulty)"
        );
        // And D is strictly stronger than any individual's knowledge.
        assert!(!eval.valid(&d_pos.implies(k)));
    }

    #[test]
    fn everyone_equals_conjunction_of_member_beliefs() {
        // E_S φ at a point ⟺ every member of S(point) believes φ there —
        // checked pointwise against per-processor B evaluations.
        let system = crash_system();
        let mut eval = Evaluator::new(&system);
        let phi = Formula::exists(Value::Zero);
        let e = eval.eval(&phi.clone().everyone(NonRigidSet::Nonfaulty));
        let believes: Vec<_> = (0..3)
            .map(|i| eval.eval(&phi.clone().believed_by(p(i), NonRigidSet::Nonfaulty)))
            .collect();
        for run in system.run_ids() {
            for time in Time::upto(system.horizon()) {
                let idx = eval.point_index(run, time);
                let members = eval.members(NonRigidSet::Nonfaulty, run, time);
                let expected = members.iter().all(|i| believes[i.index()].get(idx));
                assert_eq!(e.get(idx), expected, "run {} {time}", run.index());
            }
        }
    }

    #[test]
    fn family_believes_matches_per_processor_beliefs() {
        // Unreduced, the family fold is one closure per processor; the
        // recursive oracle evaluates each `B^S_i ψ_i` on its own.
        let system = crash_system();
        let mut eval = Evaluator::new(&system);
        let mut oracle_eval = Evaluator::new(&system);
        let seen_one = || StateSets::with_value_seen(system.table(), 3, Value::One);
        let id = eval.register_state_sets(seen_one());
        assert_eq!(oracle_eval.register_state_sets(seen_one()), id);
        let mut oracle = crate::oracle::Oracle::new(&oracle_eval);
        let psi: Vec<Formula> = (0..3)
            .map(|i| Formula::Initial(p(i), Value::One).and(Formula::exists(Value::Zero)))
            .collect();
        for s in [NonRigidSet::Nonfaulty, NonRigidSet::NonfaultyAnd(id)] {
            let fused = eval.family_believes(s, &psi);
            assert!(fused
                .iter()
                .any(|b| b.count_ones() > 0 && b.count_ones() < b.len()));
            for (i, psi_i) in psi.iter().enumerate() {
                let expected = oracle.eval(&psi_i.clone().believed_by(p(i), s));
                assert_eq!(fused[i], *expected, "processor {i} under {s:?}");
            }
        }
    }

    #[test]
    fn reachability_accessors_are_consistent() {
        let system = crash_system();
        let mut eval = Evaluator::new(&system);
        let reach = eval.reachability(NonRigidSet::Nonfaulty);
        for idx in 0..eval.num_points() {
            let (run, time) = eval.point_of(idx);
            let members = eval.members(NonRigidSet::Nonfaulty, run, time);
            // S nonempty ⟺ the point has a component.
            assert_eq!(members.is_empty(), reach.point_component(idx).is_none());
            if reach.point_component(idx).is_some() {
                assert!(reach.run_has_s_points(run));
                assert!(
                    (reach.point_component(idx).unwrap() as usize) < reach.num_point_components()
                );
            }
        }
    }

    #[test]
    fn empty_nonrigid_set_gives_vacuous_common_knowledge() {
        let system = crash_system();
        let mut eval = Evaluator::new(&system);
        // N ∧ ∅-states is empty everywhere: C□ of anything (even false)
        // holds.
        let empty = StateSets::empty(3);
        let id = eval.register_state_sets(empty);
        let s = NonRigidSet::NonfaultyAnd(id);
        assert!(eval.valid(&Formula::False.continual_common(s)));
        assert!(eval.valid(&Formula::False.common(s)));
    }

    #[test]
    fn knowledge_cache_is_shared_across_evaluators() {
        let system = crash_system();
        let cache = KnowledgeCache::new();
        let d = |v| Formula::exists(v).distributed(NonRigidSet::Nonfaulty);
        let mut a = Evaluator::with_cache(&system, cache.clone());
        let ra = a.reachability(NonRigidSet::Nonfaulty);
        // Two `D` nodes over one set: the second reads the evaluator's
        // memo, so the shared cache sees one partition miss.
        let _ = a.eval(&d(Value::Zero).and(d(Value::One)));
        assert_eq!(cache.len(), 1);
        let mut b = Evaluator::with_cache(&system, cache.clone());
        let rb = b.reachability(NonRigidSet::Nonfaulty);
        let _ = b.eval(&d(Value::Zero));
        assert!(
            Arc::ptr_eq(&ra, &rb),
            "second evaluator must reuse the cached structure"
        );
        assert!(Arc::ptr_eq(
            &a.joint_view_partition(NonRigidSet::Nonfaulty),
            &b.joint_view_partition(NonRigidSet::Nonfaulty)
        ));
        assert_eq!(cache.len(), 1);
        let stats = cache.stats();
        assert_eq!((stats.partition_hits, stats.partition_misses), (1, 1));
    }

    #[test]
    fn knowledge_cache_matches_state_sets_by_content() {
        // The same family registered under *different ids* in two
        // evaluators resolves to one cache entry: keys are canonical
        // content, not evaluator-relative ids.
        let system = crash_system();
        let cache = KnowledgeCache::new();
        let sets = StateSets::with_value_seen(system.table(), 3, Value::Zero);
        let mut a = Evaluator::with_cache(&system, cache.clone());
        let id_a = a.register_state_sets(sets.clone());
        let r1 = a.reachability(NonRigidSet::NonfaultyAnd(id_a));
        let len_after_first = cache.len();
        let mut b = Evaluator::with_cache(&system, cache.clone());
        b.register_state_sets(StateSets::empty(3)); // shift the id space
        let id_b = b.register_state_sets(sets);
        assert_ne!(id_a, id_b);
        let r2 = b.reachability(NonRigidSet::NonfaultyAnd(id_b));
        assert!(Arc::ptr_eq(&r1, &r2));
        assert_eq!(cache.len(), len_after_first);
    }

    #[test]
    fn distributed_partitions_never_cross_the_symmetry_fence() {
        // One cache handle over the unreduced system and the quotient of
        // one scenario: the two index different point spaces, so the
        // quotient must build its own partition.
        let scenario = Scenario::new(3, 1, FailureMode::Crash, 2).unwrap();
        let unreduced = GeneratedSystem::exhaustive(&scenario);
        let quotient = eba_sim::SystemBuilder::new(&scenario)
            .symmetry(true)
            .build()
            .unwrap();
        let cache = KnowledgeCache::new();
        let d = Formula::exists(Value::Zero).distributed(NonRigidSet::Nonfaulty);
        let _ = Evaluator::with_cache(&unreduced, cache.clone()).eval(&d);
        let _ = Evaluator::with_cache(&quotient, cache.clone()).eval(&d);
        let stats = cache.stats();
        assert_eq!((stats.partition_hits, stats.partition_misses), (0, 2));
    }

    #[test]
    fn try_register_issues_sequential_typed_ids() {
        let system = crash_system();
        let mut eval = Evaluator::new(&system);
        let a = eval.try_register_state_sets(StateSets::empty(3)).unwrap();
        let b = eval.try_register_state_sets(StateSets::empty(3)).unwrap();
        assert_ne!(a, b);
        let r = eval
            .try_register_run_pred(vec![true; system.num_runs()])
            .unwrap();
        assert!(eval.valid(&Formula::RunPred(r)));
        let pp = eval
            .try_register_point_pred(Bitset::new_true(eval.num_points()))
            .unwrap();
        assert!(eval.valid(&Formula::PointPred(pp)));
    }

    #[test]
    fn evaluator_and_cache_are_send() {
        fn require_send<T: Send>() {}
        fn require_sync<T: Sync>() {}
        require_send::<Evaluator<'static>>();
        require_send::<KnowledgeCache>();
        require_sync::<KnowledgeCache>();
    }
}
