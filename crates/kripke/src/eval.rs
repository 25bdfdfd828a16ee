//! The memoizing formula evaluator over a generated system.

use crate::bitset::Bitset;
use crate::cache::{HashedReachKey, KnowledgeCache, ReachKey, ReachSel, ScopeColumns};
use crate::formula::Formula;
use crate::nonrigid::{NonRigidSet, PointPredId, RunPredId, StateSets, StateSetsId};
use crate::plan::FormulaPlan;
use crate::uf::UnionFind;
use eba_model::fasthash::{FastMap, FastSet};
use eba_model::{ModelError, ProcSet, ProcessorId, Time};
use eba_sim::chaos::{supervised_indexed, FaultInjector, FaultSite, NoChaos};
use eba_sim::symmetry::{SymmetryInfo, ViewClasses};
use eba_sim::{GeneratedSystem, RunId, ViewId};
use std::sync::Arc;
use std::sync::OnceLock;
use std::thread;

/// Available parallelism, probed once: it is a syscall, and evaluators
/// are constructed in inner loops.
fn default_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| thread::available_parallelism().map_or(1, |p| p.get()))
}

/// Ids interned by the evaluator are `u32`s; this is how many of each
/// kind it can issue.
const ID_CAPACITY: u128 = 1 << 32;

/// Point count below which reachability edges are collected on the
/// calling thread: spawning workers costs more than the scan saves.
pub(crate) const PARALLEL_POINTS_THRESHOLD: usize = 1 << 12;

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
    /// Per point: compact component id, or `u32::MAX` where `S` is empty.
    point_comp: Vec<u32>,
    num_point_comps: usize,
    /// Per run: compact run-component id.
    run_comp: Vec<u32>,
    /// Per run: whether the run contains any point with `S` nonempty.
    run_has_s_points: Vec<bool>,
    /// Per point: the members of `S` at that point.
    s_members: Vec<ProcSet>,
}

impl Reachability {
    /// The component id of a point, or `None` where `S` is empty.
    #[must_use]
    pub fn point_component(&self, point: usize) -> Option<u32> {
        (self.point_comp[point] != u32::MAX).then_some(self.point_comp[point])
    }

    /// Number of point-level components.
    #[must_use]
    pub fn num_point_components(&self) -> usize {
        self.num_point_comps
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

    /// The members of `S` at a point.
    #[must_use]
    pub fn members(&self, point: usize) -> ProcSet {
        self.s_members[point]
    }

    /// The number of points this structure was computed over.
    #[must_use]
    pub fn num_points(&self) -> usize {
        self.s_members.len()
    }

    /// Approximate resident heap bytes of the structure's per-point and
    /// per-run vectors (for the knowledge cache's memory accounting).
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.point_comp.len() * size_of::<u32>()
            + self.run_comp.len() * size_of::<u32>()
            + self.run_has_s_points.len()
            + self.s_members.len() * size_of::<ProcSet>()
    }
}

/// A memoizing evaluator of [`Formula`]s over a [`GeneratedSystem`].
///
/// Points of the system are indexed linearly (`run × (horizon + 1) +
/// time`); every formula evaluates to the [`Bitset`] of points satisfying
/// it, cached by formula structure. State-set families and per-run
/// predicates are registered up front and referenced by id from formulas.
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
    pub(crate) threads: usize,
    state_sets: Vec<StateSets>,
    run_preds: Vec<Vec<bool>>,
    point_preds: Vec<Arc<Bitset>>,
    pub(crate) cache: FastMap<Formula, Arc<Bitset>>,
    pub(crate) reach_cache: FastMap<NonRigidSet, Arc<Reachability>>,
    pub(crate) scope_cache: FastMap<NonRigidSet, ScopeColumns>,
    /// Content keys are canonicalized and hashed once per set, then
    /// reused across the staged reachability *and* scope lookups.
    key_memo: FastMap<NonRigidSet, Arc<HashedReachKey>>,
    /// The symmetry metadata of a quotiented system (`None` on unreduced
    /// systems). Present, every knowledge kernel evaluates under the
    /// orbit twist: a point is disqualified by the *view-orbit classes*
    /// of the falsifying points rather than by raw views, which makes
    /// the reduced system answer full-space questions exactly for
    /// symmetric formulas (DESIGN.md §4i).
    symmetry: Option<&'a SymmetryInfo>,
    /// Orbit-closure verdicts per registered state-set family, memoized
    /// (the check is O(occurring views)).
    family_closed_memo: FastMap<u32, bool>,
    pub(crate) shared: KnowledgeCache,
    pub(crate) chaos: Arc<dyn FaultInjector>,
    plan_mode: bool,
    batch_mode: bool,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator over `system` with a private knowledge cache
    /// and one reachability worker per available CPU.
    #[must_use]
    pub fn new(system: &'a GeneratedSystem) -> Self {
        Evaluator::with_cache(system, KnowledgeCache::new())
    }

    /// Creates an evaluator over `system` backed by a shared
    /// [`KnowledgeCache`]: reachability structures computed here are
    /// visible to every other evaluator holding a clone of `cache`, and
    /// vice versa. All sharers must evaluate over the same system; see the
    /// cache's docs.
    #[must_use]
    pub fn with_cache(system: &'a GeneratedSystem, cache: KnowledgeCache) -> Self {
        let n = system.n();
        let times = system.horizon().index() + 1;
        Evaluator {
            system,
            n,
            times,
            num_points: system.num_runs() * times,
            threads: default_threads(),
            state_sets: Vec::new(),
            run_preds: Vec::new(),
            point_preds: Vec::new(),
            cache: FastMap::default(),
            reach_cache: FastMap::default(),
            scope_cache: FastMap::default(),
            key_memo: FastMap::default(),
            symmetry: system.symmetry(),
            family_closed_memo: FastMap::default(),
            shared: cache,
            chaos: Arc::new(NoChaos),
            plan_mode: true,
            batch_mode: true,
        }
    }

    /// Switches between the compiled-plan evaluation pipeline (the
    /// default) and the recursive reference evaluator. Both produce
    /// bit-identical results; the recursive path is kept as the oracle
    /// for differential testing and debugging.
    pub fn set_plan_mode(&mut self, enabled: bool) {
        self.plan_mode = enabled;
    }

    /// Whether formulas are evaluated through compiled plans (see
    /// [`FormulaPlan`]).
    #[must_use]
    pub fn plan_mode(&self) -> bool {
        self.plan_mode
    }

    /// Switches batched reachability (the default) on or off. When on,
    /// plan execution prefetches every nonrigid set a plan needs through
    /// one [`crate::reach::BatchBuilder`] sweep; when off, each set is
    /// resolved on demand by the per-set path. Both are bit-identical;
    /// the per-set path is kept as the differential-test oracle.
    pub fn set_batch_mode(&mut self, enabled: bool) {
        self.batch_mode = enabled;
    }

    /// Whether plan execution batch-prefetches reachability structures.
    #[must_use]
    pub fn batch_mode(&self) -> bool {
        self.batch_mode
    }

    /// Sets the number of worker threads used to collect reachability
    /// edges (clamped to at least 1). Results are identical for every
    /// thread count.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Installs a fault injector ([`eba_sim::chaos`]) consulted once per
    /// reachability worker item. An injected capacity fault at this site
    /// degrades to a supervised panic (reachability itself is
    /// infallible); panics and delays behave as at any other site.
    pub fn set_chaos(&mut self, injector: Arc<dyn FaultInjector>) {
        self.chaos = injector;
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
    /// for point predicates is full — the realistic overflow site, since
    /// fixpoint iteration registers one predicate per iteration.
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
    /// In plan mode (the default) the formula is lowered to a
    /// [`FormulaPlan`] — a deduplicated DAG of dense-bitset kernels —
    /// and executed over the system's columnar [`eba_sim::PointStore`];
    /// otherwise the recursive reference evaluator runs. Both paths
    /// produce bit-identical bitsets and share the same per-subformula
    /// memo, so they can be mixed freely on one evaluator.
    pub fn eval(&mut self, formula: &Formula) -> Arc<Bitset> {
        if let Some(cached) = self.cache.get(formula) {
            return Arc::clone(cached);
        }
        if self.plan_mode {
            let plan = FormulaPlan::compile(formula);
            return self.eval_plan(&plan);
        }
        let result = Arc::new(self.compute(formula));
        self.cache.insert(formula.clone(), Arc::clone(&result));
        result
    }

    /// Executes a compiled plan, returning the extension of its root.
    ///
    /// Every cacheable node's result is recorded in (and served from)
    /// the same formula-keyed memo that [`Evaluator::eval`] uses.
    pub fn eval_plan(&mut self, plan: &FormulaPlan) -> Arc<Bitset> {
        crate::plan::execute(self, plan)
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
    /// costs one bucket sweep instead of a formula build, a plan
    /// compile, and a closure kernel.
    ///
    /// The fusion is sound because `B^S_i ψ` is constant across a bucket
    /// (all its points share `i`'s view): it fails somewhere in bucket
    /// `v` iff `v`'s bucket contains an in-scope point falsifying `ψ`,
    /// which is exactly the views-where disqualification rule. The
    /// optimize steps use this for their decision-set extractions.
    pub fn views_believing(&mut self, scope: NonRigidSet, psi: &Formula, sets: &mut StateSets) {
        let psi_bits = self.eval(psi);
        let scopes = self.scope_columns(scope);
        let store = self.system.points();
        let table = self.system.table();
        if let Some(classes) = self.classes() {
            // Orbit twist: a view is disqualified when its *class* is
            // falsified from any in-scope processor anywhere (see
            // `knowledge_like_quotient`); emission stays per-processor
            // over the occurring (nonempty) buckets, so the extracted
            // family is orbit-closed over occurring views by
            // construction.
            let class_ok = self.class_ok_scoped(&psi_bits, &scopes, classes);
            for p in ProcessorId::all(self.n) {
                let (offsets, _) = store.buckets(p);
                for (v, w) in table.ids().zip(offsets.windows(2)) {
                    if w[0] != w[1] && class_ok[classes.class(v) as usize] {
                        sets.insert(p, v);
                    }
                }
            }
            return;
        }
        let mut bad = vec![false; table.len()];
        for p in ProcessorId::all(self.n) {
            let column = store.column(p);
            let (offsets, _) = store.buckets(p);
            let mut viol = Bitset::clone(&scopes[p.index()]);
            viol.and_not(&psi_bits);
            bad.fill(false);
            for pt in viol.ones() {
                bad[column[pt].index()] = true;
            }
            for (v, w) in table.ids().zip(offsets.windows(2)) {
                if w[0] != w[1] && !bad[v.index()] {
                    sets.insert(p, v);
                }
            }
        }
    }

    /// For an *equivariant family* `(ψ_i)` — one where `ψ_{σ(i)}` holds
    /// at a relabeled point exactly when `ψ_i` holds at the original —
    /// the per-processor belief columns `B^S_i ψ_i`, indexed by `i`.
    ///
    /// On an unreduced system this is `n` independent belief
    /// evaluations. On a quotient the falsified orbit classes are
    /// collected **once** across the whole family (processor `q`'s
    /// in-scope `¬ψ_q` points mark the class of `q`'s view) and then
    /// projected per processor; by equivariance that is exactly the full
    /// system's answer restricted to representatives even though each
    /// `ψ_i` alone is asymmetric (DESIGN.md §4i). The optimality checker
    /// uses this to fold its per-processor decision conditions.
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
        if let Some(classes) = self.classes() {
            let store = self.system.points();
            let mut class_ok = vec![true; classes.num_classes()];
            for q in ProcessorId::all(self.n) {
                let column = store.column(q);
                let mut viol = Bitset::clone(&scopes[q.index()]);
                viol.and_not(&psi_bits[q.index()]);
                for pt in viol.ones() {
                    class_ok[classes.class(column[pt]) as usize] = false;
                }
            }
            return ProcessorId::all(self.n)
                .map(|p| self.project_class_ok(p, &class_ok, classes))
                .collect();
        }
        psi_bits
            .iter()
            .zip(ProcessorId::all(self.n))
            .map(|(phi, p)| crate::plan::know_close(self, p, phi, Some(&scopes[p.index()])))
            .collect()
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
    /// body and scope, so each kernel's orbit twist is pointwise-exact on
    /// representatives. Weaker than [`Evaluator::formula_symmetric`]
    /// (asymmetric leaves like `StateIn` may appear *outside* knowledge
    /// operators); such formulas evaluate correctly **at** representative
    /// points but their quotient validity is not full-system validity —
    /// the optimality checker folds the whole equivariant family for
    /// that.
    pub fn quotient_compatible(&mut self, f: &Formula) -> bool {
        let mut family_ok = |id: StateSetsId| self.family_orbit_closed(id);
        f.quotient_compatible(&mut family_ok)
    }

    fn for_each_view_where(
        &mut self,
        p: ProcessorId,
        formula: &Formula,
        mut emit: impl FnMut(ViewId),
    ) {
        let set = self.eval(formula);
        // A view qualifies iff its bucket (the points where `p` has it)
        // is nonempty and contains no point falsifying the formula, so
        // walk the falsifying points and disqualify their buckets.
        let store = self.system.points();
        let column = store.column(p);
        let (offsets, _) = store.buckets(p);
        let table = self.system.table();
        let mut bad = vec![false; table.len()];
        let mut unsat = Bitset::clone(&set);
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

    fn compute(&mut self, formula: &Formula) -> Bitset {
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
                let pred = self.run_preds[id.0 as usize].clone();
                self.broadcast_run_level(|r| pred[r.index()])
            }
            Formula::PointPred(id) => (*self.point_preds[id.0 as usize]).clone(),
            Formula::Not(inner) => {
                let mut out = (*self.eval(inner)).clone();
                out.invert();
                out
            }
            Formula::And(fs) => {
                let mut out = Bitset::new_true(self.num_points);
                for f in fs {
                    out &= &self.eval(f);
                }
                out
            }
            Formula::Or(fs) => {
                let mut out = Bitset::new_false(self.num_points);
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
                let believes: Vec<Bitset> = (0..self.n)
                    .map(|i| {
                        let phi = self.eval(inner);
                        self.knowledge_like(ProcessorId::new(i), &phi, Some(*s))
                    })
                    .collect();
                let mut out = Bitset::new_true(self.num_points);
                for run in self.system.run_ids() {
                    for time in Time::upto(self.system.horizon()) {
                        let idx = self.point_index(run, time);
                        let members = self.members(*s, run, time);
                        let ok = members.iter().all(|i| believes[i.index()].get(idx));
                        out.set(idx, ok);
                    }
                }
                out
            }
            Formula::Someone(s, inner) => {
                let believes: Vec<Bitset> = (0..self.n)
                    .map(|i| {
                        let phi = self.eval(inner);
                        self.knowledge_like(ProcessorId::new(i), &phi, Some(*s))
                    })
                    .collect();
                let mut out = Bitset::new_false(self.num_points);
                for run in self.system.run_ids() {
                    for time in Time::upto(self.system.horizon()) {
                        let idx = self.point_index(run, time);
                        let members = self.members(*s, run, time);
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
                self.common_from_reach(&phi, &reach)
            }
            Formula::ContinualCommon(s, inner) => {
                let phi = self.eval(inner);
                let reach = self.reachability(*s);
                self.continual_common_from_reach(&phi, &reach)
            }
            Formula::Always(inner) => {
                let phi = self.eval(inner);
                self.always_of(&phi)
            }
            Formula::Eventually(inner) => {
                let phi = self.eval(inner);
                self.eventually_of(&phi)
            }
            Formula::AlwaysAll(inner) => {
                let phi = self.eval(inner);
                self.always_all_of(&phi)
            }
            Formula::SometimeAll(inner) => {
                let phi = self.eval(inner);
                self.sometime_all_of(&phi)
            }
        }
    }

    /// `C_S φ` from a reachability structure: φ holds throughout the
    /// point's component (vacuously where `S` is empty). Shared between
    /// the recursive evaluator and the plan's `ReachClose` kernel.
    pub(crate) fn common_from_reach(&self, phi: &Bitset, reach: &Reachability) -> Bitset {
        // comp_sat[c] = φ holds at every point of component c. Only the
        // violations matter, so sweep φ's zero bits word-parallel.
        let mut comp_sat = vec![true; reach.num_point_comps];
        for idx in phi.zeros() {
            let c = reach.point_comp[idx];
            if c != u32::MAX {
                comp_sat[c as usize] = false;
            }
        }
        // Assemble the output a word at a time: a point qualifies where
        // S is empty (vacuous E_S^k for all k) or its component is clean.
        let mut out = Bitset::new_false(self.num_points);
        for (word, comps) in out.words_mut().iter_mut().zip(reach.point_comp.chunks(64)) {
            let mut w = 0u64;
            for (bit, &c) in comps.iter().enumerate() {
                let ok = c == u32::MAX || comp_sat[c as usize];
                w |= u64::from(ok) << bit;
            }
            *word = w;
        }
        out
    }

    /// `C□_S φ` from a reachability structure: the run-component
    /// projection of [`Evaluator::common_from_reach`].
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
            if reach.point_comp[idx] != u32::MAX {
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

    /// Evaluates a leaf formula (no subformulas) directly; the plan's
    /// `Load` kernel.
    ///
    /// # Panics
    ///
    /// Panics if called on a non-leaf formula — the plan compiler only
    /// emits `Load` for leaves.
    pub(crate) fn compute_leaf(&mut self, formula: &Formula) -> Bitset {
        debug_assert!(
            matches!(
                formula,
                Formula::True
                    | Formula::False
                    | Formula::Exists(_)
                    | Formula::Initial(..)
                    | Formula::Nonfaulty(_)
                    | Formula::StateIn(..)
                    | Formula::RunPred(_)
                    | Formula::PointPred(_)
            ),
            "Load kernel applied to a non-leaf formula"
        );
        self.compute(formula)
    }

    /// The view-orbit classes of a quotiented system, or `None` on an
    /// unreduced one. The reference outlives `&self` (it is computed
    /// lazily inside the system's [`SymmetryInfo`]), so callers can hold
    /// it across subsequent `&mut self` calls.
    pub(crate) fn classes(&self) -> Option<&'a ViewClasses> {
        self.symmetry
            .map(|si| si.classes(self.system.table(), self.n))
    }

    /// The surviving orbit classes for an *unscoped* knowledge kernel:
    /// class `c` stays `true` unless some processor's view at some
    /// `¬φ` point falls in `c`.
    pub(crate) fn class_ok_unscoped(&self, phi: &Bitset, classes: &ViewClasses) -> Vec<bool> {
        let store = self.system.points();
        let mut class_ok = vec![true; classes.num_classes()];
        let mut viol = phi.clone();
        viol.invert();
        for q in ProcessorId::all(self.n) {
            let column = store.column(q);
            for pt in viol.ones() {
                class_ok[classes.class(column[pt]) as usize] = false;
            }
        }
        class_ok
    }

    /// The surviving orbit classes for a *scoped* knowledge kernel:
    /// class `c` is falsified by processor `q`'s view at a `¬φ` point
    /// only where `q` is in scope there (`scopes` are the per-processor
    /// scope columns of the nonrigid set).
    pub(crate) fn class_ok_scoped(
        &self,
        phi: &Bitset,
        scopes: &[Bitset],
        classes: &ViewClasses,
    ) -> Vec<bool> {
        let store = self.system.points();
        let mut class_ok = vec![true; classes.num_classes()];
        for q in ProcessorId::all(self.n) {
            let column = store.column(q);
            let mut viol = Bitset::clone(&scopes[q.index()]);
            viol.and_not(phi);
            for pt in viol.ones() {
                class_ok[classes.class(column[pt]) as usize] = false;
            }
        }
        class_ok
    }

    /// Projects a per-class verdict onto processor `p`'s point column:
    /// bit `idx` holds the verdict of the orbit class of `p`'s view at
    /// point `idx`.
    pub(crate) fn project_class_ok(
        &self,
        p: ProcessorId,
        class_ok: &[bool],
        classes: &ViewClasses,
    ) -> Bitset {
        let column = self.system.points().column(p);
        let mut out = Bitset::new_false(self.num_points);
        for (idx, &v) in column.iter().enumerate() {
            if class_ok[classes.class(v) as usize] {
                out.set(idx, true);
            }
        }
        out
    }

    /// The orbit twist of [`Evaluator::knowledge_like`]: on a quotiented
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
            None => self.class_ok_unscoped(phi, classes),
            Some(s) => {
                let scopes = self.scope_columns(s);
                self.class_ok_scoped(phi, &scopes, classes)
            }
        };
        self.project_class_ok(p, &class_ok, classes)
    }

    /// Shared implementation of `K_p` (with `restrict = None`) and `B^S_p`
    /// (with `restrict = Some(S)`): the result at a point depends only on
    /// `p`'s view there, and is the conjunction of `φ` over all points
    /// where `p` has that view (and, for `B`, belongs to `S`).
    pub(crate) fn knowledge_like(
        &mut self,
        p: ProcessorId,
        phi: &Bitset,
        restrict: Option<NonRigidSet>,
    ) -> Bitset {
        if let Some(classes) = self.classes() {
            return self.knowledge_like_quotient(p, phi, restrict, classes);
        }
        let table_len = self.system.table().len();
        let mut view_ok = vec![true; table_len];
        for run in self.system.run_ids() {
            for time in Time::upto(self.system.horizon()) {
                let idx = self.point_index(run, time);
                if phi.get(idx) {
                    continue;
                }
                let in_scope = match restrict {
                    None => true,
                    Some(s) => self.members(s, run, time).contains(p),
                };
                if in_scope {
                    let v = self.system.view(run, p, time);
                    view_ok[v.index()] = false;
                }
            }
        }
        let mut out = Bitset::new_false(self.num_points);
        for run in self.system.run_ids() {
            for time in Time::upto(self.system.horizon()) {
                let idx = self.point_index(run, time);
                let v = self.system.view(run, p, time);
                out.set(idx, view_ok[v.index()]);
            }
        }
        out
    }

    /// `D_S φ`: at a point `p`, φ holds at every point `q` that the
    /// members of `S(p)` *jointly* cannot distinguish from `p` — same
    /// membership-relevant views for every member. Points are bucketed by
    /// `(S(p), members' views)`; `D` holds iff φ holds throughout the
    /// bucket. With `S(p)` empty every point is indistinguishable and the
    /// operator is vacuous (matching `E_S`'s convention).
    pub(crate) fn distributed_knowledge(&mut self, s: NonRigidSet, phi: &Bitset) -> Bitset {
        use std::collections::hash_map::Entry;
        if self.symmetry.is_some() {
            return self.distributed_knowledge_quotient(s, phi);
        }
        let mut bucket_of: Vec<u32> = vec![u32::MAX; self.num_points];
        let mut sat: Vec<bool> = Vec::new();
        let mut index: FastMap<(u128, Vec<ViewId>), u32> = FastMap::default();
        let mut all_empty_ok = true;
        for run in self.system.run_ids() {
            for time in Time::upto(self.system.horizon()) {
                let idx = self.point_index(run, time);
                let members = self.members(s, run, time);
                if members.is_empty() {
                    all_empty_ok &= phi.get(idx);
                    continue;
                }
                let views: Vec<ViewId> = members
                    .iter()
                    .map(|i| self.system.view(run, i, time))
                    .collect();
                let bucket = match index.entry((members.bits(), views)) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(e) => {
                        let id = sat.len() as u32;
                        e.insert(id);
                        sat.push(true);
                        id
                    }
                };
                bucket_of[idx] = bucket;
                sat[bucket as usize] &= phi.get(idx);
            }
        }
        let mut out = Bitset::new_false(self.num_points);
        for (idx, &bucket) in bucket_of.iter().enumerate() {
            let ok = if bucket == u32::MAX {
                // S empty here: every point (with S empty) is jointly
                // indistinguishable from this one.
                all_empty_ok
            } else {
                sat[bucket as usize]
            };
            out.set(idx, ok);
        }
        out
    }

    /// The orbit twist of [`Evaluator::distributed_knowledge`]: points
    /// are bucketed by a *canonical joint key* — the minimum over all
    /// relabelings `π` of a slot-ascending mix of the members'
    /// `π`-relabeled view hashes (slot `j` holds processor `π⁻¹(j)`;
    /// non-members contribute a fixed marker). Two representative points
    /// get equal keys exactly when some relabeling maps one's
    /// membership-and-views profile onto the other's, which is joint
    /// indistinguishability in the full system, so the bucket verdicts
    /// answer the full system's `D_S` for symmetric `φ` (DESIGN.md §4i).
    fn distributed_knowledge_quotient(&mut self, s: NonRigidSet, phi: &Bitset) -> Bitset {
        use eba_sim::symmetry::{for_each_permuted_hashes, mix};
        let s_members = self.collect_s_members(s);
        let store = self.system.points();
        let n = self.n;
        let mut keys = vec![u128::MAX; self.num_points];
        for_each_permuted_hashes(self.system.table(), n, |perm, hashes| {
            let inv = perm.inverse();
            for (idx, members) in s_members.iter().enumerate() {
                if members.is_empty() {
                    continue;
                }
                let mut h = 3u128;
                for j in 0..n {
                    let q = inv.apply(ProcessorId::new(j));
                    h = if members.contains(q) {
                        mix(h, hashes[store.column(q)[idx].index()])
                    } else {
                        mix(h, u128::MAX - 2)
                    };
                }
                if h < keys[idx] {
                    keys[idx] = h;
                }
            }
        });
        let mut bucket_of: Vec<u32> = vec![u32::MAX; self.num_points];
        let mut sat: Vec<bool> = Vec::new();
        let mut index: FastMap<u128, u32> = FastMap::default();
        let mut all_empty_ok = true;
        for (idx, members) in s_members.iter().enumerate() {
            if members.is_empty() {
                all_empty_ok &= phi.get(idx);
                continue;
            }
            let bucket = *index.entry(keys[idx]).or_insert_with(|| {
                sat.push(true);
                (sat.len() - 1) as u32
            });
            bucket_of[idx] = bucket;
            sat[bucket as usize] &= phi.get(idx);
        }
        let mut out = Bitset::new_false(self.num_points);
        for (idx, &bucket) in bucket_of.iter().enumerate() {
            let ok = if bucket == u32::MAX {
                all_empty_ok
            } else {
                sat[bucket as usize]
            };
            out.set(idx, ok);
        }
        out
    }

    /// Computes (or fetches) the reachability structure of `s`.
    ///
    /// Lookup is staged: this evaluator's local memo first, then the
    /// shared [`KnowledgeCache`] (keyed by the set's *content*, so a hit
    /// can come from a different evaluator over the same system), and only
    /// then a fresh computation, which is published to both.
    pub fn reachability(&mut self, s: NonRigidSet) -> Arc<Reachability> {
        if let Some(cached) = self.reach_cache.get(&s) {
            self.shared.note_local_hit(false);
            return Arc::clone(cached);
        }
        let key = self.hashed_key(s);
        let built = match self.shared.get(&key) {
            Some(shared) => {
                debug_assert_eq!(
                    shared.num_points(),
                    self.num_points,
                    "knowledge cache shared across different systems"
                );
                shared
            }
            None => {
                let built = Arc::new(self.build_reachability(s));
                self.shared.insert(&key, Arc::clone(&built));
                built
            }
        };
        self.reach_cache.insert(s, Arc::clone(&built));
        built
    }

    /// The content key of `s`, canonicalized and hashed **once** per
    /// `(evaluator, set)` and reused across every staged lookup — the
    /// reachability get/insert pair and the scope-column get/insert pair
    /// all share one digest instead of re-hashing the (potentially large)
    /// canonical view lists.
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
    /// [`Evaluator::members`], used by the plan kernels).
    ///
    /// Lookup is staged like [`Evaluator::reachability`]: the local memo,
    /// then the shared [`KnowledgeCache`] under the set's content key,
    /// then a fresh columnar build over the [`eba_sim::PointStore`].
    pub fn scope_columns(&mut self, s: NonRigidSet) -> ScopeColumns {
        if let Some(cached) = self.scope_cache.get(&s) {
            self.shared.note_local_hit(true);
            return Arc::clone(cached);
        }
        let key = self.hashed_key(s);
        let built = match self.shared.get_scopes(&key) {
            Some(shared) => {
                debug_assert!(
                    shared.iter().all(|b| b.len() == self.num_points),
                    "knowledge cache shared across different systems"
                );
                shared
            }
            // `insert_scopes` interns by content: the Arc it hands back
            // may be an existing, identical column vector.
            None => self
                .shared
                .insert_scopes(&key, Arc::new(self.build_scope_columns(s))),
        };
        self.scope_cache.insert(s, Arc::clone(&built));
        built
    }

    fn build_scope_columns(&self, s: NonRigidSet) -> Vec<Bitset> {
        let store = self.system.points();
        ProcessorId::all(self.n)
            .map(|p| match s {
                NonRigidSet::Everyone => Bitset::new_true(self.num_points),
                NonRigidSet::Nonfaulty => {
                    self.broadcast_run_level(|r| self.system.nonfaulty(r).contains(p))
                }
                NonRigidSet::NonfaultyAnd(id) => {
                    let sets = &self.state_sets[id.0 as usize];
                    // Membership test per interned view, then a column
                    // scan — no hashing per point.
                    let mut in_sets = vec![false; self.system.table().len()];
                    for v in self.system.table().ids() {
                        in_sets[v.index()] = sets.contains(p, v);
                    }
                    let mut out =
                        self.broadcast_run_level(|r| self.system.nonfaulty(r).contains(p));
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

    /// Collects the union edges contributed by processor `i`: one edge per
    /// `S`-containing point after the first per distinct view of `i`.
    ///
    /// Walks the precomputed CSR bucket partition of the
    /// [`eba_sim::PointStore`] rather than rescanning and hashing views.
    /// Buckets hold their points in increasing point order, so each
    /// bucket's first `S`-containing point is exactly the root a
    /// sequential point scan would pick — the edge *set* (and hence the
    /// union-find partition) is identical to the scan-based reference.
    fn collect_reach_edges(&self, i: ProcessorId, s_members: &[ProcSet]) -> Vec<(u32, u32)> {
        let store = self.system.points();
        let (offsets, items) = store.buckets(i);
        let mut edges = Vec::new();
        for b in offsets.windows(2) {
            let bucket = &items[b[0] as usize..b[1] as usize];
            let mut root = u32::MAX;
            for &idx in bucket {
                if !s_members[idx as usize].contains(i) {
                    continue;
                }
                if root == u32::MAX {
                    root = idx;
                } else {
                    edges.push((root, idx));
                }
            }
        }
        edges
    }

    /// The members of `s` at every point, indexed linearly. Shared by the
    /// per-set reachability build and the batched sweep
    /// ([`crate::reach::BatchBuilder`]).
    pub(crate) fn collect_s_members(&self, s: NonRigidSet) -> Vec<ProcSet> {
        let mut s_members = vec![ProcSet::empty(); self.num_points];
        for run in self.system.run_ids() {
            for time in Time::upto(self.system.horizon()) {
                let idx = self.point_index(run, time);
                s_members[idx] = self.members(s, run, time);
            }
        }
        s_members
    }

    /// Applies the quotient edge rule to a fresh union-find: points
    /// whose in-scope views share an *orbit class* are linked (first
    /// point seen per class acts as the class root). The resulting
    /// partition can be coarser than the full system's components
    /// restricted to representatives, but the per-component clean/dirty
    /// verdict — all that `C_S`/`C□_S` ever read — agrees for symmetric
    /// `φ`: full-system chains project onto class chains, and a class
    /// chain lifts to a full-system chain into a relabeled copy of the
    /// same component (DESIGN.md §4i). Shared with the batched sweep.
    pub(crate) fn union_quotient_reach_edges(
        &self,
        s_members: &[ProcSet],
        classes: &ViewClasses,
        uf: &mut UnionFind,
    ) {
        let store = self.system.points();
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

    fn build_reachability(&self, s: NonRigidSet) -> Reachability {
        let s_members = self.collect_s_members(s);

        if let Some(classes) = self.classes() {
            // The quotient sweep touches every (point, member) pair once
            // and is far smaller than the unreduced edge collection, so
            // it always runs sequentially.
            let mut uf = UnionFind::new(self.num_points);
            self.union_quotient_reach_edges(&s_members, classes, &mut uf);
            return self.finish_reachability(s_members, &mut uf);
        }

        // Point-level union-find: two points are linked when some i ∈ S at
        // both has the same view at both. Bucket by (i's view). Edge
        // collection is independent per processor, so it fans out across
        // the supervised worker pool of `eba_sim::chaos`; the unions are
        // applied sequentially in processor order afterwards, giving the
        // exact edge sequence of a single-threaded scan (and hence
        // identical components) for every thread count. A panicking
        // worker item is retried and then recomputed sequentially —
        // `collect_reach_edges` is pure, so recovery is transparent.
        let workers = self.threads.min(self.n);
        let per_proc_edges: Vec<Vec<(u32, u32)>> =
            if workers > 1 && self.num_points >= PARALLEL_POINTS_THRESHOLD {
                let s_members_ref = &s_members;
                let chaos = &*self.chaos;
                let supervised =
                    supervised_indexed(self.n, workers, FaultSite::ReachabilityWorker, |i| {
                        if let Err(e) = chaos.inject(FaultSite::ReachabilityWorker, i) {
                            // Reachability is infallible, so an injected
                            // capacity fault degrades to a supervised
                            // panic here rather than a typed error.
                            panic!("{e}");
                        }
                        self.collect_reach_edges(ProcessorId::new(i), s_members_ref)
                    });
                match supervised {
                    Ok((edges, _faults)) => edges,
                    // A processor that panics on the initial attempt, the
                    // retry, and the sequential fallback is a
                    // deterministic bug; surface the typed fault's
                    // rendering rather than a bare join `expect`.
                    Err(fault) => panic!("{fault}"),
                }
            } else {
                ProcessorId::all(self.n)
                    .map(|i| self.collect_reach_edges(i, &s_members))
                    .collect()
            };
        let mut uf = UnionFind::new(self.num_points);
        for edges in &per_proc_edges {
            for &(a, b) in edges {
                uf.union(a as usize, b as usize);
            }
        }
        self.finish_reachability(s_members, &mut uf)
    }

    /// Compacts a fully-unioned point partition into a [`Reachability`]:
    /// component numbering, the run projection, and the `S`-emptiness
    /// mask. Shared by the per-set build and the batched sweep; given the
    /// same union sequence, the output is bit-identical either way.
    pub(crate) fn finish_reachability(
        &self,
        s_members: Vec<ProcSet>,
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
        let num_point_comps = first_run_of_comp.len();
        let (run_comp, _) = run_uf.component_ids();

        Reachability {
            point_comp,
            num_point_comps,
            run_comp,
            run_has_s_points,
            s_members,
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
        // The unreduced branch runs the plan's bucket-sweep closure; the
        // recursive oracle evaluates each `B^S_i ψ_i` on its own.
        let system = crash_system();
        let mut eval = Evaluator::new(&system);
        let mut oracle = Evaluator::new(&system);
        oracle.set_plan_mode(false);
        let seen_one = || StateSets::with_value_seen(system.table(), 3, Value::One);
        let id = eval.register_state_sets(seen_one());
        assert_eq!(oracle.register_state_sets(seen_one()), id);
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
            let members = reach.members(idx);
            assert_eq!(members, eval.members(NonRigidSet::Nonfaulty, run, time));
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
        let mut a = Evaluator::with_cache(&system, cache.clone());
        let ra = a.reachability(NonRigidSet::Nonfaulty);
        assert_eq!(cache.len(), 1);
        let mut b = Evaluator::with_cache(&system, cache.clone());
        let rb = b.reachability(NonRigidSet::Nonfaulty);
        assert!(
            Arc::ptr_eq(&ra, &rb),
            "second evaluator must reuse the cached structure"
        );
        assert_eq!(cache.len(), 1);
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
    fn parallel_reachability_matches_sequential() {
        // Big enough to cross PARALLEL_POINTS_THRESHOLD, so the threaded
        // edge-collection path actually runs.
        let scenario = Scenario::new(3, 2, FailureMode::Crash, 3).unwrap();
        let system = GeneratedSystem::exhaustive(&scenario);
        assert!(
            system.num_points() >= PARALLEL_POINTS_THRESHOLD,
            "test scenario no longer exercises the parallel path"
        );
        let mut seq = Evaluator::new(&system);
        seq.set_threads(1);
        let mut par = Evaluator::new(&system);
        par.set_threads(4);
        for s in [NonRigidSet::Everyone, NonRigidSet::Nonfaulty] {
            let a = seq.reachability(s);
            let b = par.reachability(s);
            assert_eq!(a.num_point_components(), b.num_point_components());
            for idx in 0..system.num_points() {
                assert_eq!(
                    a.point_component(idx),
                    b.point_component(idx),
                    "component of point {idx} under {s:?}"
                );
            }
        }
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
    fn injected_reachability_panic_degrades_to_identical_result() {
        use eba_sim::chaos::{ChaosPlan, FaultKind};
        // Big enough to cross PARALLEL_POINTS_THRESHOLD, so the
        // supervised pool actually runs and the injected panic lands in a
        // worker, not on the calling thread.
        let scenario = Scenario::new(3, 2, FailureMode::Crash, 3).unwrap();
        let system = GeneratedSystem::exhaustive(&scenario);
        assert!(system.num_points() >= PARALLEL_POINTS_THRESHOLD);
        let mut baseline = Evaluator::new(&system);
        baseline.set_threads(1);
        let base = baseline.reachability(NonRigidSet::Nonfaulty);

        let plan = Arc::new(ChaosPlan::new().with_fault(
            FaultSite::ReachabilityWorker,
            0,
            FaultKind::Panic,
        ));
        let mut chaotic = Evaluator::new(&system);
        chaotic.set_threads(4);
        chaotic.set_chaos(Arc::clone(&plan) as Arc<dyn FaultInjector>);
        let got = chaotic.reachability(NonRigidSet::Nonfaulty);
        assert_eq!(plan.fired(), 1, "the planned panic must have fired");
        assert_eq!(base.num_point_components(), got.num_point_components());
        for idx in 0..system.num_points() {
            assert_eq!(
                base.point_component(idx),
                got.point_component(idx),
                "component of point {idx} after worker recovery"
            );
        }
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
