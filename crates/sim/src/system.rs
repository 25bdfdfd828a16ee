//! Generated systems: the set of runs of the full-information protocol.

use crate::builder::{SystemBuilder, RUN_CAPACITY};
use crate::exchange::try_exchange_views;
use crate::points::PointStore;
use crate::symmetry::{self, SymmetryInfo};
use crate::view::{ViewId, ViewTable};
use eba_model::fasthash::{FastHasher, FastMap};
use eba_model::symmetry::Perm;
use eba_model::{
    sample, FailurePattern, InitialConfig, ModelError, ProcSet, ProcessorId, Scenario, Time,
};
use std::collections::hash_map::Entry;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identifies a run within a [`GeneratedSystem`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RunId(u32);

impl RunId {
    /// The index of this run.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a run id from an index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit a `u32`; for untrusted indices use
    /// [`RunId::try_new`].
    #[must_use]
    pub fn new(index: usize) -> Self {
        RunId::try_new(index).expect("run id overflow")
    }

    /// Fallible [`RunId::new`], reporting id-space exhaustion as a
    /// [`ModelError::CapacityExceeded`] instead of panicking.
    pub fn try_new(index: usize) -> Result<Self, ModelError> {
        u32::try_from(index)
            .map(RunId)
            .map_err(|_| ModelError::capacity_exceeded("run ids", RUN_CAPACITY))
    }
}

/// The defining data of one run: runs are uniquely determined by an
/// initial configuration and a failure pattern (Section 2.3).
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// The run's initial configuration.
    pub config: InitialConfig,
    /// The run's failure pattern.
    pub pattern: FailurePattern,
    /// The set of processors nonfaulty throughout the run (the value of
    /// the nonrigid set `N` on this run).
    pub nonfaulty: ProcSet,
}

/// The [`GeneratedSystem::find_run`] index: run ids keyed by a 64-bit
/// hash of `(config, pattern)` ([`RunIndex::key`]). It holds no copy of
/// either; a lookup confirms each candidate with the caller's predicate
/// (against the run records), and a run whose key collides with an
/// earlier run's waits in a list that lookups of that key scan.
#[derive(Clone, Debug, Default)]
struct RunIndex {
    first: FastMap<u64, RunId>,
    collided: Vec<(u64, RunId)>,
}

impl RunIndex {
    /// The key of the run `(config, pattern)`.
    fn key(config: &InitialConfig, pattern: &FailurePattern) -> u64 {
        let mut h = FastHasher::default();
        h.write_u128(config.to_bits());
        pattern.hash(&mut h);
        h.finish()
    }

    /// Indexes every run of `runs` under its own key.
    fn build(runs: &[RunRecord]) -> Self {
        let mut index = RunIndex::default();
        index.first.reserve(runs.len());
        for (i, record) in runs.iter().enumerate() {
            index.insert(
                RunIndex::key(&record.config, &record.pattern),
                RunId::new(i),
            );
        }
        index
    }

    fn insert(&mut self, key: u64, id: RunId) {
        match self.first.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert(id);
            }
            Entry::Occupied(_) => self.collided.push((key, id)),
        }
    }

    /// The run of `runs` that is `(config, pattern)`, if indexed.
    fn get(
        &self,
        runs: &[RunRecord],
        config: &InitialConfig,
        pattern: &FailurePattern,
    ) -> Option<RunId> {
        self.find(RunIndex::key(config, pattern), |r| {
            let record = &runs[r.index()];
            record.config == *config && record.pattern == *pattern
        })
    }

    /// The first run indexed under `key` that `is` accepts.
    fn find(&self, key: u64, is: impl Fn(RunId) -> bool) -> Option<RunId> {
        let first = *self.first.get(&key)?;
        if is(first) {
            return Some(first);
        }
        self.collided
            .iter()
            .filter(|&&(k, _)| k == key)
            .map(|&(_, id)| id)
            .find(|&id| is(id))
    }

    fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.first.len() * size_of::<(u64, RunId)>()
            + self.collided.len() * size_of::<(u64, RunId)>()
    }
}

/// The set of runs of the full-information protocol for a scenario, with
/// every processor's view interned at every time.
///
/// This is the paper's system `R_P` (restricted to the FIP and a finite
/// horizon) — the structure over which all knowledge formulas are
/// evaluated. Since all full-information protocols have the same states at
/// corresponding points (Section 2.4, Corollary A.5), a single generated
/// system serves every `FIP(Z, O)` over it: decision pairs are just view
/// predicates layered on top.
///
/// # Example
///
/// ```
/// use eba_model::{FailureMode, Scenario};
/// use eba_sim::GeneratedSystem;
///
/// # fn main() -> Result<(), eba_model::ModelError> {
/// let scenario = Scenario::new(3, 1, FailureMode::Crash, 2)?;
/// let system = GeneratedSystem::exhaustive(&scenario);
/// // 8 configurations × 25 patterns.
/// assert_eq!(system.num_runs(), 200);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct GeneratedSystem {
    scenario: Scenario,
    runs: Vec<RunRecord>,
    /// Flattened `views[run][time][proc]`.
    views: Vec<ViewId>,
    table: ViewTable,
    lookup: RunIndex,
    /// The columnar point store over the same views, built once at system
    /// construction and shared by every clone of the system.
    store: Arc<PointStore>,
    /// Orbit accounting of a symmetry-quotiented build; `None` for
    /// unreduced systems (the default).
    symmetry: Option<Arc<SymmetryInfo>>,
    /// Process-unique identity; see [`GeneratedSystem::id`].
    id: u64,
}

impl GeneratedSystem {
    /// Generates the system containing **every** run of the scenario:
    /// every initial configuration crossed with every canonical failure
    /// pattern.
    ///
    /// Delegates to [`SystemBuilder`] with its default worker count; use
    /// the builder directly to control threads and shards or to handle
    /// capacity overflow as an error. The size is
    /// `2^n × count_patterns(scenario)`; check
    /// [`eba_model::enumerate::count_patterns`] (or
    /// [`eba_model::ScenarioSpace::total_runs`]) before calling this on
    /// large scenarios.
    ///
    /// # Panics
    ///
    /// Panics if the scenario overflows the run or view id space.
    #[must_use]
    pub fn exhaustive(scenario: &Scenario) -> Self {
        SystemBuilder::new(scenario)
            .build()
            .expect("scenario exceeds id capacity")
    }

    /// Generates a sampled system: `num_runs` random (configuration,
    /// pattern) pairs drawn with the given seed, deduplicated, plus the
    /// failure-free run of every sampled configuration (so corresponding
    /// failure-free behavior is always present).
    #[must_use]
    pub fn sampled(scenario: &Scenario, num_runs: usize, seed: u64) -> Self {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let sampler = sample::PatternSampler::new(*scenario);
        let mut runs = Vec::new();
        for _ in 0..num_runs {
            let config = sample::random_config(scenario.n(), &mut rng);
            let pattern = sampler.sample(&mut rng);
            runs.push((config.clone(), FailurePattern::failure_free(scenario.n())));
            runs.push((config, pattern));
        }
        Self::from_runs(scenario, runs)
    }

    /// Builds a system from an explicit list of runs. Duplicate
    /// (configuration, pattern) pairs are kept only once.
    ///
    /// # Panics
    ///
    /// Panics if a pattern fails validation against the scenario.
    #[must_use]
    pub fn from_runs(scenario: &Scenario, run_specs: Vec<(InitialConfig, FailurePattern)>) -> Self {
        let n = scenario.n();
        let horizon = scenario.horizon();
        let slots_per_run = (horizon.index() + 1) * n;
        let exchange = scenario.exchange();

        let mut table = ViewTable::new();
        let mut runs: Vec<RunRecord> = Vec::new();
        let mut views = Vec::with_capacity(run_specs.len() * slots_per_run);
        let mut seen = RunIndex::default();

        for (config, pattern) in run_specs {
            scenario
                .validate_pattern(&pattern)
                .expect("failure pattern invalid for the scenario");
            if seen.get(&runs, &config, &pattern).is_some() {
                continue;
            }
            seen.insert(RunIndex::key(&config, &pattern), RunId::new(runs.len()));
            let run_views = try_exchange_views(exchange, &config, &pattern, horizon, &mut table)
                .expect("view table overflow");
            for time_views in &run_views {
                views.extend_from_slice(time_views);
            }
            let nonfaulty = pattern.nonfaulty_set();
            runs.push(RunRecord {
                config,
                pattern,
                nonfaulty,
            });
        }

        Self::from_parts(*scenario, runs, views, table, None)
    }

    /// Assembles a system from parts the [`SystemBuilder`] has already
    /// validated (runs in enumeration order, views remapped to `table`),
    /// finishing with the `find_run` index and the columnar
    /// [`PointStore`] — this is the single point where both are built, so
    /// every construction path (exhaustive, sampled, sharded,
    /// budget-partial, extended) carries them.
    pub(crate) fn from_parts(
        scenario: Scenario,
        runs: Vec<RunRecord>,
        views: Vec<ViewId>,
        table: ViewTable,
        symmetry: Option<Arc<SymmetryInfo>>,
    ) -> Self {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        let lookup = RunIndex::build(&runs);
        let times = scenario.horizon().index() + 1;
        let store = Arc::new(PointStore::build(
            scenario.n(),
            times,
            runs.len(),
            &views,
            &table,
        ));
        GeneratedSystem {
            scenario,
            runs,
            views,
            table,
            lookup,
            store,
            symmetry,
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// A process-unique identity of this system, shared by its clones:
    /// every system assembled by [`SystemBuilder`] or
    /// [`GeneratedSystem::from_runs`] gets a new one. A knowledge cache
    /// binds to it, so its point-indexed entries never serve another
    /// system. It is not stable across processes and never reaches any
    /// output.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The scenario this system was generated for.
    #[must_use]
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Number of processors.
    #[must_use]
    pub fn n(&self) -> usize {
        self.scenario.n()
    }

    /// The horizon: every run covers times `0..=horizon`.
    #[must_use]
    pub fn horizon(&self) -> Time {
        self.scenario.horizon()
    }

    /// Number of runs.
    #[must_use]
    pub fn num_runs(&self) -> usize {
        self.runs.len()
    }

    /// Number of (run, time) points.
    #[must_use]
    pub fn num_points(&self) -> usize {
        self.num_runs() * (self.horizon().index() + 1)
    }

    /// Approximate resident heap bytes of the system: run records, the
    /// flattened view matrix, the interned view table, the run-lookup
    /// index, and the columnar point store. Like
    /// [`PointStore::approx_bytes`] this counts lengths, not allocator
    /// capacities — it is a relative figure for memory budgeting (the
    /// serve pool evicts least-recently-used sessions against it), not
    /// an exact heap profile.
    #[must_use]
    pub fn approx_resident_bytes(&self) -> usize {
        use eba_model::FaultyBehavior;
        use std::mem::size_of;
        let n = self.n();
        let pattern_heap = |pat: &FailurePattern| -> usize {
            ProcessorId::all(n)
                .map(|p| match pat.behavior(p) {
                    Some(FaultyBehavior::Omission { omissions }) => {
                        omissions.len() * size_of::<ProcSet>()
                    }
                    _ => 0,
                })
                .sum::<usize>()
                + n * size_of::<Option<FaultyBehavior>>()
        };
        let runs: usize = self
            .runs
            .iter()
            .map(|r| {
                size_of::<RunRecord>()
                    + r.config.n() * size_of::<eba_model::Value>()
                    + pattern_heap(&r.pattern)
            })
            .sum();
        runs + self.lookup.approx_bytes()
            + self.views.len() * size_of::<ViewId>()
            + self.table.approx_bytes()
            + self.store.approx_bytes()
    }

    /// Iterates over all run ids.
    pub fn run_ids(&self) -> impl DoubleEndedIterator<Item = RunId> + Clone {
        (0..self.runs.len()).map(RunId::new)
    }

    /// The record of run `r`.
    #[must_use]
    pub fn run(&self, r: RunId) -> &RunRecord {
        &self.runs[r.index()]
    }

    /// The set of nonfaulty processors of run `r`.
    #[must_use]
    pub fn nonfaulty(&self, r: RunId) -> ProcSet {
        self.runs[r.index()].nonfaulty
    }

    /// The view (FIP local state) of processor `p` at time `time` of run
    /// `r`.
    #[must_use]
    pub fn view(&self, r: RunId, p: ProcessorId, time: Time) -> ViewId {
        let n = self.n();
        let slots_per_run = (self.horizon().index() + 1) * n;
        self.views[r.index() * slots_per_run + time.index() * n + p.index()]
    }

    /// The flattened view row of run `r`: `(horizon + 1) × n` entries,
    /// time-major then processor-major. The horizon-extension path copies
    /// these rows verbatim into the extended system (the extended table
    /// starts as a clone of this system's table, so the ids stay valid).
    pub(crate) fn views_row(&self, r: RunId) -> &[ViewId] {
        let slots_per_run = (self.horizon().index() + 1) * self.n();
        &self.views[r.index() * slots_per_run..(r.index() + 1) * slots_per_run]
    }

    /// The view table holding all interned views.
    #[must_use]
    pub fn table(&self) -> &ViewTable {
        &self.table
    }

    /// The columnar point store: per-processor view columns and CSR
    /// bucket partitions over this system's points (see
    /// [`PointStore`]).
    #[must_use]
    pub fn points(&self) -> &PointStore {
        &self.store
    }

    /// Finds the run with the given configuration and pattern, if present
    /// (used to pair *corresponding runs* across protocols).
    #[must_use]
    pub fn find_run(&self, config: &InitialConfig, pattern: &FailurePattern) -> Option<RunId> {
        self.lookup.get(&self.runs, config, pattern)
    }

    /// The orbit accounting of a symmetry-quotiented build, or `None`
    /// for an unreduced system.
    #[must_use]
    pub fn symmetry(&self) -> Option<&SymmetryInfo> {
        self.symmetry.as_deref()
    }

    /// Resolves a `(config, pattern)` query through the symmetry
    /// quotient: the run itself when present, otherwise the
    /// representative run of the pattern's orbit together with the
    /// witness permutation `σ` carrying the query onto it
    /// (`σ·(config, pattern)` is the representative; the answer about
    /// processor `p` of the queried run lives at processor `σ(p)` of the
    /// representative). Returns `None` when the orbit is absent (sampled
    /// or budget-partial systems).
    #[must_use]
    pub fn resolve_run(
        &self,
        config: &InitialConfig,
        pattern: &FailurePattern,
    ) -> Option<(RunId, Perm)> {
        symmetry::resolve_run(|c, q| self.find_run(c, q), self.n(), config, pattern)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eba_model::{enumerate, FailureMode, Value};

    fn p(i: usize) -> ProcessorId {
        ProcessorId::new(i)
    }

    #[test]
    fn exhaustive_size_matches_enumeration() {
        let scenario = Scenario::new(3, 1, FailureMode::Crash, 2).unwrap();
        let system = GeneratedSystem::exhaustive(&scenario);
        let expected = 8 * enumerate::count_patterns(&scenario) as usize;
        assert_eq!(system.num_runs(), expected);
        assert_eq!(system.num_points(), expected * 3);
    }

    #[test]
    fn views_are_consistent_with_records() {
        let scenario = Scenario::new(3, 1, FailureMode::Crash, 2).unwrap();
        let system = GeneratedSystem::exhaustive(&scenario);
        for r in system.run_ids() {
            let record = system.run(r);
            for q in ProcessorId::all(3) {
                let v0 = system.view(r, q, Time::ZERO);
                assert_eq!(system.table().own_value(v0), record.config.value(q));
                assert_eq!(system.table().time(v0), Time::ZERO);
                assert_eq!(system.table().proc(v0), q);
            }
        }
    }

    #[test]
    fn find_run_locates_corresponding_runs() {
        let scenario = Scenario::new(3, 1, FailureMode::Crash, 2).unwrap();
        let system = GeneratedSystem::exhaustive(&scenario);
        let config = InitialConfig::uniform(3, Value::One);
        let pattern = FailurePattern::failure_free(3);
        let r = system.find_run(&config, &pattern).unwrap();
        assert_eq!(system.run(r).config, config);
        assert_eq!(system.nonfaulty(r), ProcSet::full(3));
    }

    #[test]
    fn from_runs_deduplicates() {
        let scenario = Scenario::new(2, 1, FailureMode::Crash, 1).unwrap();
        let config = InitialConfig::uniform(2, Value::Zero);
        let pattern = FailurePattern::failure_free(2);
        let system = GeneratedSystem::from_runs(
            &scenario,
            vec![(config.clone(), pattern.clone()), (config, pattern)],
        );
        assert_eq!(system.num_runs(), 1);

        // Duplicates interleaved with distinct runs keep the first
        // occurrence, in order.
        let scenario = Scenario::new(3, 1, FailureMode::Omission, 2).unwrap();
        let specs: Vec<_> = enumerate::patterns(&scenario)
            .take(20)
            .flat_map(|pattern| {
                let config = InitialConfig::from_bits(3, pattern.faulty_set().len() as u128);
                [(config.clone(), pattern.clone()), (config, pattern)]
            })
            .collect();
        let mut firsts = specs.clone();
        firsts.dedup();
        let system = GeneratedSystem::from_runs(&scenario, [specs.clone(), specs].concat());
        assert_eq!(system.num_runs(), firsts.len());
        for (r, (config, pattern)) in system.run_ids().zip(&firsts) {
            assert_eq!(
                (&system.run(r).config, &system.run(r).pattern),
                (config, pattern)
            );
        }
    }

    /// Every run is found by its own `(config, pattern)`.
    fn assert_finds_every_run(system: &GeneratedSystem) {
        for r in system.run_ids() {
            let record = system.run(r);
            assert_eq!(system.find_run(&record.config, &record.pattern), Some(r));
        }
    }

    #[test]
    fn find_run_finds_every_run_and_nothing_else() {
        use crate::SystemBuilder;
        let scenario = Scenario::new(3, 1, FailureMode::Omission, 2).unwrap();
        let exhaustive = GeneratedSystem::exhaustive(&scenario);
        let sampled = GeneratedSystem::sampled(&scenario, 60, 11);
        let (extended, _) = SystemBuilder::new(&scenario.with_horizon(3).unwrap())
            .extend(&exhaustive)
            .unwrap();
        for system in [&exhaustive, &sampled, &extended] {
            assert_finds_every_run(system);
        }
        // The sampled system holds a strict subset of the runs.
        assert!(sampled.num_runs() < exhaustive.num_runs());
        let present: std::collections::HashSet<_> = sampled
            .run_ids()
            .map(|r| {
                (
                    sampled.run(r).config.clone(),
                    sampled.run(r).pattern.clone(),
                )
            })
            .collect();
        for r in exhaustive.run_ids() {
            let record = exhaustive.run(r);
            let key = (record.config.clone(), record.pattern.clone());
            assert_eq!(
                sampled.find_run(&record.config, &record.pattern).is_some(),
                present.contains(&key)
            );
        }
        // Pairs from another horizon or another `n` are absent.
        let record = extended.run(RunId::new(extended.num_runs() - 1));
        assert_eq!(exhaustive.find_run(&record.config, &record.pattern), None);
        let other_n = FailurePattern::failure_free(4);
        assert_eq!(
            exhaustive.find_run(&InitialConfig::uniform(4, Value::One), &other_n),
            None
        );
    }

    #[test]
    fn run_index_scans_colliding_keys() {
        let mut index = RunIndex::default();
        index.insert(7, RunId::new(0));
        index.insert(9, RunId::new(1));
        index.insert(7, RunId::new(2));
        index.insert(7, RunId::new(3));
        assert_eq!(index.collided.len(), 2);
        for r in [0, 2, 3] {
            assert_eq!(index.find(7, |c| c == RunId::new(r)), Some(RunId::new(r)));
        }
        // A key's candidates never leak into another key's lookup.
        assert_eq!(index.find(9, |c| c == RunId::new(2)), None);
        assert_eq!(index.find(7, |c| c == RunId::new(1)), None);
        assert_eq!(index.find(8, |_| true), None);
        assert_eq!(index.find(7, |_| false), None);
    }

    #[test]
    fn sampled_systems_are_reproducible() {
        let scenario = Scenario::new(6, 2, FailureMode::Omission, 4).unwrap();
        let a = GeneratedSystem::sampled(&scenario, 50, 9);
        let b = GeneratedSystem::sampled(&scenario, 50, 9);
        assert_eq!(a.num_runs(), b.num_runs());
        for (ra, rb) in a.run_ids().zip(b.run_ids()) {
            assert_eq!(a.run(ra).config, b.run(rb).config);
            assert_eq!(a.run(ra).pattern, b.run(rb).pattern);
        }
    }

    #[test]
    fn interning_shares_views_across_runs() {
        // In a failure-free world every run's views depend only on the
        // configuration, so the table stays small relative to the run
        // count.
        let scenario = Scenario::new(3, 1, FailureMode::Crash, 2).unwrap();
        let system = GeneratedSystem::exhaustive(&scenario);
        assert!(system.table().len() < system.num_points() * system.n());
        // p0's time-0 view appears in many runs but is interned once per
        // initial value.
        let zeros = system
            .run_ids()
            .map(|r| system.view(r, p(0), Time::ZERO))
            .collect::<std::collections::HashSet<_>>();
        assert_eq!(zeros.len(), 2);
    }
}
