//! Staged, shardable, supervised construction of generated systems.
//!
//! [`SystemBuilder`] replaces the monolithic exhaustive generation loop
//! with a three-stage pipeline:
//!
//! 1. **shard** — the scenario's pattern axis is split into deterministic
//!    contiguous chunks by [`ScenarioSpace::shards`];
//! 2. **build** — each shard enumerates its `(pattern, config)` block and
//!    interns full-information views into a *shard-local* [`ViewTable`],
//!    with no shared state, so shards run on independent threads;
//! 3. **merge** — shard tables are absorbed into one canonical table *in
//!    shard order* ([`ViewTable::absorb`]), and shard run lists are
//!    concatenated.
//!
//! Because shards cover contiguous slices of the sequential enumeration
//! order and `absorb` re-interns each shard's views in first-encounter
//! order, the merged system is **bit-identical** to a sequential build:
//! the same `ViewId` and `RunId` assignment for every worker/shard count.
//! Downstream artifacts (decision tables, optimality verdicts, printed
//! ids) therefore never depend on the machine's parallelism.
//!
//! # Robustness (DESIGN.md §4c)
//!
//! Shard workers run under the supervised pool of [`crate::chaos`]: a
//! panicking shard is retried once and then rebuilt sequentially, and
//! because [`build_shard`](SystemBuilder) is a pure function of its
//! shard, the recovered system is bit-identical to an undisturbed one.
//! Only a shard that panics on all three attempts surfaces — as a typed
//! [`EngineFault`] from [`SystemBuilder::build_governed`].
//!
//! A [`RunBudget`] bounds the build cooperatively. The run bound is
//! *planned statically* at shard granularity (each shard's run count is
//! known before any work), so the set of built shards — and therefore the
//! partial system — is deterministic. The wall-clock deadline is checked
//! per pattern inside every shard and the view bound per pattern and per
//! merged shard; exhaustion yields [`BuildOutcome::Partial`] carrying the
//! longest contiguous prefix of completed shards, never a hang or a
//! panic.
//!
//! Id-space overflows surface as [`ModelError::CapacityExceeded`] from
//! [`SystemBuilder::build`] instead of panicking mid-generation.

use crate::chaos::{
    supervised_indexed, EngineFault, FaultInjector, FaultSite, NoChaos, WorkerFault,
};
use crate::exchange::{try_exchange_views, AnyExchange, Exchange};
use crate::symmetry::SymmetryInfo;
use crate::system::{GeneratedSystem, RunId, RunRecord};
use crate::view::{ViewId, ViewTable};
use eba_model::symmetry::{canonicalize, MAX_SYMMETRY_N};
use eba_model::{
    ArmedBudget, BudgetHit, HorizonDelta, InitialConfig, ModelError, Round, RunBudget, Scenario,
    ScenarioSpace, Shard,
};
use std::fmt;
use std::sync::Arc;
use std::thread;

/// The number of runs a [`GeneratedSystem`] can hold (`RunId` is a `u32`).
pub const RUN_CAPACITY: u128 = 1 << 32;

/// How many shards each worker thread gets by default; more shards than
/// threads lets fast shards backfill while slow ones finish.
const SHARDS_PER_THREAD: usize = 4;

/// How many extension blocks each worker thread gets by default. Lower
/// than [`SHARDS_PER_THREAD`] because every extension block clones the
/// base view table, so oversubscription costs memory, and the
/// work-stealing pool rebalances stragglers anyway.
const EXTEND_BLOCKS_PER_THREAD: usize = 2;

/// Configurable, parallel, supervised builder for exhaustive
/// [`GeneratedSystem`]s; see the module docs for the staging, the
/// determinism guarantee, and the robustness policy.
///
/// # Example
///
/// ```
/// use eba_model::{FailureMode, Scenario};
/// use eba_sim::SystemBuilder;
///
/// # fn main() -> Result<(), eba_model::ModelError> {
/// let scenario = Scenario::new(3, 1, FailureMode::Crash, 2)?;
/// let system = SystemBuilder::new(&scenario).threads(2).build()?;
/// assert_eq!(system.num_runs(), 200);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct SystemBuilder {
    scenario: Scenario,
    threads: usize,
    shards: Option<usize>,
    budget: RunBudget,
    chaos: Arc<dyn FaultInjector>,
    symmetry: bool,
}

impl fmt::Debug for SystemBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SystemBuilder")
            .field("scenario", &self.scenario)
            .field("threads", &self.threads)
            .field("shards", &self.shards)
            .field("budget", &self.budget)
            .field("symmetry", &self.symmetry)
            .finish_non_exhaustive()
    }
}

impl SystemBuilder {
    /// A builder for the exhaustive system of `scenario`, defaulting to
    /// one worker per available CPU, no budget, and no fault injection.
    #[must_use]
    pub fn new(scenario: &Scenario) -> Self {
        let threads = thread::available_parallelism().map_or(1, |p| p.get());
        SystemBuilder {
            scenario: *scenario,
            threads,
            shards: None,
            budget: RunBudget::unlimited(),
            chaos: Arc::new(NoChaos),
            symmetry: false,
        }
    }

    /// Turns the symmetry quotient on or off (off by default). A
    /// quotiented build simulates one representative pattern per
    /// `Sym(n)` orbit — the canonical form of
    /// [`eba_model::symmetry::canonicalize`] — crossed with every
    /// initial configuration, and attaches the orbit accounting
    /// ([`crate::symmetry::SymmetryInfo`]) to the system. Queries about
    /// skipped runs are answered by relabeling
    /// ([`GeneratedSystem::resolve_run`]). Requires the full-information
    /// exchange and `n ≤ MAX_SYMMETRY_N`; violations surface as
    /// [`ModelError::InvalidScenario`] from the build entry points.
    #[must_use]
    pub fn symmetry(mut self, on: bool) -> Self {
        self.symmetry = on;
        self
    }

    /// Sets the number of worker threads (clamped to at least 1). One
    /// thread builds sequentially on the caller's thread.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the number of shards (clamped to at least 1). Defaults to
    /// four per worker thread. The result is identical for every shard
    /// count; this knob only tunes load balance against merge overhead.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards.max(1));
        self
    }

    /// Sets the resource budget honored by [`build_governed`].
    ///
    /// [`build_governed`]: SystemBuilder::build_governed
    #[must_use]
    pub fn budget(mut self, budget: RunBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Installs a fault injector ([`crate::chaos`]) consulted once per
    /// shard. Production builds keep the default [`NoChaos`].
    #[must_use]
    pub fn chaos(mut self, injector: Arc<dyn FaultInjector>) -> Self {
        self.chaos = injector;
        self
    }

    /// Builds the complete exhaustive system: every initial configuration
    /// crossed with every canonical failure pattern, in enumeration
    /// order. Any configured budget is ignored — this entry point always
    /// runs to completion; use [`build_governed`] for bounded runs.
    ///
    /// [`build_governed`]: SystemBuilder::build_governed
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::CapacityExceeded`] when the scenario has more
    /// runs than `RunId` can index (checked up front, before any work) or
    /// more distinct views than `ViewId` can index.
    ///
    /// # Panics
    ///
    /// Panics only when a shard defeats supervision by panicking on the
    /// initial attempt, the retry, *and* the sequential fallback (see
    /// [`crate::chaos::supervised_indexed`]) — with the fault's rendered
    /// message, never a bare `expect`.
    pub fn build(mut self) -> Result<GeneratedSystem, ModelError> {
        self.budget = RunBudget::unlimited();
        match self.build_governed() {
            Ok(outcome) => Ok(outcome.into_system()),
            Err(EngineFault::Model(e)) => Err(e),
            Err(fault @ EngineFault::WorkerPanicked { .. }) => panic!("{fault}"),
        }
    }

    /// Extends `base` — an **exhaustive** system of the same `(n, t,
    /// mode)` at a strictly smaller horizon — into the exhaustive system
    /// of this builder's scenario, reusing every base-horizon view prefix
    /// that survives the pattern-space growth.
    ///
    /// The extended pattern space is re-enumerated in canonical order
    /// (pattern-outer, configuration-inner), so run ids, run order, and
    /// view *content* are bit-identical to a cold
    /// [`build`](SystemBuilder::build) of the same scenario; only the
    /// internal `ViewId` numbering may differ (base-table ids come first),
    /// which is never observable through the system's API. For each
    /// extended pattern whose base-horizon truncation
    /// ([`FailurePattern::truncated_to`]) names a canonical base pattern,
    /// the base run is located via [`GeneratedSystem::find_run`] and its
    /// flattened view row is copied verbatim; only the appended rounds are
    /// simulated. Patterns with no base counterpart (failures scheduled in
    /// the new rounds, or crash patterns the base horizon canonicalized
    /// away) are simulated from scratch.
    ///
    /// Extension runs the appended-round pattern blocks through the same
    /// supervised work-stealing pool as a cold build: the pattern axis is
    /// split into contiguous blocks, each block clones the base table and
    /// simulates its slice, and the block tables are absorbed back in
    /// block order (the canonical re-interning merge). Because a block
    /// table is the base table plus the block's new views in enumeration
    /// order, absorbing into a merged table that starts as a base clone
    /// maps every base id to itself — so run ids, view ids, and view
    /// content are bit-identical for every thread/block count, and
    /// identical to a sequential extension. The builder's `threads`,
    /// `shards`, and `chaos` knobs are honored (chaos is consulted once
    /// per block at [`FaultSite::BuilderShard`]); the budget applies to
    /// cold builds only and is ignored here.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidScenario`] unless `base` has the same
    /// `n`, `t`, and mode and a strictly smaller horizon, and
    /// [`ModelError::CapacityExceeded`] when the extended scenario
    /// overflows the run or view id space.
    ///
    /// # Panics
    ///
    /// Panics only when a block defeats supervision by panicking on all
    /// three attempts (see [`crate::chaos::supervised_indexed`]), with
    /// the fault's rendered message — mirroring [`build`].
    ///
    /// [`build`]: SystemBuilder::build
    pub fn extend(
        self,
        base: &GeneratedSystem,
    ) -> Result<(GeneratedSystem, ExtendReport), ModelError> {
        let delta = self.extension_delta(base)?;
        let space = ScenarioSpace::new(self.scenario);
        if space.total_runs() > RUN_CAPACITY {
            return Err(ModelError::capacity_exceeded("run ids", RUN_CAPACITY));
        }
        let configs: Vec<InitialConfig> = space.configs().collect();
        // A symmetric base extends into a symmetric system: the extended
        // enumeration is filtered to canonical patterns exactly like a
        // cold quotiented build. (Truncation does not preserve
        // canonicality, so a canonical extended pattern may truncate to a
        // non-representative base pattern; `find_run` then misses and the
        // run is simulated fresh — reuse degrades, correctness doesn't.)
        let symmetric = base.symmetry().is_some();

        let blocks = space.shards(self.extend_blocks());
        let workers = self.threads.min(blocks.len().max(1));
        let chaos = &*self.chaos;
        let outcomes = run_extend_pool(blocks.len(), workers, |index| {
            chaos.inject(FaultSite::BuilderShard, index)?;
            extend_block(base, &delta, &space, &configs, blocks[index], symmetric)
        });
        let merged = merge_extend_parts(base, outcomes)?;

        let symmetry = symmetric
            .then(|| Arc::new(SymmetryInfo::new(merged.orbit_sizes, space.num_patterns())));
        let system = GeneratedSystem::from_parts(
            self.scenario,
            merged.runs,
            merged.views,
            merged.table,
            symmetry,
        );
        Ok((system, merged.report))
    }

    /// Extends `base` — **any** system of the same `(n, t, mode)` at a
    /// strictly smaller horizon, including sampled and budget-partial ones
    /// — by padding each of its runs into this builder's scenario
    /// ([`FailurePattern::padded_to`]: the pattern unchanged inside the
    /// base horizon, no new deviations in the appended rounds) and
    /// simulating only the appended rounds on top of the reused rows.
    ///
    /// Unlike [`extend`](SystemBuilder::extend) this does *not* grow the
    /// run set: the result has exactly `base.num_runs()` runs, in base
    /// order, and equals `GeneratedSystem::from_runs` over the padded
    /// specs (padding is injective, so base deduplication carries over).
    /// Every run is a reuse; the report's `fresh_runs` is always 0.
    ///
    /// Like [`extend`](SystemBuilder::extend), the appended rounds run as
    /// contiguous base-run blocks through the supervised work-stealing
    /// pool and merge by canonical re-interning, so the result is
    /// bit-identical for every thread/block count.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidScenario`] unless `base` has the same
    /// `n`, `t`, and mode and a strictly smaller horizon, and
    /// [`ModelError::CapacityExceeded`] on view id overflow.
    ///
    /// # Panics
    ///
    /// Panics only when a block defeats supervision by panicking on all
    /// three attempts (see [`crate::chaos::supervised_indexed`]), with
    /// the fault's rendered message — mirroring [`build`].
    ///
    /// [`build`]: SystemBuilder::build
    pub fn extend_pinned(
        self,
        base: &GeneratedSystem,
    ) -> Result<(GeneratedSystem, ExtendReport), ModelError> {
        let delta = self.extension_delta(base)?;

        let total = base.num_runs();
        let block_count = self.extend_blocks().clamp(1, total.max(1));
        let block_len = total.div_ceil(block_count).max(1);
        let bounds: Vec<std::ops::Range<usize>> = (0..total)
            .step_by(block_len)
            .map(|start| start..(start + block_len).min(total))
            .collect();
        let workers = self.threads.min(bounds.len().max(1));
        let chaos = &*self.chaos;
        let scenario = self.scenario;
        let outcomes = run_extend_pool(bounds.len(), workers, |index| {
            chaos.inject(FaultSite::BuilderShard, index)?;
            extend_pinned_block(base, &delta, scenario, bounds[index].clone())
        });
        let merged = merge_extend_parts(base, outcomes)?;
        // Padding is order-preserving on behaviors and commutes with
        // relabeling, so it maps canonical patterns to canonical patterns
        // with identical stabilizers: a symmetric base stays symmetric
        // with its orbit sizes carried over verbatim.
        let symmetry = match base.symmetry() {
            Some(info) => {
                let patterns = ScenarioSpace::try_new(self.scenario)?.num_patterns();
                Some(Arc::new(SymmetryInfo::new(
                    info.orbit_sizes().to_vec(),
                    patterns,
                )))
            }
            None => None,
        };
        let system = GeneratedSystem::from_parts(
            self.scenario,
            merged.runs,
            merged.views,
            merged.table,
            symmetry,
        );
        Ok((system, merged.report))
    }

    /// How many blocks the extension paths split their work into: the
    /// explicit `shards` knob when set, otherwise two per worker thread.
    /// Each block clones the base table, so the oversubscription factor
    /// is kept below the cold build's to bound peak memory; the result is
    /// identical for every block count.
    fn extend_blocks(&self) -> usize {
        self.shards.unwrap_or_else(|| {
            if self.threads == 1 {
                1
            } else {
                self.threads * EXTEND_BLOCKS_PER_THREAD
            }
        })
    }

    /// Validates that `base` can be extended into this builder's scenario:
    /// identical `(n, t, mode)`, strictly larger horizon.
    fn extension_delta(&self, base: &GeneratedSystem) -> Result<HorizonDelta, ModelError> {
        base.scenario().extend_into(&self.scenario)
    }

    /// Rejects scenarios the symmetry quotient cannot serve: the view
    /// relabeling machinery is specific to full-information local states
    /// (digest states bake processor labels into bounded summaries), and
    /// permutation enumeration is capped at `MAX_SYMMETRY_N`.
    fn check_symmetry_supported(&self) -> Result<(), ModelError> {
        if !self.scenario.exchange().is_full() {
            return Err(ModelError::InvalidScenario {
                reason: "the symmetry quotient requires the full-information exchange".into(),
            });
        }
        if self.scenario.n() > MAX_SYMMETRY_N {
            return Err(ModelError::InvalidScenario {
                reason: format!("the symmetry quotient supports n ≤ {MAX_SYMMETRY_N}"),
            });
        }
        Ok(())
    }

    /// Builds the exhaustive system under the configured budget and fault
    /// injector, with supervised workers.
    ///
    /// Returns [`BuildOutcome::Complete`] when every shard was built and
    /// merged, or [`BuildOutcome::Partial`] — the longest contiguous
    /// prefix of completed shards plus the [`BudgetHit`] that stopped the
    /// build — when the budget ran out. Worker faults the supervisor
    /// absorbed along the way are listed in the outcome's
    /// [`BuildReport`].
    ///
    /// # Errors
    ///
    /// Returns [`EngineFault::Model`] for model-level failures (id-space
    /// overflow, injected capacity faults) and
    /// [`EngineFault::WorkerPanicked`] when a shard panicked on all three
    /// supervision attempts.
    pub fn build_governed(self) -> Result<BuildOutcome, EngineFault> {
        let armed = self.budget.arm();
        let space = ScenarioSpace::new(self.scenario);
        if space.total_runs() > RUN_CAPACITY {
            return Err(ModelError::capacity_exceeded("run ids", RUN_CAPACITY).into());
        }
        if self.symmetry {
            self.check_symmetry_supported()
                .map_err(EngineFault::Model)?;
        }
        let configs: Vec<InitialConfig> = space.configs().collect();
        let shard_count = self.shards.unwrap_or_else(|| {
            if self.threads == 1 {
                1
            } else {
                self.threads * SHARDS_PER_THREAD
            }
        });
        let shards = space.shards(shard_count);
        let total_shards = shards.len();

        // Plan the run bound statically: shard k's run count is
        // `shards[k].len() × |configs|` before any work happens, so the
        // set of shards inside the budget — and hence the partial system —
        // is deterministic, independent of timing and parallelism.
        let (planned, mut hit) = plan_run_bound(&shards, configs.len() as u128, &armed);

        let workers = self.threads.min(planned.len().max(1));
        let chaos = &*self.chaos;
        let symmetry = self.symmetry;
        let (outcomes, worker_faults) =
            supervised_indexed(planned.len(), workers, FaultSite::BuilderShard, |index| {
                chaos
                    .inject(FaultSite::BuilderShard, index)
                    .map_err(ShardError::Model)?;
                build_shard(&space, &configs, planned[index], &armed, symmetry)
            })?;

        // The first stopped shard (in shard order) ends the usable prefix;
        // a model-level error there is a hard failure, a budget stop is a
        // graceful one.
        let mut parts = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            match outcome {
                Ok(part) => parts.push(part),
                Err(ShardError::Model(e)) => return Err(EngineFault::Model(e)),
                Err(ShardError::Budget(budget_hit)) => {
                    hit = Some(budget_hit);
                    break;
                }
            }
        }

        let symmetry_total = self.symmetry.then(|| space.num_patterns());
        let (system, merged, merge_hit) = merge(self.scenario, parts, &armed, symmetry_total)?;
        if let Some(view_hit) = merge_hit {
            hit = Some(view_hit);
        }
        let report = BuildReport {
            worker_faults,
            total_shards,
        };
        Ok(match hit {
            None => BuildOutcome::Complete { system, report },
            Some(budget_hit) => BuildOutcome::Partial {
                system,
                completed_shards: merged,
                total_shards,
                budget_hit,
                report,
            },
        })
    }
}

/// What a supervised, governed build produced.
#[derive(Debug)]
pub enum BuildOutcome {
    /// Every shard was built and merged.
    Complete {
        /// The complete exhaustive system.
        system: GeneratedSystem,
        /// Supervision summary (absorbed worker faults, shard count).
        report: BuildReport,
    },
    /// The budget ran out; the longest contiguous prefix of completed
    /// shards was merged. Run- and view-bound prefixes are deterministic
    /// (statically planned / merge-order checked); a deadline prefix
    /// depends on timing but the result is always a valid prefix system.
    Partial {
        /// The system of the completed shard prefix (possibly empty).
        system: GeneratedSystem,
        /// How many shards made it into `system`.
        completed_shards: usize,
        /// How many shards a complete build would have had.
        total_shards: usize,
        /// The bound that stopped the build.
        budget_hit: BudgetHit,
        /// Supervision summary (absorbed worker faults, shard count).
        report: BuildReport,
    },
}

impl BuildOutcome {
    /// The generated (complete or prefix) system.
    #[must_use]
    pub fn system(&self) -> &GeneratedSystem {
        match self {
            BuildOutcome::Complete { system, .. } | BuildOutcome::Partial { system, .. } => system,
        }
    }

    /// Consumes the outcome, returning the system.
    #[must_use]
    pub fn into_system(self) -> GeneratedSystem {
        match self {
            BuildOutcome::Complete { system, .. } | BuildOutcome::Partial { system, .. } => system,
        }
    }

    /// The supervision report.
    #[must_use]
    pub fn report(&self) -> &BuildReport {
        match self {
            BuildOutcome::Complete { report, .. } | BuildOutcome::Partial { report, .. } => report,
        }
    }

    /// The budget hit that stopped the build, if any.
    #[must_use]
    pub fn budget_hit(&self) -> Option<BudgetHit> {
        match self {
            BuildOutcome::Complete { .. } => None,
            BuildOutcome::Partial { budget_hit, .. } => Some(*budget_hit),
        }
    }

    /// Whether every shard completed.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        matches!(self, BuildOutcome::Complete { .. })
    }
}

/// Supervision summary of one governed build.
#[derive(Clone, Default, Debug)]
pub struct BuildReport {
    /// Worker faults the supervisor absorbed (each recovered by retry or
    /// sequential fallback); empty in an undisturbed build.
    pub worker_faults: Vec<WorkerFault>,
    /// The number of shards of a complete build.
    pub total_shards: usize,
}

/// What one horizon extension reused versus recomputed (see
/// [`SystemBuilder::extend`] / [`SystemBuilder::extend_pinned`]).
///
/// A *slot* is one `(run, time, processor)` view entry of the flattened
/// system; `reused_slots + computed_slots` is the extended system's total
/// slot count.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct ExtendReport {
    /// Runs whose base-horizon view rows were copied from the base system
    /// (only appended rounds simulated).
    pub reused_runs: usize,
    /// Runs simulated from scratch (no base counterpart).
    pub fresh_runs: usize,
    /// View slots copied verbatim from the base system.
    pub reused_slots: usize,
    /// View slots produced by simulation during the extension.
    pub computed_slots: usize,
}

impl ExtendReport {
    /// Total runs of the extended system.
    #[must_use]
    pub fn total_runs(&self) -> usize {
        self.reused_runs + self.fresh_runs
    }

    /// Fraction of the extended system's view slots that were reused,
    /// in `[0, 1]`; 0 for an empty system.
    #[must_use]
    pub fn reuse_fraction(&self) -> f64 {
        let total = self.reused_slots + self.computed_slots;
        if total == 0 {
            0.0
        } else {
            self.reused_slots as f64 / total as f64
        }
    }
}

impl fmt::Display for ExtendReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reused {} runs / simulated {} fresh; {} of {} view slots reused ({:.0}%)",
            self.reused_runs,
            self.fresh_runs,
            self.reused_slots,
            self.reused_slots + self.computed_slots,
            self.reuse_fraction() * 100.0
        )
    }
}

/// Why a shard stopped early.
enum ShardError {
    /// A real model-level failure (capacity overflow, injected fault).
    Model(ModelError),
    /// The shard hit the budget; the build degrades gracefully.
    Budget(BudgetHit),
}

/// Keeps the longest shard prefix whose cumulative run count stays within
/// the budget's run bound, returning the kept prefix and the hit (if the
/// bound truncated anything).
fn plan_run_bound(
    shards: &[Shard],
    num_configs: u128,
    armed: &ArmedBudget,
) -> (Vec<Shard>, Option<BudgetHit>) {
    let Some(limit) = armed.budget().max_runs() else {
        return (shards.to_vec(), None);
    };
    let mut planned = Vec::with_capacity(shards.len());
    let mut runs: u128 = 0;
    for &shard in shards {
        runs += shard.len() * num_configs;
        if runs > u128::from(limit) {
            return (planned, Some(BudgetHit::MaxRuns { limit }));
        }
        planned.push(shard);
    }
    (planned, None)
}

/// The output of one shard: runs and views with *shard-local* view ids,
/// plus (under the symmetry quotient) the orbit size of every built
/// representative pattern, in enumeration order.
struct ShardBuild {
    table: ViewTable,
    views: Vec<ViewId>,
    runs: Vec<RunRecord>,
    orbit_sizes: Vec<u64>,
}

/// Builds one shard. Pure in `(space, configs, shard, symmetry)` —
/// re-running it (the supervisor's retry and fallback) yields identical
/// output. The budget's deadline and view bound are checked once per
/// pattern. Under the symmetry quotient, non-canonical patterns are
/// skipped (never simulated) and each kept pattern records its orbit
/// size; skipping is a pure per-pattern predicate, so determinism and
/// shard-count independence are untouched.
fn build_shard(
    space: &ScenarioSpace,
    configs: &[InitialConfig],
    shard: Shard,
    armed: &ArmedBudget,
    symmetry: bool,
) -> Result<ShardBuild, ShardError> {
    let scenario = space.scenario();
    let horizon = scenario.horizon();
    let exchange = AnyExchange::for_scenario(&scenario);
    let mut table = ViewTable::new();
    let mut runs = Vec::new();
    let mut views = Vec::new();
    let mut orbit_sizes = Vec::new();
    for pattern in space.shard_patterns(shard) {
        armed.check_deadline().map_err(ShardError::Budget)?;
        // Shard-local distinct views lower-bound the merged total, so a
        // shard that exceeds the view bound by itself can stop early.
        armed
            .check_views(table.len() as u64)
            .map_err(ShardError::Budget)?;
        debug_assert!(scenario.validate_pattern(&pattern).is_ok());
        if symmetry {
            let canon = canonicalize(&pattern);
            if canon.canonical != pattern {
                continue;
            }
            orbit_sizes.push(canon.orbit_size);
        }
        let nonfaulty = pattern.nonfaulty_set();
        for config in configs {
            let run_views = try_exchange_views(&exchange, config, &pattern, horizon, &mut table)
                .map_err(ShardError::Model)?;
            for time_views in &run_views {
                views.extend_from_slice(time_views);
            }
            runs.push(RunRecord {
                config: config.clone(),
                pattern: pattern.clone(),
                nonfaulty,
            });
        }
    }
    Ok(ShardBuild {
        table,
        views,
        runs,
        orbit_sizes,
    })
}

/// Absorbs shard parts in shard order, checking the view bound after each
/// shard. Returns the system, the number of shards merged, and the view
/// hit that stopped the merge early (if any). The shard that crosses the
/// view bound is the last one included — bounds are honored to within one
/// shard, mirroring the cooperative per-loop-body deadline semantics.
/// A deadline or interrupt already cut `parts` to the completed prefix,
/// so the merge keeps every part and checks only the view bound.
fn merge(
    scenario: Scenario,
    parts: Vec<ShardBuild>,
    armed: &ArmedBudget,
    symmetry_total: Option<u128>,
) -> Result<(GeneratedSystem, usize, Option<BudgetHit>), EngineFault> {
    let mut table = ViewTable::new();
    let mut views = Vec::new();
    let mut runs: Vec<RunRecord> = Vec::new();
    let mut orbit_sizes = Vec::new();
    let mut merged = 0;
    let mut hit = None;
    for part in parts {
        if merged == 0 {
            // The first shard's table already lists its views in
            // sequential first-encounter order: it is the merged table.
            table = part.table;
            views = part.views;
        } else {
            let remap = table.absorb(&part.table).map_err(EngineFault::Model)?;
            views.extend(part.views.iter().map(|v| remap[v.index()]));
        }
        orbit_sizes.extend_from_slice(&part.orbit_sizes);
        runs.extend(part.runs);
        merged += 1;
        if let Some(limit) = armed.budget().max_views() {
            if table.len() as u64 > limit {
                hit = Some(BudgetHit::MaxViews { limit });
                break;
            }
        }
    }
    let symmetry = symmetry_total.map(|total| Arc::new(SymmetryInfo::new(orbit_sizes, total)));
    // `from_parts` finishes by building the columnar `PointStore` over the
    // merged views, so even a budget-partial system carries its columns
    // and CSR bucket partitions.
    let system = GeneratedSystem::from_parts(scenario, runs, views, table, symmetry);
    Ok((system, merged, hit))
}

/// The output of one extension block: the base table clone grown by the
/// block's appended-round views, plus the block's runs, flattened view
/// rows (mixing base ids and block-local ids, both valid in `table`),
/// orbit sizes, and reuse accounting.
struct ExtendBlock {
    table: ViewTable,
    views: Vec<ViewId>,
    runs: Vec<RunRecord>,
    orbit_sizes: Vec<u64>,
    report: ExtendReport,
}

/// Everything [`merge_extend_parts`] folds the blocks into, ready for
/// `GeneratedSystem::from_parts`.
struct MergedExtend {
    table: ViewTable,
    views: Vec<ViewId>,
    runs: Vec<RunRecord>,
    orbit_sizes: Vec<u64>,
    report: ExtendReport,
}

/// Runs the extension blocks through the supervised work-stealing pool.
/// Blocks are pure functions of their index, so absorbed worker faults
/// are transparent; a block that defeats all three supervision attempts
/// panics with the fault's rendered message, mirroring
/// [`SystemBuilder::build`].
fn run_extend_pool<F>(count: usize, workers: usize, job: F) -> Vec<Result<ExtendBlock, ModelError>>
where
    F: Fn(usize) -> Result<ExtendBlock, ModelError> + Sync,
{
    match supervised_indexed(count, workers, FaultSite::BuilderShard, job) {
        Ok((outcomes, _recovered)) => outcomes,
        Err(EngineFault::Model(e)) => vec![Err(e)],
        Err(fault @ EngineFault::WorkerPanicked { .. }) => panic!("{fault}"),
    }
}

/// Simulates one contiguous slice of the extended pattern enumeration on
/// top of a base table clone. Pure in its arguments — re-running it (the
/// supervisor's retry and fallback) yields identical output.
fn extend_block(
    base: &GeneratedSystem,
    delta: &HorizonDelta,
    space: &ScenarioSpace,
    configs: &[InitialConfig],
    block: Shard,
    symmetric: bool,
) -> Result<ExtendBlock, ModelError> {
    let scenario = space.scenario();
    let horizon = scenario.horizon();
    let n = scenario.n();
    // `extension_delta` already enforced the exchange's extension policy
    // (Scenario::extend_into), so dispatching here is sound.
    let exchange = AnyExchange::for_scenario(&scenario);
    let slots_per_run = (horizon.index() + 1) * n;
    let mut part = ExtendBlock {
        table: base.table().clone(),
        views: Vec::new(),
        runs: Vec::new(),
        orbit_sizes: Vec::new(),
        report: ExtendReport::default(),
    };
    for pattern in space.shard_patterns(block) {
        debug_assert!(scenario.validate_pattern(&pattern).is_ok());
        if symmetric {
            let canon = canonicalize(&pattern);
            if canon.canonical != pattern {
                continue;
            }
            part.orbit_sizes.push(canon.orbit_size);
        }
        let nonfaulty = pattern.nonfaulty_set();
        let truncated = delta.truncate_pattern(&pattern);
        for config in configs {
            let base_run = truncated
                .as_ref()
                .and_then(|trunc| base.find_run(config, trunc));
            match base_run {
                Some(r) => {
                    let row = base.views_row(r);
                    part.views.extend_from_slice(row);
                    let mut prev = row[row.len() - n..].to_vec();
                    for round in Round::upto(horizon) {
                        if round.end() <= delta.base().horizon() {
                            continue;
                        }
                        let now = exchange.try_step(&mut part.table, &pattern, round, &prev)?;
                        part.views.extend_from_slice(&now);
                        prev = now;
                    }
                    part.report.reused_runs += 1;
                    part.report.reused_slots += row.len();
                    part.report.computed_slots += slots_per_run - row.len();
                }
                None => {
                    let run_views =
                        try_exchange_views(&exchange, config, &pattern, horizon, &mut part.table)?;
                    for time_views in &run_views {
                        part.views.extend_from_slice(time_views);
                    }
                    part.report.fresh_runs += 1;
                    part.report.computed_slots += slots_per_run;
                }
            }
            part.runs.push(RunRecord {
                config: config.clone(),
                pattern: pattern.clone(),
                nonfaulty,
            });
        }
    }
    Ok(part)
}

/// Pads and extends one contiguous slice of the base run list on top of a
/// base table clone. Pure in its arguments, like [`extend_block`].
fn extend_pinned_block(
    base: &GeneratedSystem,
    delta: &HorizonDelta,
    scenario: Scenario,
    bounds: std::ops::Range<usize>,
) -> Result<ExtendBlock, ModelError> {
    let horizon = scenario.horizon();
    let n = scenario.n();
    let exchange = AnyExchange::for_scenario(&scenario);
    let slots_per_run = (horizon.index() + 1) * n;
    let mut part = ExtendBlock {
        table: base.table().clone(),
        views: Vec::with_capacity(bounds.len() * slots_per_run),
        runs: Vec::with_capacity(bounds.len()),
        orbit_sizes: Vec::new(),
        report: ExtendReport::default(),
    };
    for index in bounds {
        let r = RunId::try_new(index)?;
        let record = base.run(r);
        let pattern = delta.pad_pattern(&record.pattern);
        debug_assert!(scenario.validate_pattern(&pattern).is_ok());
        let row = base.views_row(r);
        part.views.extend_from_slice(row);
        let mut prev = row[row.len() - n..].to_vec();
        for round in Round::upto(horizon) {
            if round.end() <= delta.base().horizon() {
                continue;
            }
            let now = exchange.try_step(&mut part.table, &pattern, round, &prev)?;
            part.views.extend_from_slice(&now);
            prev = now;
        }
        part.report.reused_runs += 1;
        part.report.reused_slots += row.len();
        part.report.computed_slots += slots_per_run - row.len();
        part.runs.push(RunRecord {
            config: record.config.clone(),
            pattern,
            nonfaulty: record.nonfaulty,
        });
    }
    Ok(part)
}

/// Absorbs extension blocks in block order. A block table is the base
/// table plus the block's new views in first-encounter order, so the
/// first block's table is taken as the merged table, and each later
/// block re-interns only its views past the base prefix, which maps to
/// itself ([`ViewTable::absorb_suffix`]). New views land exactly where a
/// sequential extension would have interned them: block boundaries are
/// invisible to the final `ViewId` numbering, whatever the thread/block
/// count. The first failed block (in block order) surfaces as the error,
/// keeping error reporting schedule-independent too.
fn merge_extend_parts(
    base: &GeneratedSystem,
    outcomes: Vec<Result<ExtendBlock, ModelError>>,
) -> Result<MergedExtend, ModelError> {
    let shared = base.table().len();
    let mut table: Option<ViewTable> = None;
    let mut merged = MergedExtend {
        table: ViewTable::new(),
        views: Vec::new(),
        runs: Vec::new(),
        orbit_sizes: Vec::new(),
        report: ExtendReport::default(),
    };
    for outcome in outcomes {
        let part = outcome?;
        match table.as_mut() {
            None => {
                table = Some(part.table);
                merged.views = part.views;
            }
            Some(table) => {
                let remap = table.absorb_suffix(&part.table, shared)?;
                merged.views.extend(part.views.iter().map(|&v| {
                    if v.index() < shared {
                        v
                    } else {
                        remap[v.index() - shared]
                    }
                }));
            }
        }
        merged.orbit_sizes.extend_from_slice(&part.orbit_sizes);
        merged.runs.extend(part.runs);
        merged.report.reused_runs += part.report.reused_runs;
        merged.report.fresh_runs += part.report.fresh_runs;
        merged.report.reused_slots += part.report.reused_slots;
        merged.report.computed_slots += part.report.computed_slots;
    }
    merged.table = table.unwrap_or_else(|| base.table().clone());
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosPlan, FaultKind};
    use eba_model::{enumerate, FailureMode, ProcessorId, Time};
    use std::time::Duration;

    fn scenario() -> Scenario {
        Scenario::new(3, 2, FailureMode::Crash, 2).unwrap()
    }

    fn assert_identical(a: &GeneratedSystem, b: &GeneratedSystem) {
        assert_eq!(a.num_runs(), b.num_runs());
        assert_eq!(a.table().len(), b.table().len());
        let n = a.n();
        for r in a.run_ids() {
            assert_eq!(a.run(r).config, b.run(r).config);
            assert_eq!(a.run(r).pattern, b.run(r).pattern);
            assert_eq!(a.nonfaulty(r), b.nonfaulty(r));
            for time in 0..=a.horizon().index() {
                for p in ProcessorId::all(n) {
                    assert_eq!(
                        a.view(r, p, Time::new(time as u16)),
                        b.view(r, p, Time::new(time as u16)),
                        "run {r:?}, time {time}, processor {p}"
                    );
                }
            }
        }
    }

    /// Content equivalence across systems whose `ViewId` numbering may
    /// differ (the extension paths clone the base table, so their ids are
    /// a permutation of a cold build's): same runs in the same order,
    /// same interned-view total, and structurally equal views at every
    /// point.
    fn assert_equivalent(a: &GeneratedSystem, b: &GeneratedSystem) {
        assert_eq!(a.num_runs(), b.num_runs());
        assert_eq!(a.table().len(), b.table().len());
        assert_eq!(a.horizon(), b.horizon());
        let n = a.n();
        for r in a.run_ids() {
            assert_eq!(a.run(r).config, b.run(r).config);
            assert_eq!(a.run(r).pattern, b.run(r).pattern);
            assert_eq!(a.nonfaulty(r), b.nonfaulty(r));
            for time in 0..=a.horizon().index() {
                for p in ProcessorId::all(n) {
                    let t = Time::new(time as u16);
                    assert_eq!(
                        a.table().render(a.view(r, p, t)),
                        b.table().render(b.view(r, p, t)),
                        "run {r:?}, time {time}, processor {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_builds_are_bit_identical_to_sequential() {
        let scenario = scenario();
        let sequential = SystemBuilder::new(&scenario)
            .threads(1)
            .shards(1)
            .build()
            .unwrap();
        for (threads, shards) in [(2, 2), (3, 5), (4, 16), (2, 7), (8, 3)] {
            let parallel = SystemBuilder::new(&scenario)
                .threads(threads)
                .shards(shards)
                .build()
                .unwrap();
            assert_identical(&sequential, &parallel);
        }
    }

    #[test]
    fn builder_matches_legacy_from_runs_path() {
        let scenario = scenario();
        let configs: Vec<InitialConfig> = InitialConfig::enumerate_all(scenario.n()).collect();
        let mut specs = Vec::new();
        for pattern in enumerate::patterns(&scenario) {
            for config in &configs {
                specs.push((config.clone(), pattern.clone()));
            }
        }
        let legacy = GeneratedSystem::from_runs(&scenario, specs);
        let built = SystemBuilder::new(&scenario)
            .threads(3)
            .shards(6)
            .build()
            .unwrap();
        assert_identical(&legacy, &built);
    }

    #[test]
    fn oversized_scenarios_error_before_doing_work() {
        let scenario = Scenario::new(6, 5, FailureMode::Crash, 3).unwrap();
        let space = ScenarioSpace::new(scenario);
        assert!(space.total_runs() > RUN_CAPACITY);
        let err = SystemBuilder::new(&scenario).build().unwrap_err();
        assert!(matches!(
            err,
            ModelError::CapacityExceeded {
                what: "run ids",
                ..
            }
        ));
    }

    #[test]
    fn shard_knob_never_changes_the_result() {
        let scenario = Scenario::new(3, 1, FailureMode::Omission, 2).unwrap();
        let base = SystemBuilder::new(&scenario).threads(1).build().unwrap();
        for shards in [1, 2, 9, 1000] {
            let other = SystemBuilder::new(&scenario)
                .threads(2)
                .shards(shards)
                .build()
                .unwrap();
            assert_identical(&base, &other);
        }
    }

    #[test]
    fn generated_systems_cross_thread_boundaries() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<GeneratedSystem>();
        assert_send_sync::<SystemBuilder>();

        let system = SystemBuilder::new(&scenario()).threads(2).build().unwrap();
        let shared = std::sync::Arc::new(system);
        let clone = std::sync::Arc::clone(&shared);
        let runs = thread::spawn(move || clone.num_runs()).join().unwrap();
        assert_eq!(runs, shared.num_runs());
    }

    #[test]
    fn injected_shard_panic_degrades_to_bit_identical_system() {
        let scenario = scenario();
        let baseline = SystemBuilder::new(&scenario)
            .threads(1)
            .shards(1)
            .build()
            .unwrap();
        // Panic in shard 0 of a 4-shard parallel build; the supervisor's
        // retry rebuilds the shard and the result must not change.
        let plan =
            Arc::new(ChaosPlan::new().with_fault(FaultSite::BuilderShard, 0, FaultKind::Panic));
        let outcome = SystemBuilder::new(&scenario)
            .threads(4)
            .shards(4)
            .chaos(Arc::clone(&plan) as Arc<dyn FaultInjector>)
            .build_governed()
            .unwrap();
        assert!(outcome.is_complete());
        assert_eq!(plan.fired(), 1);
        let report = outcome.report().clone();
        assert_eq!(report.worker_faults.len(), 1);
        assert_eq!(report.worker_faults[0].index, 0);
        assert_identical(&baseline, outcome.system());
    }

    #[test]
    fn every_single_shard_panic_is_survivable() {
        let scenario = scenario();
        let baseline = SystemBuilder::new(&scenario).threads(1).build().unwrap();
        for shard in 0..4 {
            let plan = Arc::new(ChaosPlan::new().with_fault(
                FaultSite::BuilderShard,
                shard,
                FaultKind::Panic,
            ));
            let outcome = SystemBuilder::new(&scenario)
                .threads(4)
                .shards(4)
                .chaos(plan)
                .build_governed()
                .unwrap();
            assert!(outcome.is_complete());
            assert_identical(&baseline, outcome.system());
        }
    }

    #[test]
    fn persistent_shard_panic_falls_back_to_sequential_then_errors() {
        let scenario = scenario();
        // Two firings: initial + retry panic, sequential fallback succeeds.
        let plan = Arc::new(ChaosPlan::new().with_recurring_fault(
            FaultSite::BuilderShard,
            1,
            FaultKind::Panic,
            2,
        ));
        let baseline = SystemBuilder::new(&scenario).threads(1).build().unwrap();
        let outcome = SystemBuilder::new(&scenario)
            .threads(4)
            .shards(4)
            .chaos(plan)
            .build_governed()
            .unwrap();
        assert_eq!(outcome.report().worker_faults[0].attempts, 2);
        assert_identical(&baseline, outcome.system());

        // Three firings defeat all attempts: a typed fault, not an abort.
        let hostile = Arc::new(ChaosPlan::new().with_recurring_fault(
            FaultSite::BuilderShard,
            1,
            FaultKind::Panic,
            3,
        ));
        let fault = SystemBuilder::new(&scenario)
            .threads(4)
            .shards(4)
            .chaos(hostile)
            .build_governed()
            .unwrap_err();
        assert!(matches!(
            fault,
            EngineFault::WorkerPanicked {
                site: FaultSite::BuilderShard,
                index: 1,
                ..
            }
        ));
    }

    #[test]
    fn injected_capacity_fault_is_a_typed_model_error() {
        let plan = Arc::new(ChaosPlan::new().with_fault(
            FaultSite::BuilderShard,
            2,
            FaultKind::CapacityExhaustion,
        ));
        let fault = SystemBuilder::new(&scenario())
            .threads(4)
            .shards(4)
            .chaos(plan)
            .build_governed()
            .unwrap_err();
        assert!(matches!(
            fault,
            EngineFault::Model(ModelError::CapacityExceeded { .. })
        ));
    }

    #[test]
    fn run_budget_yields_deterministic_shard_prefix() {
        let scenario = scenario();
        let space = ScenarioSpace::new(scenario);
        let shards = space.shards(4);
        let num_configs = space.num_configs();
        // Budget exactly covers the first two shards.
        let two_shards = (shards[0].len() + shards[1].len()) * num_configs;
        let outcome = SystemBuilder::new(&scenario)
            .threads(4)
            .shards(4)
            .budget(RunBudget::unlimited().with_max_runs(two_shards as u64))
            .build_governed()
            .unwrap();
        let BuildOutcome::Partial {
            system,
            completed_shards,
            total_shards,
            budget_hit,
            ..
        } = outcome
        else {
            panic!("run budget must yield a partial outcome");
        };
        assert_eq!(completed_shards, 2);
        assert_eq!(total_shards, 4);
        assert_eq!(
            budget_hit,
            BudgetHit::MaxRuns {
                limit: two_shards as u64
            }
        );
        assert_eq!(system.num_runs() as u128, two_shards);

        // The prefix is bit-identical to the same shards of a full build:
        // partial results are usable, not garbage.
        let full = SystemBuilder::new(&scenario)
            .threads(1)
            .shards(4)
            .build()
            .unwrap();
        for r in system.run_ids() {
            assert_eq!(system.run(r).config, full.run(r).config);
            assert_eq!(system.run(r).pattern, full.run(r).pattern);
        }
    }

    #[test]
    fn zero_run_budget_yields_empty_partial() {
        let outcome = SystemBuilder::new(&scenario())
            .threads(2)
            .shards(4)
            .budget(RunBudget::unlimited().with_max_runs(0))
            .build_governed()
            .unwrap();
        assert_eq!(outcome.budget_hit(), Some(BudgetHit::MaxRuns { limit: 0 }));
        let BuildOutcome::Partial {
            system,
            completed_shards,
            ..
        } = outcome
        else {
            panic!("expected partial");
        };
        assert_eq!(completed_shards, 0);
        assert_eq!(system.num_runs(), 0);
    }

    #[test]
    fn interrupted_build_keeps_every_completed_shard() {
        use std::sync::atomic::{AtomicBool, Ordering};
        static STOP: AtomicBool = AtomicBool::new(false);
        /// Sets the interrupt flag as shard 2 starts.
        struct StopAtShardTwo;
        impl FaultInjector for StopAtShardTwo {
            fn inject(&self, site: FaultSite, index: usize) -> Result<(), ModelError> {
                if site == FaultSite::BuilderShard && index == 2 {
                    STOP.store(true, Ordering::Relaxed);
                }
                Ok(())
            }
        }
        let scenario = scenario();
        let outcome = SystemBuilder::new(&scenario)
            .threads(1)
            .shards(8)
            .budget(RunBudget::unlimited().with_interrupt(&STOP))
            .chaos(Arc::new(StopAtShardTwo))
            .build_governed()
            .unwrap();
        let BuildOutcome::Partial {
            system,
            completed_shards,
            total_shards,
            budget_hit,
            ..
        } = outcome
        else {
            panic!("an interrupted build must yield a partial outcome");
        };
        assert_eq!(
            (completed_shards, total_shards, budget_hit),
            (2, 8, BudgetHit::Interrupted)
        );
        let space = ScenarioSpace::new(scenario);
        let shards = space.shards(8);
        let two_shards = (shards[0].len() + shards[1].len()) * space.num_configs();
        assert_eq!(system.num_runs() as u128, two_shards);
    }

    #[test]
    fn expired_deadline_stops_promptly_with_partial() {
        let start = std::time::Instant::now();
        let outcome = SystemBuilder::new(&scenario())
            .threads(2)
            .shards(4)
            .budget(RunBudget::unlimited().with_deadline(Duration::ZERO))
            .build_governed()
            .unwrap();
        assert!(matches!(
            outcome.budget_hit(),
            Some(BudgetHit::Deadline { .. })
        ));
        // Termination well within 2× of any reasonable deadline: the
        // checks fire at the first pattern of each shard.
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn view_budget_truncates_the_build() {
        let scenario = scenario();
        let full = SystemBuilder::new(&scenario).threads(1).build().unwrap();
        // A one-view budget trips inside the very first shard.
        let outcome = SystemBuilder::new(&scenario)
            .threads(1)
            .shards(4)
            .budget(RunBudget::unlimited().with_max_views(1))
            .build_governed()
            .unwrap();
        let BuildOutcome::Partial {
            system,
            completed_shards,
            budget_hit,
            ..
        } = outcome
        else {
            panic!("view budget must yield a partial outcome");
        };
        assert_eq!(budget_hit, BudgetHit::MaxViews { limit: 1 });
        assert!(completed_shards < 4);
        assert!(system.num_runs() < full.num_runs());
    }

    #[test]
    fn extend_matches_cold_build_exactly() {
        let base_scenario = scenario();
        let base = SystemBuilder::new(&base_scenario)
            .threads(1)
            .build()
            .unwrap();
        for h in [3u16, 4] {
            let extended_scenario = base_scenario.with_horizon(h).unwrap();
            let (extended, report) = SystemBuilder::new(&extended_scenario)
                .extend(&base)
                .unwrap();
            let cold = SystemBuilder::new(&extended_scenario)
                .threads(1)
                .shards(1)
                .build()
                .unwrap();
            assert_equivalent(&cold, &extended);
            assert_eq!(report.total_runs(), cold.num_runs());
            assert!(report.reused_runs > 0, "failure-free runs always reuse");
            assert!(report.fresh_runs > 0, "new crash rounds need fresh runs");
        }
    }

    #[test]
    fn extend_chains_compose() {
        // extend(h2 → h3) then extend(h3 → h4) equals extend(h2 → h4).
        let base_scenario = scenario();
        let base = SystemBuilder::new(&base_scenario)
            .threads(1)
            .build()
            .unwrap();
        let s3 = base_scenario.with_horizon(3).unwrap();
        let s4 = base_scenario.with_horizon(4).unwrap();
        let (mid, _) = SystemBuilder::new(&s3).extend(&base).unwrap();
        let (stepped, _) = SystemBuilder::new(&s4).extend(&mid).unwrap();
        let (direct, _) = SystemBuilder::new(&s4).extend(&base).unwrap();
        assert_equivalent(&direct, &stepped);
    }

    #[test]
    fn extend_handles_omission_mode() {
        let base_scenario = Scenario::new(3, 1, FailureMode::Omission, 1).unwrap();
        let base = SystemBuilder::new(&base_scenario)
            .threads(1)
            .build()
            .unwrap();
        let extended_scenario = base_scenario.with_horizon(2).unwrap();
        let (extended, report) = SystemBuilder::new(&extended_scenario)
            .extend(&base)
            .unwrap();
        let cold = SystemBuilder::new(&extended_scenario)
            .threads(1)
            .build()
            .unwrap();
        assert_equivalent(&cold, &extended);
        // Every base omission pattern pads canonically, so a large share
        // of the extended space reuses base rows.
        assert!(report.reused_runs >= base.num_runs());
    }

    #[test]
    fn extend_rejects_incompatible_bases() {
        let base = SystemBuilder::new(&scenario()).threads(1).build().unwrap();
        // Same horizon: not an extension.
        assert!(SystemBuilder::new(&scenario()).extend(&base).is_err());
        // Smaller horizon.
        let smaller = Scenario::new(3, 2, FailureMode::Crash, 1).unwrap();
        assert!(SystemBuilder::new(&smaller).extend(&base).is_err());
        // Different parameters.
        let other_t = Scenario::new(3, 1, FailureMode::Crash, 4).unwrap();
        assert!(SystemBuilder::new(&other_t).extend(&base).is_err());
        let other_mode = Scenario::new(3, 2, FailureMode::Omission, 4).unwrap();
        assert!(SystemBuilder::new(&other_mode).extend(&base).is_err());
    }

    #[test]
    fn extend_pinned_matches_from_runs_over_padded_specs() {
        let base_scenario = Scenario::new(4, 2, FailureMode::Crash, 2).unwrap();
        let base = GeneratedSystem::sampled(&base_scenario, 40, 0xEBA);
        let extended_scenario = base_scenario.with_horizon(4).unwrap();
        let delta = base_scenario.extend_horizon(4).unwrap();
        let (extended, report) = SystemBuilder::new(&extended_scenario)
            .extend_pinned(&base)
            .unwrap();
        let specs: Vec<_> = base
            .run_ids()
            .map(|r| {
                let record = base.run(r);
                (record.config.clone(), delta.pad_pattern(&record.pattern))
            })
            .collect();
        let cold = GeneratedSystem::from_runs(&extended_scenario, specs);
        assert_equivalent(&cold, &extended);
        assert_eq!(report.fresh_runs, 0);
        assert_eq!(report.reused_runs, base.num_runs());
        assert!(report.reuse_fraction() > 0.5);
    }

    #[test]
    fn extend_pinned_preserves_budget_partial_prefixes() {
        let base_scenario = scenario();
        let space = ScenarioSpace::new(base_scenario);
        let shards = space.shards(4);
        let two_shards = (shards[0].len() + shards[1].len()) * space.num_configs();
        let outcome = SystemBuilder::new(&base_scenario)
            .threads(2)
            .shards(4)
            .budget(RunBudget::unlimited().with_max_runs(two_shards as u64))
            .build_governed()
            .unwrap();
        let base = outcome.into_system();
        let extended_scenario = base_scenario.with_horizon(3).unwrap();
        let (extended, _) = SystemBuilder::new(&extended_scenario)
            .extend_pinned(&base)
            .unwrap();
        assert_eq!(extended.num_runs(), base.num_runs());
        // Base-horizon views of every run are untouched by the extension.
        for r in base.run_ids() {
            for time in 0..=base.horizon().index() {
                for p in ProcessorId::all(base.n()) {
                    let t = Time::new(time as u16);
                    let a = base.table().render(base.view(r, p, t));
                    let b = extended.table().render(extended.view(r, p, t));
                    assert_eq!(a, b, "run {r:?} time {time} proc {p}");
                }
            }
        }
    }

    #[test]
    fn symmetry_build_keeps_one_representative_per_orbit() {
        use eba_model::symmetry::{is_canonical, orbit_members};
        let scenario = Scenario::new(3, 1, FailureMode::Omission, 2).unwrap();
        let full = SystemBuilder::new(&scenario).threads(1).build().unwrap();
        let reduced = SystemBuilder::new(&scenario)
            .threads(2)
            .shards(5)
            .symmetry(true)
            .build()
            .unwrap();
        let info = reduced
            .symmetry()
            .expect("quotient builds carry accounting");
        // Every built pattern is canonical, each exactly once per config.
        let space = ScenarioSpace::new(scenario);
        assert_eq!(
            reduced.num_runs() as u128,
            space.count_orbits() * space.num_configs()
        );
        for r in reduced.run_ids() {
            assert!(is_canonical(&reduced.run(r).pattern));
        }
        // Orbit sizes align with the run layout and sum to the raw count.
        let configs = space.num_configs() as usize;
        for (k, &size) in info.orbit_sizes().iter().enumerate() {
            let r = RunId::new(k * configs);
            assert_eq!(
                orbit_members(&reduced.run(r).pattern).len() as u64,
                size,
                "orbit size misaligned at representative {k}"
            );
        }
        assert_eq!(info.raw_patterns_covered(), space.num_patterns());
        assert_eq!(info.raw_pattern_total(), space.num_patterns());
        assert!(info.reduction_ratio() > 1.0);
        // Every raw run resolves through a witness onto a representative
        // whose relabeled record matches.
        for r in full.run_ids() {
            let record = full.run(r);
            let (rep, witness) = reduced
                .resolve_run(&record.config, &record.pattern)
                .expect("complete quotients resolve every raw run");
            let rep_record = reduced.run(rep);
            assert_eq!(witness.apply_config(&record.config), rep_record.config);
            assert_eq!(witness.apply_pattern(&record.pattern), rep_record.pattern);
        }
        // The unreduced build carries no accounting.
        assert!(full.symmetry().is_none());
    }

    #[test]
    fn symmetry_build_is_shard_and_thread_independent() {
        let scenario = Scenario::new(4, 1, FailureMode::Crash, 2).unwrap();
        let base = SystemBuilder::new(&scenario)
            .threads(1)
            .shards(1)
            .symmetry(true)
            .build()
            .unwrap();
        for (threads, shards) in [(2, 3), (4, 9), (3, 1000)] {
            let other = SystemBuilder::new(&scenario)
                .threads(threads)
                .shards(shards)
                .symmetry(true)
                .build()
                .unwrap();
            assert_identical(&base, &other);
            assert_eq!(
                base.symmetry().unwrap().orbit_sizes(),
                other.symmetry().unwrap().orbit_sizes()
            );
        }
    }

    #[test]
    fn symmetry_extend_matches_cold_quotient_build() {
        let base_scenario = Scenario::new(3, 2, FailureMode::Crash, 2).unwrap();
        let base = SystemBuilder::new(&base_scenario)
            .threads(1)
            .symmetry(true)
            .build()
            .unwrap();
        let extended_scenario = base_scenario.with_horizon(3).unwrap();
        let (extended, _) = SystemBuilder::new(&extended_scenario)
            .extend(&base)
            .unwrap();
        let cold = SystemBuilder::new(&extended_scenario)
            .threads(1)
            .symmetry(true)
            .build()
            .unwrap();
        assert_equivalent(&cold, &extended);
        assert_eq!(
            cold.symmetry().unwrap().orbit_sizes(),
            extended.symmetry().unwrap().orbit_sizes()
        );
    }

    #[test]
    fn symmetry_extend_pinned_carries_orbit_sizes() {
        let base_scenario = Scenario::new(3, 1, FailureMode::Omission, 1).unwrap();
        let base = SystemBuilder::new(&base_scenario)
            .threads(1)
            .symmetry(true)
            .build()
            .unwrap();
        let extended_scenario = base_scenario.with_horizon(2).unwrap();
        let (extended, report) = SystemBuilder::new(&extended_scenario)
            .extend_pinned(&base)
            .unwrap();
        assert_eq!(report.fresh_runs, 0);
        let info = extended.symmetry().unwrap();
        assert_eq!(info.orbit_sizes(), base.symmetry().unwrap().orbit_sizes());
        // Padded canonical patterns stay canonical.
        for r in extended.run_ids() {
            assert!(eba_model::symmetry::is_canonical(&extended.run(r).pattern));
        }
    }

    #[test]
    fn symmetry_rejects_digest_exchanges() {
        use eba_model::ExchangeKind;
        let scenario = Scenario::new(3, 1, FailureMode::Crash, 2)
            .unwrap()
            .with_exchange(ExchangeKind::digest(16).unwrap())
            .unwrap();
        let err = SystemBuilder::new(&scenario)
            .symmetry(true)
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::InvalidScenario { .. }));
    }

    #[test]
    fn unbudgeted_governed_build_is_complete_and_identical() {
        let scenario = scenario();
        let outcome = SystemBuilder::new(&scenario)
            .threads(3)
            .shards(5)
            .build_governed()
            .unwrap();
        assert!(outcome.is_complete());
        assert!(outcome.report().worker_faults.is_empty());
        assert_eq!(outcome.report().total_shards, 5);
        let baseline = SystemBuilder::new(&scenario).threads(1).build().unwrap();
        assert_identical(&baseline, outcome.system());
    }
}
