//! Staged, shardable, supervised construction of generated systems.
//!
//! [`SystemBuilder`] runs one three-stage pipeline, shared by a cold
//! build ([`SystemBuilder::build_governed`]) and a horizon extension
//! ([`SystemBuilder::extend`]):
//!
//! 1. **split** — the scenario's pattern axis (under a run bound, its
//!    planned prefix) is split into deterministic contiguous blocks by
//!    [`ScenarioSpace::shards`];
//! 2. **build** — each block enumerates its `(pattern, config)` slice
//!    into its own [`ViewTable`]: an empty one for a cold build, a clone
//!    of the base table for an extension. A run whose base-horizon
//!    truncation the base holds copies the base row and simulates only
//!    the appended rounds; every other run is simulated from scratch.
//!    Blocks share no state, so they run on independent threads;
//! 3. **merge** — block 0's table becomes the merged table, and every
//!    later block's views past the shared base prefix (none for a cold
//!    build) are re-interned into it *in block order*
//!    (`ViewTable::absorb_suffix`); run lists are concatenated.
//!
//! Because blocks cover contiguous slices of the sequential enumeration
//! order and the merge re-interns each block's new views in
//! first-encounter order, the merged system is **bit-identical** to a
//! sequential build: the same `ViewId` and `RunId` assignment for every
//! worker/block count. Downstream artifacts (decision tables, optimality
//! verdicts, printed ids) therefore never depend on the machine's
//! parallelism.
//!
//! # Robustness (DESIGN.md §4c)
//!
//! Block workers run under the supervised pool of [`crate::chaos`]: a
//! panicking block is retried once and then rebuilt sequentially, and
//! because a block is a pure function of its index, the recovered system
//! is bit-identical to an undisturbed one. Only a block that panics on
//! all three attempts surfaces — as a typed [`EngineFault`] from
//! [`SystemBuilder::build_governed`].
//!
//! A [`RunBudget`] bounds a cold build. The run bound is *planned before
//! any work*, per failure pattern: the build enumerates the longest prefix
//! of whole patterns whose raw runs (`2^n` per pattern, counted before
//! the quotient skips any) fit under the bound, and only that prefix is
//! split into blocks. A run-bounded system thus depends on the scenario
//! and the bound alone, never on the thread or block count. The
//! wall-clock deadline and the interrupt are checked per pattern inside
//! every block, and the view bound per pattern and per merged block;
//! those stops keep the longest contiguous prefix of completed blocks.
//! Exhaustion yields [`BuildOutcome::Partial`] with the [`Partial`]
//! accounting of the prefix, never a hang or a panic. An extension runs
//! under an unlimited budget.
//!
//! Id-space overflows surface as [`ModelError::CapacityExceeded`] from
//! [`SystemBuilder::build`] instead of panicking mid-generation.

use crate::chaos::{supervised_indexed, EngineFault, FaultInjector, NoChaos, WorkerFault};
use crate::exchange::{self, try_exchange_views};
use crate::symmetry::SymmetryInfo;
use crate::system::{GeneratedSystem, RunRecord};
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

/// How many shards each worker thread gets by default in a cold build;
/// more shards than threads lets fast shards backfill while slow ones
/// finish.
const SHARDS_PER_THREAD: usize = 4;

/// How many blocks each worker thread gets by default in an extension.
/// Lower than [`SHARDS_PER_THREAD`] because every extension block clones
/// the base view table, so oversubscription costs memory.
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

    /// Sets the number of blocks the pattern axis is split into (clamped
    /// to at least 1), overriding the default of four per worker thread
    /// for a cold build and two for an extension. A complete system and a
    /// run-bounded prefix are identical for every block count; the
    /// differential suites set this to force arbitrary splits.
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
        unwrap_fault(self.build_governed()).map(BuildOutcome::into_system)
    }

    /// Extends `base` — an **exhaustive** system of the same `(n, t,
    /// mode)` at a strictly smaller horizon — into the exhaustive system
    /// of this builder's scenario, reusing every base-horizon view prefix
    /// that survives the pattern-space growth.
    ///
    /// The extended pattern space is re-enumerated in canonical order
    /// (pattern-outer, configuration-inner) by the same pipeline as a
    /// cold [`build`](SystemBuilder::build), so run ids, run order, and
    /// view *content* are bit-identical to a cold build of the same
    /// scenario; only the internal `ViewId` numbering may differ
    /// (base-table ids come first), which is never observable through the
    /// system's API. For each extended pattern whose base-horizon
    /// truncation ([`FailurePattern::truncated_to`]) names a canonical
    /// base pattern, the base run is located via
    /// [`GeneratedSystem::find_run`] and its flattened view row is copied
    /// verbatim; only the appended rounds are simulated. Patterns with no
    /// base counterpart (failures scheduled in the new rounds, or crash
    /// patterns the base horizon canonicalized away) are simulated from
    /// scratch.
    ///
    /// Every block starts from a clone of the base table, and the merge
    /// re-interns only the views past it, so run ids, view ids, and view
    /// content are bit-identical for every thread/block count. The
    /// builder's `threads`, `shards`, and `chaos` knobs are honored
    /// (chaos is consulted once per block, by block index);
    /// the budget applies to cold builds only and is ignored here. A
    /// symmetric base extends into a symmetric system.
    ///
    /// [`FailurePattern::truncated_to`]: eba_model::FailurePattern::truncated_to
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
        mut self,
        base: &GeneratedSystem,
    ) -> Result<(GeneratedSystem, ExtendReport), ModelError> {
        let delta = base.scenario().extend_into(&self.scenario)?;
        self.budget = RunBudget::unlimited();
        unwrap_fault(self.pipeline(Some((base, &delta))))
            .map(|(outcome, report)| (outcome.into_system(), report))
    }

    /// How many blocks to split the pattern axis into: the explicit
    /// `shards` knob when set, otherwise `per_thread` per worker thread
    /// (one on a single thread). The result is identical for every block
    /// count.
    fn blocks(&self, per_thread: usize) -> usize {
        self.shards.unwrap_or(if self.threads == 1 {
            1
        } else {
            self.threads * per_thread
        })
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
    /// Returns [`BuildOutcome::Complete`] when every pattern was built and
    /// merged, or [`BuildOutcome::Partial`] — the system of a pattern
    /// prefix and its [`Partial`] accounting — when the budget ran out.
    /// Worker faults the supervisor absorbed along the way are listed in
    /// the outcome's [`BuildReport`].
    ///
    /// # Errors
    ///
    /// Returns [`EngineFault::Model`] for model-level failures (id-space
    /// overflow, injected capacity faults) and
    /// [`EngineFault::WorkerPanicked`] when a shard panicked on all three
    /// supervision attempts.
    pub fn build_governed(self) -> Result<BuildOutcome, EngineFault> {
        self.pipeline(None).map(|(outcome, _)| outcome)
    }

    /// The pipeline behind [`build_governed`](SystemBuilder::build_governed)
    /// (`base` unset) and [`extend`](SystemBuilder::extend) (`base` the
    /// system to extend and its horizon delta); see the module docs.
    /// Errors come in a fixed order: the run capacity, then symmetry
    /// support, then the first failed block in block order.
    fn pipeline(
        self,
        base: Option<(&GeneratedSystem, &HorizonDelta)>,
    ) -> Result<(BuildOutcome, ExtendReport), EngineFault> {
        let armed = self.budget.arm();
        let space = ScenarioSpace::new(self.scenario);
        if space.total_runs() > RUN_CAPACITY {
            return Err(ModelError::capacity_exceeded("run ids", RUN_CAPACITY).into());
        }
        // A symmetric base extends into a symmetric system: the extended
        // enumeration is filtered to canonical patterns exactly like a
        // cold quotiented build. (Truncation does not preserve
        // canonicality, so a canonical extended pattern may truncate to a
        // non-representative base pattern; `find_run` then misses and the
        // run is simulated fresh — reuse degrades, correctness doesn't.)
        let symmetry = base.map_or(self.symmetry, |(system, _)| system.symmetry().is_some());
        if symmetry {
            self.check_symmetry_supported()?;
        }
        let configs: Vec<InitialConfig> = space.configs().collect();
        let per_thread = if base.is_some() {
            EXTEND_BLOCKS_PER_THREAD
        } else {
            SHARDS_PER_THREAD
        };
        let (prefix, mut hit) = plan_run_bound(&space, &armed);
        let shards = space.shards(prefix, self.blocks(per_thread));

        let workers = self.threads.min(shards.len().max(1));
        let chaos = &*self.chaos;
        let (outcomes, worker_faults) = supervised_indexed(shards.len(), workers, |index| {
            chaos.inject(index).map_err(ShardError::Model)?;
            build_block(&space, &configs, shards[index], &armed, symmetry, base)
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

        let shared = base.map_or(0, |(system, _)| system.table().len());
        let (merged, completed, merge_hit) = merge(parts, shared, &armed)?;
        if let Some(view_hit) = merge_hit {
            hit = Some(view_hit);
        }
        let symmetry =
            symmetry.then(|| Arc::new(SymmetryInfo::new(merged.orbit_sizes, space.num_patterns())));
        // `from_parts` finishes by building the columnar `PointStore` over
        // the merged views, so even a budget-partial system carries its
        // columns and CSR bucket partitions.
        let system = GeneratedSystem::from_parts(
            self.scenario,
            merged.runs,
            merged.views,
            merged.table,
            symmetry,
        );
        let report = BuildReport { worker_faults };
        let outcome = match hit {
            None => BuildOutcome::Complete { system, report },
            Some(budget_hit) => BuildOutcome::Partial {
                system,
                partial: Partial {
                    patterns: shards[..completed].iter().map(Shard::len).sum(),
                    total_patterns: space.num_patterns(),
                    budget_hit,
                },
                report,
            },
        };
        Ok((outcome, merged.report))
    }
}

/// The result of a supervised stage for the entry points that return a
/// plain [`ModelError`]: a worker fault that defeated supervision panics
/// with its rendered message.
fn unwrap_fault<T>(result: Result<T, EngineFault>) -> Result<T, ModelError> {
    match result {
        Ok(value) => Ok(value),
        Err(EngineFault::Model(e)) => Err(e),
        Err(fault @ EngineFault::WorkerPanicked { .. }) => panic!("{fault}"),
    }
}

/// What a supervised, governed build produced.
#[derive(Debug)]
pub enum BuildOutcome {
    /// Every pattern was built and merged.
    Complete {
        /// The complete exhaustive system.
        system: GeneratedSystem,
        /// Supervision summary (absorbed worker faults).
        report: BuildReport,
    },
    /// The budget ran out; the system of a pattern prefix was merged. A
    /// run-bound prefix depends on the scenario and the bound alone; a
    /// view-bound, deadline or interrupt prefix is the longest run of
    /// completed blocks, so it depends on the block split (and a deadline
    /// prefix on timing), but it is always a valid prefix system.
    Partial {
        /// The system of the pattern prefix (possibly empty).
        system: GeneratedSystem,
        /// How far the build got, and what stopped it.
        partial: Partial,
        /// Supervision summary (absorbed worker faults).
        report: BuildReport,
    },
}

/// How far a budget-stopped build got. The system holds the runs of the
/// first `patterns` failure patterns of the enumeration (only their
/// canonical ones under the symmetry quotient), each crossed with every
/// initial configuration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Partial {
    /// Failure patterns of the enumeration prefix the system covers.
    pub patterns: u128,
    /// Failure patterns of a complete build.
    pub total_patterns: u128,
    /// The bound that stopped the build.
    pub budget_hit: BudgetHit,
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
            BuildOutcome::Partial { partial, .. } => Some(partial.budget_hit),
        }
    }

    /// Whether every pattern was built.
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
}

/// What one horizon extension reused versus recomputed (see
/// [`SystemBuilder::extend`]).
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

/// The pattern prefix a build enumerates: every pattern, or under a run
/// bound the longest prefix of whole patterns whose raw runs (every
/// configuration of each, before the quotient skips any) fit under it,
/// ⌊max_runs / 2^n⌋ patterns, with the hit when the bound cut the axis
/// short. It is planned before any work from the scenario and the bound
/// alone, so the same prefix is built at every thread and block count.
fn plan_run_bound(space: &ScenarioSpace, armed: &ArmedBudget) -> (u128, Option<BudgetHit>) {
    let total = space.num_patterns();
    match armed.budget().max_runs() {
        Some(limit) if u128::from(limit) / space.num_configs() < total => (
            u128::from(limit) / space.num_configs(),
            Some(BudgetHit::MaxRuns { limit }),
        ),
        _ => (total, None),
    }
}

/// The output of one block: its runs and flattened view rows (ids valid
/// in `table`: base ids below the base table's length, block-local ids
/// from there on), the orbit size of every built representative pattern
/// under the symmetry quotient, in enumeration order, and what the block
/// reused from an extension's base.
#[derive(Default)]
struct Block {
    table: ViewTable,
    views: Vec<ViewId>,
    runs: Vec<RunRecord>,
    orbit_sizes: Vec<u64>,
    report: ExtendReport,
}

/// Builds one block of the enumeration. The table starts empty, or as a
/// clone of the base table for an extension (`base` set); a run whose
/// base-horizon truncation the base holds copies the base row and
/// simulates only the appended rounds, and every other run is simulated
/// from scratch. Pure in its arguments — re-running it (the supervisor's
/// retry and fallback) yields identical output. The budget's deadline and
/// view bound are checked once per pattern. Under the symmetry quotient,
/// non-canonical patterns are skipped (never simulated) and each kept
/// pattern records its orbit size; skipping is a pure per-pattern
/// predicate, so determinism and block-count independence are untouched.
fn build_block(
    space: &ScenarioSpace,
    configs: &[InitialConfig],
    shard: Shard,
    armed: &ArmedBudget,
    symmetry: bool,
    base: Option<(&GeneratedSystem, &HorizonDelta)>,
) -> Result<Block, ShardError> {
    let scenario = space.scenario();
    let horizon = scenario.horizon();
    let n = scenario.n();
    // `Scenario::extend_into` already enforced the exchange's extension
    // policy, so stepping a base row here is sound.
    let kind = scenario.exchange();
    let slots_per_run = (horizon.index() + 1) * n;
    let mut block = Block {
        table: base.map_or_else(ViewTable::new, |(system, _)| system.table().clone()),
        ..Block::default()
    };
    for pattern in space.shard_patterns(shard) {
        // The block's distinct views lower-bound the merged total, so a
        // block that exceeds the view bound by itself can stop early
        // (`check_views` checks the deadline and the interrupt first).
        armed
            .check_views(block.table.len() as u64)
            .map_err(ShardError::Budget)?;
        debug_assert!(scenario.validate_pattern(&pattern).is_ok());
        if symmetry {
            let canon = canonicalize(&pattern);
            if canon.canonical != pattern {
                continue;
            }
            block.orbit_sizes.push(canon.orbit_size);
        }
        let nonfaulty = pattern.nonfaulty_set();
        let truncated =
            base.and_then(|(system, delta)| Some((system, delta.truncate_pattern(&pattern)?)));
        for config in configs {
            let row = truncated.as_ref().and_then(|(system, trunc)| {
                system.find_run(config, trunc).map(|r| system.views_row(r))
            });
            if let Some(row) = row {
                // The row holds times 0..=T_base, so rounds 1..=T_base
                // are done and only the appended ones are simulated.
                block.views.extend_from_slice(row);
                let mut prev = row[row.len() - n..].to_vec();
                for round in Round::upto(horizon).skip(row.len() / n - 1) {
                    let now = exchange::try_step(kind, &mut block.table, &pattern, round, &prev)
                        .map_err(ShardError::Model)?;
                    block.views.extend_from_slice(&now);
                    prev = now;
                }
                block.report.reused_runs += 1;
                block.report.reused_slots += row.len();
                block.report.computed_slots += slots_per_run - row.len();
            } else {
                let run_views =
                    try_exchange_views(kind, config, &pattern, horizon, &mut block.table)
                        .map_err(ShardError::Model)?;
                for time_views in &run_views {
                    block.views.extend_from_slice(time_views);
                }
                block.report.fresh_runs += 1;
                block.report.computed_slots += slots_per_run;
            }
            block.runs.push(RunRecord {
                config: config.clone(),
                pattern: pattern.clone(),
                nonfaulty,
            });
        }
    }
    Ok(block)
}

/// Merges blocks in block order, checking the view bound after each one.
/// Every block table starts with the same `shared` views (an extension's
/// base table; none for a cold build) and lists its own views after them
/// in first-encounter order, so block 0's table is the merged table and
/// each later block re-interns only its views past the shared prefix,
/// which maps to itself ([`ViewTable::absorb_suffix`]). New views land
/// exactly where a sequential build would have interned them: block
/// boundaries are invisible to the final `ViewId` numbering, whatever the
/// thread/block count.
///
/// Returns the merged block, the number of blocks merged, and the view
/// hit that stopped the merge early (if any). The block that crosses the
/// view bound is the last one included — bounds are honored to within
/// one block, mirroring the cooperative per-pattern deadline semantics.
/// A deadline or interrupt already cut `parts` to the completed prefix,
/// so the merge keeps every part and checks only the view bound.
fn merge(
    parts: Vec<Block>,
    shared: usize,
    armed: &ArmedBudget,
) -> Result<(Block, usize, Option<BudgetHit>), ModelError> {
    let mut merged = Block::default();
    let mut count = 0;
    let mut hit = None;
    for part in parts {
        if count == 0 {
            merged.table = part.table;
            merged.views = part.views;
        } else {
            let remap = merged.table.absorb_suffix(&part.table, shared)?;
            merged.views.extend(part.views.iter().map(|&v| {
                if v.index() < shared {
                    v
                } else {
                    remap[v.index() - shared]
                }
            }));
        }
        // Orbit sizes and runs are copied into vectors this thread
        // allocates rather than adopting block 0's, which a worker thread
        // allocated: adopting them raised peak RSS (DESIGN.md §4o).
        merged.orbit_sizes.extend_from_slice(&part.orbit_sizes);
        merged.runs.extend(part.runs);
        merged.report.reused_runs += part.report.reused_runs;
        merged.report.fresh_runs += part.report.fresh_runs;
        merged.report.reused_slots += part.report.reused_slots;
        merged.report.computed_slots += part.report.computed_slots;
        count += 1;
        if let Some(limit) = armed.budget().max_views() {
            if merged.table.len() as u64 > limit {
                hit = Some(BudgetHit::MaxViews { limit });
                break;
            }
        }
    }
    Ok((merged, count, hit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosPlan, FaultKind};
    use crate::system::RunId;
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
        let plan = Arc::new(ChaosPlan::new().with_fault(0, FaultKind::Panic));
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
            let plan = Arc::new(ChaosPlan::new().with_fault(shard, FaultKind::Panic));
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
        let plan = Arc::new(ChaosPlan::new().with_recurring_fault(1, FaultKind::Panic, 2));
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
        let hostile = Arc::new(ChaosPlan::new().with_recurring_fault(1, FaultKind::Panic, 3));
        let fault = SystemBuilder::new(&scenario)
            .threads(4)
            .shards(4)
            .chaos(hostile)
            .build_governed()
            .unwrap_err();
        assert!(matches!(
            fault,
            EngineFault::WorkerPanicked { index: 1, .. }
        ));
    }

    #[test]
    fn injected_capacity_fault_is_a_typed_model_error() {
        let plan = Arc::new(ChaosPlan::new().with_fault(2, FaultKind::CapacityExhaustion));
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
    fn run_budget_keeps_the_whole_pattern_prefix_at_every_split() {
        let scenario = scenario();
        let space = ScenarioSpace::new(scenario);
        // Seven whole patterns and part of an eighth: the part is dropped.
        let limit = 7 * space.num_configs() as u64 + 5;
        let full = SystemBuilder::new(&scenario).threads(1).build().unwrap();
        for (threads, shards) in [(1, 1), (1, 4), (4, 4), (2, 9), (3, 1000)] {
            let outcome = SystemBuilder::new(&scenario)
                .threads(threads)
                .shards(shards)
                .budget(RunBudget::unlimited().with_max_runs(limit))
                .build_governed()
                .unwrap();
            let BuildOutcome::Partial {
                system, partial, ..
            } = outcome
            else {
                panic!("run budget must yield a partial outcome");
            };
            assert_eq!(
                partial,
                Partial {
                    patterns: 7,
                    total_patterns: space.num_patterns(),
                    budget_hit: BudgetHit::MaxRuns { limit },
                },
                "{threads} threads, {shards} shards"
            );
            assert_eq!(system.num_runs() as u128, 7 * space.num_configs());
            // The prefix is the first runs of a full build: partial
            // results are usable, not garbage.
            for r in system.run_ids() {
                assert_eq!(system.run(r).config, full.run(r).config);
                assert_eq!(system.run(r).pattern, full.run(r).pattern);
            }
        }
    }

    #[test]
    fn run_budget_below_one_pattern_yields_empty_partial() {
        for limit in [0, 7] {
            let outcome = SystemBuilder::new(&scenario())
                .threads(2)
                .budget(RunBudget::unlimited().with_max_runs(limit))
                .build_governed()
                .unwrap();
            assert_eq!(outcome.budget_hit(), Some(BudgetHit::MaxRuns { limit }));
            let BuildOutcome::Partial {
                system, partial, ..
            } = outcome
            else {
                panic!("expected partial");
            };
            assert_eq!(partial.patterns, 0);
            assert_eq!(system.num_runs(), 0);
        }
    }

    #[test]
    fn interrupted_build_keeps_every_completed_shard() {
        use std::sync::atomic::{AtomicBool, Ordering};
        static STOP: AtomicBool = AtomicBool::new(false);
        /// Sets the interrupt flag as shard 2 starts.
        struct StopAtShardTwo;
        impl FaultInjector for StopAtShardTwo {
            fn inject(&self, index: usize) -> Result<(), ModelError> {
                if index == 2 {
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
            system, partial, ..
        } = outcome
        else {
            panic!("an interrupted build must yield a partial outcome");
        };
        let space = ScenarioSpace::new(scenario);
        let shards = space.shards(space.num_patterns(), 8);
        let two_shards = shards[0].len() + shards[1].len();
        assert_eq!(
            partial,
            Partial {
                patterns: two_shards,
                total_patterns: space.num_patterns(),
                budget_hit: BudgetHit::Interrupted,
            }
        );
        assert_eq!(system.num_runs() as u128, two_shards * space.num_configs());
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
            system, partial, ..
        } = outcome
        else {
            panic!("view budget must yield a partial outcome");
        };
        assert_eq!(partial.budget_hit, BudgetHit::MaxViews { limit: 1 });
        assert!(partial.patterns < partial.total_patterns);
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
        let baseline = SystemBuilder::new(&scenario).threads(1).build().unwrap();
        // A run bound that holds every pattern cuts nothing.
        let every_run = ScenarioSpace::new(scenario).total_runs() as u64;
        for budget in [
            RunBudget::unlimited(),
            RunBudget::unlimited().with_max_runs(every_run),
        ] {
            let outcome = SystemBuilder::new(&scenario)
                .threads(3)
                .shards(5)
                .budget(budget)
                .build_governed()
                .unwrap();
            assert!(outcome.is_complete());
            assert!(outcome.report().worker_faults.is_empty());
            assert_identical(&baseline, outcome.system());
        }
    }
}
