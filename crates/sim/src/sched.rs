//! Process-wide counters of the supervised worker pool (DESIGN.md §4j).
//!
//! [`chaos::supervised_indexed`](crate::chaos::supervised_indexed) hands
//! out item indices from one shared next-index counter, so whichever
//! worker is free claims the next item. Scheduling affects only *which
//! thread* computes an item, never the result: items are pure functions
//! of their index, results are scattered into index-keyed slots, and
//! chaos faults key on the item index — so every schedule is
//! observationally identical to the sequential one.
//!
//! This module keeps the process-wide [`SchedulerStats`] accumulator
//! (pool runs, items, and the per-worker item counts and busy spans of
//! the most recent parallel run) surfaced through the CLI's
//! `--cache-stats` flag and the `eba-serve` `stats` verb, so load-balance
//! claims are observable rather than asserted.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

// Process-wide accumulator. Pool runs from every supervised stage
// (cold-build shards, extension blocks) fold into the same counters; the
// `last_*` fields describe the most recent parallel run only.
static POOL_RUNS: AtomicU64 = AtomicU64::new(0);
static ITEMS_EXECUTED: AtomicU64 = AtomicU64::new(0);
static LAST_WORKERS: AtomicU64 = AtomicU64::new(0);
static LAST_ITEMS_MAX: AtomicU64 = AtomicU64::new(0);
static LAST_ITEMS_MIN: AtomicU64 = AtomicU64::new(0);
static LAST_SPAN_MAX_US: AtomicU64 = AtomicU64::new(0);
static LAST_SPAN_MIN_US: AtomicU64 = AtomicU64::new(0);

/// Folds one finished parallel pool run into the process-wide stats.
pub(crate) fn record_run(per_worker_items: &[usize], spans: &[Duration]) {
    let items: usize = per_worker_items.iter().sum();
    POOL_RUNS.fetch_add(1, Ordering::Relaxed);
    ITEMS_EXECUTED.fetch_add(items as u64, Ordering::Relaxed);
    LAST_WORKERS.store(per_worker_items.len() as u64, Ordering::Relaxed);
    let max_items = per_worker_items.iter().copied().max().unwrap_or(0);
    let min_items = per_worker_items.iter().copied().min().unwrap_or(0);
    LAST_ITEMS_MAX.store(max_items as u64, Ordering::Relaxed);
    LAST_ITEMS_MIN.store(min_items as u64, Ordering::Relaxed);
    let max_span = spans.iter().copied().max().unwrap_or(Duration::ZERO);
    let min_span = spans.iter().copied().min().unwrap_or(Duration::ZERO);
    LAST_SPAN_MAX_US.store(max_span.as_micros() as u64, Ordering::Relaxed);
    LAST_SPAN_MIN_US.store(min_span.as_micros() as u64, Ordering::Relaxed);
}

/// A snapshot of the process-wide worker-pool counters.
///
/// `pools` and `items` accumulate over every parallel pool run since
/// process start; the `last_*` fields describe the most recent run (its
/// worker count, the busiest/idlest workers' item counts, and their busy
/// wall-time spans in microseconds — the straggler gap).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Parallel pool runs completed.
    pub pools: u64,
    /// Items executed across all parallel pool runs.
    pub items: u64,
    /// Worker count of the most recent parallel run.
    pub last_workers: u64,
    /// Most items executed by one worker in the most recent run.
    pub last_items_max: u64,
    /// Fewest items executed by one worker in the most recent run.
    pub last_items_min: u64,
    /// Longest per-worker busy span of the most recent run, in µs.
    pub last_span_max_us: u64,
    /// Shortest per-worker busy span of the most recent run, in µs.
    pub last_span_min_us: u64,
}

/// Reads the current process-wide scheduler counters.
pub fn scheduler_stats() -> SchedulerStats {
    SchedulerStats {
        pools: POOL_RUNS.load(Ordering::Relaxed),
        items: ITEMS_EXECUTED.load(Ordering::Relaxed),
        last_workers: LAST_WORKERS.load(Ordering::Relaxed),
        last_items_max: LAST_ITEMS_MAX.load(Ordering::Relaxed),
        last_items_min: LAST_ITEMS_MIN.load(Ordering::Relaxed),
        last_span_max_us: LAST_SPAN_MAX_US.load(Ordering::Relaxed),
        last_span_min_us: LAST_SPAN_MIN_US.load(Ordering::Relaxed),
    }
}

impl std::fmt::Display for SchedulerStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.pools == 0 {
            return write!(f, "no parallel pool runs");
        }
        write!(
            f,
            "{} pools / {} items; last run: {} workers, \
             items max {} / min {}, span max {}µs / min {}µs",
            self.pools,
            self.items,
            self.last_workers,
            self.last_items_max,
            self.last_items_min,
            self.last_span_max_us,
            self.last_span_min_us,
        )
    }
}
