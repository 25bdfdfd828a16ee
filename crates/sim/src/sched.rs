//! Work-stealing scheduler behind the supervised worker pools
//! (DESIGN.md §4j).
//!
//! [`chaos::supervised_indexed`](crate::chaos::supervised_indexed) used to
//! hand item `i` to worker `i % workers` statically, so a single slow item
//! idled every other core for the tail of the stage. This module replaces
//! that assignment with a classic injector/deque work-stealing design on
//! `std` primitives only:
//!
//! * a shared **injector** holds the item index space pre-split into
//!   contiguous chunks;
//! * each worker owns a **deque** of chunks; it pops items from the front
//!   of its own deque and refills from the injector when dry;
//! * an idle worker **steals half** of a victim's deque from the back
//!   (splitting the victim's last chunk in two when only one remains), so
//!   the items nearest a busy worker's "hands" stay with it.
//!
//! Scheduling affects only *which thread* computes an item, never the
//! result: items are pure functions of their index, results are scattered
//! into index-keyed slots, and chaos faults key on the item index — so
//! every schedule is observationally identical to the sequential one.
//!
//! The module also keeps a process-wide [`SchedulerStats`] accumulator
//! (pool runs, items, steals, and the per-worker item counts and busy
//! spans of the most recent parallel run) surfaced through the CLI's
//! `--cache-stats` flag and the `eba-serve` `stats` verb, so load-balance
//! claims are observable rather than asserted.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// The injector plus per-worker deques for one pool run over the item
/// index space `0..count`.
pub(crate) struct WorkQueues {
    injector: Mutex<VecDeque<Range<usize>>>,
    locals: Vec<Mutex<VecDeque<Range<usize>>>>,
    steals: AtomicU64,
}

/// Chunks per worker seeded into the injector. More chunks mean finer
/// stealing granularity at slightly more queue traffic; four per worker
/// matches the builder's shard oversubscription factor.
const CHUNKS_PER_WORKER: usize = 4;

impl WorkQueues {
    /// Splits `0..count` into contiguous chunks on the shared injector.
    pub(crate) fn new(count: usize, workers: usize) -> Self {
        let chunks = (workers * CHUNKS_PER_WORKER).clamp(1, count.max(1));
        let chunk = count.div_ceil(chunks).max(1);
        let mut injector = VecDeque::new();
        let mut start = 0;
        while start < count {
            let end = (start + chunk).min(count);
            injector.push_back(start..end);
            start = end;
        }
        WorkQueues {
            injector: Mutex::new(injector),
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            steals: AtomicU64::new(0),
        }
    }

    /// Claims the next item for `worker`: front of its own deque, then a
    /// chunk from the injector, then half of a victim's deque. Returns
    /// `None` when no unclaimed work is visible anywhere — the pool run
    /// is draining and the worker can retire.
    pub(crate) fn next(&self, worker: usize) -> Option<usize> {
        loop {
            if let Some(index) = self.pop_own(worker) {
                return Some(index);
            }
            if let Some(range) = self.injector.lock().expect("injector poisoned").pop_front() {
                self.push_own(worker, range);
                continue;
            }
            if !self.steal_into(worker) {
                return None;
            }
        }
    }

    /// Total successful steals of this run.
    pub(crate) fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    fn pop_own(&self, worker: usize) -> Option<usize> {
        let mut local = self.locals[worker].lock().expect("deque poisoned");
        let front = local.pop_front()?;
        if front.start + 1 < front.end {
            local.push_front(front.start + 1..front.end);
        }
        Some(front.start)
    }

    fn push_own(&self, worker: usize, range: Range<usize>) {
        self.locals[worker]
            .lock()
            .expect("deque poisoned")
            .push_back(range);
    }

    /// Steals half of the first non-empty victim's deque (from the back,
    /// so the victim keeps the items it is about to execute). When the
    /// victim holds a single multi-item chunk, that chunk is split and
    /// the upper half taken. Returns whether anything was stolen.
    fn steal_into(&self, thief: usize) -> bool {
        let workers = self.locals.len();
        for offset in 1..workers {
            let victim = (thief + offset) % workers;
            let mut loot: VecDeque<Range<usize>> = VecDeque::new();
            {
                let mut deque = self.locals[victim].lock().expect("deque poisoned");
                match deque.len() {
                    0 => continue,
                    1 => {
                        let only = deque.pop_front().expect("non-empty deque");
                        let mid = only.start + (only.end - only.start) / 2;
                        if mid > only.start {
                            deque.push_front(only.start..mid);
                            loot.push_back(mid..only.end);
                        } else {
                            // A single-item chunk is not worth a steal;
                            // give it back and try the next victim.
                            deque.push_front(only);
                            continue;
                        }
                    }
                    len => {
                        for _ in 0..len.div_ceil(2) {
                            let back = deque.pop_back().expect("non-empty deque");
                            loot.push_front(back);
                        }
                    }
                }
            }
            let mut own = self.locals[thief].lock().expect("deque poisoned");
            own.extend(loot);
            drop(own);
            self.steals.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        false
    }
}

// Process-wide accumulator. Pool runs from every supervised stage
// (builder shards, campaign shards, extend blocks) fold into the same
// counters; the `last_*` fields describe the most recent parallel run
// only.
static POOL_RUNS: AtomicU64 = AtomicU64::new(0);
static ITEMS_EXECUTED: AtomicU64 = AtomicU64::new(0);
static STEALS: AtomicU64 = AtomicU64::new(0);
static LAST_WORKERS: AtomicU64 = AtomicU64::new(0);
static LAST_ITEMS_MAX: AtomicU64 = AtomicU64::new(0);
static LAST_ITEMS_MIN: AtomicU64 = AtomicU64::new(0);
static LAST_SPAN_MAX_US: AtomicU64 = AtomicU64::new(0);
static LAST_SPAN_MIN_US: AtomicU64 = AtomicU64::new(0);

/// Folds one finished parallel pool run into the process-wide stats.
pub(crate) fn record_run(per_worker_items: &[usize], spans: &[Duration], steals: u64) {
    let items: usize = per_worker_items.iter().sum();
    POOL_RUNS.fetch_add(1, Ordering::Relaxed);
    ITEMS_EXECUTED.fetch_add(items as u64, Ordering::Relaxed);
    STEALS.fetch_add(steals, Ordering::Relaxed);
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

/// A snapshot of the process-wide work-stealing scheduler counters.
///
/// `pools`, `items` and `steals` accumulate over every parallel pool run
/// since process start; the `last_*` fields describe the most recent run
/// (its worker count, the busiest/idlest workers' item counts, and their
/// busy wall-time spans in microseconds — the straggler gap).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Parallel pool runs completed.
    pub pools: u64,
    /// Items executed across all parallel pool runs.
    pub items: u64,
    /// Successful steals across all parallel pool runs.
    pub steals: u64,
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
        steals: STEALS.load(Ordering::Relaxed),
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
            "{} pools / {} items / {} steals; last run: {} workers, \
             items max {} / min {}, span max {}µs / min {}µs",
            self.pools,
            self.items,
            self.steals,
            self.last_workers,
            self.last_items_max,
            self.last_items_min,
            self.last_span_max_us,
            self.last_span_min_us,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::atomic::AtomicUsize;
    use std::thread;

    /// Draining the queues from one worker yields every index once.
    #[test]
    fn single_worker_drains_every_index_in_order() {
        let queues = WorkQueues::new(37, 1);
        let mut seen = Vec::new();
        while let Some(i) = queues.next(0) {
            seen.push(i);
        }
        assert_eq!(seen, (0..37).collect::<Vec<_>>());
        assert_eq!(queues.steals(), 0);
    }

    /// Concurrent workers claim every index exactly once, whatever the
    /// interleaving; steals move work without duplicating or losing it.
    #[test]
    fn concurrent_workers_partition_the_index_space() {
        for workers in [2, 3, 8] {
            let count = 101;
            let queues = WorkQueues::new(count, workers);
            let claimed: Vec<Vec<usize>> = thread::scope(|scope| {
                let queues = &queues;
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        scope.spawn(move || {
                            let mut mine = Vec::new();
                            while let Some(i) = queues.next(w) {
                                mine.push(i);
                            }
                            mine
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let all: Vec<usize> = claimed.into_iter().flatten().collect();
            let unique: BTreeSet<usize> = all.iter().copied().collect();
            assert_eq!(all.len(), count, "workers={workers}: duplicated claims");
            assert_eq!(unique.len(), count, "workers={workers}: lost claims");
            assert_eq!(unique.iter().next_back(), Some(&(count - 1)));
        }
    }

    /// A stalled worker's pending chunk items get stolen. Worker 0
    /// claims one item and parks until every thief retires; thieves can
    /// only retire once worker 0's deque is down to a single-item chunk
    /// (single-item chunks are not worth a steal), so on resume the
    /// stalled worker drains at most one leftover item — the rest of its
    /// chunk was stolen while it stalled.
    #[test]
    fn idle_workers_steal_from_a_stalled_victim() {
        let count = 64;
        let queues = WorkQueues::new(count, 4);
        let retired = AtomicUsize::new(0);
        let (stalled, others) = thread::scope(|scope| {
            let queues = &queues;
            let retired = &retired;
            let victim = scope.spawn(move || {
                let mut mine = 0usize;
                if queues.next(0).is_some() {
                    mine += 1;
                }
                while retired.load(Ordering::SeqCst) < 3 {
                    thread::yield_now();
                }
                while queues.next(0).is_some() {
                    mine += 1;
                }
                mine
            });
            let thieves: Vec<_> = (1..4)
                .map(|w| {
                    scope.spawn(move || {
                        let mut mine = 0usize;
                        while queues.next(w).is_some() {
                            mine += 1;
                        }
                        retired.fetch_add(1, Ordering::SeqCst);
                        mine
                    })
                })
                .collect();
            let others: usize = thieves.into_iter().map(|h| h.join().unwrap()).sum();
            (victim.join().unwrap(), others)
        });
        assert_eq!(stalled + others, count, "every item claimed exactly once");
        assert!(queues.steals() >= 1, "the stalled deque must be robbed");
        assert!(
            stalled <= 2,
            "worker 0 kept {stalled} items; thieves should have taken its chunk"
        );
    }
}
