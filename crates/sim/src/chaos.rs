//! Fault injection and worker supervision.
//!
//! The paper is a theory of computing *under failures*; this module makes
//! the engine that reproduces it survive its own. It has two parts:
//!
//! 1. **Fault injection** — a [`FaultInjector`] is threaded through the
//!    parallel stage of the engine (the [`SystemBuilder`] block workers)
//!    and is consulted once per work item.
//!    [`ChaosPlan`] injects deterministic engine faults — a worker panic
//!    in shard `k`, a synthetic capacity exhaustion, an artificial delay
//!    — from an explicit or seeded plan, so every degradation path is
//!    testable. [`NoChaos`] is the free default.
//!
//! 2. **Supervision** — [`supervised_indexed`] is the worker pool used by
//!    that stage: every work item runs under `catch_unwind`, a panicked
//!    item is retried once on a fresh thread and then falls back to
//!    sequential execution on the supervising thread, and only a fault
//!    that defeats all three attempts surfaces — as a typed
//!    [`EngineFault`], never as a poisoned `join().expect(...)`. Work
//!    items are pure functions of their index, so a recovered run is
//!    bit-identical to an undisturbed one.
//!
//! See DESIGN.md §4c for the supervision policy and the budget semantics
//! that complement it ([`eba_model::RunBudget`]).
//!
//! [`SystemBuilder`]: crate::SystemBuilder

use crate::sched;
use eba_model::ModelError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// The kind of engine fault a [`ChaosPlan`] injects into a work item.
#[derive(Clone, Copy, Debug)]
pub enum FaultKind {
    /// The worker panics (exercises `catch_unwind` supervision).
    Panic,
    /// The worker reports a synthetic [`ModelError::CapacityExceeded`]
    /// (exercises typed-error propagation out of a pool).
    CapacityExhaustion,
    /// The worker stalls for the given duration (exercises deadline
    /// budgets and load-balance under slow shards).
    Delay(Duration),
}

/// Deterministic injection of engine faults into the supervised builder
/// blocks.
///
/// Implementations are consulted once per work item — a
/// [`SystemBuilder`](crate::SystemBuilder) block, by block index — and
/// may panic, sleep, or return a synthetic error; returning `Ok(())`
/// leaves the item undisturbed. Production code uses [`NoChaos`].
pub trait FaultInjector: Send + Sync {
    /// Called by a worker before processing block `index`.
    ///
    /// # Errors
    ///
    /// Returns a synthetic [`ModelError`] when the plan injects a
    /// capacity-exhaustion fault here.
    fn inject(&self, index: usize) -> Result<(), ModelError>;
}

/// The default injector: never injects anything.
#[derive(Clone, Copy, Default, Debug)]
pub struct NoChaos;

impl FaultInjector for NoChaos {
    fn inject(&self, _index: usize) -> Result<(), ModelError> {
        Ok(())
    }
}

/// One planned fault: fires at item `index` up to `fires` times.
#[derive(Debug)]
struct PlannedFault {
    index: usize,
    kind: FaultKind,
    fires: u32,
    remaining: AtomicU32,
}

/// A deterministic, seedable plan of engine faults; see the module docs.
///
/// Each fault fires a bounded number of times (default once), so the
/// supervisor's retry succeeds and degradation paths — not just failure
/// paths — are exercised. A recurring fault (see
/// [`ChaosPlan::with_recurring_fault`]) can defeat the retry and the
/// sequential fallback too, driving the engine into its terminal
/// [`EngineFault`].
///
/// # Example
///
/// ```
/// use eba_sim::chaos::{ChaosPlan, FaultInjector, FaultKind};
///
/// let plan = ChaosPlan::new().with_fault(0, FaultKind::Panic);
/// // The first visit to block 0 panics; the retry goes through.
/// assert!(std::panic::catch_unwind(|| plan.inject(0)).is_err());
/// assert!(plan.inject(0).is_ok());
/// assert_eq!(plan.fired(), 1);
/// ```
#[derive(Default, Debug)]
pub struct ChaosPlan {
    faults: Vec<PlannedFault>,
}

impl ChaosPlan {
    /// An empty plan (equivalent to [`NoChaos`]).
    #[must_use]
    pub fn new() -> Self {
        ChaosPlan::default()
    }

    /// Adds a fault that fires exactly once at item `index`.
    #[must_use]
    pub fn with_fault(self, index: usize, kind: FaultKind) -> Self {
        self.with_recurring_fault(index, kind, 1)
    }

    /// Adds a fault that fires on the first `fires` visits to item
    /// `index`. With `fires >= 3` a panic fault defeats the initial
    /// attempt, the retry, *and* the sequential fallback.
    #[must_use]
    pub fn with_recurring_fault(mut self, index: usize, kind: FaultKind, fires: u32) -> Self {
        self.faults.push(PlannedFault {
            index,
            kind,
            fires,
            remaining: AtomicU32::new(fires),
        });
        self
    }

    /// A seeded plan of `faults` random faults across item indices
    /// `0..max_index`. The same seed always yields the same plan, so chaos
    /// campaigns are reproducible.
    #[must_use]
    pub fn seeded(seed: u64, max_index: usize, faults: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = ChaosPlan::new();
        for _ in 0..faults {
            let index = rng.gen_range(0..max_index.max(1));
            let kind = match rng.gen_range(0..4u32) {
                0 | 1 => FaultKind::Panic,
                2 => FaultKind::CapacityExhaustion,
                _ => FaultKind::Delay(Duration::from_millis(rng.gen_range(1..5u64))),
            };
            plan = plan.with_fault(index, kind);
        }
        plan
    }

    /// How many planned faults have fired so far.
    #[must_use]
    pub fn fired(&self) -> u32 {
        self.faults
            .iter()
            .map(|f| f.fires - f.remaining.load(Ordering::Relaxed))
            .sum()
    }
}

impl FaultInjector for ChaosPlan {
    fn inject(&self, index: usize) -> Result<(), ModelError> {
        for fault in &self.faults {
            if fault.index != index {
                continue;
            }
            // Claim one firing; another thread may have used the last one.
            let claimed = fault
                .remaining
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |r| r.checked_sub(1))
                .is_ok();
            if !claimed {
                continue;
            }
            match fault.kind {
                FaultKind::Panic => {
                    panic!("chaos: injected panic at builder shard #{index}")
                }
                FaultKind::CapacityExhaustion => {
                    return Err(ModelError::capacity_exceeded("chaos-injected capacity", 0));
                }
                FaultKind::Delay(duration) => thread::sleep(duration),
            }
        }
        Ok(())
    }
}

/// A worker fault the supervisor absorbed: the stage still completed, and
/// this record says what it survived.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WorkerFault {
    /// The index of the work item (builder block) whose worker panicked.
    pub index: usize,
    /// How many attempts panicked before one succeeded (1 = the retry
    /// succeeded, 2 = only the sequential fallback did).
    pub attempts: u32,
    /// The panic payload of the first failed attempt, as text.
    pub message: String,
}

impl fmt::Display for WorkerFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "builder shard #{} panicked {} time(s) before recovery: {}",
            self.index, self.attempts, self.message
        )
    }
}

/// A typed engine failure: what a supervised stage returns instead of
/// aborting the process.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EngineFault {
    /// A work item panicked on the initial attempt, the retry, *and* the
    /// sequential fallback — the computation itself is broken (or a chaos
    /// plan was configured to defeat supervision).
    WorkerPanicked {
        /// The index of the work item (builder block).
        index: usize,
        /// The final panic payload, as text.
        message: String,
    },
    /// A model-level error (invalid input, or a real or injected capacity
    /// overflow) propagated out of a stage.
    Model(ModelError),
}

impl fmt::Display for EngineFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineFault::WorkerPanicked { index, message } => write!(
                f,
                "builder shard #{index} panicked on every attempt (initial, retry, sequential): \
                 {message}"
            ),
            EngineFault::Model(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineFault {}

impl From<ModelError> for EngineFault {
    fn from(e: ModelError) -> Self {
        EngineFault::Model(e)
    }
}

/// Renders a panic payload as text (panics carry `&str` or `String`
/// payloads in practice).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs `job(i)` once per attempt on a fresh, isolated thread.
fn attempt_on_fresh_thread<T, F>(job: &F, index: usize) -> Result<T, String>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    thread::scope(|scope| {
        let handle = scope.spawn(move || catch_unwind(AssertUnwindSafe(|| job(index))));
        match handle.join() {
            Ok(Ok(value)) => Ok(value),
            Ok(Err(payload)) => Err(panic_message(payload.as_ref())),
            Err(payload) => Err(panic_message(payload.as_ref())),
        }
    })
}

/// The supervised worker pool behind every parallel stage of the engine.
///
/// Computes `job(0..count)` on up to `workers` threads. Each worker
/// claims the next unclaimed index from one shared counter until the
/// counter passes `count`, so a free worker always takes the next item
/// and one slow item never holds back the others. Which thread runs an
/// item is therefore *not* part of the contract — the contract is
/// **item-indexed determinism under any schedule**: items must be pure
/// functions of their index (every stage in this workspace satisfies
/// that), results are scattered into index-keyed slots, and fault
/// injection keys on the item index, so any schedule produces output
/// identical to the sequential one.
///
/// Each item runs under `catch_unwind`; a panicked item is retried once
/// on a fresh thread, then falls back to sequential execution on the
/// calling thread.
///
/// Returns the results in item order together with the [`WorkerFault`]s
/// that were absorbed along the way.
///
/// With `workers <= 1` (or a single item) the job runs sequentially on
/// the calling thread, but still under supervision: panicked items go
/// through the same retry ladder as in the parallel case. A daemon on a
/// single-core host keeps the same fault-isolation guarantees as one on
/// a many-core host.
///
/// # Example
///
/// The worker count never changes the output:
///
/// ```
/// use eba_sim::chaos::supervised_indexed;
///
/// let job = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9).rotate_left(7);
/// let (sequential, _) = supervised_indexed(64, 1, job).unwrap();
/// let (parallel, _) = supervised_indexed(64, 4, job).unwrap();
/// assert_eq!(sequential, parallel);
/// ```
///
/// # Errors
///
/// Returns [`EngineFault::WorkerPanicked`] only when an item panicked on
/// all three attempts.
pub fn supervised_indexed<T, F>(
    count: usize,
    workers: usize,
    job: F,
) -> Result<(Vec<T>, Vec<WorkerFault>), EngineFault>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.min(count).max(1);
    let mut slots: Vec<Option<Result<T, String>>> = Vec::new();
    slots.resize_with(count, || None);
    if workers <= 1 || count <= 1 {
        for (index, slot) in slots.iter_mut().enumerate() {
            let outcome = catch_unwind(AssertUnwindSafe(|| job(index)))
                .map_err(|payload| panic_message(payload.as_ref()));
            *slot = Some(outcome);
        }
        return settle(slots, &job);
    }
    // The next unclaimed item. `Relaxed` suffices: the counter publishes
    // no data, and each worker hands its results back through `join`.
    let next = AtomicUsize::new(0);
    thread::scope(|scope| {
        let job = &job;
        let next = &next;
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let started = Instant::now();
                    let mut items = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= count {
                            break;
                        }
                        let outcome = catch_unwind(AssertUnwindSafe(|| job(index)))
                            .map_err(|payload| panic_message(payload.as_ref()));
                        items.push((index, outcome));
                    }
                    (items, started.elapsed())
                })
            })
            .collect();
        let mut per_worker = vec![0usize; workers];
        let mut spans = vec![Duration::ZERO; workers];
        for (worker, handle) in handles.into_iter().enumerate() {
            // Panics inside items are caught above, so a worker thread
            // itself dying is out-of-band (e.g. a panic while dropping a
            // caught payload); its unreported items go through the retry
            // path below like any other failed item.
            if let Ok((items, span)) = handle.join() {
                per_worker[worker] = items.len();
                spans[worker] = span;
                for (index, outcome) in items {
                    slots[index] = Some(outcome);
                }
            }
        }
        sched::record_run(&per_worker, &spans);
    });
    settle(slots, &job)
}

/// The shared retry ladder: resolve every failed or unreported slot with
/// one bounded retry on a fresh thread, then a final sequential attempt
/// on the calling thread; only an item that defeats all three attempts
/// surfaces as [`EngineFault::WorkerPanicked`].
fn settle<T, F>(
    slots: Vec<Option<Result<T, String>>>,
    job: &F,
) -> Result<(Vec<T>, Vec<WorkerFault>), EngineFault>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut results: Vec<T> = Vec::with_capacity(slots.len());
    let mut faults = Vec::new();
    for (index, slot) in slots.into_iter().enumerate() {
        let first_message = match slot {
            Some(Ok(value)) => {
                results.push(value);
                continue;
            }
            Some(Err(message)) => message,
            None => "worker thread died before reporting".to_owned(),
        };
        // One bounded retry on a fresh, isolated thread …
        match attempt_on_fresh_thread(job, index) {
            Ok(value) => {
                faults.push(WorkerFault {
                    index,
                    attempts: 1,
                    message: first_message,
                });
                results.push(value);
            }
            // … then graceful fallback to sequential execution here.
            Err(_) => match catch_unwind(AssertUnwindSafe(|| job(index))) {
                Ok(value) => {
                    faults.push(WorkerFault {
                        index,
                        attempts: 2,
                        message: first_message,
                    });
                    results.push(value);
                }
                Err(payload) => {
                    return Err(EngineFault::WorkerPanicked {
                        index,
                        message: panic_message(payload.as_ref()),
                    });
                }
            },
        }
    }
    Ok((results, faults))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_chaos_injects_nothing() {
        assert!(NoChaos.inject(0).is_ok());
    }

    #[test]
    fn planned_panic_fires_exactly_once() {
        let plan = ChaosPlan::new().with_fault(2, FaultKind::Panic);
        assert!(plan.inject(1).is_ok());
        let caught = catch_unwind(AssertUnwindSafe(|| plan.inject(2)));
        assert!(caught.is_err());
        // Second visit (the supervisor's retry) is clean.
        assert!(plan.inject(2).is_ok());
        assert_eq!(plan.fired(), 1);
    }

    #[test]
    fn capacity_fault_is_a_typed_error() {
        let plan = ChaosPlan::new().with_fault(0, FaultKind::CapacityExhaustion);
        let err = plan.inject(0).unwrap_err();
        assert!(matches!(err, ModelError::CapacityExceeded { .. }));
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        let a = ChaosPlan::seeded(42, 8, 5);
        let b = ChaosPlan::seeded(42, 8, 5);
        assert_eq!(a.faults.len(), 5);
        for (fa, fb) in a.faults.iter().zip(&b.faults) {
            assert_eq!(fa.index, fb.index);
            assert_eq!(
                std::mem::discriminant(&fa.kind),
                std::mem::discriminant(&fb.kind)
            );
        }
    }

    #[test]
    fn supervised_pool_computes_in_order_without_faults() {
        let (out, faults) = supervised_indexed(17, 4, |i| i * i).unwrap();
        assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
        assert!(faults.is_empty());
    }

    #[test]
    fn supervised_pool_recovers_from_a_single_panic() {
        let attempts = AtomicUsize::new(0);
        let (out, faults) = supervised_indexed(8, 4, |i| {
            if i == 3 && attempts.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("boom in item 3");
            }
            i + 100
        })
        .unwrap();
        assert_eq!(out, (100..108).collect::<Vec<_>>());
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].index, 3);
        assert_eq!(faults[0].attempts, 1);
        assert!(faults[0].message.contains("boom"));
    }

    #[test]
    fn supervised_pool_falls_back_to_sequential() {
        // Panic twice (initial + retry); only the sequential fallback on
        // the supervising thread succeeds.
        let attempts = AtomicUsize::new(0);
        let supervisor = thread::current().id();
        let (out, faults) = supervised_indexed(4, 2, |i| {
            if i == 0
                && thread::current().id() != supervisor
                && attempts.fetch_add(1, Ordering::Relaxed) < 2
            {
                panic!("persistent worker fault");
            }
            i
        })
        .unwrap();
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].attempts, 2);
    }

    #[test]
    fn defeating_all_attempts_yields_a_typed_fault() {
        let result: Result<(Vec<usize>, _), _> = supervised_indexed(4, 2, |i| {
            if i == 1 {
                panic!("unrecoverable");
            }
            i
        });
        let fault = result.unwrap_err();
        assert_eq!(
            fault,
            EngineFault::WorkerPanicked {
                index: 1,
                message: "unrecoverable".to_owned(),
            }
        );
        assert!(fault.to_string().contains("builder shard #1"));
    }

    #[test]
    fn sequential_pool_keeps_the_supervision_contract() {
        // A single-core host (workers == 1) must absorb a transient
        // panic exactly like the parallel pool: one retry, same results.
        let attempts = AtomicUsize::new(0);
        let (out, faults) = supervised_indexed(3, 1, |i| {
            if i == 1 && attempts.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("transient fault on a single-core host");
            }
            i * 10
        })
        .unwrap();
        assert_eq!(out, vec![0, 10, 20]);
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].index, 1);
        assert!(faults[0].message.contains("transient fault"));
    }

    #[test]
    fn sequential_pool_surfaces_a_persistent_panic_as_a_typed_fault() {
        let result: Result<(Vec<usize>, _), _> = supervised_indexed(3, 1, |i| {
            if i == 1 {
                panic!("unrecoverable");
            }
            i
        });
        assert!(matches!(
            result.unwrap_err(),
            EngineFault::WorkerPanicked { index: 1, .. }
        ));
    }

    /// Concurrent workers run every item exactly once, whatever the
    /// interleaving: the shared counter neither duplicates nor loses an
    /// index.
    #[test]
    fn concurrent_workers_run_every_item_exactly_once() {
        const ITEMS: usize = 101;
        for workers in [2, 3, 8] {
            let runs: Vec<AtomicUsize> = (0..ITEMS).map(|_| AtomicUsize::new(0)).collect();
            let (out, faults) = supervised_indexed(ITEMS, workers, |i| {
                runs[i].fetch_add(1, Ordering::Relaxed);
                i
            })
            .unwrap();
            assert!(faults.is_empty(), "workers={workers}");
            assert_eq!(out, (0..ITEMS).collect::<Vec<_>>(), "workers={workers}");
            for (i, count) in runs.iter().enumerate() {
                assert_eq!(
                    count.load(Ordering::Relaxed),
                    1,
                    "workers={workers}: item {i}"
                );
            }
        }
    }
}
