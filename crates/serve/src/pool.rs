//! The warm-session pool: the daemon's working set of engine sessions.
//!
//! Every unbudgeted query checks out the immutable `Arc<EngineSession>`
//! of its [`ScenarioSpec`], the pool key; queries never mutate a
//! pooled session (evaluation and optimization only need `&self`), so
//! one session serves any number of concurrent queries, all sharing its
//! epoch-scoped [`eba_kripke::KnowledgeCache`]. A budgeted query's build
//! may stop at a prefix system, so it bypasses the pool.
//!
//! Robustness properties:
//!
//! * **single-flight builds** — the first request for a missing key
//!   builds it while later requests wait on a condvar, so a thundering
//!   herd of identical queries costs one build, not N;
//! * **LRU eviction under a memory budget** — every entry carries the
//!   approximate resident bytes of its system + cache (the PR's new
//!   `approx_resident_bytes`/`resident_bytes` accounting); inserting
//!   past the budget evicts least-recently-used entries. Eviction only
//!   removes the pool's reference: queries holding the `Arc` finish on
//!   the evicted session untouched — mid-query eviction is safe by
//!   construction (the chaos suite exercises it);
//! * **retry with exponential backoff** — transient
//!   [`EngineFault::WorkerPanicked`] build faults are retried
//!   (1ms·2^k backoff) up to a bounded budget, then surface as a typed
//!   `engine-fault` frame. Injected chaos plans have bounded fire
//!   counts, so retries make progress against them;
//! * **poison recovery** — a panicking query thread cannot wedge the
//!   pool: all lock acquisitions recover from poisoning, and an
//!   in-flight build mark is removed by a drop guard even if the build
//!   panics.

use crate::protocol::ServeError;
use eba_core::{EngineConfig, EngineSession, OpenError, ScenarioSpec};
use eba_sim::chaos::{EngineFault, FaultInjector};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// How transient build faults are retried.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts (first try included). 0 is treated as 1.
    pub attempts: u32,
    /// Backoff before retry `k` (0-based) is `base << k`.
    pub base_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            base_backoff: Duration::from_millis(1),
        }
    }
}

/// Aggregate pool counters, snapshotted under one lock acquisition.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct PoolStats {
    /// Live pooled sessions.
    pub sessions: usize,
    /// Sum of the entries' approximate resident bytes.
    pub resident_bytes: u64,
    /// Checkouts served from the pool.
    pub hits: u64,
    /// Checkouts that had to build.
    pub misses: u64,
    /// Entries evicted by the memory budget or an explicit `evict`.
    pub evictions: u64,
    /// Build attempts that failed with a transient fault and were
    /// retried.
    pub retries: u64,
}

struct Entry {
    session: Arc<EngineSession>,
    bytes: u64,
    stamp: u64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<ScenarioSpec, Entry>,
    building: HashSet<ScenarioSpec>,
    stamp: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    retries: u64,
}

/// The warm-session pool; see the module docs.
pub struct SessionPool {
    inner: Mutex<Inner>,
    cv: Condvar,
    mem_budget: u64,
    retry: RetryPolicy,
    chaos: Option<Arc<dyn FaultInjector>>,
}

impl std::fmt::Debug for SessionPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionPool")
            .field("mem_budget", &self.mem_budget)
            .finish_non_exhaustive()
    }
}

/// Removes the in-flight build mark even if the build panics, so
/// waiters blocked on the condvar are always released.
struct BuildGuard<'a> {
    pool: &'a SessionPool,
    key: ScenarioSpec,
    done: bool,
}

impl Drop for BuildGuard<'_> {
    fn drop(&mut self) {
        if !self.done {
            self.pool.lock().building.remove(&self.key);
            self.pool.cv.notify_all();
        }
    }
}

/// Approximate resident footprint of a session: generated system
/// (runs, interned views, columnar point store) plus live knowledge
/// cache artifacts.
#[must_use]
pub fn session_resident_bytes(session: &EngineSession) -> u64 {
    session.system().approx_resident_bytes() as u64 + session.cache().resident_bytes() as u64
}

impl SessionPool {
    /// Creates a pool bounded by `mem_budget` approximate resident
    /// bytes, with `retry` governing transient build faults and `chaos`
    /// optionally injected into every exhaustive build (the self-chaos
    /// hook).
    #[must_use]
    pub fn new(mem_budget: u64, retry: RetryPolicy, chaos: Option<Arc<dyn FaultInjector>>) -> Self {
        SessionPool {
            inner: Mutex::new(Inner::default()),
            cv: Condvar::new(),
            mem_budget,
            retry,
            chaos,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A query thread that panics while holding the lock leaves
        // consistent state behind (all mutations are single-step), so
        // recovering from poisoning is safe and keeps the daemon alive.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Checks out the session for `config`'s spec, building
    /// (single-flight) on a miss. Returns the session and whether it was
    /// a pool hit. A budgeted config is built privately (never a hit, never
    /// pooled).
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidScenario`] when the build rejects the scenario,
    /// [`ServeError::BudgetExhausted`] when a budget stopped it before it
    /// covered any pattern, [`ServeError::EngineFault`] when a build fault
    /// survives the retry budget.
    pub fn checkout(
        &self,
        config: &EngineConfig,
    ) -> Result<(Arc<EngineSession>, bool), ServeError> {
        if config.budget().is_bounded() {
            return Ok((Arc::new(self.open(config)?), false));
        }
        let key = *config.spec();
        {
            let mut inner = self.lock();
            loop {
                if inner.map.contains_key(&key) {
                    inner.stamp += 1;
                    inner.hits += 1;
                    let stamp = inner.stamp;
                    let entry = inner.map.get_mut(&key).expect("entry just found");
                    entry.stamp = stamp;
                    // Refresh the footprint: the shared cache grows as
                    // queries warm it, and eviction decisions should see
                    // the current figure, not the insert-time one.
                    entry.bytes = session_resident_bytes(&entry.session);
                    return Ok((Arc::clone(&entry.session), true));
                }
                if inner.building.contains(&key) {
                    inner = self.cv.wait(inner).unwrap_or_else(PoisonError::into_inner);
                    continue;
                }
                inner.building.insert(key);
                inner.misses += 1;
                break;
            }
        }
        let mut guard = BuildGuard {
            pool: self,
            key,
            done: false,
        };
        let session = Arc::new(self.open(config)?);
        let bytes = session_resident_bytes(&session);
        {
            let mut inner = self.lock();
            inner.building.remove(&key);
            inner.stamp += 1;
            let stamp = inner.stamp;
            inner.map.insert(
                key,
                Entry {
                    session: Arc::clone(&session),
                    bytes,
                    stamp,
                },
            );
            Self::evict_to_budget(&mut inner, self.mem_budget, Some(key));
        }
        guard.done = true;
        self.cv.notify_all();
        Ok((session, false))
    }

    /// Evicts least-recently-used entries until the total footprint
    /// fits the budget; `keep` (the entry just inserted) is never
    /// evicted, so a single oversized session still serves its query
    /// and is reclaimed by the next insert.
    fn evict_to_budget(inner: &mut Inner, budget: u64, keep: Option<ScenarioSpec>) {
        loop {
            let total: u64 = inner.map.values().map(|e| e.bytes).sum();
            if total <= budget {
                return;
            }
            let victim = inner
                .map
                .iter()
                .filter(|(k, _)| Some(**k) != keep)
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    inner.map.remove(&k);
                    inner.evictions += 1;
                }
                None => return,
            }
        }
    }

    /// Evicts one scenario's session (`Some`) or every session
    /// (`None`); in-flight queries holding the `Arc` are unaffected.
    /// Returns how many entries were dropped.
    pub fn evict(&self, key: Option<ScenarioSpec>) -> usize {
        let mut inner = self.lock();
        let dropped = match key {
            Some(k) => usize::from(inner.map.remove(&k).is_some()),
            None => {
                let n = inner.map.len();
                inner.map.clear();
                n
            }
        };
        inner.evictions += dropped as u64;
        dropped
    }

    /// Every pooled session, in deterministic (scenario-rendered) order.
    #[must_use]
    pub fn sessions(&self) -> Vec<Arc<EngineSession>> {
        let inner = self.lock();
        let mut pooled: Vec<(&ScenarioSpec, &Entry)> = inner.map.iter().collect();
        pooled.sort_by_key(|(spec, entry)| {
            (
                entry.session.scenario().to_string(),
                spec.sampled,
                spec.symmetry,
            )
        });
        pooled
            .into_iter()
            .map(|(_, entry)| Arc::clone(&entry.session))
            .collect()
    }

    /// Current counters and footprint.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        let inner = self.lock();
        PoolStats {
            sessions: inner.map.len(),
            resident_bytes: inner.map.values().map(|e| e.bytes).sum(),
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            retries: inner.retries,
        }
    }

    /// Opens a session for `config` with the pool's chaos injector,
    /// retrying transient build faults with exponential backoff.
    fn open(&self, config: &EngineConfig) -> Result<EngineSession, ServeError> {
        let mut config = config.clone();
        config.chaos.clone_from(&self.chaos);
        let attempts = self.retry.attempts.max(1);
        let mut last_fault = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                self.lock().retries += 1;
                std::thread::sleep(self.retry.base_backoff * (1u32 << (attempt - 1)));
            }
            match EngineSession::open(&config) {
                Ok(session) => return Ok(session),
                Err(OpenError::Exhausted(hit)) => {
                    return Err(ServeError::BudgetExhausted(format!(
                        "budget exhausted before the build covered any failure pattern \
                         ({hit}); raise deadline_ms/max_runs"
                    )));
                }
                // Model errors are deterministic — unless chaos is
                // injecting synthetic capacity faults, in which case they
                // are transient like panics.
                Err(OpenError::Fault(EngineFault::Model(e))) if self.chaos.is_none() => {
                    return Err(ServeError::InvalidScenario(e.to_string()));
                }
                Err(OpenError::Fault(fault)) => last_fault = Some(fault),
            }
        }
        Err(ServeError::EngineFault(format!(
            "build failed after {attempts} attempts: {}",
            last_fault.map_or_else(|| "unknown fault".to_owned(), |f| f.to_string())
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eba_core::EngineOptions;
    use eba_model::FailureMode;
    use eba_sim::chaos::{ChaosPlan, FaultKind, FaultSite};

    fn config_with(horizon: u16, options: EngineOptions) -> EngineConfig {
        EngineConfig::new(EngineOptions {
            horizon: Some(horizon),
            ..options
        })
        .unwrap()
    }

    fn config(horizon: u16) -> EngineConfig {
        config_with(horizon, EngineOptions::default())
    }

    fn unbounded_pool() -> SessionPool {
        SessionPool::new(u64::MAX, RetryPolicy::default(), None)
    }

    #[test]
    fn checkout_hits_after_a_miss_and_shares_the_session() {
        let pool = unbounded_pool();
        let key = config(2);
        let (a, hit_a) = pool.checkout(&key).unwrap();
        let (b, hit_b) = pool.checkout(&key).unwrap();
        assert!(!hit_a);
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b));
        let stats = pool.stats();
        assert_eq!((stats.hits, stats.misses, stats.sessions), (1, 1, 1));
        assert!(stats.resident_bytes > 0);
    }

    #[test]
    fn memory_budget_evicts_least_recently_used() {
        // Budget of one byte: every insert evicts everything else.
        let pool = SessionPool::new(1, RetryPolicy::default(), None);
        let k2 = config(2);
        let k3 = config(3);
        let (s2, _) = pool.checkout(&k2).unwrap();
        pool.checkout(&k3).unwrap();
        let stats = pool.stats();
        assert_eq!(stats.sessions, 1, "k2 must have been evicted");
        assert!(stats.evictions >= 1);
        // The in-flight Arc still answers queries after eviction.
        assert!(s2.system().num_runs() > 0);
        let mut eval = s2.evaluator();
        let f = eba_kripke::parse::parse_formula("CC(E0) -> C(E0)").unwrap();
        let sat = eval.eval(&f);
        assert_eq!(sat.count_ones(), sat.len());
    }

    #[test]
    fn cache_growth_after_checkout_counts_against_the_memory_budget() {
        let k2 = config(2);
        let other = config_with(
            2,
            EngineOptions {
                mode: FailureMode::Omission,
                ..EngineOptions::default()
            },
        );
        // Probe the insert-time footprints of both cold sessions.
        let probe = unbounded_pool();
        let cold = |key| session_resident_bytes(&probe.checkout(key).unwrap().0);
        let (cold_k2, cold_other) = (cold(&k2), cold(&other));
        drop(probe);

        // The budget fits both sessions cold, exactly. Warming k2's cache
        // after checkout grows its footprint, and only the checkout-time
        // refresh lets the pool see that growth: without it the second
        // insert would total exactly the budget and evict nothing.
        let pool = SessionPool::new(cold_k2 + cold_other, RetryPolicy::default(), None);
        let (warm, _) = pool.checkout(&k2).unwrap();
        let mut eval = warm.evaluator();
        let f = eba_kripke::parse::parse_formula("CC(E0) -> C(E0)").unwrap();
        let sat = eval.eval(&f);
        assert_eq!(sat.count_ones(), sat.len());
        let warm_bytes = session_resident_bytes(&warm);
        assert!(
            warm_bytes > cold_k2,
            "warming must grow the cache residency: {warm_bytes} vs {cold_k2}"
        );
        let (_, hit) = pool.checkout(&k2).unwrap(); // refreshes entry.bytes
        assert!(hit);
        pool.checkout(&other).unwrap();
        let stats = pool.stats();
        assert_eq!(
            (stats.evictions, stats.sessions),
            (1, 1),
            "cache growth crossed the budget but k2 was not evicted: {stats:?}"
        );
    }

    #[test]
    fn explicit_evict_and_full_clear() {
        let pool = unbounded_pool();
        let k2 = config(2);
        let k3 = config(3);
        pool.checkout(&k2).unwrap();
        pool.checkout(&k3).unwrap();
        assert_eq!(pool.evict(Some(*k2.spec())), 1);
        assert_eq!(pool.evict(Some(*k2.spec())), 0, "double evict is a no-op");
        assert_eq!(pool.evict(None), 1);
        assert_eq!(pool.stats().sessions, 0);
    }

    #[test]
    fn transient_build_faults_are_retried_until_the_plan_is_spent() {
        // A panic at shard 0 that fires twice: the supervised builder
        // absorbs per-worker panics itself, so to see pool-level retries
        // we inject a *capacity* fault, which the builder surfaces as a
        // typed EngineFault::Model.
        let plan = Arc::new(
            ChaosPlan::new()
                .with_fault(FaultSite::BuilderShard, 0, FaultKind::CapacityExhaustion)
                .with_fault(FaultSite::BuilderShard, 0, FaultKind::CapacityExhaustion),
        );
        let pool = SessionPool::new(u64::MAX, RetryPolicy::default(), Some(plan.clone()));
        let key = config(2);
        let (session, hit) = pool.checkout(&key).unwrap();
        assert!(!hit);
        assert!(session.system().num_runs() > 0);
        assert!(plan.fired() >= 1, "the chaos plan must actually fire");
        assert!(pool.stats().retries >= 1);
    }

    #[test]
    fn persistent_faults_exhaust_the_retry_budget_and_surface_typed() {
        let plan = Arc::new(ChaosPlan::new().with_recurring_fault(
            FaultSite::BuilderShard,
            0,
            FaultKind::CapacityExhaustion,
            u32::MAX,
        ));
        let retry = RetryPolicy {
            attempts: 2,
            base_backoff: Duration::from_micros(100),
        };
        let pool = SessionPool::new(u64::MAX, retry, Some(plan));
        let err = pool.checkout(&config(2)).unwrap_err();
        assert_eq!(err.kind(), "engine-fault");
        assert!(err.to_frame().to_line().contains("2 attempts"), "{err}");
        // The build mark must be gone: a later checkout with a clean
        // pool path (no fault left) would rebuild rather than hang —
        // recurring plans keep firing, so just assert the typed error
        // again rather than a hang.
        let err2 = pool.checkout(&config(2)).unwrap_err();
        assert_eq!(err2.kind(), "engine-fault");
    }

    #[test]
    fn sampled_sessions_are_pinned_and_pooled_separately() {
        let pool = unbounded_pool();
        let sampled = config_with(
            2,
            EngineOptions {
                sampled: Some((5, 42)),
                ..EngineOptions::default()
            },
        );
        let full = config(2);
        let (a, _) = pool.checkout(&full).unwrap();
        let (b, _) = pool.checkout(&sampled).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        let sampled_runs = b.system().num_runs();
        assert!(
            sampled_runs > 0 && sampled_runs < a.system().num_runs(),
            "sampled {sampled_runs} vs exhaustive {}",
            a.system().num_runs()
        );
        assert_eq!(pool.stats().sessions, 2);
    }
}
