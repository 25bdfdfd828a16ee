//! A knowledge cache shared across evaluators over one system.
//!
//! Computing the [`Reachability`] structure of a nonrigid set is the
//! dominant cost of evaluating `C_S`/`C□_S` formulas. Within one
//! [`Evaluator`](crate::Evaluator) it is memoized per [`NonRigidSet`], but
//! the ids inside a `NonRigidSet::NonfaultyAnd` are evaluator-relative, so
//! that memo cannot be handed to another evaluator. [`KnowledgeCache`]
//! closes the gap: it keys reachability by the *content* of the nonrigid
//! set ([`ReachKey`]) and can therefore be shared — cheaply cloned — among
//! any number of evaluators, including the fresh evaluators the
//! construction pipeline spins up per optimization step. Lookups take a
//! mutex, but only on the first request per `(evaluator, set)` pair; after
//! that the evaluator's local memo answers. The evaluator's knowledge
//! kernels share their per-processor *scope columns* and the `D_S`
//! kernel its joint-view partition here too, under the same content
//! keys, so every query of a pooled session after the first reads them.
//!
//! Content keys can be expensive to canonicalize and to hash (a
//! `NonfaultyAnd` key carries every view of a state-set family), so the
//! cache works with **pre-hashed** keys ([`HashedReachKey`]): the
//! evaluator canonicalizes and hashes a set once, then reuses that digest
//! across its staged reachability, scope and partition lookups, and
//! across the get/insert pair of a miss. Internally entries live in
//! buckets keyed by the digest, with full-key equality resolving
//! (astronomically unlikely) collisions.
//!
//! [`KnowledgeCache::stats`] counts the hits and misses of those first
//! requests and reports the resident bytes; the CLI prints them under
//! `eba-check --cache-stats`.
//!
//! A cache serves **one generated system**: every entry indexes that
//! system's points, and a content key does not say which system its set
//! was evaluated over. So the first evaluator opened on a cache
//! ([`Evaluator::with_cache`](crate::Evaluator::with_cache)) binds it to
//! its system's [`GeneratedSystem::id`](eba_sim::GeneratedSystem::id),
//! which the system's clones share, and opening an evaluator over any
//! other system on it panics, in every build. A session that grows its
//! system to a larger horizon starts a new cache
//! (`EngineSession::extend_to` in `eba-core`).

use crate::bitset::Bitset;
use crate::eval::{PointClasses, Reachability};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Per-processor scope columns of a nonrigid set: entry `p` is the set of
/// points at which processor `p` belongs to `S(r, k)`. Built once per
/// `(system, set)` by the knowledge kernels and shared here alongside
/// reachability, under the same content key.
pub type ScopeColumns = Arc<Vec<Bitset>>;

/// A nonrigid set by content, independent of any evaluator's id
/// numbering: the `NonfaultyAnd` variant carries the per-processor
/// membership words of the state-set family
/// ([`crate::nonrigid::ViewSet::words`], trimmed and therefore
/// canonical). A key names a set of the cache's one system only.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) enum ReachKey {
    Everyone,
    Nonfaulty,
    NonfaultyAnd(Vec<Box<[u64]>>),
}

/// The key-side heap bytes of a key — the resident cost of keeping a
/// registered family's content addressable. Only the membership words
/// are counted, mirroring the value-side accounting, which ignores
/// container overhead.
fn key_bytes(key: &ReachKey) -> usize {
    match key {
        ReachKey::Everyone | ReachKey::Nonfaulty => 0,
        ReachKey::NonfaultyAnd(families) => families
            .iter()
            .map(|words| words.len() * std::mem::size_of::<u64>())
            .sum(),
    }
}

/// A [`ReachKey`] paired with its content digest, computed **once** at
/// construction. Every cache operation — the get and insert of
/// reachability, scope columns and `D_S` partitions — reuses the digest
/// instead of re-hashing the (potentially large) key.
#[derive(Clone, Debug)]
pub(crate) struct HashedReachKey {
    hash: u64,
    key: ReachKey,
}

impl HashedReachKey {
    pub(crate) fn new(key: ReachKey) -> Self {
        // FNV-1a over the canonical content: one multiply-xor per
        // membership *word* (64 views), not per view. Digests are
        // deterministic, which is all an in-memory cache needs;
        // collisions are resolved by full-key equality in the bucket
        // maps.
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |x: u64| {
            hash ^= x;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        };
        match &key {
            ReachKey::Everyone => mix(1),
            ReachKey::Nonfaulty => mix(2),
            ReachKey::NonfaultyAnd(families) => {
                mix(3);
                for words in families {
                    mix(words.len() as u64);
                    for &w in words.iter() {
                        mix(w);
                    }
                }
            }
        }
        HashedReachKey { hash, key }
    }
}

/// Digest-keyed bucket map: entries whose keys share a digest live in one
/// bucket and are resolved by full-key equality.
type BucketMap<V> = HashMap<u64, Vec<(ReachKey, V)>>;

/// One kind of cached structure: its bucket map and its hit and miss
/// counters, which are monotonic over the cache's lifetime.
#[derive(Debug)]
struct Store<V> {
    map: Mutex<BucketMap<V>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<V> Default for Store<V> {
    fn default() -> Self {
        Store {
            map: Mutex::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl<V: Clone> Store<V> {
    fn lock(&self) -> std::sync::MutexGuard<'_, BucketMap<V>> {
        self.map.lock().expect("knowledge cache poisoned")
    }

    /// Looks `key` up and counts the lookup as a hit or a miss.
    fn get(&self, key: &HashedReachKey) -> Option<V> {
        let found = self.lock().get(&key.hash).and_then(|bucket| {
            bucket
                .iter()
                .find(|(k, _)| *k == key.key)
                .map(|(_, v)| v.clone())
        });
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    fn insert(&self, key: &HashedReachKey, value: V) {
        let mut map = self.lock();
        let bucket = map.entry(key.hash).or_default();
        match bucket.iter_mut().find(|(k, _)| *k == key.key) {
            Some(slot) => slot.1 = value,
            None => bucket.push((key.key.clone(), value)),
        }
    }

    /// Number of entries.
    fn len(&self) -> usize {
        self.lock().values().map(Vec::len).sum()
    }

    /// Resident bytes of every entry: `value_bytes` of its value plus its
    /// key's family words.
    fn resident_bytes(&self, value_bytes: impl Fn(&V) -> usize) -> usize {
        self.lock()
            .values()
            .flatten()
            .map(|(k, v)| value_bytes(v) + key_bytes(k))
            .sum()
    }
}

/// A snapshot of a [`KnowledgeCache`]'s counters; see
/// [`KnowledgeCache::stats`]. The counters see only lookups that reach
/// the shared cache: an evaluator asks it once per set it does not yet
/// hold, and answers every later request for that set from its own memo
/// without counting. So a hit is a structure some other request built (a
/// different evaluator over the same system, or an earlier query of a
/// session at the same horizon), and a miss is one built fresh.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheStats {
    /// Reachability lookups the shared cache answered.
    pub reach_hits: u64,
    /// Reachability structures computed fresh.
    pub reach_misses: u64,
    /// Scope-column lookups the shared cache answered.
    pub scope_hits: u64,
    /// Scope-column vectors extracted fresh.
    pub scope_misses: u64,
    /// `D_S` joint-view partitions the shared cache answered.
    pub partition_hits: u64,
    /// `D_S` joint-view partitions built fresh.
    pub partition_misses: u64,
    /// Approximate resident heap bytes of the currently cached
    /// structures: every live reachability structure, every scope-column
    /// vector, every `D_S` partition (4 bytes per point), and the content
    /// payload of every stored key (a registered family's membership
    /// words). Computed on demand by walking the cache, so it reflects
    /// the moment of the [`KnowledgeCache::stats`] call; the serve pool's
    /// eviction budget is driven by this figure plus
    /// `GeneratedSystem::approx_resident_bytes`.
    pub resident_bytes: u64,
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reachability {} hits / {} misses; scope columns {} hits / {} misses; \
             D partitions {} hits / {} misses; resident ~{} bytes",
            self.reach_hits,
            self.reach_misses,
            self.scope_hits,
            self.scope_misses,
            self.partition_hits,
            self.partition_misses,
            self.resident_bytes,
        )
    }
}

/// A shareable, thread-safe memo of [`Reachability`] structures, scope
/// columns and `D_S` partitions over one system; see the module docs.
/// Cloning is cheap and clones share the same storage and binding.
///
/// # Example
///
/// ```
/// use eba_kripke::{Evaluator, KnowledgeCache, NonRigidSet};
/// use eba_model::{FailureMode, Scenario};
/// use eba_sim::GeneratedSystem;
///
/// # fn main() -> Result<(), eba_model::ModelError> {
/// let scenario = Scenario::new(3, 1, FailureMode::Crash, 2)?;
/// let system = GeneratedSystem::exhaustive(&scenario);
/// let cache = KnowledgeCache::new();
/// let mut first = Evaluator::with_cache(&system, cache.clone());
/// first.reachability(NonRigidSet::Nonfaulty); // computed
/// let mut second = Evaluator::with_cache(&system, cache.clone());
/// second.reachability(NonRigidSet::Nonfaulty); // served from the cache
/// assert_eq!(cache.len(), 1);
/// assert_eq!(cache.stats().reach_misses, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct KnowledgeCache {
    inner: Arc<Stores>,
}

/// The storage behind every clone of a [`KnowledgeCache`].
#[derive(Debug, Default)]
struct Stores {
    reach: Store<Arc<Reachability>>,
    scopes: Store<ScopeColumns>,
    partitions: Store<Arc<PointClasses>>,
    /// The [`GeneratedSystem::id`](eba_sim::GeneratedSystem::id) of the
    /// system every entry indexes, set by the first evaluator.
    system: OnceLock<u64>,
}

impl KnowledgeCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        KnowledgeCache::default()
    }

    /// Number of reachability structures currently cached (scope
    /// columns and `D_S` partitions are not counted).
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex is poisoned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.reach.len()
    }

    /// Whether nothing at all is cached yet: no reachability structure,
    /// no scope columns and no `D_S` partition.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex is poisoned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        let c = &*self.inner;
        c.reach.len() == 0 && c.scopes.len() == 0 && c.partitions.len() == 0
    }

    /// Binds the cache to the system with id `system` on first use;
    /// every later call must name the same system.
    ///
    /// # Panics
    ///
    /// Panics if the cache already serves another system.
    pub(crate) fn bind(&self, system: u64) {
        let bound = *self.inner.system.get_or_init(|| system);
        assert!(
            bound == system,
            "knowledge cache already serves another system; make a new cache per system"
        );
    }

    /// A snapshot of the cache's hit/miss counters, which are monotonic
    /// over the cache's lifetime, and of its resident bytes.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let c = &*self.inner;
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        CacheStats {
            reach_hits: load(&c.reach.hits),
            reach_misses: load(&c.reach.misses),
            scope_hits: load(&c.scopes.hits),
            scope_misses: load(&c.scopes.misses),
            partition_hits: load(&c.partitions.hits),
            partition_misses: load(&c.partitions.misses),
            resident_bytes: self.resident_bytes() as u64,
        }
    }

    /// Approximate resident heap bytes of the currently cached
    /// structures; see [`CacheStats::resident_bytes`].
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex is poisoned.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        let c = &*self.inner;
        c.reach.resident_bytes(|r| r.approx_bytes())
            + c.scopes
                .resident_bytes(|cols| cols.iter().map(Bitset::approx_bytes).sum())
            + c.partitions.resident_bytes(|p| p.approx_bytes())
    }

    pub(crate) fn get(&self, key: &HashedReachKey) -> Option<Arc<Reachability>> {
        self.inner.reach.get(key)
    }

    pub(crate) fn insert(&self, key: &HashedReachKey, value: Arc<Reachability>) {
        self.inner.reach.insert(key, value);
    }

    pub(crate) fn get_scopes(&self, key: &HashedReachKey) -> Option<ScopeColumns> {
        self.inner.scopes.get(key)
    }

    pub(crate) fn insert_scopes(&self, key: &HashedReachKey, value: ScopeColumns) {
        self.inner.scopes.insert(key, value);
    }

    pub(crate) fn get_partition(&self, key: &HashedReachKey) -> Option<Arc<PointClasses>> {
        self.inner.partitions.get(key)
    }

    pub(crate) fn insert_partition(&self, key: &HashedReachKey, value: Arc<PointClasses>) {
        self.inner.partitions.insert(key, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Evaluator, Formula, NonRigidSet};
    use eba_model::{FailureMode, Scenario, Value};
    use eba_sim::GeneratedSystem;

    /// A `D_S` partition of `points` points, every point its own class.
    fn partition(points: usize) -> Arc<PointClasses> {
        Arc::new(PointClasses {
            class_of: (0..points as u32).collect(),
            num_classes: points,
        })
    }

    fn crash_system() -> GeneratedSystem {
        GeneratedSystem::exhaustive(&Scenario::new(3, 1, FailureMode::Crash, 2).unwrap())
    }

    #[test]
    #[should_panic(expected = "knowledge cache already serves another system")]
    fn a_cache_serves_one_system_and_its_clones() {
        let system = crash_system();
        let twin = system.clone();
        assert_eq!(system.id(), twin.id());
        let cache = KnowledgeCache::new();
        cache.bind(system.id());
        // A clone of the cache shares the binding, and a clone of the
        // system is the same system.
        cache.clone().bind(twin.id());
        // An equal build is still another system.
        let other = crash_system();
        assert_ne!(other.id(), system.id());
        cache.clone().bind(other.id());
    }

    #[test]
    fn is_empty_answers_for_every_store() {
        // `E(E0)` caches scope columns only, `D(E0)` one partition only:
        // neither holds a reachability structure, so `len` stays 0.
        let system = crash_system();
        let everyone = Formula::exists(Value::Zero).everyone(NonRigidSet::Nonfaulty);
        let distributed = Formula::exists(Value::Zero).distributed(NonRigidSet::Nonfaulty);
        for formula in [everyone, distributed] {
            let cache = KnowledgeCache::new();
            assert!(cache.is_empty());
            let _ = Evaluator::with_cache(&system, cache.clone()).eval(&formula);
            assert_eq!(cache.len(), 0, "{formula}");
            assert!(cache.resident_bytes() > 0, "{formula}");
            assert!(!cache.is_empty(), "{formula}");
        }
    }

    #[test]
    fn resident_bytes_track_live_entries() {
        let cache = KnowledgeCache::new();
        assert_eq!(cache.resident_bytes(), 0);
        let cols = Arc::new(vec![Bitset::new_false(1024)]);
        let per_vector = cols.iter().map(Bitset::approx_bytes).sum::<usize>();
        cache.insert_scopes(&HashedReachKey::new(ReachKey::Nonfaulty), Arc::clone(&cols));
        assert_eq!(cache.resident_bytes(), per_vector);
        // A partition holds one `u32` class id per point.
        cache.insert_partition(&HashedReachKey::new(ReachKey::Nonfaulty), partition(1024));
        let resident = per_vector + 1024 * std::mem::size_of::<u32>();
        assert_eq!(cache.resident_bytes(), resident);
        assert_eq!(cache.stats().resident_bytes, resident as u64);
        let rendered = cache.stats().to_string();
        assert!(
            rendered.ends_with(&format!("; resident ~{resident} bytes")),
            "{rendered}"
        );
    }

    #[test]
    fn dense_resident_bytes_count_registered_family_keys() {
        let cache = KnowledgeCache::new();
        let family: Vec<Box<[u64]>> = vec![Box::from([1u64, 2, 3]), Box::from([4u64])];
        let words: usize = family.iter().map(|w| w.len() * 8).sum();
        cache.insert_scopes(
            &HashedReachKey::new(ReachKey::NonfaultyAnd(family)),
            Arc::new(vec![Bitset::new_false(64)]),
        );
        let resident = cache.resident_bytes();
        assert!(
            resident >= words + Bitset::new_false(64).approx_bytes(),
            "family key content must be accounted ({resident})"
        );
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let cache = KnowledgeCache::new();
        let key = HashedReachKey::new(ReachKey::Everyone);
        assert!(cache.get_scopes(&key).is_none());
        cache.insert_scopes(&key, Arc::new(Vec::new()));
        assert!(cache.get_scopes(&key).is_some());
        assert!(cache.get_partition(&key).is_none());
        cache.insert_partition(&key, partition(4));
        assert!(cache.get_partition(&key).is_some());
        assert!(cache.get_partition(&key).is_some());
        let stats = cache.stats();
        assert_eq!(stats.scope_misses, 1);
        assert_eq!(stats.scope_hits, 1);
        assert_eq!((stats.partition_hits, stats.partition_misses), (2, 1));
        let rendered = stats.to_string();
        assert!(
            rendered.contains(
                "scope columns 1 hits / 1 misses; D partitions 2 hits / 1 misses; resident"
            ),
            "{rendered}"
        );
    }
}
