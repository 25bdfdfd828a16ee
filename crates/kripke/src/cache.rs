//! A knowledge cache shared across evaluators over the same system.
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
//! A cache is only meaningful for evaluators over the **same generated
//! system**: reachability indexes the system's points. Sharing one across
//! unrelated systems is caught in debug builds (the point counts
//! disagree) but is undefined behaviorally in release builds — make a new
//! cache per system. The one sanctioned way to carry a cache handle
//! across systems is the incremental engine's **epoch** mechanism: when a
//! session extends its system's horizon it calls
//! [`KnowledgeCache::advance_epoch`], which invalidates every
//! point-indexed entry (they are sized to the old system) while
//! preserving the handle, its clones, and its counters.

use crate::bitset::Bitset;
use crate::eval::{PointClasses, Reachability};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Per-processor scope columns of a nonrigid set: entry `p` is the set of
/// points at which processor `p` belongs to `S(r, k)`. Built once per
/// `(system, set)` by the knowledge kernels and shared here alongside
/// reachability, under the same content key.
pub type ScopeColumns = Arc<Vec<Bitset>>;

/// The content of a nonrigid set, independent of any evaluator's id
/// numbering, qualified by the **exchange fingerprint** of the system it
/// was evaluated over ([`eba_model::ExchangeKind::fingerprint`]): a view
/// membership word is only meaningful relative to the interned state
/// space, and full-info and digest systems over the same scenario shape
/// have unrelated state spaces — without the fingerprint their
/// content-independent keys (`Everyone`, `Nonfaulty`) would collide.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) struct ReachKey {
    /// The exchange fingerprint of the generated system.
    pub(crate) exchange: u64,
    /// The symmetry fence: `0` for an unreduced system, the
    /// [`eba_sim::symmetry::ViewClasses::fingerprint`] of the quotiented
    /// system otherwise. A quotiented system and the unreduced system of
    /// the same scenario share exchange fingerprints but index entirely
    /// different point spaces (and their reachability partitions answer
    /// different questions), so their entries must never be
    /// interchangeable even when a library caller shares one cache handle
    /// across both. (Both front ends drop the quotient before they open a
    /// session, so each of their systems has its own cache.)
    pub(crate) symmetry: u64,
    /// Which nonrigid set, by content.
    pub(crate) sel: ReachSel,
}

/// The selector half of a [`ReachKey`]: the `NonfaultyAnd` variant
/// carries the per-processor membership words of the state-set family
/// ([`crate::nonrigid::ViewSet::words`], trimmed and therefore
/// canonical).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) enum ReachSel {
    Everyone,
    Nonfaulty,
    NonfaultyAnd(Vec<Box<[u64]>>),
}

/// The key-side heap bytes of a selector — the resident cost of keeping
/// a registered family's content addressable. Only the membership words
/// are counted, mirroring the value-side accounting, which ignores
/// container overhead.
fn sel_bytes(sel: &ReachSel) -> usize {
    match sel {
        ReachSel::Everyone | ReachSel::Nonfaulty => 0,
        ReachSel::NonfaultyAnd(families) => families
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
        // The exchange and symmetry fingerprints are mixed first so the
        // selector tags below stay distinct per (exchange, symmetry)
        // combination.
        mix(key.exchange);
        mix(key.symmetry);
        match &key.sel {
            ReachSel::Everyone => mix(1),
            ReachSel::Nonfaulty => mix(2),
            ReachSel::NonfaultyAnd(families) => {
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
/// bucket and are resolved by full-key equality. Every resident entry
/// belongs to the current epoch: [`KnowledgeCache::advance_epoch`] empties
/// every map before it bumps the epoch.
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

    /// Resident bytes of every entry: `value_bytes` of its value plus its
    /// key's family words.
    fn resident_bytes(&self, value_bytes: impl Fn(&V) -> usize) -> usize {
        self.lock()
            .values()
            .flatten()
            .map(|(k, v)| value_bytes(v) + sel_bytes(&k.sel))
            .sum()
    }

    /// Drops every entry and returns how many there were.
    fn clear(&self) -> usize {
        let mut map = self.lock();
        let dropped = map.values().map(Vec::len).sum();
        map.clear();
        dropped
    }
}

/// A snapshot of a [`KnowledgeCache`]'s counters; see
/// [`KnowledgeCache::stats`]. The counters see only lookups that reach
/// the shared cache: an evaluator asks it once per set it does not yet
/// hold, and answers every later request for that set from its own memo
/// without counting. So a hit is a structure some other request built (a
/// different evaluator over the same system, or an earlier query of a
/// session), and a miss is one built fresh.
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
    /// The cache's current epoch (how many times
    /// [`KnowledgeCache::advance_epoch`] has run).
    pub epoch: u64,
    /// Point-indexed entries dropped by epoch advances over the cache's
    /// lifetime.
    pub invalidated: u64,
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
             D partitions {} hits / {} misses; epoch {} ({} invalidated); resident ~{} bytes",
            self.reach_hits,
            self.reach_misses,
            self.scope_hits,
            self.scope_misses,
            self.partition_hits,
            self.partition_misses,
            self.epoch,
            self.invalidated,
            self.resident_bytes,
        )
    }
}

/// A shareable, thread-safe memo of [`Reachability`] structures, scope
/// columns and `D_S` partitions; see the module docs. Cloning is cheap
/// and clones share the same storage.
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
    /// The current epoch; [`KnowledgeCache::advance_epoch`] drops every
    /// entry before it moves on, so no older entry is ever served.
    epoch: AtomicU64,
    /// Point-indexed entries dropped by epoch advances.
    invalidated: AtomicU64,
}

impl KnowledgeCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        KnowledgeCache::default()
    }

    /// Number of reachability structures currently cached.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex is poisoned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.reach.lock().values().map(Vec::len).sum()
    }

    /// Whether nothing is cached yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
            epoch: load(&c.epoch),
            invalidated: load(&c.invalidated),
            resident_bytes: self.resident_bytes() as u64,
        }
    }

    /// Approximate resident heap bytes of the currently cached
    /// structures; see [`CacheStats::resident_bytes`]. Stale-epoch
    /// entries are already purged eagerly by
    /// [`advance_epoch`](KnowledgeCache::advance_epoch), so everything
    /// resident is counted.
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

    /// The cache's current epoch. All entries served by the cache were
    /// inserted under this epoch.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::Relaxed)
    }

    /// Starts a new epoch, invalidating every **point-indexed** entry:
    /// reachability structures, scope columns and `D_S` partitions are
    /// indexed by the points of one generated system, so when that system
    /// grows (the incremental engine's horizon extension) they are
    /// dimensionally stale — crucially including the content-independent
    /// keys (`Everyone`, `Nonfaulty`), which would otherwise silently hit
    /// across horizons. Purged entries are counted in
    /// [`CacheStats::invalidated`]; hit/miss history, the cache handle,
    /// and its clones all survive. Pure-past artifacts of the wider
    /// engine (interned sim-layer views) are untouched by design — they
    /// live outside this cache precisely because horizon growth preserves
    /// them.
    ///
    /// Returns the new epoch.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex is poisoned.
    pub fn advance_epoch(&self) -> u64 {
        let c = &*self.inner;
        let dropped = c.reach.clear() + c.scopes.clear() + c.partitions.clear();
        c.invalidated.fetch_add(dropped as u64, Ordering::Relaxed);
        c.epoch.fetch_add(1, Ordering::Relaxed) + 1
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

    /// A key under the full-information exchange fingerprint (the tests'
    /// default system shape).
    fn key(sel: ReachSel) -> HashedReachKey {
        HashedReachKey::new(ReachKey {
            exchange: eba_model::ExchangeKind::FullInformation.fingerprint(),
            symmetry: 0,
            sel,
        })
    }

    /// A `D_S` partition of `points` points, every point its own class.
    fn partition(points: usize) -> Arc<PointClasses> {
        Arc::new(PointClasses {
            class_of: (0..points as u32).collect(),
            num_classes: points,
        })
    }

    #[test]
    fn symmetry_fence_separates_quotient_and_unreduced_entries() {
        let cache = KnowledgeCache::new();
        let unreduced = key(ReachSel::Nonfaulty);
        let quotient = HashedReachKey::new(ReachKey {
            exchange: eba_model::ExchangeKind::FullInformation.fingerprint(),
            symmetry: 0xdead_beef,
            sel: ReachSel::Nonfaulty,
        });
        cache.insert_scopes(&unreduced, Arc::new(vec![Bitset::new_false(8)]));
        cache.insert_partition(&unreduced, partition(8));
        assert!(cache.get_scopes(&unreduced).is_some());
        assert!(cache.get_partition(&unreduced).is_some());
        assert!(
            cache.get_scopes(&quotient).is_none() && cache.get_partition(&quotient).is_none(),
            "quotient keys must not hit unreduced entries"
        );
    }

    #[test]
    fn advance_epoch_invalidates_point_indexed_entries() {
        let cache = KnowledgeCache::new();
        assert_eq!(cache.epoch(), 0);
        let key = key(ReachSel::Everyone);
        cache.insert_scopes(&key, Arc::new(vec![Bitset::new_false(8)]));
        cache.insert_partition(&key, partition(8));
        assert!(cache.get_scopes(&key).is_some());

        assert_eq!(cache.advance_epoch(), 1);
        assert_eq!(cache.epoch(), 1);
        // The content-independent key must NOT hit across epochs: the old
        // columns and partition are sized to the old system.
        assert!(cache.get_scopes(&key).is_none());
        assert!(cache.get_partition(&key).is_none());
        let stats = cache.stats();
        assert_eq!(stats.epoch, 1);
        assert_eq!(stats.invalidated, 2);

        // Fresh inserts under the new epoch serve normally.
        cache.insert_scopes(&key, Arc::new(vec![Bitset::new_false(16)]));
        assert!(cache.get_scopes(&key).is_some());
    }

    #[test]
    fn epoch_is_shared_by_clones() {
        let cache = KnowledgeCache::new();
        let clone = cache.clone();
        cache.advance_epoch();
        assert_eq!(clone.epoch(), 1);
        assert_eq!(clone.stats().epoch, 1);
    }

    #[test]
    fn resident_bytes_track_live_entries() {
        let cache = KnowledgeCache::new();
        assert_eq!(cache.resident_bytes(), 0);
        let cols = Arc::new(vec![Bitset::new_false(1024)]);
        let per_vector = cols.iter().map(Bitset::approx_bytes).sum::<usize>();
        cache.insert_scopes(&key(ReachSel::Nonfaulty), Arc::clone(&cols));
        assert_eq!(cache.resident_bytes(), per_vector);
        // A partition holds one `u32` class id per point.
        cache.insert_partition(&key(ReachSel::Nonfaulty), partition(1024));
        let resident = per_vector + 1024 * std::mem::size_of::<u32>();
        assert_eq!(cache.resident_bytes(), resident);
        assert_eq!(cache.stats().resident_bytes, resident as u64);
        // Epoch advance purges everything point-indexed.
        cache.advance_epoch();
        assert_eq!(cache.resident_bytes(), 0);
        let rendered = cache.stats().to_string();
        assert!(rendered.contains("resident ~0 bytes"), "{rendered}");
    }

    #[test]
    fn dense_resident_bytes_count_registered_family_keys() {
        let cache = KnowledgeCache::new();
        let family: Vec<Box<[u64]>> = vec![Box::from([1u64, 2, 3]), Box::from([4u64])];
        let words: usize = family.iter().map(|w| w.len() * 8).sum();
        cache.insert_scopes(
            &key(ReachSel::NonfaultyAnd(family)),
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
        let key = key(ReachSel::Everyone);
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
            rendered
                .contains("scope columns 1 hits / 1 misses; D partitions 2 hits / 1 misses; epoch"),
            "{rendered}"
        );
    }
}
