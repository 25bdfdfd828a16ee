//! State sets and nonrigid sets of processors.
//!
//! The word-streaming set operations (union, difference, subset, count)
//! run on the 4-wide unrolled block kernels of [`crate::kernels`]; this
//! module keeps the set semantics, including the trailing-zero-word
//! trimming invariant that makes equal sets word-for-word equal.

use crate::kernels;
use eba_model::{ProcessorId, Value};
use eba_sim::{ViewId, ViewTable};

/// A set of [`ViewId`]s stored as a growable bitmask over view indices.
///
/// View ids are dense table indices, so a word per 64 views beats a hash
/// set on every operation the engine runs hot: membership is one indexed
/// load, subset/union/difference are word loops, equality is a `memcmp`,
/// and the canonical content (for [`crate::KnowledgeCache`] keys) is the
/// word vector itself — no sorting, no per-view hashing.
///
/// Trailing all-zero words are kept trimmed so that equal sets have equal
/// word vectors regardless of insertion history.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct ViewSet {
    words: Vec<u64>,
}

impl ViewSet {
    /// The empty set.
    #[must_use]
    pub fn new() -> Self {
        ViewSet::default()
    }

    /// Adds `v`; returns `true` if newly added.
    pub fn insert(&mut self, v: ViewId) -> bool {
        let (word, bit) = (v.index() / 64, v.index() % 64);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let mask = 1u64 << bit;
        let fresh = self.words[word] & mask == 0;
        self.words[word] |= mask;
        fresh
    }

    /// Whether `v` is in the set.
    #[must_use]
    pub fn contains(&self, v: ViewId) -> bool {
        self.words
            .get(v.index() / 64)
            .is_some_and(|w| w & (1 << (v.index() % 64)) != 0)
    }

    /// Number of views in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        kernels::count_ones(&self.words)
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        // Trailing zero words are trimmed, so any word implies a bit.
        self.words.is_empty()
    }

    /// Whether `self ⊆ other`.
    #[must_use]
    pub fn is_subset(&self, other: &ViewSet) -> bool {
        if self.words.len() > other.words.len() {
            return false; // a set bit past `other`'s top word (invariant)
        }
        kernels::is_subset(&self.words, &other.words[..self.words.len()])
    }

    /// The union `self ∪ other`.
    #[must_use]
    pub fn union(&self, other: &ViewSet) -> ViewSet {
        let (long, short) = if self.words.len() >= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        let mut words = long.clone();
        kernels::or_assign(&mut words[..short.len()], short);
        ViewSet { words }
    }

    /// The difference `self \ other`.
    #[must_use]
    pub fn difference(&self, other: &ViewSet) -> ViewSet {
        let mut words = self.words.clone();
        let overlap = words.len().min(other.words.len());
        kernels::andnot_assign(&mut words[..overlap], &other.words[..overlap]);
        while words.last() == Some(&0) {
            words.pop();
        }
        ViewSet { words }
    }

    /// Iterates the views in increasing index order (word-parallel
    /// `trailing_zeros` walk).
    pub fn iter(&self) -> impl Iterator<Item = ViewId> + '_ {
        self.words.iter().enumerate().flat_map(|(k, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    // Raw-index round trip, audited for the generalized
                    // (exchange-agnostic) table: every set bit was put
                    // here by `insert(ViewId)`, whose index came from a
                    // `u32` id, so `k * 64 + bit` always fits and the
                    // `from_index` panic path is unreachable.
                    Some(ViewId::from_index(k * 64 + bit))
                }
            })
        })
    }

    /// The backing words (canonical: trailing zero words trimmed). Word
    /// `k` holds views `64k..64k+64`, lowest index in bit 0.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// A family of local-state sets, one per processor: `A = (A_1, …, A_n)`
/// where `A_i` is a set of full-information views owned by processor `i`.
///
/// This is the paper's notion of a *decision set* (Section 4) viewed
/// structurally: "processor `i`'s current state lies in `A_i`" is a
/// property of a point that depends only on `i`'s local state. State sets
/// double as the state-dependent component of nonrigid sets (`N ∧ A`).
///
/// # Example
///
/// ```
/// use eba_kripke::StateSets;
/// use eba_model::{ProcessorId, Value};
/// use eba_sim::ViewTable;
///
/// let mut table = ViewTable::new();
/// let v = table.leaf(ProcessorId::new(0), Value::Zero);
/// let mut sets = StateSets::empty(2);
/// sets.insert(ProcessorId::new(0), v);
/// assert!(sets.contains(ProcessorId::new(0), v));
/// assert!(!sets.contains(ProcessorId::new(1), v));
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StateSets {
    per_proc: Vec<ViewSet>,
}

impl StateSets {
    /// Creates an empty family for `n` processors.
    #[must_use]
    pub fn empty(n: usize) -> Self {
        StateSets {
            per_proc: vec![ViewSet::new(); n],
        }
    }

    /// Number of processors.
    #[must_use]
    pub fn n(&self) -> usize {
        self.per_proc.len()
    }

    /// Adds view `v` to `A_p`; returns `true` if newly added.
    pub fn insert(&mut self, p: ProcessorId, v: ViewId) -> bool {
        self.per_proc[p.index()].insert(v)
    }

    /// Whether `v ∈ A_p`.
    #[must_use]
    pub fn contains(&self, p: ProcessorId, v: ViewId) -> bool {
        self.per_proc[p.index()].contains(v)
    }

    /// The set `A_p`.
    #[must_use]
    pub fn of(&self, p: ProcessorId) -> &ViewSet {
        &self.per_proc[p.index()]
    }

    /// Total number of views across all processors.
    #[must_use]
    pub fn len(&self) -> usize {
        self.per_proc.iter().map(ViewSet::len).sum()
    }

    /// Whether every `A_i` is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.per_proc.iter().all(ViewSet::is_empty)
    }

    /// Whether `A_i ⊆ B_i` for every processor.
    ///
    /// # Panics
    ///
    /// Panics if the families have different `n`.
    #[must_use]
    pub fn is_subset_of(&self, other: &StateSets) -> bool {
        assert_eq!(self.n(), other.n());
        self.per_proc
            .iter()
            .zip(&other.per_proc)
            .all(|(a, b)| a.is_subset(b))
    }

    /// Pointwise union.
    ///
    /// # Panics
    ///
    /// Panics if the families have different `n`.
    #[must_use]
    pub fn union(&self, other: &StateSets) -> StateSets {
        assert_eq!(self.n(), other.n());
        StateSets {
            per_proc: self
                .per_proc
                .iter()
                .zip(&other.per_proc)
                .map(|(a, b)| a.union(b))
                .collect(),
        }
    }

    /// Pointwise difference `A_i \ B_i`.
    ///
    /// # Panics
    ///
    /// Panics if the families have different `n`.
    #[must_use]
    pub fn difference(&self, other: &StateSets) -> StateSets {
        assert_eq!(self.n(), other.n());
        StateSets {
            per_proc: self
                .per_proc
                .iter()
                .zip(&other.per_proc)
                .map(|(a, b)| a.difference(b))
                .collect(),
        }
    }

    /// Builds the family `{v : predicate(p, v)}` over an explicit list of
    /// `(owner, view)` pairs.
    pub fn from_views<F>(n: usize, views: &[(ProcessorId, ViewId)], predicate: F) -> StateSets
    where
        F: Fn(ProcessorId, ViewId) -> bool,
    {
        let mut sets = StateSets::empty(n);
        for &(p, v) in views {
            if predicate(p, v) {
                sets.insert(p, v);
            }
        }
        sets
    }

    /// The family's content in canonical form: per processor, the
    /// (trimmed) membership words of `A_i`. Equal families produce equal
    /// canonical forms, which is what lets the shared
    /// [`crate::KnowledgeCache`] recognize the same family across
    /// evaluators with different id numberings — and since the backing
    /// store *is* the bitmask, canonicalization is a clone, with no
    /// sorting or per-view hashing.
    #[must_use]
    pub fn canonical(&self) -> Vec<Box<[u64]>> {
        self.per_proc
            .iter()
            .map(|views| Box::from(views.words()))
            .collect()
    }

    /// Convenience: the family of all views (from `table`) whose owner has
    /// learned of an initial value `value` — e.g. the states where
    /// `B^N_i ∃0` is about to be tested. Mostly useful in tests.
    #[must_use]
    pub fn with_value_seen(table: &ViewTable, n: usize, value: Value) -> StateSets {
        let mut sets = StateSets::empty(n);
        for v in table.ids() {
            if table.exists_value(v, value) {
                let owner = table.proc(v);
                if owner.index() < n {
                    sets.insert(owner, v);
                }
            }
        }
        sets
    }
}

/// An identifier of a [`StateSets`] registered with an
/// [`crate::Evaluator`]; formulas refer to state sets by id so they stay
/// hashable.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct StateSetsId(pub(crate) u32);

/// An identifier of a per-run predicate registered with an
/// [`crate::Evaluator`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RunPredId(pub(crate) u32);

/// An identifier of a per-point predicate registered with an
/// [`crate::Evaluator`] (e.g. the time-dependent `∃0*` of Section 6.2).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PointPredId(pub(crate) u32);

/// A nonrigid set of processors (Section 3.1): a function from points to
/// sets of processors.
///
/// The reproduction needs three shapes: the constant full set, the
/// nonfaulty set `N`, and `N ∧ A` for a state-set family `A` (the
/// decision-set-indexed nonrigid sets of Sections 4–6).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum NonRigidSet {
    /// The constant set of all processors.
    Everyone,
    /// The nonfaulty processors `N` (constant along a run, varying across
    /// runs).
    Nonfaulty,
    /// `N ∧ A`: nonfaulty processors whose current local state lies in
    /// their component of the registered state-set family.
    NonfaultyAnd(StateSetsId),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessorId {
        ProcessorId::new(i)
    }

    #[test]
    fn insert_contains_len() {
        let mut table = ViewTable::new();
        let v0 = table.leaf(p(0), Value::Zero);
        let v1 = table.leaf(p(1), Value::One);
        let mut sets = StateSets::empty(2);
        assert!(sets.is_empty());
        assert!(sets.insert(p(0), v0));
        assert!(!sets.insert(p(0), v0));
        sets.insert(p(1), v1);
        assert_eq!(sets.len(), 2);
        assert!(sets.contains(p(0), v0));
        assert!(!sets.contains(p(1), v0));
    }

    #[test]
    fn subset_and_union() {
        let mut table = ViewTable::new();
        let v0 = table.leaf(p(0), Value::Zero);
        let v1 = table.leaf(p(0), Value::One);
        let mut a = StateSets::empty(1);
        a.insert(p(0), v0);
        let mut b = StateSets::empty(1);
        b.insert(p(0), v0);
        b.insert(p(0), v1);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        let u = a.union(&b);
        assert_eq!(u, b);
    }

    #[test]
    fn with_value_seen_collects_views() {
        let mut table = ViewTable::new();
        let zero = table.leaf(p(0), Value::Zero);
        let one = table.leaf(p(1), Value::One);
        let sets = StateSets::with_value_seen(&table, 2, Value::Zero);
        assert!(sets.contains(p(0), zero));
        assert!(!sets.contains(p(1), one));
    }

    #[test]
    fn equality_supports_fixed_point_detection() {
        let mut table = ViewTable::new();
        let v = table.leaf(p(0), Value::Zero);
        let mut a = StateSets::empty(1);
        a.insert(p(0), v);
        let mut b = StateSets::empty(1);
        b.insert(p(0), v);
        assert_eq!(a, b);
    }
}
