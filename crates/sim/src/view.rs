//! Hash-consed full-information views.
//!
//! In a full-information protocol (Section 2.4 of the paper) every
//! processor sends its entire local state to everyone in every round. The
//! local state of processor `i` at time `m` is therefore a *view*: its
//! initial value at time 0, and at time `m > 0` its view at `m − 1`
//! together with, for every sender `j`, either `⊥` (message not delivered)
//! or `j`'s view at `m − 1`.
//!
//! Views are hash-consed in a [`ViewTable`]: structurally equal views get
//! the same [`ViewId`], *across runs*. Since the FIP local state is exactly
//! the view, two points of the generated system are indistinguishable to
//! `i` precisely when `i`'s `ViewId` is equal at both — this is what makes
//! the knowledge machinery of `eba-kripke` a set of bucket lookups.
//!
//! The table caches derived attributes per view (does a 0 appear anywhere?
//! which processors' initial values are known? who was heard from in the
//! last round?) so protocol decision rules run in O(1) per view.
//!
//! # Beyond full information
//!
//! Since the exchange abstraction (DESIGN.md §4g) the table interns the
//! local state of *any* exchange, not just FIP view trees:
//! [`ViewNode::Digest`] holds the bounded who-heard-what state of the
//! digest exchanges. Everything the downstream layers rely on is
//! unchanged — equal `ViewId`s still mean identical local state, and the
//! cached per-view attributes are derived from the digest's knowledge
//! sets instead of a tree walk. Only the structural tree accessors
//! ([`ViewTable::prev`], [`ViewTable::received_from`],
//! [`ViewTable::at_time`]) are FIP-specific; they return `None` (or are
//! documented to panic) on digest states.

use eba_model::fasthash::FastHasher;
use eba_model::{FailurePattern, ModelError, ProcSet, ProcessorId, Round, Time, Value};
use std::hash::{Hash, Hasher};

pub use crate::exchange::DigestState;

/// The number of views a [`ViewTable`] can hold (`ViewId` is a `u32`).
pub const VIEW_CAPACITY: u128 = 1 << 32;

/// The empty-slot marker of the hash-consing index. It equals the last id
/// a full table hands out, so that one view is kept out of the index and
/// looked up directly (see [`ViewTable::find`]): the marker costs no id.
const EMPTY: u32 = u32::MAX;

/// The smallest index a table with views allocates.
const MIN_INDEX: usize = 16;

/// An interned full-information view; equal ids ⟺ identical FIP local
/// state (within one [`ViewTable`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ViewId(u32);

impl ViewId {
    /// The table index of this id.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs an id from a table index (the inverse of
    /// [`ViewId::index`]); only meaningful for indices smaller than the
    /// owning table's [`ViewTable::len`].
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit a `u32`. Indices obtained from a
    /// `ViewTable` always fit; for untrusted indices use
    /// [`ViewId::try_from_index`].
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        ViewId::try_from_index(index).expect("view index overflow")
    }

    /// Fallible [`ViewId::from_index`]: `None` when `index` exceeds the
    /// id space instead of panicking.
    #[must_use]
    pub fn try_from_index(index: usize) -> Option<Self> {
        u32::try_from(index).ok().map(ViewId)
    }
}

/// The structure of a view, borrowed from its [`ViewTable`]: a time-0
/// leaf, an extension node, or a digest state.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ViewNode<'a> {
    /// The view of `proc` at time 0: its initial value.
    Leaf {
        /// The view's owner.
        proc: ProcessorId,
        /// The owner's initial value.
        value: Value,
    },
    /// The view of a processor at time `m > 0`.
    Node {
        /// The owner's view at the previous time.
        prev: ViewId,
        /// `received[j]` is `j`'s view at the previous time if `j`'s
        /// round-`m` message was delivered, `None` otherwise
        /// (`received[owner]` is always `None`; own memory is `prev`).
        received: &'a [Option<ViewId>],
    },
    /// The bounded local state of a digest exchange (see
    /// [`eba_model::ExchangeKind::Digest`]). Unlike [`ViewNode::Node`] it holds its
    /// full content by value and references no other table entries, so
    /// the builder's merge copies it without remapping.
    Digest(&'a DigestState),
}

/// Where a view's content lives: a leaf's in its meta row, a node's
/// received row in the `slots` arena, a digest state in `digests`.
#[derive(Clone, Copy, Debug)]
enum Entry {
    Leaf,
    Node {
        prev: ViewId,
        start: usize,
        width: u32,
    },
    Digest(usize),
}

#[derive(Clone, Copy, Debug)]
struct ViewMeta {
    proc: ProcessorId,
    time: Time,
    own_value: Value,
    exists_zero: bool,
    exists_one: bool,
    known_procs: ProcSet,
    known_zeros: ProcSet,
    heard_from: ProcSet,
}

/// An interning table for full-information views; see the module docs.
///
/// Storage is flat: per-view columns (where the content lives, the cached
/// attributes, a 64-bit content hash), every received row back to back in
/// one `slots` arena, and digest states in a side vector. The
/// hash-consing index is an open-addressing table of view ids that
/// compares candidates against those columns, so interning a view the
/// table already holds allocates nothing, and a clone is a few `memcpy`s
/// (plus one per digest state).
///
/// # Example
///
/// ```
/// use eba_model::{ProcessorId, Value};
/// use eba_sim::ViewTable;
///
/// let mut table = ViewTable::new();
/// let a = table.leaf(ProcessorId::new(0), Value::Zero);
/// let b = table.leaf(ProcessorId::new(0), Value::Zero);
/// assert_eq!(a, b); // hash-consing
/// assert!(table.exists_zero(a));
/// ```
#[derive(Clone, Debug, Default)]
pub struct ViewTable {
    entries: Vec<Entry>,
    meta: Vec<ViewMeta>,
    hashes: Vec<u64>,
    slots: Vec<Option<ViewId>>,
    digests: Vec<DigestState>,
    /// View ids or [`EMPTY`], at most half full, in a power-of-two table
    /// probed linearly from the top bits of a view's hash.
    index: Vec<u32>,
}

fn leaf_hash(proc: ProcessorId, value: Value) -> u64 {
    let mut h = FastHasher::default();
    h.write_u8(1);
    h.write_usize(proc.index());
    h.write_u8(value as u8);
    h.finish()
}

fn node_hash(prev: ViewId, received: &[Option<ViewId>]) -> u64 {
    let mut h = FastHasher::default();
    h.write_u8(2);
    h.write_u32(prev.0);
    for slot in received {
        h.write_u64(slot.map_or(0, |v| u64::from(v.0) + 1));
    }
    h.finish()
}

fn digest_hash(state: &DigestState) -> u64 {
    let mut h = FastHasher::default();
    h.write_u8(3);
    state.hash(&mut h);
    h.finish()
}

impl ViewTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        ViewTable::default()
    }

    /// Number of distinct views interned so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Approximate resident heap bytes of the table: the per-view
    /// columns, the received-row arena, the digest states with their
    /// boxed payloads, and the hash-consing index. Counts lengths rather
    /// than capacities, so it is a stable lower bound usable for relative
    /// memory budgeting (the serve pool's LRU eviction); it is not an
    /// allocator-exact figure.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let columns = self.len() * (size_of::<Entry>() + size_of::<ViewMeta>() + size_of::<u64>());
        let digests: usize = self
            .digests
            .iter()
            .map(|d| {
                size_of::<DigestState>()
                    + (d.knowledge.len() + d.zero_knowledge.len()) * size_of::<ProcSet>()
                    + d.contact.len() * size_of::<u64>()
            })
            .sum();
        columns
            + self.slots.len() * size_of::<Option<ViewId>>()
            + digests
            + self.index.len() * size_of::<u32>()
    }

    /// Iterates over every interned [`ViewId`] in interning order.
    ///
    /// This is the panic-free way to walk a table: indices below
    /// [`ViewTable::len`] are ids the table itself issued, so no
    /// [`ViewId::from_index`] conversion (with its overflow panic path)
    /// is ever needed at call sites.
    pub fn ids(&self) -> impl DoubleEndedIterator<Item = ViewId> + Clone {
        // Interning bounds len to VIEW_CAPACITY, so the cast is lossless.
        (0..self.len() as u32).map(ViewId)
    }

    /// Where the probe for `hash` starts: the hash's top bits, because the
    /// multiplicative hasher mixes upward and leaves the low bits weak.
    fn home(&self, hash: u64) -> usize {
        (hash >> (64 - self.index.len().trailing_zeros())) as usize
    }

    /// The view with content hash `hash` for which `same` holds, if any.
    fn find(&self, hash: u64, same: impl Fn(&Self, usize) -> bool) -> Option<ViewId> {
        if !self.index.is_empty() {
            let mask = self.index.len() - 1;
            let mut pos = self.home(hash);
            loop {
                let id = self.index[pos];
                if id == EMPTY {
                    break;
                }
                if self.hashes[id as usize] == hash && same(self, id as usize) {
                    return Some(ViewId(id));
                }
                pos = (pos + 1) & mask;
            }
        }
        // A full table's last id equals `EMPTY` and never enters the index.
        let last = EMPTY as usize;
        (self.len() > last && self.hashes[last] == hash && same(self, last))
            .then_some(ViewId(EMPTY))
    }

    /// Records the view just appended in the index, rebuilding the index
    /// at twice the size when the view would fill it past half.
    fn index_last(&mut self) {
        if 2 * self.len() > self.index.len() {
            let capacity = (2 * self.len()).next_power_of_two().max(MIN_INDEX);
            self.index = vec![EMPTY; capacity];
            for id in 0..self.len().min(EMPTY as usize) {
                self.place(id);
            }
        } else if self.len() - 1 < EMPTY as usize {
            self.place(self.len() - 1);
        }
    }

    fn place(&mut self, id: usize) {
        let mask = self.index.len() - 1;
        let mut pos = self.home(self.hashes[id]);
        while self.index[pos] != EMPTY {
            pos = (pos + 1) & mask;
        }
        // `id < EMPTY`, so the cast is lossless.
        self.index[pos] = id as u32;
    }

    /// Interns the view with content hash `hash` and content `same`
    /// matches: its existing id, or a new one whose content `store`
    /// appends.
    fn intern(
        &mut self,
        hash: u64,
        meta: ViewMeta,
        same: impl Fn(&Self, usize) -> bool,
        store: impl FnOnce(&mut Self) -> Entry,
    ) -> Result<ViewId, ModelError> {
        if let Some(id) = self.find(hash, same) {
            return Ok(id);
        }
        let Some(id) = ViewId::try_from_index(self.len()) else {
            return Err(ModelError::capacity_exceeded("view table", VIEW_CAPACITY));
        };
        let entry = store(self);
        self.entries.push(entry);
        self.meta.push(meta);
        self.hashes.push(hash);
        self.index_last();
        Ok(id)
    }

    fn intern_node(
        &mut self,
        prev: ViewId,
        received: &[Option<ViewId>],
        meta: ViewMeta,
    ) -> Result<ViewId, ModelError> {
        let same = |t: &Self, id: usize| {
            matches!(t.entries[id], Entry::Node { prev: p, start, width }
                if p == prev && t.slots[start..start + width as usize] == *received)
        };
        self.intern(node_hash(prev, received), meta, same, |t| {
            let start = t.slots.len();
            t.slots.extend_from_slice(received);
            Entry::Node {
                prev,
                start,
                // A row has one slot per processor, far below `u32::MAX`.
                width: received.len() as u32,
            }
        })
    }

    /// Re-interns the views of `other` from id `shared` on into `self`,
    /// in `other`'s id order, and returns their translation: entry `i` is
    /// the id in `self` of `other`'s view `shared + i`. The first `shared`
    /// views must be common to both tables, id for id (both grew from
    /// clones of one table of that length; `shared = 0` for two unrelated
    /// tables), so that prefix maps to itself.
    ///
    /// Because a table's nodes only ever reference smaller ids, a single
    /// in-order pass suffices. This is the merge step of the system
    /// builder: absorbing block tables in block order visits first
    /// encounters in exactly the sequential enumeration order, so the
    /// combined table is bit-identical to a sequential build.
    pub(crate) fn absorb_suffix(
        &mut self,
        other: &ViewTable,
        shared: usize,
    ) -> Result<Vec<ViewId>, ModelError> {
        debug_assert!(shared <= self.len().min(other.len()));
        debug_assert_eq!(self.hashes[..shared], other.hashes[..shared]);
        let mut remap: Vec<ViewId> = Vec::with_capacity(other.len() - shared);
        let mut row: Vec<Option<ViewId>> = Vec::new();
        for id in shared..other.len() {
            let translate = |v: ViewId| {
                if v.index() < shared {
                    v
                } else {
                    remap[v.index() - shared]
                }
            };
            let mapped = match other.node(ViewId(id as u32)) {
                ViewNode::Leaf { proc, value } => self.try_leaf(proc, value),
                ViewNode::Digest(state) => self.try_digest(state.clone()),
                ViewNode::Node { prev, received } => {
                    row.clear();
                    row.extend(received.iter().map(|slot| slot.map(translate)));
                    self.intern_node(translate(prev), &row, other.meta[id])
                }
            }?;
            remap.push(mapped);
        }
        Ok(remap)
    }

    /// Interns the time-0 view of `proc` with initial value `value`.
    ///
    /// # Panics
    ///
    /// Panics if the table is full; see [`ViewTable::try_leaf`].
    pub fn leaf(&mut self, proc: ProcessorId, value: Value) -> ViewId {
        self.try_leaf(proc, value).expect("view table overflow")
    }

    /// Fallible [`ViewTable::leaf`], reporting table overflow as a
    /// [`ModelError::CapacityExceeded`] instead of panicking.
    pub fn try_leaf(&mut self, proc: ProcessorId, value: Value) -> Result<ViewId, ModelError> {
        let meta = ViewMeta {
            proc,
            time: Time::ZERO,
            own_value: value,
            exists_zero: value == Value::Zero,
            exists_one: value == Value::One,
            known_procs: ProcSet::singleton(proc),
            known_zeros: if value == Value::Zero {
                ProcSet::singleton(proc)
            } else {
                ProcSet::empty()
            },
            heard_from: ProcSet::empty(),
        };
        let same = |t: &Self, id: usize| {
            matches!(t.entries[id], Entry::Leaf)
                && t.meta[id].proc == proc
                && t.meta[id].own_value == value
        };
        self.intern(leaf_hash(proc, value), meta, same, |_| Entry::Leaf)
    }

    /// Interns the view obtained by extending `prev` with one round of
    /// receptions: `received[j]` must be `j`'s view at the owner's
    /// previous time if delivered.
    ///
    /// # Panics
    ///
    /// Panics if the table is full (see [`ViewTable::try_extend`]), and in
    /// debug builds if a received view is not at the owner's previous time
    /// or `received[owner]` is not `None`.
    pub fn extend(&mut self, prev: ViewId, received: &[Option<ViewId>]) -> ViewId {
        self.try_extend(prev, received)
            .expect("view table overflow")
    }

    /// Fallible [`ViewTable::extend`], reporting table overflow as a
    /// [`ModelError::CapacityExceeded`] instead of panicking. Interning a
    /// view the table already holds allocates nothing.
    pub fn try_extend(
        &mut self,
        prev: ViewId,
        received: &[Option<ViewId>],
    ) -> Result<ViewId, ModelError> {
        let prev_meta = self.meta[prev.index()];
        debug_assert!(received
            .iter()
            .flatten()
            .all(|v| self.meta[v.index()].time == prev_meta.time));
        debug_assert!(received[prev_meta.proc.index()].is_none());

        let mut exists_zero = prev_meta.exists_zero;
        let mut exists_one = prev_meta.exists_one;
        let mut known_procs = prev_meta.known_procs;
        let mut known_zeros = prev_meta.known_zeros;
        let mut heard_from = ProcSet::empty();
        for (j, v) in received.iter().enumerate() {
            if let Some(v) = v {
                let m = &self.meta[v.index()];
                exists_zero |= m.exists_zero;
                exists_one |= m.exists_one;
                known_procs = known_procs | m.known_procs;
                known_zeros = known_zeros | m.known_zeros;
                heard_from.insert(ProcessorId::new(j));
            }
        }
        let meta = ViewMeta {
            proc: prev_meta.proc,
            time: prev_meta.time.next(),
            own_value: prev_meta.own_value,
            exists_zero,
            exists_one,
            known_procs,
            known_zeros,
            heard_from,
        };
        self.intern_node(prev, received, meta)
    }

    /// Interns the bounded local state of a digest exchange. The cached
    /// attributes ([`ViewTable::exists_zero`], [`ViewTable::known_procs`],
    /// …) are derived from the state's knowledge sets: a 0 exists in the
    /// state iff some processor is known to have started with 0, a 1 iff
    /// some known processor is *not* known to have started with 0.
    ///
    /// Overflow surfaces as a typed [`ModelError::CapacityExceeded`] —
    /// the digest path has no panicking intern.
    pub fn try_digest(&mut self, state: DigestState) -> Result<ViewId, ModelError> {
        let known_ones = state.known_procs - state.known_zeros;
        let meta = ViewMeta {
            proc: state.proc,
            time: state.time,
            own_value: state.own_value,
            exists_zero: !state.known_zeros.is_empty(),
            exists_one: !known_ones.is_empty(),
            known_procs: state.known_procs,
            known_zeros: state.known_zeros,
            heard_from: state.heard_from,
        };
        let same = |t: &Self, id: usize| matches!(t.entries[id], Entry::Digest(d) if t.digests[d] == state);
        self.intern(digest_hash(&state), meta, same, |t| {
            t.digests.push(state.clone());
            Entry::Digest(t.digests.len() - 1)
        })
    }

    /// The digest state of view `id`, or `None` for a full-information
    /// view.
    #[must_use]
    pub fn digest_state(&self, id: ViewId) -> Option<&DigestState> {
        match self.entries[id.index()] {
            Entry::Digest(d) => Some(&self.digests[d]),
            _ => None,
        }
    }

    /// The structure of view `id`.
    #[must_use]
    pub fn node(&self, id: ViewId) -> ViewNode<'_> {
        match self.entries[id.index()] {
            Entry::Leaf => {
                let meta = &self.meta[id.index()];
                ViewNode::Leaf {
                    proc: meta.proc,
                    value: meta.own_value,
                }
            }
            Entry::Node { prev, start, width } => ViewNode::Node {
                prev,
                received: &self.slots[start..start + width as usize],
            },
            Entry::Digest(d) => ViewNode::Digest(&self.digests[d]),
        }
    }

    /// The owner of the view.
    #[must_use]
    pub fn proc(&self, id: ViewId) -> ProcessorId {
        self.meta[id.index()].proc
    }

    /// The time of the view (its depth; the FIP state includes the global
    /// clock).
    #[must_use]
    pub fn time(&self, id: ViewId) -> Time {
        self.meta[id.index()].time
    }

    /// The owner's own initial value.
    #[must_use]
    pub fn own_value(&self, id: ViewId) -> Value {
        self.meta[id.index()].own_value
    }

    /// Whether an initial value 0 appears anywhere in the view (the owner
    /// has *learned of a 0*).
    #[must_use]
    pub fn exists_zero(&self, id: ViewId) -> bool {
        self.meta[id.index()].exists_zero
    }

    /// Whether an initial value 1 appears anywhere in the view.
    #[must_use]
    pub fn exists_one(&self, id: ViewId) -> bool {
        self.meta[id.index()].exists_one
    }

    /// Whether an initial value `v` appears anywhere in the view.
    #[must_use]
    pub fn exists_value(&self, id: ViewId, v: Value) -> bool {
        match v {
            Value::Zero => self.exists_zero(id),
            Value::One => self.exists_one(id),
        }
    }

    /// The set of processors whose initial values appear in the view.
    #[must_use]
    pub fn known_procs(&self, id: ViewId) -> ProcSet {
        self.meta[id.index()].known_procs
    }

    /// The set of processors the view shows to have started with 0.
    #[must_use]
    pub fn known_zeros(&self, id: ViewId) -> ProcSet {
        self.meta[id.index()].known_zeros
    }

    /// Whether the view contains the initial values of all `n` processors
    /// and all of them are 1 ("knows that all initial values are 1").
    #[must_use]
    pub fn knows_all_one(&self, id: ViewId, n: usize) -> bool {
        self.known_procs(id) == ProcSet::full(n) && !self.exists_zero(id)
    }

    /// The set of processors whose message was received in the view's last
    /// round (empty for time-0 views).
    #[must_use]
    pub fn heard_from(&self, id: ViewId) -> ProcSet {
        self.meta[id.index()].heard_from
    }

    /// The owner's view at the previous time, or `None` for a leaf or a
    /// digest state (digest states are self-contained; they reference no
    /// earlier table entries).
    #[must_use]
    pub fn prev(&self, id: ViewId) -> Option<ViewId> {
        match self.entries[id.index()] {
            Entry::Leaf | Entry::Digest(_) => None,
            Entry::Node { prev, .. } => Some(prev),
        }
    }

    /// The view received from `j` in the last round, or `None` for a leaf,
    /// a digest state, or an undelivered message.
    #[must_use]
    pub fn received_from(&self, id: ViewId, j: ProcessorId) -> Option<ViewId> {
        match self.node(id) {
            ViewNode::Leaf { .. } | ViewNode::Digest(_) => None,
            ViewNode::Node { received, .. } => received[j.index()],
        }
    }

    /// Renders the full structural content of a view as a canonical
    /// string — a **table-independent** fingerprint: two views, possibly
    /// interned in different tables, render equally exactly when they
    /// encode the same FIP local state. Within one table equal `ViewId`s
    /// already mean equal content; `render` exists for cross-table
    /// comparison — chiefly asserting that incrementally extended systems
    /// ([`crate::SystemBuilder::extend`]) match cold builds, whose
    /// `ViewId` numbering differs.
    #[must_use]
    pub fn render(&self, id: ViewId) -> String {
        match self.node(id) {
            ViewNode::Leaf { proc, value } => format!("{}:{}", proc.index(), value),
            ViewNode::Digest(state) => state.render(),
            ViewNode::Node { prev, received } => {
                let mut out = String::from("(");
                out.push_str(&self.render(prev));
                for slot in received {
                    out.push('|');
                    match slot {
                        Some(v) => out.push_str(&self.render(*v)),
                        None => out.push('_'),
                    }
                }
                out.push(')');
                out
            }
        }
    }

    /// The owner's view at an earlier time `time ≤ time(id)` — a
    /// full-information tree walk.
    ///
    /// # Panics
    ///
    /// Panics if `time > time(id)`, or on a digest state with
    /// `time < time(id)` (digest states keep no predecessor chain; this
    /// accessor is only reachable from full-information call paths).
    #[must_use]
    pub fn at_time(&self, id: ViewId, time: Time) -> ViewId {
        let mut current = id;
        while self.time(current) > time {
            current = self
                .prev(current)
                .expect("non-leaf views have a predecessor");
        }
        assert_eq!(self.time(current), time, "time exceeds the view's time");
        current
    }
}

/// Advances every processor's full-information view by one round:
/// `prev_views[p]` is `p`'s view at `round.start()`, the result is the
/// views at `round.end()`. This is the shared kernel of cold builds
/// ([`crate::try_exchange_views`]) and of the horizon-extension path
/// ([`crate::SystemBuilder::extend`]),
/// which replays only the appended rounds on top of reused base-horizon
/// prefixes — sharing the loop body is what makes extension bit-identical
/// in view *content* to a cold build.
pub(crate) fn try_fip_step(
    pattern: &FailurePattern,
    round: Round,
    prev_views: &[ViewId],
    table: &mut ViewTable,
) -> Result<Vec<ViewId>, ModelError> {
    let n = pattern.n();
    debug_assert_eq!(n, prev_views.len());
    let mut now: Vec<ViewId> = Vec::with_capacity(n);
    let mut received: Vec<Option<ViewId>> = Vec::with_capacity(n);
    for receiver in ProcessorId::all(n) {
        if pattern.crashed_by(receiver, round.end()) {
            now.push(prev_views[receiver.index()]);
            continue;
        }
        received.clear();
        received.extend(ProcessorId::all(n).map(|sender| {
            pattern
                .delivers(sender, receiver, round)
                .then(|| prev_views[sender.index()])
        }));
        now.push(table.try_extend(prev_views[receiver.index()], &received)?);
    }
    Ok(now)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exchange::try_exchange_views;
    use eba_model::{ExchangeKind, FaultyBehavior, InitialConfig};

    fn full_views(
        config: &InitialConfig,
        pattern: &FailurePattern,
        horizon: Time,
        table: &mut ViewTable,
    ) -> Vec<Vec<ViewId>> {
        try_exchange_views(
            ExchangeKind::FullInformation,
            config,
            pattern,
            horizon,
            table,
        )
        .unwrap()
    }

    fn p(i: usize) -> ProcessorId {
        ProcessorId::new(i)
    }

    #[test]
    fn leaves_are_interned() {
        let mut t = ViewTable::new();
        let a = t.leaf(p(0), Value::One);
        let b = t.leaf(p(0), Value::One);
        let c = t.leaf(p(0), Value::Zero);
        let d = t.leaf(p(1), Value::One);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn leaf_metadata() {
        let mut t = ViewTable::new();
        let a = t.leaf(p(2), Value::Zero);
        assert_eq!(t.proc(a), p(2));
        assert_eq!(t.time(a), Time::ZERO);
        assert_eq!(t.own_value(a), Value::Zero);
        assert!(t.exists_zero(a));
        assert!(!t.exists_one(a));
        assert_eq!(t.known_procs(a), ProcSet::singleton(p(2)));
        assert_eq!(t.known_zeros(a), ProcSet::singleton(p(2)));
        assert_eq!(t.heard_from(a), ProcSet::empty());
        assert_eq!(t.prev(a), None);
    }

    #[test]
    fn extension_merges_metadata() {
        let mut t = ViewTable::new();
        let v0 = t.leaf(p(0), Value::One);
        let v1 = t.leaf(p(1), Value::Zero);
        let ext = t.extend(v0, &[None, Some(v1), None]);
        assert_eq!(t.proc(ext), p(0));
        assert_eq!(t.time(ext), Time::new(1));
        assert!(t.exists_zero(ext));
        assert!(t.exists_one(ext));
        assert_eq!(t.known_procs(ext), [p(0), p(1)].into_iter().collect());
        assert_eq!(t.known_zeros(ext), ProcSet::singleton(p(1)));
        assert_eq!(t.heard_from(ext), ProcSet::singleton(p(1)));
        assert_eq!(t.prev(ext), Some(v0));
        assert_eq!(t.received_from(ext, p(1)), Some(v1));
        assert_eq!(t.received_from(ext, p(2)), None);
    }

    #[test]
    fn fip_views_failure_free_everyone_learns_everything() {
        let mut t = ViewTable::new();
        let config = InitialConfig::from_bits(3, 0b011);
        let pattern = FailurePattern::failure_free(3);
        let views = full_views(&config, &pattern, Time::new(2), &mut t);
        for (q, &v) in views[1].iter().enumerate() {
            assert_eq!(t.known_procs(v), ProcSet::full(3));
            assert!(t.exists_zero(v));
            assert!(!t.knows_all_one(v, 3));
            assert_eq!(t.heard_from(v), ProcSet::full(3) - ProcSet::singleton(p(q)));
        }
    }

    #[test]
    fn fip_views_equal_across_indistinguishable_runs() {
        // p0 silent from round 1; the remaining processors cannot tell
        // whether p0's value was 0 or 1: their views must be interned to
        // the same ids.
        let mut t = ViewTable::new();
        let pattern = FailurePattern::failure_free(3).with_behavior(
            p(0),
            FaultyBehavior::Crash {
                round: Round::new(1),
                receivers: ProcSet::empty(),
            },
        );
        let run_a = full_views(
            &InitialConfig::from_bits(3, 0b110),
            &pattern,
            Time::new(2),
            &mut t,
        );
        let run_b = full_views(
            &InitialConfig::from_bits(3, 0b111),
            &pattern,
            Time::new(2),
            &mut t,
        );
        for time in 0..=2 {
            for q in 1..3 {
                assert_eq!(run_a[time][q], run_b[time][q], "time {time}, processor {q}");
            }
        }
        // p0's own views differ (it knows its own value).
        assert_ne!(run_a[0][0], run_b[0][0]);
    }

    #[test]
    fn fip_views_distinguish_once_information_flows() {
        let mut t = ViewTable::new();
        let pattern = FailurePattern::failure_free(3);
        let run_a = full_views(
            &InitialConfig::from_bits(3, 0b110),
            &pattern,
            Time::new(2),
            &mut t,
        );
        let run_b = full_views(
            &InitialConfig::from_bits(3, 0b111),
            &pattern,
            Time::new(2),
            &mut t,
        );
        // After one failure-free round everyone knows p0's value.
        for q in 0..3 {
            assert_ne!(run_a[1][q], run_b[1][q]);
        }
    }

    #[test]
    fn crashed_views_freeze() {
        let mut t = ViewTable::new();
        let pattern = FailurePattern::failure_free(3).with_behavior(
            p(0),
            FaultyBehavior::Crash {
                round: Round::new(1),
                receivers: ProcSet::empty(),
            },
        );
        let views = full_views(
            &InitialConfig::uniform(3, Value::One),
            &pattern,
            Time::new(3),
            &mut t,
        );
        assert_eq!(views[1][0], views[0][0]);
        assert_eq!(views[3][0], views[0][0]);
        assert_ne!(views[1][1], views[0][1]);
    }

    #[test]
    fn at_time_walks_back() {
        let mut t = ViewTable::new();
        let config = InitialConfig::uniform(2, Value::One);
        let pattern = FailurePattern::failure_free(2);
        let views = full_views(&config, &pattern, Time::new(3), &mut t);
        let late = views[3][0];
        assert_eq!(t.at_time(late, Time::new(1)), views[1][0]);
        assert_eq!(t.at_time(late, Time::new(3)), late);
    }

    #[test]
    fn absorb_reinterns_with_stable_semantics() {
        // Build the same two runs in one table sequentially and in two
        // tables merged by absorb_suffix; ids must coincide.
        let config_a = InitialConfig::from_bits(3, 0b011);
        let config_b = InitialConfig::from_bits(3, 0b101);
        let pattern = FailurePattern::failure_free(3);

        let mut sequential = ViewTable::new();
        let seq_a = full_views(&config_a, &pattern, Time::new(2), &mut sequential);
        let seq_b = full_views(&config_b, &pattern, Time::new(2), &mut sequential);

        let mut left = ViewTable::new();
        let shard_a = full_views(&config_a, &pattern, Time::new(2), &mut left);
        let mut right = ViewTable::new();
        let shard_b = full_views(&config_b, &pattern, Time::new(2), &mut right);

        let mut merged = ViewTable::new();
        let remap_left = merged.absorb_suffix(&left, 0).unwrap();
        let remap_right = merged.absorb_suffix(&right, 0).unwrap();
        assert_eq!(merged.len(), sequential.len());
        for time in 0..=2 {
            for q in 0..3 {
                assert_eq!(remap_left[shard_a[time][q].index()], seq_a[time][q]);
                assert_eq!(remap_right[shard_b[time][q].index()], seq_b[time][q]);
            }
        }
    }

    #[test]
    fn try_from_index_rejects_oversized_indices() {
        assert_eq!(ViewId::try_from_index(7), Some(ViewId::from_index(7)));
        assert_eq!(ViewId::try_from_index(usize::MAX), None);
    }

    #[test]
    fn ids_walks_the_table_in_interning_order() {
        let mut t = ViewTable::new();
        let a = t.leaf(p(0), Value::Zero);
        let b = t.leaf(p(1), Value::One);
        assert_eq!(t.ids().collect::<Vec<_>>(), vec![a, b]);
        assert!(t.ids().all(|v| v.index() < t.len()));
    }

    /// The structural interner the flat table replaced, kept as the test
    /// oracle: a map from each view's owned content to its id.
    #[derive(Default)]
    struct Reference {
        ids: std::collections::HashMap<Owned, ViewId>,
    }

    #[derive(PartialEq, Eq, Hash)]
    enum Owned {
        Leaf(ProcessorId, Value),
        Node(ViewId, Vec<Option<ViewId>>),
        Digest(DigestState),
    }

    impl Reference {
        fn intern(&mut self, content: Owned) -> ViewId {
            let next = ViewId::from_index(self.ids.len());
            *self.ids.entry(content).or_insert(next)
        }
    }

    /// Runs the full-information rounds of `(config, pattern)` through
    /// `flat` and `reference` side by side, asserting that every view gets
    /// the same id from both.
    fn lockstep_run(
        config: &InitialConfig,
        pattern: &FailurePattern,
        horizon: Time,
        flat: &mut ViewTable,
        reference: &mut Reference,
    ) -> Vec<Vec<ViewId>> {
        let n = config.n();
        let leaves: Vec<ViewId> = ProcessorId::all(n)
            .map(|q| {
                let id = flat.leaf(q, config.value(q));
                assert_eq!(reference.intern(Owned::Leaf(q, config.value(q))), id);
                id
            })
            .collect();
        let mut views = vec![leaves];
        for round in Round::upto(horizon) {
            let prev = views.last().unwrap().clone();
            let now = try_fip_step(pattern, round, &prev, flat).unwrap();
            for receiver in ProcessorId::all(n) {
                let expected = if pattern.crashed_by(receiver, round.end()) {
                    prev[receiver.index()]
                } else {
                    let row = ProcessorId::all(n)
                        .map(|sender| {
                            pattern
                                .delivers(sender, receiver, round)
                                .then(|| prev[sender.index()])
                        })
                        .collect();
                    reference.intern(Owned::Node(prev[receiver.index()], row))
                };
                assert_eq!(now[receiver.index()], expected, "{pattern:?} {round:?}");
            }
            views.push(now);
        }
        views
    }

    fn random_runs(
        mode: eba_model::FailureMode,
        count: usize,
        seed: u64,
    ) -> (eba_model::Scenario, Vec<(InitialConfig, FailurePattern)>) {
        use rand::SeedableRng;
        let scenario = eba_model::Scenario::new(4, 2, mode, 3).unwrap();
        let sampler = eba_model::sample::PatternSampler::new(scenario);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let runs = (0..count)
            .map(|_| {
                let config = eba_model::sample::random_config(4, &mut rng);
                (config, sampler.sample(&mut rng))
            })
            .collect();
        (scenario, runs)
    }

    fn assert_same_table(a: &ViewTable, b: &ViewTable) {
        assert_eq!(a.len(), b.len());
        for id in a.ids() {
            assert_eq!(a.node(id), b.node(id), "{id:?}");
            assert_eq!(a.proc(id), b.proc(id));
            assert_eq!(a.time(id), b.time(id));
            assert_eq!(a.own_value(id), b.own_value(id));
            assert_eq!(a.exists_zero(id), b.exists_zero(id));
            assert_eq!(a.exists_one(id), b.exists_one(id));
            assert_eq!(a.known_procs(id), b.known_procs(id));
            assert_eq!(a.known_zeros(id), b.known_zeros(id));
            assert_eq!(a.heard_from(id), b.heard_from(id));
        }
    }

    #[test]
    fn flat_table_assigns_the_reference_interners_ids() {
        use eba_model::FailureMode;
        for (k, mode) in [
            FailureMode::Crash,
            FailureMode::Omission,
            FailureMode::GeneralOmission,
        ]
        .into_iter()
        .enumerate()
        {
            let (scenario, runs) = random_runs(mode, 400, 0xF1A7 + k as u64);
            let mut flat = ViewTable::new();
            let mut reference = Reference::default();
            for (config, pattern) in &runs {
                let views = lockstep_run(
                    config,
                    pattern,
                    scenario.horizon(),
                    &mut flat,
                    &mut reference,
                );
                // Re-interning a whole run hits on every view.
                let len = flat.len();
                assert_eq!(
                    full_views(config, pattern, scenario.horizon(), &mut flat),
                    views
                );
                assert_eq!(flat.len(), len);
            }
            assert_eq!(flat.len(), reference.ids.len(), "{mode:?}");
            // Enough views to have rebuilt the index several times.
            assert!(flat.len() > 4 * MIN_INDEX, "{mode:?}: {}", flat.len());
            let columns = flat.len()
                * (std::mem::size_of::<Entry>()
                    + std::mem::size_of::<ViewMeta>()
                    + std::mem::size_of::<u64>());
            assert!(flat.approx_bytes() > columns + 2 * flat.len() * 4);
        }
    }

    #[test]
    fn flat_table_assigns_the_reference_interners_digest_ids() {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let (scenario, runs) = random_runs(eba_model::FailureMode::Omission, 120, 0xD16E);
        let exchange = ExchangeKind::Digest { bits: 16 };
        let mut source = ViewTable::new();
        for (config, pattern) in &runs {
            try_exchange_views(exchange, config, pattern, scenario.horizon(), &mut source).unwrap();
        }
        // Every state twice, in a shuffled order: hits and misses interleave.
        let mut states: Vec<DigestState> = source
            .ids()
            .flat_map(|id| {
                let state = source.digest_state(id).unwrap().clone();
                [state.clone(), state]
            })
            .collect();
        states.shuffle(&mut rand::rngs::StdRng::seed_from_u64(7));
        let mut flat = ViewTable::new();
        let mut reference = Reference::default();
        for state in states {
            let id = flat.try_digest(state.clone()).unwrap();
            assert_eq!(flat.digest_state(id), Some(&state));
            assert_eq!(reference.intern(Owned::Digest(state)), id);
        }
        assert_eq!(flat.len(), source.len());
    }

    #[test]
    fn absorb_with_a_shared_prefix_matches_a_full_absorb() {
        for exchange in [
            ExchangeKind::FullInformation,
            ExchangeKind::Digest { bits: 8 },
        ] {
            let (scenario, runs) = random_runs(eba_model::FailureMode::Omission, 160, 0xAB50);
            let horizon = scenario.horizon();
            let intern = |table: &mut ViewTable, runs: &[(InitialConfig, FailurePattern)]| {
                for (config, pattern) in runs {
                    try_exchange_views(exchange, config, pattern, horizon, table).unwrap();
                }
            };
            // A base table, and three blocks grown from clones of it whose
            // runs overlap the base's and each other's.
            let mut base = ViewTable::new();
            intern(&mut base, &runs[..60]);
            let blocks: Vec<ViewTable> = [40..90, 80..130, 120..160]
                .into_iter()
                .map(|range| {
                    let mut block = base.clone();
                    intern(&mut block, &runs[range]);
                    block
                })
                .collect();
            let mut full = base.clone();
            let mut suffix = base.clone();
            for block in &blocks {
                let whole = full.absorb_suffix(block, 0).unwrap();
                let tail = suffix.absorb_suffix(block, base.len()).unwrap();
                assert!(whole[..base.len()].iter().copied().eq(base.ids()));
                assert_eq!(whole[base.len()..], tail[..]);
            }
            assert_same_table(&full, &suffix);
            // Both equal one table interning the same runs in block order.
            let mut sequential = base.clone();
            for range in [40..90, 80..130, 120..160] {
                intern(&mut sequential, &runs[range]);
            }
            assert_same_table(&full, &sequential);
        }
    }

    #[test]
    fn omission_faulty_receiver_keeps_receiving() {
        let mut t = ViewTable::new();
        let pattern = FailurePattern::failure_free(2).with_behavior(
            p(0),
            FaultyBehavior::Omission {
                omissions: vec![ProcSet::singleton(p(1))],
            },
        );
        let views = full_views(
            &InitialConfig::uniform(2, Value::One),
            &pattern,
            Time::new(1),
            &mut t,
        );
        // p1 did not hear from p0 …
        assert_eq!(t.heard_from(views[1][1]), ProcSet::empty());
        // … but the omission-faulty p0 still hears from p1.
        assert_eq!(t.heard_from(views[1][0]), ProcSet::singleton(p(1)));
    }
}
