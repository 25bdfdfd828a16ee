//! Batched reachability: one sweep over the point store feeding every
//! pending nonrigid set.
//!
//! The per-set path ([`Evaluator::reachability`]) walks the CSR bucket
//! partitions of the [`eba_sim::PointStore`] once *per set*: an optimize
//! sweep that touches `C□_{N∧A}` for a dozen candidate families `A` pays
//! for a dozen full traversals, and PR 3's bench record singles this out
//! as the dominant residual cost. [`BatchBuilder`] collects all the sets
//! a compiled plan (or an optimize step) is about to need and resolves
//! them together:
//!
//! 1. **Staged resolution** first drains the evaluator's local memos and
//!    the shared [`crate::KnowledgeCache`] (under content keys hashed
//!    once per set), so only genuinely unknown sets reach the sweep.
//! 2. **One membership pass** over the points computes `S(r, k)` for
//!    every pending set at once — the per-run nonfaulty set is fetched
//!    once per run, and `N ∧ A` membership tests are table lookups per
//!    interned view rather than hash probes per point.
//! 3. **Components.** One CSR traversal per processor collects union
//!    edges for every pending set simultaneously — fanned out across the
//!    supervised worker pool of [`eba_sim::chaos`] above the same
//!    threshold as the per-set path, sequential below it. Within a
//!    bucket each set chains its `S`-containing points to the first one
//!    and the chain over a bucket's nonfaulty points is shared between
//!    sets, so the per-(set, processor) edge lists — and therefore the
//!    union-find components — are **bit-identical** to the per-set
//!    path's.
//! 4. Per set, the resulting `Reachability` is published to the
//!    evaluator's memo and the shared cache; scope columns fall out of
//!    the membership vectors for free and are interned by content.
//!
//! The per-set path remains intact as the differential-test oracle
//! ([`Evaluator::set_batch_mode`] switches plan execution between the
//! two); `tests/plan_equivalence.rs` checks components, run projections,
//! and scope columns agree bit-for-bit on random set families.

use crate::bitset::Bitset;
use crate::cache::HashedReachKey;
use crate::eval::{Evaluator, Reachability, PARALLEL_POINTS_THRESHOLD};
use crate::nonrigid::NonRigidSet;
use crate::uf::UnionFind;
use eba_model::{ProcSet, ProcessorId};
use eba_sim::chaos::{supervised_indexed, FaultSite};
use eba_sim::PointStore;
use std::sync::Arc;

/// A batch of nonrigid-set requests resolved in one sweep; see the module
/// docs.
///
/// # Example
///
/// ```
/// use eba_kripke::{reach::BatchBuilder, Evaluator, NonRigidSet};
/// use eba_model::{FailureMode, Scenario};
/// use eba_sim::GeneratedSystem;
///
/// # fn main() -> Result<(), eba_model::ModelError> {
/// let scenario = Scenario::new(3, 1, FailureMode::Crash, 2)?;
/// let system = GeneratedSystem::exhaustive(&scenario);
/// let mut eval = Evaluator::new(&system);
/// let mut batch = BatchBuilder::new();
/// batch.request_reachability(NonRigidSet::Nonfaulty);
/// batch.request_reachability(NonRigidSet::Everyone);
/// batch.request_scopes(NonRigidSet::Nonfaulty);
/// batch.run(&mut eval); // one traversal serves all three requests
/// assert_eq!(eval.knowledge_cache().len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct BatchBuilder {
    sets: Vec<NonRigidSet>,
    want_reach: Vec<bool>,
    want_scopes: Vec<bool>,
}

/// One processor's union-edge lists, indexed by edge slot (see
/// [`collect_batch_edges`]).
type SlotEdges = Vec<Vec<(u32, u32)>>;

/// A set that survived staged resolution and must be built by the sweep.
struct PendingSet {
    set: NonRigidSet,
    key: Arc<HashedReachKey>,
    need_reach: bool,
    need_scopes: bool,
    /// Index into the edge-collection slots, for `need_reach` sets.
    edge_slot: usize,
}

impl BatchBuilder {
    /// An empty batch.
    #[must_use]
    pub fn new() -> Self {
        BatchBuilder::default()
    }

    fn slot(&mut self, s: NonRigidSet) -> usize {
        if let Some(i) = self.sets.iter().position(|&x| x == s) {
            return i;
        }
        self.sets.push(s);
        self.want_reach.push(false);
        self.want_scopes.push(false);
        self.sets.len() - 1
    }

    /// Requests the [`Reachability`] structure of `s` (idempotent).
    pub fn request_reachability(&mut self, s: NonRigidSet) {
        let i = self.slot(s);
        self.want_reach[i] = true;
    }

    /// Requests the per-processor scope columns of `s` (idempotent).
    pub fn request_scopes(&mut self, s: NonRigidSet) {
        let i = self.slot(s);
        self.want_scopes[i] = true;
    }

    /// Number of distinct sets requested.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Whether nothing has been requested.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Resolves every request into `eval`'s memos (and the shared
    /// [`crate::KnowledgeCache`]): cached structures are reused, and all
    /// remaining sets are built by one membership pass plus one CSR
    /// traversal per processor. Subsequent [`Evaluator::reachability`] /
    /// scope lookups for the requested sets are memo hits.
    pub fn run(&self, eval: &mut Evaluator<'_>) {
        // Stage 1: drain the local memos and the shared cache.
        let mut pending: Vec<PendingSet> = Vec::new();
        let mut edge_slots = 0;
        for (i, &s) in self.sets.iter().enumerate() {
            let mut need_reach = false;
            let mut need_scopes = false;
            if self.want_reach[i] {
                if eval.reach_cache.contains_key(&s) {
                    eval.shared.note_local_hit(false);
                } else {
                    let key = eval.hashed_key(s);
                    match eval.shared.get(&key) {
                        Some(found) => {
                            debug_assert_eq!(
                                found.num_points(),
                                eval.num_points(),
                                "knowledge cache shared across different systems"
                            );
                            eval.reach_cache.insert(s, found);
                        }
                        None => need_reach = true,
                    }
                }
            }
            if self.want_scopes[i] {
                if eval.scope_cache.contains_key(&s) {
                    eval.shared.note_local_hit(true);
                } else {
                    let key = eval.hashed_key(s);
                    match eval.shared.get_scopes(&key) {
                        Some(found) => {
                            eval.scope_cache.insert(s, found);
                        }
                        None => need_scopes = true,
                    }
                }
            }
            if need_reach || need_scopes {
                let edge_slot = if need_reach {
                    edge_slots += 1;
                    edge_slots - 1
                } else {
                    usize::MAX
                };
                pending.push(PendingSet {
                    set: s,
                    key: eval.hashed_key(s),
                    need_reach,
                    need_scopes,
                    edge_slot,
                });
            }
        }
        if pending.is_empty() {
            return;
        }

        // Stage 2: membership vectors for every pending set. The rigid
        // kinds are run-sliced fills, the `N ∧ A` kinds one
        // processor-major pass each steered by their hoisted view tables.
        let pending_sets: Vec<NonRigidSet> = pending.iter().map(|p| p.set).collect();
        let in_view = build_in_view_tables(eval, &pending_sets);
        let mut members = fill_rigid_members(eval, &pending_sets);
        fill_nonfaulty_and_members(eval, &pending_sets, &in_view, &mut members);

        // Stage 3: the traversal. Each processor's CSR sweep hands back
        // per-(processor, set) union-edge lists, replayed into a shared
        // union-find in stage 4; above the parallel threshold the sweeps
        // fan out over the supervised workers.
        let system = eval.system();
        let store = system.points();
        let workers = eval.threads.min(store.n());
        let parallel = workers > 1 && eval.num_points() >= PARALLEL_POINTS_THRESHOLD;
        let specs: Vec<EdgeSpec<'_>> = pending
            .iter()
            .enumerate()
            .filter(|(_, p)| p.need_reach)
            .map(|(k, p)| spec_kind(p.set, &in_view[k]))
            .collect();
        let mut replay: Option<Vec<SlotEdges>> = None;
        let mut seq_ufs: Vec<UnionFind> = Vec::new();
        if let Some(classes) = eval.classes() {
            // Quotient sweep: per pending set, class-root unions over the
            // membership vectors (see
            // `Evaluator::union_quotient_reach_edges`) — one pass over
            // (point, member) pairs, small enough to always run
            // sequentially. Identical partitions to the per-set quotient
            // path by construction.
            seq_ufs = (0..edge_slots)
                .map(|_| UnionFind::new(eval.num_points()))
                .collect();
            for (entry, mems) in pending.iter().zip(&members) {
                if entry.need_reach {
                    eval.union_quotient_reach_edges(mems, classes, &mut seq_ufs[entry.edge_slot]);
                }
            }
        } else if !specs.is_empty() {
            if parallel {
                replay = Some(collect_edges_parallel(eval, workers, &specs));
            } else {
                // Sequentially the unions are applied in place during the
                // sweep — no edge lists exist at all. The union *set* per
                // slot is exactly the parallel path's edge list, applied
                // in the same processor-major bucket order.
                seq_ufs = specs
                    .iter()
                    .map(|_| UnionFind::new(eval.num_points()))
                    .collect();
                let nf_points = nonfaulty_points_by_proc(system);
                for i in ProcessorId::all(store.n()) {
                    union_batch_edges(store, i, &nf_points[i.index()], &specs, &mut seq_ufs);
                }
            }
        }

        // Stage 4: per set, build the Reachability and publish it. The
        // replayed edge lists are applied in processor order — the same
        // sequence the per-set path uses — but any order would do:
        // `finish_reachability` reads only the partition, and compact
        // numbering is assigned in first-seen point order.
        let n = store.n();
        let mut replay_uf = replay.as_ref().map(|_| UnionFind::new(eval.num_points()));
        for (entry, mems) in pending.iter().zip(members) {
            if entry.need_scopes {
                let cols = columns_from_members(&mems, n);
                let interned = eval.shared.insert_scopes(&entry.key, Arc::new(cols));
                eval.scope_cache.insert(entry.set, interned);
            }
            if entry.need_reach {
                let reach = if let Some(per_proc_edges) = replay.as_ref() {
                    let uf = replay_uf.as_mut().expect("allocated alongside replay");
                    uf.reset();
                    // Edges arrive in bucket-chain runs sharing their
                    // first endpoint; `union_root` carries the merged
                    // root across a run, skipping one `find` per edge.
                    let mut last_a = u32::MAX;
                    let mut root = 0;
                    for proc_edges in per_proc_edges.iter() {
                        for &(a, b) in &proc_edges[entry.edge_slot] {
                            if a != last_a {
                                last_a = a;
                                root = uf.find(a as usize);
                            }
                            root = uf.union_root(root, b as usize);
                        }
                        last_a = u32::MAX;
                    }
                    eval.finish_reachability(mems, uf)
                } else {
                    eval.finish_reachability(mems, &mut seq_ufs[entry.edge_slot])
                };
                let reach = Arc::new(reach);
                eval.shared.insert(&entry.key, Arc::clone(&reach));
                eval.reach_cache.insert(entry.set, reach);
            }
        }
    }
}

impl<'a> Evaluator<'a> {
    /// Resolves the reachability structures of several sets through one
    /// [`BatchBuilder`] sweep, returning them in request order. Cached
    /// sets are served from the memos; the rest share a single traversal.
    pub fn reachability_batch(&mut self, sets: &[NonRigidSet]) -> Vec<Arc<Reachability>> {
        let mut batch = BatchBuilder::new();
        for &s in sets {
            batch.request_reachability(s);
        }
        batch.run(self);
        sets.iter().map(|&s| self.reachability(s)).collect()
    }
}

/// Per pending set, the flat `n × table_len` view-membership table of its
/// `N ∧ A` family (`None` for the rigid kinds). Populated from the
/// family's own view sets (direct writes) rather than probing every
/// interned view — `n × table_len` probes would dwarf the point loop.
fn build_in_view_tables(eval: &Evaluator<'_>, sets: &[NonRigidSet]) -> Vec<Option<Vec<bool>>> {
    let n = eval.system().n();
    let table_len = eval.system().table().len();
    sets.iter()
        .map(|&s| match s {
            NonRigidSet::NonfaultyAnd(id) => {
                let family = eval.state_sets(id);
                let mut table = vec![false; n * table_len];
                for p in ProcessorId::all(n) {
                    for v in family.of(p).iter() {
                        table[p.index() * table_len + v.index()] = true;
                    }
                }
                Some(table)
            }
            _ => None,
        })
        .collect()
}

/// Allocates the membership vectors of every set and fills the rigid
/// kinds (`Everyone`, `N`) with run-sliced writes; `N ∧ A` vectors are
/// left empty for [`fill_nonfaulty_and_members`] to fill.
fn fill_rigid_members(eval: &Evaluator<'_>, sets: &[NonRigidSet]) -> Vec<Vec<ProcSet>> {
    let system = eval.system();
    let store = system.points();
    let num_points = eval.num_points();
    let full = ProcSet::full(store.n());
    let times = store.times();
    sets.iter()
        .map(|&s| match s {
            NonRigidSet::Everyone => vec![full; num_points],
            NonRigidSet::Nonfaulty => {
                let mut m = Vec::with_capacity(num_points);
                for run in system.run_ids() {
                    let nf = system.nonfaulty(run);
                    m.resize(m.len() + times, nf);
                }
                m
            }
            NonRigidSet::NonfaultyAnd(_) => vec![ProcSet::empty(); num_points],
        })
        .collect()
}

/// Fills the `N ∧ A` membership vectors in one processor-major pass over
/// the points. Value-identical to the per-set
/// `Evaluator::collect_s_members`: membership is a per-(processor,
/// interned view) table lookup instead of a hash probe, and whole runs
/// where the processor is faulty are skipped.
fn fill_nonfaulty_and_members(
    eval: &Evaluator<'_>,
    sets: &[NonRigidSet],
    in_view: &[Option<Vec<bool>>],
    members: &mut [Vec<ProcSet>],
) {
    let system = eval.system();
    let store = system.points();
    let n = store.n();
    let table_len = system.table().len();
    let columns: Vec<&[eba_sim::ViewId]> = ProcessorId::all(n).map(|p| store.column(p)).collect();
    let times = store.times();
    for (k, &s) in sets.iter().enumerate() {
        if !matches!(s, NonRigidSet::NonfaultyAnd(_)) {
            continue;
        }
        let table = in_view[k].as_ref().expect("table built above");
        let member_vec = &mut members[k];
        for p in ProcessorId::all(n) {
            let row = &table[p.index() * table_len..(p.index() + 1) * table_len];
            let col = columns[p.index()];
            for run in system.run_ids() {
                if !system.nonfaulty(run).contains(p) {
                    continue;
                }
                // Zip the run's column and membership slices so the
                // sweep streams both without per-point bounds checks —
                // the shape LLVM unrolls into word blocks.
                let base = run.index() * times;
                let col_run = &col[base..base + times];
                let mem_run = &mut member_vec[base..base + times];
                for (m, v) in mem_run.iter_mut().zip(col_run) {
                    if row[v.index()] {
                        m.insert(p);
                    }
                }
            }
        }
    }
}

/// The [`EdgeSpec`] of a pending set.
fn spec_kind<'m>(s: NonRigidSet, in_view: &'m Option<Vec<bool>>) -> EdgeSpec<'m> {
    match s {
        NonRigidSet::Everyone => EdgeSpec::Everyone,
        NonRigidSet::Nonfaulty => EdgeSpec::Nonfaulty,
        NonRigidSet::NonfaultyAnd(_) => {
            EdgeSpec::NonfaultyAnd(in_view.as_deref().expect("table built above"))
        }
    }
}

/// Per processor, its nonfaulty flag at every *point* (run-sliced fills
/// of the run-level flag) — the single membership bit every
/// non-`Everyone` spec tests (see [`EdgeSpec`]), indexed directly by the
/// point ids the buckets store.
fn nonfaulty_points_by_proc(system: &eba_sim::GeneratedSystem) -> Vec<Vec<bool>> {
    let store = system.points();
    let times = store.times();
    ProcessorId::all(system.n())
        .map(|p| {
            let mut flags = vec![false; system.num_points()];
            for r in system.run_ids() {
                if system.nonfaulty(r).contains(p) {
                    let base = r.index() * times;
                    flags[base..base + times].fill(true);
                }
            }
            flags
        })
        .collect()
}

/// One pending set's inputs to the shared CSR traversal.
enum EdgeSpec<'m> {
    /// `Everyone` contains every point: chain the whole bucket, no test.
    Everyone,
    /// `N`: membership at a point depends only on the run's nonfaulty
    /// set, so the shared per-bucket nonfaulty chain applies verbatim.
    Nonfaulty,
    /// `N ∧ A`, carrying the flat `n × table_len` view-membership table
    /// of `A`. Buckets are per-view, so the `A_i` half of the membership
    /// test is constant across a bucket: a failing view skips the whole
    /// bucket, and a passing view reduces membership to run-nonfaulty —
    /// i.e. exactly the shared chain again.
    NonfaultyAnd(&'m [bool]),
}

/// One CSR bucket traversal for processor `i`, collecting the union edges
/// of *every* set at once: per bucket, each set chains its `S`-containing
/// points to the first one (buckets are in increasing point order), so
/// slot `k`'s edge *set* — and hence the union-find partition — equals
/// the per-set path's. Compact component numbering depends only on the
/// partition (it is assigned in first-seen point order), so the bucket
/// skips and chain sharing below cannot perturb it.
///
/// Every non-`Everyone` membership test reduces to "is `i` nonfaulty in
/// this point's run" (see [`EdgeSpec`]), so the chain over a bucket's
/// nonfaulty points is computed once and memcpy'd into each qualifying
/// set's edge list.
fn collect_batch_edges(
    store: &PointStore,
    i: ProcessorId,
    nonfaulty_at: &[bool],
    specs: &[EdgeSpec<'_>],
) -> SlotEdges {
    let (offsets, items) = store.buckets(i);
    let table_len = offsets.len() - 1;
    let mut edges: SlotEdges = specs
        .iter()
        .map(|_| Vec::with_capacity(items.len() / 2))
        .collect();
    let mut shared: Vec<(u32, u32)> = Vec::new();
    for (v, b) in offsets.windows(2).enumerate() {
        let bucket = &items[b[0] as usize..b[1] as usize];
        // A bucket with fewer than two points cannot contribute an edge.
        if bucket.len() < 2 {
            continue;
        }
        let mut shared_built = false;
        for (spec, edges_k) in specs.iter().zip(edges.iter_mut()) {
            match spec {
                EdgeSpec::Everyone => {
                    let root = bucket[0];
                    for &idx in &bucket[1..] {
                        edges_k.push((root, idx));
                    }
                    continue;
                }
                EdgeSpec::NonfaultyAnd(table) => {
                    if !table[i.index() * table_len + v] {
                        continue;
                    }
                }
                EdgeSpec::Nonfaulty => {}
            }
            if !shared_built {
                shared_built = true;
                shared.clear();
                let mut root = u32::MAX;
                for &idx in bucket {
                    if !nonfaulty_at[idx as usize] {
                        continue;
                    }
                    if root == u32::MAX {
                        root = idx;
                    } else {
                        shared.push((root, idx));
                    }
                }
            }
            edges_k.extend_from_slice(&shared);
        }
    }
    edges
}

/// The sequential counterpart of [`collect_batch_edges`]: the same
/// bucket sweep, but unions are applied in place to each slot's
/// union-find instead of materializing edge lists — the memcpy of the
/// shared chain into per-set vectors (and its replay) disappears. The
/// union *set* per slot is identical to the edge list the parallel path
/// would have produced, so the resulting partitions — and the compact
/// numbering `finish_reachability` derives from them — are bit-identical.
fn union_batch_edges(
    store: &PointStore,
    i: ProcessorId,
    nonfaulty_at: &[bool],
    specs: &[EdgeSpec<'_>],
    ufs: &mut [UnionFind],
) {
    let (offsets, items) = store.buckets(i);
    let table_len = offsets.len() - 1;
    let mut chain: Vec<u32> = Vec::new();
    for (v, b) in offsets.windows(2).enumerate() {
        let bucket = &items[b[0] as usize..b[1] as usize];
        if bucket.len() < 2 {
            continue;
        }
        let mut chain_built = false;
        for (k, spec) in specs.iter().enumerate() {
            match spec {
                EdgeSpec::Everyone => {
                    // `union_root` carries the merged root across the
                    // bucket, skipping one `find` per union.
                    let uf = &mut ufs[k];
                    let mut root = uf.find(bucket[0] as usize);
                    for &idx in &bucket[1..] {
                        root = uf.union_root(root, idx as usize);
                    }
                    continue;
                }
                EdgeSpec::NonfaultyAnd(table) => {
                    if !table[i.index() * table_len + v] {
                        continue;
                    }
                }
                EdgeSpec::Nonfaulty => {}
            }
            if !chain_built {
                chain_built = true;
                chain.clear();
                chain.extend(
                    bucket
                        .iter()
                        .copied()
                        .filter(|&idx| nonfaulty_at[idx as usize]),
                );
            }
            if let Some((&first, rest)) = chain.split_first() {
                let uf = &mut ufs[k];
                let mut root = uf.find(first as usize);
                for &idx in rest {
                    root = uf.union_root(root, idx as usize);
                }
            }
        }
    }
}

/// Parallel edge collection — fanned out over the supervised worker pool
/// above the same threshold as the per-set path, with the same
/// chaos-injection site. Panicking on the attempt, the retry, and the
/// sequential fallback is a deterministic bug, so a surviving fault is
/// surfaced as a panic.
fn collect_edges_parallel(
    eval: &Evaluator<'_>,
    workers: usize,
    specs: &[EdgeSpec<'_>],
) -> Vec<SlotEdges> {
    let system = eval.system();
    let store = system.points();
    let n = store.n();
    let nf_by_proc = nonfaulty_points_by_proc(system);
    let chaos = &*eval.chaos;
    let nf = &nf_by_proc;
    let supervised = supervised_indexed(n, workers, FaultSite::ReachabilityWorker, |i| {
        if let Err(e) = chaos.inject(FaultSite::ReachabilityWorker, i) {
            // Edge collection is infallible, so an injected capacity
            // fault degrades to a supervised panic here.
            panic!("{e}");
        }
        collect_batch_edges(store, ProcessorId::new(i), &nf[i], specs)
    });
    match supervised {
        Ok((edges, _faults)) => edges,
        Err(fault) => panic!("{fault}"),
    }
}

/// Scope columns from a membership vector: column `p` holds the points
/// where `p ∈ S(r, k)`. Bit-identical to the per-set
/// `build_scope_columns` extraction, assembled a word at a time.
fn columns_from_members(members: &[ProcSet], n: usize) -> Vec<Bitset> {
    ProcessorId::all(n)
        .map(|p| {
            let mut col = Bitset::new_false(members.len());
            for (word, chunk) in col.words_mut().iter_mut().zip(members.chunks(64)) {
                let mut w = 0u64;
                for (bit, m) in chunk.iter().enumerate() {
                    w |= u64::from(m.contains(p)) << bit;
                }
                *word = w;
            }
            col
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nonrigid::StateSets;
    use eba_model::{FailureMode, Scenario, Value};
    use eba_sim::GeneratedSystem;

    fn system() -> GeneratedSystem {
        let scenario = Scenario::new(3, 1, FailureMode::Crash, 2).unwrap();
        GeneratedSystem::exhaustive(&scenario)
    }

    #[test]
    fn batch_matches_per_set_path() {
        let system = system();
        let mut per_set = Evaluator::new(&system);
        let mut batched = Evaluator::new(&system);
        let sets_a = StateSets::with_value_seen(system.table(), 3, Value::Zero);
        let id_a = per_set.register_state_sets(sets_a.clone());
        let id_b = batched.register_state_sets(sets_a);
        assert_eq!(id_a, id_b);
        let family = [
            NonRigidSet::Everyone,
            NonRigidSet::Nonfaulty,
            NonRigidSet::NonfaultyAnd(id_a),
        ];
        let via_batch = batched.reachability_batch(&family);
        for (&s, got) in family.iter().zip(via_batch) {
            let want = per_set.reachability(s);
            assert_eq!(want.num_point_components(), got.num_point_components());
            for idx in 0..system.num_points() {
                assert_eq!(
                    want.point_component(idx),
                    got.point_component(idx),
                    "component of point {idx} under {s:?}"
                );
                assert_eq!(want.members(idx), got.members(idx));
            }
            for run in system.run_ids() {
                assert_eq!(want.run_component(run), got.run_component(run));
                assert_eq!(want.run_has_s_points(run), got.run_has_s_points(run));
            }
        }
    }

    #[test]
    fn batch_serves_repeat_requests_from_the_memo() {
        let system = system();
        let mut eval = Evaluator::new(&system);
        let first = eval.reachability_batch(&[NonRigidSet::Nonfaulty]);
        let stats_before = eval.knowledge_cache().stats();
        let second = eval.reachability_batch(&[NonRigidSet::Nonfaulty]);
        assert!(Arc::ptr_eq(&first[0], &second[0]));
        let stats_after = eval.knowledge_cache().stats();
        assert_eq!(stats_after.reach_misses, stats_before.reach_misses);
        assert!(stats_after.reach_hits > stats_before.reach_hits);
    }

    #[test]
    fn batch_scopes_match_per_set_columns() {
        let system = system();
        let mut per_set = Evaluator::new(&system);
        let mut batched = Evaluator::new(&system);
        let family = StateSets::with_value_seen(system.table(), 3, Value::One);
        let id_a = per_set.register_state_sets(family.clone());
        let id_b = batched.register_state_sets(family);
        for s in [
            NonRigidSet::Everyone,
            NonRigidSet::Nonfaulty,
            NonRigidSet::NonfaultyAnd(id_b),
        ] {
            let mut batch = BatchBuilder::new();
            batch.request_scopes(s);
            batch.run(&mut batched);
        }
        for (a, b) in [
            (NonRigidSet::Everyone, NonRigidSet::Everyone),
            (NonRigidSet::Nonfaulty, NonRigidSet::Nonfaulty),
            (
                NonRigidSet::NonfaultyAnd(id_a),
                NonRigidSet::NonfaultyAnd(id_b),
            ),
        ] {
            let want = per_set.scope_columns(a);
            let got = batched.scope_columns(b);
            assert_eq!(*want, *got, "scope columns diverge under {a:?}");
        }
    }
}
