//! Batched reachability: one sweep over the point store feeding every
//! pending nonrigid set.
//!
//! Building reachability one set at a time walks the CSR bucket
//! partitions of the [`eba_sim::PointStore`] once *per set*: an optimize
//! sweep that touches `C□_{N∧A}` for a dozen candidate families `A` pays
//! for a dozen full traversals, and PR 3's bench record singles this out
//! as the dominant residual cost. [`BatchBuilder`] collects all the sets
//! an evaluation (or an optimize step) is about to need and resolves
//! them together; it is also how [`Evaluator::reachability`] and
//! [`Evaluator::scope_columns`] build a single set they miss:
//!
//! 1. **Staged resolution** first drains the evaluator's local memos and
//!    the shared [`crate::KnowledgeCache`] (under content keys hashed
//!    once per set), so only genuinely unknown sets reach the sweep.
//! 2. **One membership pass** over the points computes `S(r, k)` for
//!    every pending set at once — the per-run nonfaulty set is fetched
//!    once per run, and `N ∧ A` membership tests are table lookups per
//!    interned view rather than hash probes per point.
//! 3. **Components.** One CSR traversal per processor, on the calling
//!    thread, applies the unions of every pending set in place, into one
//!    union-find per set. Within a bucket each set chains its
//!    `S`-containing points to the first one and the chain over a
//!    bucket's nonfaulty points is shared between sets, so the
//!    per-(set, processor) union sets — and therefore the union-find
//!    components — are **bit-identical** to a per-set build's. On a
//!    symmetry quotient each chain is also linked to the first chain of
//!    its view's orbit class.
//! 4. Per set, the resulting `Reachability` is published to the
//!    evaluator's memo and the shared cache; scope columns fall out of
//!    the membership vectors for free. The membership vectors themselves
//!    are dropped: no kernel reads them back.
//!
//! The `D_S` partition (`joint_view_classes`) is built from one set's
//! membership vector, filled by the same stage-2 helpers, when
//! [`Evaluator`]'s partition lookup misses its memo and the shared cache;
//! it is published to both, under the set's content key.
//!
//! The per-set builds are kept as reference implementations in
//! [`crate::oracle`]; `tests/plan_equivalence.rs` checks components, run
//! projections, scope columns and `D_S` agree bit-for-bit on random set
//! families.

use crate::bitset::Bitset;
use crate::cache::HashedReachKey;
use crate::eval::{Evaluator, PointClasses};
use crate::nonrigid::NonRigidSet;
use crate::plan::ViewPartition;
use crate::uf::UnionFind;
use eba_model::fasthash::FastMap;
use eba_model::{ProcSet, ProcessorId};
use eba_sim::symmetry::{for_each_permuted_hashes, mix};
use eba_sim::{PointStore, ViewId};
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

/// A set that survived staged resolution and must be built by the sweep.
struct PendingSet {
    set: NonRigidSet,
    key: Arc<HashedReachKey>,
    need_reach: bool,
    need_scopes: bool,
    /// Index into the per-set union-finds, for `need_reach` sets.
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

    /// Requests the [`Reachability`](crate::Reachability) structure of `s` (idempotent).
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
            if self.want_reach[i] && !eval.reach_cache.contains_key(&s) {
                let key = eval.hashed_key(s);
                match eval.shared.get(&key) {
                    Some(found) => {
                        debug_assert_eq!(
                            found.points.class_of.len(),
                            eval.num_points(),
                            "knowledge cache shared across different systems"
                        );
                        eval.reach_cache.insert(s, found);
                    }
                    None => need_reach = true,
                }
            }
            if self.want_scopes[i] && !eval.scope_cache.contains_key(&s) {
                let key = eval.hashed_key(s);
                match eval.shared.get_scopes(&key) {
                    Some(found) => {
                        debug_assert!(
                            found.iter().all(|b| b.len() == eval.num_points()),
                            "knowledge cache shared across different systems"
                        );
                        eval.scope_cache.insert(s, found);
                    }
                    None => need_scopes = true,
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

        // Stage 3: one CSR sweep per processor serves every pending set
        // at once, applying its unions in place, into one union-find per
        // edge slot. On a quotient each bucket chain is also linked to the
        // root of its view's orbit class, so (point, member) pairs whose
        // views share a class are linked: a full-system chain projects
        // onto class chains, and a class chain lifts to a full-system
        // chain into a relabeled copy of the same component, so the
        // clean/dirty verdict of every component — all that `C_S`/`C□_S`
        // read — agrees with the full system's for symmetric `φ`
        // (DESIGN.md §4i).
        let system = eval.system();
        let store = system.points();
        let mut ufs: Vec<UnionFind> = (0..edge_slots)
            .map(|_| UnionFind::new(eval.num_points()))
            .collect();
        if edge_slots > 0 {
            let specs: Vec<EdgeSpec<'_>> = pending
                .iter()
                .enumerate()
                .filter(|(_, p)| p.need_reach)
                .map(|(k, p)| spec_kind(p.set, &in_view[k]))
                .collect();
            let partition = eval.partition();
            let roots_per_slot = if partition.spans_owners() {
                partition.num_classes()
            } else {
                0
            };
            let mut class_roots = vec![vec![u32::MAX; roots_per_slot]; edge_slots];
            let nf_points = nonfaulty_points_by_proc(system);
            for i in ProcessorId::all(store.n()) {
                let nonfaulty_at = &nf_points[i.index()];
                union_batch_edges(
                    store,
                    i,
                    nonfaulty_at,
                    &specs,
                    partition,
                    &mut class_roots,
                    &mut ufs,
                );
            }
        }

        // Stage 4: per set, build the Reachability and publish it.
        // `finish_reachability` reads only the partition (compact
        // numbering is assigned in first-seen point order), so the union
        // order of stage 3 cannot show in the result.
        let n = store.n();
        for (entry, mems) in pending.iter().zip(&members) {
            if entry.need_scopes {
                let cols = Arc::new(columns_from_members(mems, n));
                eval.shared.insert_scopes(&entry.key, Arc::clone(&cols));
                eval.scope_cache.insert(entry.set, cols);
            }
            if entry.need_reach {
                let reach = Arc::new(eval.finish_reachability(mems, &mut ufs[entry.edge_slot]));
                eval.shared.insert(&entry.key, Arc::clone(&reach));
                eval.reach_cache.insert(entry.set, reach);
            }
        }
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
/// the points. Value-identical to the reference's per-point
/// [`Evaluator::members`] scan ([`crate::oracle`]): membership is a
/// per-(processor, interned view) table lookup instead of a hash probe,
/// and whole runs where the processor is faulty are skipped.
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

/// One CSR bucket traversal for processor `i`, applying the unions of
/// *every* set at once, in place, to slot `k`'s union-find: per bucket,
/// each set chains its `S`-containing points to the first one (buckets
/// are in increasing point order), so slot `k`'s union set — and hence
/// its partition — equals a per-set build's. When the view partition
/// spans owners, each chain is then linked to the first chain of its
/// view class seen in slot `k` (`class_roots[k]`). Compact component
/// numbering depends only on the partition (`finish_reachability`
/// assigns it in first-seen point order), so the bucket skips, chain
/// sharing and link order below cannot perturb it.
///
/// Every non-`Everyone` membership test reduces to "is `i` nonfaulty in
/// this point's run" (see [`EdgeSpec`]), so the chain over a bucket's
/// nonfaulty points is computed once and applied to each qualifying set.
fn union_batch_edges(
    store: &PointStore,
    i: ProcessorId,
    nonfaulty_at: &[bool],
    specs: &[EdgeSpec<'_>],
    partition: ViewPartition<'_>,
    class_roots: &mut [Vec<u32>],
    ufs: &mut [UnionFind],
) {
    let (offsets, items) = store.buckets(i);
    let table_len = offsets.len() - 1;
    let link_classes = partition.spans_owners();
    // A one-point bucket is a chain of its own, linked to nothing unless
    // its class spans owners.
    let min_len = if link_classes { 1 } else { 2 };
    let mut chain: Vec<u32> = Vec::new();
    for (v, b) in offsets.windows(2).enumerate() {
        let bucket = &items[b[0] as usize..b[1] as usize];
        if bucket.len() < min_len {
            continue;
        }
        let mut chain_built = false;
        for (k, spec) in specs.iter().enumerate() {
            let points = match spec {
                EdgeSpec::Everyone => bucket,
                EdgeSpec::NonfaultyAnd(table) if !table[i.index() * table_len + v] => continue,
                EdgeSpec::Nonfaulty | EdgeSpec::NonfaultyAnd(_) => {
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
                    &chain
                }
            };
            let Some((&first, rest)) = points.split_first() else {
                continue;
            };
            // `union_root` carries the merged root across the chain,
            // skipping one `find` per union.
            let uf = &mut ufs[k];
            let mut root = uf.find(first as usize);
            for &idx in rest {
                root = uf.union_root(root, idx as usize);
            }
            if link_classes {
                let class = partition.class(ViewId::from_index(v));
                match class_roots[k][class] {
                    u32::MAX => class_roots[k][class] = root as u32,
                    linked => {
                        uf.union(linked as usize, root);
                    }
                }
            }
        }
    }
}

/// The `D_S` partition of `s` (DESIGN.md §4s): `D_S φ` holds at a point
/// iff `φ` holds throughout its class.
///
/// The membership vector is filled by the batch's stage-2 helpers. Each
/// point's *row* — processor `i`'s view there where `i ∈ S`, a marker
/// outside the view-id range elsewhere — is interned exactly, so two
/// points share a row iff the same members jointly see the same views,
/// and every `S`-empty point shares the all-marker row (there `D_S φ` is
/// `φ` throughout the `S`-empty points). On a quotient the rows are then
/// merged into orbit classes: a row's key is the minimum over all
/// relabelings `π` of its slot-ascending mix of `π`-relabeled view
/// hashes (slot `j` holds processor `π⁻¹(j)`, markers a fixed word), so
/// two rows share a key exactly when some relabeling maps one onto the
/// other, which is joint indistinguishability in the full system
/// (DESIGN.md §4i). The key is computed once per distinct row, not per
/// point.
pub(crate) fn joint_view_classes(eval: &Evaluator<'_>, s: NonRigidSet) -> PointClasses {
    const ABSENT: u64 = u64::MAX;
    let in_view = build_in_view_tables(eval, &[s]);
    let mut members = fill_rigid_members(eval, &[s]);
    fill_nonfaulty_and_members(eval, &[s], &in_view, &mut members);
    let store = eval.system().points();
    let n = store.n();
    let columns: Vec<&[ViewId]> = ProcessorId::all(n).map(|p| store.column(p)).collect();
    let mut index: FastMap<Box<[u64]>, u32> = FastMap::default();
    let mut row = vec![ABSENT; n];
    let row_of: Vec<u32> = members[0]
        .iter()
        .enumerate()
        .map(|(idx, m)| {
            for (i, slot) in row.iter_mut().enumerate() {
                *slot = if m.contains(ProcessorId::new(i)) {
                    columns[i][idx].index() as u64
                } else {
                    ABSENT
                };
            }
            if let Some(&id) = index.get(row.as_slice()) {
                return id;
            }
            let id = index.len() as u32;
            index.insert(row.clone().into_boxed_slice(), id);
            id
        })
        .collect();
    if !eval.partition().spans_owners() {
        return PointClasses {
            class_of: row_of,
            num_classes: index.len(),
        };
    }
    let mut keys = vec![u128::MAX; index.len()];
    for_each_permuted_hashes(eval.system().table(), n, |perm, hashes| {
        let inv = perm.inverse();
        let slots: Vec<usize> = (0..n)
            .map(|j| inv.apply(ProcessorId::new(j)).index())
            .collect();
        for (row, &id) in &index {
            let mut h = 3u128;
            for &q in &slots {
                h = match row[q] {
                    ABSENT => mix(h, u128::MAX - 2),
                    v => mix(h, hashes[v as usize]),
                };
            }
            keys[id as usize] = keys[id as usize].min(h);
        }
    });
    let mut renumber: FastMap<u128, u32> = FastMap::default();
    let class_of_row: Vec<u32> = keys
        .iter()
        .map(|&key| {
            let next = renumber.len() as u32;
            *renumber.entry(key).or_insert(next)
        })
        .collect();
    PointClasses {
        class_of: row_of.iter().map(|&r| class_of_row[r as usize]).collect(),
        num_classes: renumber.len(),
    }
}

/// Scope columns from a membership vector: column `p` holds the points
/// where `p ∈ S(r, k)`. Bit-identical to the per-view membership test of
/// the reference build ([`crate::oracle`]), assembled a word at a time.
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
    use crate::oracle::Oracle;
    use eba_model::{FailureMode, Scenario, Value};
    use eba_sim::GeneratedSystem;

    fn system() -> GeneratedSystem {
        let scenario = Scenario::new(3, 1, FailureMode::Crash, 2).unwrap();
        GeneratedSystem::exhaustive(&scenario)
    }

    #[test]
    fn batch_matches_per_set_path() {
        let system = system();
        let mut per_set_eval = Evaluator::new(&system);
        let mut batched = Evaluator::new(&system);
        let sets_a = StateSets::with_value_seen(system.table(), 3, Value::Zero);
        let id_a = per_set_eval.register_state_sets(sets_a.clone());
        let id_b = batched.register_state_sets(sets_a);
        assert_eq!(id_a, id_b);
        let mut per_set = Oracle::new(&per_set_eval);
        let family = [
            NonRigidSet::Everyone,
            NonRigidSet::Nonfaulty,
            NonRigidSet::NonfaultyAnd(id_a),
        ];
        let mut batch = BatchBuilder::new();
        for &s in &family {
            batch.request_reachability(s);
        }
        batch.run(&mut batched);
        for &s in &family {
            let got = batched.reachability(s);
            let want = per_set.reachability(s);
            assert_eq!(want.num_point_components(), got.num_point_components());
            for idx in 0..system.num_points() {
                assert_eq!(
                    want.point_component(idx),
                    got.point_component(idx),
                    "component of point {idx} under {s:?}"
                );
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
        let mut batch = BatchBuilder::new();
        batch.request_reachability(NonRigidSet::Nonfaulty);
        batch.run(&mut eval);
        let first = eval.reachability(NonRigidSet::Nonfaulty);
        let stats_before = eval.knowledge_cache().stats();
        batch.run(&mut eval);
        let second = eval.reachability(NonRigidSet::Nonfaulty);
        assert!(Arc::ptr_eq(&first, &second));
        // The memo answered without asking the shared cache, so its
        // counters did not move.
        assert_eq!(eval.knowledge_cache().stats(), stats_before);
    }

    #[test]
    fn batch_scopes_match_per_set_columns() {
        let system = system();
        let mut per_set_eval = Evaluator::new(&system);
        let mut batched = Evaluator::new(&system);
        let family = StateSets::with_value_seen(system.table(), 3, Value::One);
        let id_a = per_set_eval.register_state_sets(family.clone());
        let id_b = batched.register_state_sets(family);
        let mut per_set = Oracle::new(&per_set_eval);
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
