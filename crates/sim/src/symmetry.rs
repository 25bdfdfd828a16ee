//! Symmetry metadata of quotiented systems: orbit accounting, run
//! resolution through witness permutations, and view orbit classes.
//!
//! A symmetry-quotiented [`GeneratedSystem`](crate::GeneratedSystem)
//! contains one run per `Sym(n)`-orbit of the pattern axis (the canonical
//! pattern, crossed with **every** initial configuration; see
//! `eba_model::symmetry`). This module holds everything the quotient
//! needs beyond the runs themselves:
//!
//! * [`SymmetryInfo`] — per-representative orbit sizes and the raw
//!   pattern counts they stand for, attached to the system by the
//!   builder;
//! * run resolution — answering a query about a *non-representative*
//!   run `(c, q)` by canonicalizing `q`, relabeling `c` through the
//!   witness permutation, and pointing at the representative run
//!   ([`crate::GeneratedSystem::resolve_run`]);
//! * [`ViewClasses`] — the partition of the interned views into
//!   relabeling orbits (`class(v) = class(w)` iff some permutation
//!   carries `v`'s content onto `w`'s), which is what lets the knowledge
//!   kernels of `eba-kripke` evaluate symmetric formulas on the reduced
//!   system exactly (DESIGN.md §4i).
//!
//! View classes are computed by hashing, for every permutation `π`, the
//! relabeled content of every view bottom-up (children have smaller ids
//! under hash-consing, so a single in-order pass per `π` suffices) and
//! taking the minimum over `π` as the orbit key. The table is decoded once
//! into flat child rows for all `n!` passes, and the builder computes the
//! classes right after its merge. The 128-bit mixing keeps accidental
//! collisions out of reach of any feasible space; the differential suite
//! cross-checks the resulting semantics against the unreduced oracle bit
//! for bit.

use crate::view::{ViewId, ViewNode, ViewTable};
use eba_model::fasthash::FastMap;
use eba_model::symmetry::{canonicalize, Perm};
use eba_model::{FailurePattern, InitialConfig, ProcessorId};

/// Orbit accounting of a symmetry-quotiented system, attached by the
/// builder and surfaced through
/// [`crate::GeneratedSystem::symmetry`].
#[derive(Debug)]
pub struct SymmetryInfo {
    /// `orbit_sizes[k]` is the orbit size of the `k`-th representative
    /// pattern, in enumeration order — aligned with the run layout
    /// (representative `k` owns runs `k·2^n .. (k+1)·2^n`).
    orbit_sizes: Vec<u64>,
    /// Raw patterns the representatives stand for (`Σ orbit_sizes`).
    raw_covered: u128,
    /// Raw pattern count of the full (unreduced) space; equals
    /// `raw_covered` for a complete build, larger for budget prefixes and
    /// pinned extensions.
    raw_total: u128,
    /// The view orbit classes of the system's table, computed by the
    /// builder right after its merge.
    classes: ViewClasses,
}

impl SymmetryInfo {
    /// Assembles the accounting from per-representative orbit sizes, the
    /// raw pattern count of the full space and the view orbit classes of
    /// the system's table.
    #[must_use]
    pub(crate) fn new(orbit_sizes: Vec<u64>, raw_total: u128, classes: ViewClasses) -> Self {
        let raw_covered = orbit_sizes.iter().map(|&s| u128::from(s)).sum();
        SymmetryInfo {
            orbit_sizes,
            raw_covered,
            raw_total,
            classes,
        }
    }

    /// Number of pattern-orbit representatives the system holds.
    #[must_use]
    pub fn num_orbits(&self) -> usize {
        self.orbit_sizes.len()
    }

    /// Orbit sizes per representative, in enumeration (= run layout)
    /// order.
    #[must_use]
    pub fn orbit_sizes(&self) -> &[u64] {
        &self.orbit_sizes
    }

    /// Raw patterns the built representatives stand for.
    #[must_use]
    pub fn raw_patterns_covered(&self) -> u128 {
        self.raw_covered
    }

    /// Raw pattern count of the full unreduced space.
    #[must_use]
    pub fn raw_pattern_total(&self) -> u128 {
        self.raw_total
    }

    /// Raw patterns per built representative — the symmetry reduction
    /// factor of the pattern axis (1.0 when nothing was reduced).
    #[must_use]
    pub fn reduction_ratio(&self) -> f64 {
        if self.orbit_sizes.is_empty() {
            1.0
        } else {
            self.raw_covered as f64 / self.orbit_sizes.len() as f64
        }
    }

    /// The view orbit classes of the system's table.
    #[must_use]
    pub fn classes(&self) -> &ViewClasses {
        &self.classes
    }
}

/// Resolves a run query through the symmetry quotient: canonicalize the
/// pattern, relabel the configuration through the witness, and look the
/// representative up in `find_run`. Returns the representative's id and
/// the witness `σ` with `σ·(config, pattern) = representative`; the
/// identity permutation when the run is present verbatim.
pub(crate) fn resolve_run(
    find_run: impl Fn(&InitialConfig, &FailurePattern) -> Option<crate::RunId>,
    n: usize,
    config: &InitialConfig,
    pattern: &FailurePattern,
) -> Option<(crate::RunId, Perm)> {
    if let Some(r) = find_run(config, pattern) {
        return Some((r, Perm::identity(n)));
    }
    let canon = canonicalize(pattern);
    let relabeled = canon.witness.apply_config(config);
    find_run(&relabeled, &canon.canonical).map(|r| (r, canon.witness))
}

/// The partition of a [`ViewTable`]'s views into relabeling orbits:
/// `class(v) = class(w)` iff some processor permutation carries `v`'s
/// full-information content onto `w`'s. Two views in the same class are
/// exactly the local states that some relabeled run maps onto each other,
/// which is the indistinguishability the quotiented knowledge kernels
/// aggregate over.
#[derive(Clone, Debug)]
pub struct ViewClasses {
    class_of: Vec<u32>,
    n: usize,
    /// CSR offsets into `members`, indexed by `class × n + owner`.
    offsets: Vec<u32>,
    /// The views of every class, grouped by class, then by owner, in
    /// increasing id order.
    members: Vec<ViewId>,
}

/// 128-bit multiplicative rotate-xor mix (the `fxhash` recipe widened to
/// `u128`); deterministic and dependency-free. Public so the quotiented
/// distributed-knowledge kernel of `eba-kripke` can fold the per-view
/// hashes of [`for_each_permuted_hashes`] into joint keys with the same
/// collision margin.
#[inline]
#[must_use]
pub fn mix(h: u128, word: u128) -> u128 {
    const SEED: u128 = 0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c835;
    (h.rotate_left(7) ^ word).wrapping_mul(SEED)
}

/// Calls `f(π, hashes)` for every permutation `π` of `Sym(n)` with the
/// content hash of every view of `table` relabeled through `π`
/// (`hashes[v] = h(π·v)`). Two views relabel onto each other under `π`
/// exactly when their hashes match (up to the 128-bit collision margin);
/// this is the primitive behind [`ViewClasses`] and the canonical joint
/// keys of quotiented distributed knowledge. The table is decoded once
/// for all `n!` passes.
///
/// # Panics
///
/// Panics on digest states (symmetry is gated to the full-information
/// exchange) and when `n` exceeds
/// [`eba_model::symmetry::MAX_SYMMETRY_N`].
pub fn for_each_permuted_hashes(table: &ViewTable, n: usize, mut f: impl FnMut(&Perm, &[u128])) {
    let rows = flat_rows(table, n);
    let mut cur = vec![0u128; table.len()];
    let mut sources = vec![0usize; n];
    let mut leaves = vec![0u128; 2 * n];
    for perm in &Perm::all(n) {
        // Slot `j` of a relabeled row holds what `π⁻¹(j)` sent.
        for i in 0..n {
            let image = perm.apply(ProcessorId::new(i)).index();
            sources[image] = i + 1;
            for value in 0..2 {
                leaves[2 * i + value] = mix(mix(1, image as u128), value as u128);
            }
        }
        for (id, row) in rows.chunks_exact(n + 1).enumerate() {
            cur[id] = if row[0] == LEAF {
                leaves[row[1] as usize]
            } else {
                let mut h = mix(2, cur[row[0] as usize]);
                for &source in &sources {
                    h = match row[source] {
                        NONE => mix(h, u128::MAX - 1),
                        v => mix(h, cur[v as usize]),
                    };
                }
                h
            };
        }
        f(perm, &cur);
    }
}

const LEAF: u32 = u32::MAX;
const NONE: u32 = u32::MAX;

/// `table` decoded into flat rows of `n + 1` words, so the `n!` hashing
/// passes read plain integers: a node's row is its `prev`, then its
/// received row (`NONE` for `⊥`); a leaf's row is `LEAF`, then its owner
/// and value packed as `2·owner + value`. A child's id is smaller than
/// its parent's, so no id in a row can equal `u32::MAX`.
fn flat_rows(table: &ViewTable, n: usize) -> Vec<u32> {
    let mut rows = Vec::with_capacity(table.len() * (n + 1));
    for id in table.ids() {
        match table.node(id) {
            ViewNode::Leaf { proc, value } => {
                rows.push(LEAF);
                rows.push(2 * proc.index() as u32 + value as u32);
                rows.resize(rows.len() + n - 1, 0);
            }
            ViewNode::Node { prev, received } => {
                debug_assert_eq!(received.len(), n);
                rows.push(prev.index() as u32);
                rows.extend(
                    received
                        .iter()
                        .map(|v| v.map_or(NONE, |v| v.index() as u32)),
                );
            }
            ViewNode::Digest(_) => {
                panic!("symmetry quotient requires the full-information exchange")
            }
        }
    }
    rows
}

/// Lowers every `acc[v]` to `keys[v]` where that is smaller.
fn fold_min(acc: &mut [u128], keys: &[u128]) {
    for (slot, &h) in acc.iter_mut().zip(keys) {
        if h < *slot {
            *slot = h;
        }
    }
}

impl ViewClasses {
    /// Computes the orbit classes of every view in `table` under
    /// `Sym(n)`: one bottom-up pass per permutation hashing the relabeled
    /// content, minimum over permutations as the orbit key, then a dense
    /// first-encounter renumbering (deterministic for a deterministic
    /// table).
    ///
    /// # Panics
    ///
    /// As [`for_each_permuted_hashes`].
    #[must_use]
    pub(crate) fn compute(table: &ViewTable, n: usize) -> ViewClasses {
        let mut min_hash = vec![u128::MAX; table.len()];
        for_each_permuted_hashes(table, n, |_, cur| fold_min(&mut min_hash, cur));
        ViewClasses::from_keys(table, n, &min_hash)
    }

    /// The classes whose members share an orbit key: dense class numbers
    /// in first-encounter order, and the members grouped by
    /// `(class, owner)`.
    fn from_keys(table: &ViewTable, n: usize, keys: &[u128]) -> ViewClasses {
        let len = table.len();
        let mut renumber: FastMap<u128, u32> = FastMap::default();
        let mut class_of = Vec::with_capacity(len);
        for &key in keys {
            let next = renumber.len() as u32;
            class_of.push(*renumber.entry(key).or_insert(next));
        }
        let num_classes = renumber.len();
        // Counting sort of the views by (class, owner).
        let slot = |v: ViewId, c: u32| c as usize * n + table.proc(v).index();
        let mut offsets = vec![0u32; num_classes * n + 1];
        for (v, &c) in table.ids().zip(&class_of) {
            offsets[slot(v, c) + 1] += 1;
        }
        for k in 1..offsets.len() {
            offsets[k] += offsets[k - 1];
        }
        let mut cursor = offsets.clone();
        let mut members = vec![ViewId::from_index(0); len];
        for (v, &c) in table.ids().zip(&class_of) {
            members[cursor[slot(v, c)] as usize] = v;
            cursor[slot(v, c)] += 1;
        }
        ViewClasses {
            class_of,
            n,
            offsets,
            members,
        }
    }

    /// The orbit class of view `v`.
    #[must_use]
    pub fn class(&self, v: ViewId) -> u32 {
        self.class_of[v.index()]
    }

    /// Number of distinct classes.
    #[must_use]
    pub fn num_classes(&self) -> usize {
        (self.offsets.len() - 1) / self.n
    }

    /// The views of class `c` that processor `p` owns, in increasing id
    /// order.
    #[must_use]
    pub fn members(&self, c: usize, p: ProcessorId) -> &[ViewId] {
        let k = c * self.n + p.index();
        &self.members[self.offsets[k] as usize..self.offsets[k + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exchange::try_exchange_views;
    use eba_model::symmetry::orbit_members;
    use eba_model::{enumerate, ExchangeKind, FailureMode, ProcessorId, Scenario, Value};

    fn p(i: usize) -> ProcessorId {
        ProcessorId::new(i)
    }

    type RunRows = Vec<(InitialConfig, FailurePattern, Vec<Vec<ViewId>>)>;

    /// Builds the views of every `(config, pattern)` run of the scenario
    /// into one table, returning `(table, views[run_key] = rows)`.
    fn all_views(scenario: &Scenario) -> (ViewTable, RunRows) {
        let mut table = ViewTable::new();
        let mut rows = Vec::new();
        for pattern in enumerate::patterns(scenario) {
            for config in InitialConfig::enumerate_all(scenario.n()) {
                let views = try_exchange_views(
                    ExchangeKind::FullInformation,
                    &config,
                    &pattern,
                    scenario.horizon(),
                    &mut table,
                )
                .unwrap();
                rows.push((config, pattern.clone(), views));
            }
        }
        (table, rows)
    }

    /// The per-node walk the flat decode replaced, kept as the reference:
    /// `hashes[π][v] = h(π·v)` through [`ViewTable::node`].
    fn reference_hashes(table: &ViewTable, n: usize) -> Vec<Vec<u128>> {
        Perm::all(n)
            .iter()
            .map(|perm| {
                let inv = perm.inverse();
                let mut cur = vec![0u128; table.len()];
                for id in table.ids() {
                    cur[id.index()] = match table.node(id) {
                        ViewNode::Leaf { proc, value } => {
                            let h = mix(1, u128::from(perm.apply(proc).index() as u64));
                            mix(h, u128::from(value as u64))
                        }
                        ViewNode::Node { prev, received } => {
                            let mut h = mix(2, cur[prev.index()]);
                            for j in 0..n {
                                h = match received[inv.apply(p(j)).index()] {
                                    Some(v) => mix(h, cur[v.index()]),
                                    None => mix(h, u128::MAX - 1),
                                };
                            }
                            h
                        }
                        ViewNode::Digest(_) => unreachable!("full-information tables only"),
                    };
                }
                cur
            })
            .collect()
    }

    /// The reference classes: the minimum of the reference hashes over
    /// `Sym(n)`, renumbered as the production path does.
    fn reference_classes(table: &ViewTable, n: usize) -> ViewClasses {
        let mut keys = vec![u128::MAX; table.len()];
        for hashes in reference_hashes(table, n) {
            fold_min(&mut keys, &hashes);
        }
        ViewClasses::from_keys(table, n, &keys)
    }

    fn assert_same_classes(a: &ViewClasses, b: &ViewClasses, table: &ViewTable, what: &str) {
        assert_eq!(a.num_classes(), b.num_classes(), "{what}");
        for v in table.ids() {
            assert_eq!(a.class(v), b.class(v), "{what}: view {v:?}");
        }
        for c in 0..a.num_classes() {
            for q in ProcessorId::all(a.n) {
                assert_eq!(a.members(c, q), b.members(c, q), "{what}: class {c}, {q}");
            }
        }
    }

    #[test]
    fn view_classes_match_the_per_node_walk_at_every_thread_count() {
        use crate::SystemBuilder;
        let scenarios = [
            Scenario::new(3, 1, FailureMode::Crash, 3).unwrap(),
            Scenario::new(3, 2, FailureMode::Omission, 2).unwrap(),
            Scenario::new(3, 1, FailureMode::GeneralOmission, 2).unwrap(),
            Scenario::new(4, 2, FailureMode::Crash, 2).unwrap(),
        ];
        for threads in [1, 2, 4, 8] {
            let quotient = |scenario: &Scenario| {
                SystemBuilder::new(scenario)
                    .threads(threads)
                    .symmetry(true)
                    .build()
                    .unwrap()
            };
            let mut systems: Vec<_> = scenarios.iter().map(quotient).collect();
            let base = quotient(&Scenario::new(3, 2, FailureMode::Crash, 2).unwrap());
            let target = base.scenario().with_horizon(3).unwrap();
            let extended = SystemBuilder::new(&target).threads(threads).extend(&base);
            systems.push(extended.unwrap().0);
            for system in &systems {
                let (table, n) = (system.table(), system.n());
                let what = format!("{}, {threads} threads", system.scenario());
                let classes = system.symmetry().unwrap().classes();
                assert_same_classes(classes, &reference_classes(table, n), table, &what);
                // The D_S merge reads the same per-permutation hashes.
                let expected = reference_hashes(table, n);
                let mut k = 0;
                for_each_permuted_hashes(table, n, |perm, hashes| {
                    assert_eq!(*perm, Perm::all(n)[k]);
                    assert_eq!(hashes, expected[k].as_slice(), "{what}, permutation {k}");
                    k += 1;
                });
                assert_eq!(k, expected.len());
            }
        }
    }

    #[test]
    fn view_classes_identify_relabeled_views() {
        // π carries the view of q at (c, pat) onto the view of π(q) at
        // (π·c, π·pat); the class partition must identify exactly those.
        let scenario = Scenario::new(3, 1, FailureMode::Crash, 2).unwrap();
        let (table, rows) = all_views(&scenario);
        let classes = ViewClasses::compute(&table, 3);
        for (config, pattern, views) in &rows {
            for perm in Perm::all(3) {
                let rc = perm.apply_config(config);
                let rp = perm.apply_pattern(pattern);
                let (_, _, relabeled) = rows
                    .iter()
                    .find(|(c, q, _)| *c == rc && *q == rp)
                    .expect("the full space is closed under relabeling");
                for time in 0..=2usize {
                    for q in 0..3 {
                        let a = views[time][q];
                        let b = relabeled[time][perm.apply(p(q)).index()];
                        assert_eq!(
                            classes.class(a),
                            classes.class(b),
                            "relabeled views must share a class"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn view_classes_do_not_merge_distinct_orbits() {
        // Within one run, views with different content classes must stay
        // apart unless a permutation really maps them: check the simplest
        // separator — class-mates always share time and own-value
        // multiset properties that are permutation-invariant.
        let scenario = Scenario::new(3, 1, FailureMode::Omission, 2).unwrap();
        let (table, _) = all_views(&scenario);
        let classes = ViewClasses::compute(&table, 3);
        for a in table.ids() {
            for b in table.ids() {
                if classes.class(a) == classes.class(b) {
                    assert_eq!(table.time(a), table.time(b));
                    assert_eq!(table.own_value(a), table.own_value(b));
                    assert_eq!(table.known_procs(a).len(), table.known_procs(b).len());
                    assert_eq!(table.exists_zero(a), table.exists_zero(b));
                    assert_eq!(table.exists_one(a), table.exists_one(b));
                }
            }
        }
    }

    #[test]
    fn leaf_classes_collapse_processor_identity_only() {
        let mut table = ViewTable::new();
        let a = table.leaf(p(0), Value::Zero);
        let b = table.leaf(p(2), Value::Zero);
        let c = table.leaf(p(1), Value::One);
        let classes = ViewClasses::compute(&table, 3);
        assert_eq!(classes.class(a), classes.class(b));
        assert_ne!(classes.class(a), classes.class(c));
        assert_eq!(classes.num_classes(), 2);
        assert_eq!(classes.members(classes.class(a) as usize, p(0)), [a]);
        assert_eq!(classes.members(classes.class(a) as usize, p(2)), [b]);
        assert!(classes.members(classes.class(a) as usize, p(1)).is_empty());
        assert_eq!(classes.members(classes.class(c) as usize, p(1)), [c]);
    }

    #[test]
    fn symmetry_info_accounting() {
        let scenario = Scenario::new(3, 1, FailureMode::Crash, 2).unwrap();
        let mut sizes = Vec::new();
        let mut raw = 0u128;
        for pattern in enumerate::patterns(&scenario) {
            raw += 1;
            if eba_model::symmetry::is_canonical(&pattern) {
                sizes.push(orbit_members(&pattern).len() as u64);
            }
        }
        let classes = ViewClasses::compute(&ViewTable::new(), 3);
        let info = SymmetryInfo::new(sizes.clone(), raw, classes);
        assert_eq!(info.num_orbits(), sizes.len());
        assert_eq!(info.raw_patterns_covered(), raw);
        assert_eq!(info.raw_pattern_total(), raw);
        assert!(info.reduction_ratio() > 1.0);
    }

    #[test]
    fn class_count_matches_brute_force_orbits() {
        // Brute force: group views by their orbit of rendered relabeled
        // content; the hashed partition must agree exactly.
        let scenario = Scenario::new(3, 1, FailureMode::Crash, 1).unwrap();
        let (table, rows) = all_views(&scenario);
        let classes = ViewClasses::compute(&table, 3);
        // Render every relabeled run and map each view id to the set of
        // renders of its orbit; the minimum render is an exact orbit key.
        let mut orbit_key: Vec<Option<String>> = vec![None; table.len()];
        for (config, pattern, views) in &rows {
            for perm in Perm::all(3) {
                let rc = perm.apply_config(config);
                let rp = perm.apply_pattern(pattern);
                let (_, _, relabeled) = rows.iter().find(|(c, q, _)| *c == rc && *q == rp).unwrap();
                for time in 0..=1usize {
                    for q in 0..3 {
                        let orig = views[time][q];
                        let image = relabeled[time][perm.apply(p(q)).index()];
                        let render = table.render(image);
                        let slot = &mut orbit_key[orig.index()];
                        match slot {
                            Some(best) if *best <= render => {}
                            _ => *slot = Some(render),
                        }
                    }
                }
            }
        }
        for a in table.ids() {
            for b in table.ids() {
                assert_eq!(
                    classes.class(a) == classes.class(b),
                    orbit_key[a.index()] == orbit_key[b.index()],
                    "hashed partition disagrees with brute force on {a:?} vs {b:?}"
                );
            }
        }
    }
}
