//! The scenario space: deterministic sharding of a scenario's work.
//!
//! A generated system enumerates the cross product of a scenario's initial
//! configurations and failure patterns. [`ScenarioSpace`] describes that
//! product abstractly and splits the pattern axis into `K` deterministic,
//! contiguous [`Shard`]s so independent workers can each enumerate a slice
//! without materializing (or even counting through) the slices of the
//! others. Shards follow the exact order of [`enumerate::patterns`], so
//! concatenating the shards' output reproduces the sequential enumeration
//! bit for bit — the property the parallel system builder relies on to
//! assign identical ids regardless of worker count.
//!
//! Every split balances a *cover*: the raw ranges of the axis whose
//! patterns a build enumerates. An unreduced build covers the whole axis
//! ([`ScenarioSpace::whole_axis`]). The symmetry quotient needs only a
//! sliver of it: a canonical pattern carries its faulty set in the top
//! index block `{n−k..n−1}` ([`crate::symmetry`]), and each faulty set's
//! patterns are one contiguous block of the enumeration, so the `t + 1`
//! top-block ranges ([`ScenarioSpace::representative_ranges`]) hold every
//! orbit representative. Either way the shards partition the raw prefix
//! contiguously, and each shard's iterator yields only its covered
//! patterns.

use crate::enumerate::{self, Patterns};
use crate::{InitialConfig, ModelError, ProcSet, ProcessorId, Scenario};
use std::ops::Range;

/// The enumeration space of a scenario: all `(config, pattern)` pairs.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioSpace {
    scenario: Scenario,
    num_patterns: u128,
}

impl ScenarioSpace {
    /// The space of the given scenario.
    ///
    /// # Panics
    ///
    /// Panics with the rendered [`ModelError::CapacityExceeded`] when the
    /// scenario's pattern count overflows `u128`; see
    /// [`ScenarioSpace::try_new`] for the typed-error form.
    #[must_use]
    pub fn new(scenario: Scenario) -> Self {
        match ScenarioSpace::try_new(scenario) {
            Ok(space) => space,
            Err(e) => panic!("{e}"),
        }
    }

    /// The space of the given scenario, surfacing a typed
    /// [`ModelError::CapacityExceeded`] when the pattern count overflows
    /// the `u128` index arithmetic the space's sharding is built on.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::CapacityExceeded`] on overflow.
    pub fn try_new(scenario: Scenario) -> Result<Self, ModelError> {
        Ok(ScenarioSpace {
            scenario,
            num_patterns: enumerate::try_count_patterns(&scenario)?,
        })
    }

    /// The underlying scenario.
    #[must_use]
    pub fn scenario(&self) -> Scenario {
        self.scenario
    }

    /// The number of failure patterns ([`enumerate::count_patterns`]).
    #[must_use]
    pub fn num_patterns(&self) -> u128 {
        self.num_patterns
    }

    /// The number of initial configurations (`2^n`: every assignment of a
    /// binary initial value to each processor).
    #[must_use]
    pub fn num_configs(&self) -> u128 {
        1u128 << self.scenario.n()
    }

    /// The number of runs an exhaustive system over this space contains.
    #[must_use]
    pub fn total_runs(&self) -> u128 {
        self.num_patterns * self.num_configs()
    }

    /// All initial configurations, in enumeration order.
    pub fn configs(&self) -> impl Iterator<Item = InitialConfig> {
        InitialConfig::enumerate_all(self.scenario.n())
    }

    /// The whole axis as one raw range: the cover of an unreduced build.
    #[must_use]
    pub fn whole_axis(&self) -> Vec<Range<u128>> {
        vec![Range {
            start: 0,
            end: self.num_patterns,
        }]
    }

    /// The raw ranges of the axis that hold every `Sym(n)` orbit
    /// representative, in enumeration order: for each faulty-set size
    /// `k ≤ t`, the patterns whose faulty set is the top index block
    /// `{n−k..n−1}`. A canonical pattern always has that faulty set
    /// ([`crate::symmetry`]), so the ranges hold every representative;
    /// they are computed from counts alone.
    #[must_use]
    pub fn representative_ranges(&self) -> Vec<Range<u128>> {
        let (n, t) = (self.scenario.n(), self.scenario.t());
        let per_proc = enumerate::try_behaviors_per_processor(&self.scenario)
            .expect("try_new counted every block of the axis");
        let mut out = Vec::with_capacity(t + 1);
        let mut start = 0u128;
        for set in enumerate::faulty_sets(n, t) {
            let k = set.len();
            let block = per_proc.pow(k as u32);
            let top: ProcSet = (n - k..n).map(ProcessorId::new).collect();
            if set == top {
                out.push(start..start + block);
            }
            start += block;
        }
        out
    }

    /// Splits the first `patterns` patterns of the axis (all of them when
    /// `patterns ≥ num_patterns`) into at most `requested` contiguous
    /// shards that balance the prefix's *covered* patterns, those inside
    /// the raw ranges of `cover` (disjoint, in increasing order): covered
    /// counts differ by at most one between shards. With the whole axis
    /// as cover, shard sizes differ by at most one pattern.
    ///
    /// The shards partition the raw prefix contiguously: shard 0 starts
    /// at 0, every later shard at its first covered pattern, and the last
    /// ends at the prefix's end. No shard is empty of covered patterns
    /// (so fewer than `requested` shards come back when the prefix covers
    /// fewer patterns than that, and none when it covers none), and the
    /// division depends only on `(scenario, cover, patterns, requested)`
    /// — the same inputs always produce the same shards. `requested` is
    /// clamped to at least 1.
    #[must_use]
    pub fn shards(&self, cover: &[Range<u128>], patterns: u128, requested: usize) -> Vec<Shard> {
        let patterns = patterns.min(self.num_patterns);
        let covered = clip(cover, 0..patterns);
        // The raw index of the prefix's `c`-th covered pattern.
        let raw = |mut c: u128| {
            for r in &covered {
                if c < r.end - r.start {
                    return r.start + c;
                }
                c -= r.end - r.start;
            }
            patterns
        };
        let total = covered.iter().map(|r| r.end - r.start).sum();
        let starts: Vec<u128> = balanced_starts(total, requested)
            .map(|c| if c == 0 { 0 } else { raw(c) })
            .collect();
        starts
            .iter()
            .enumerate()
            .map(|(index, &start)| Shard {
                index,
                start,
                end: starts.get(index + 1).copied().unwrap_or(patterns),
            })
            .collect()
    }

    /// The patterns of one shard inside the raw ranges of `cover`, in
    /// global enumeration order. The iterator seeks once per range.
    #[must_use]
    pub fn shard_patterns(&self, shard: Shard, cover: &[Range<u128>]) -> ShardPatterns {
        ShardPatterns {
            inner: enumerate::patterns(&self.scenario),
            ranges: clip(cover, shard.start..shard.end).into_iter(),
            remaining: 0,
        }
    }
}

/// The starts of `total` items split into at most `requested` contiguous,
/// nonempty slices whose lengths differ by at most one.
fn balanced_starts(total: u128, requested: usize) -> impl Iterator<Item = u128> {
    let count = (requested.max(1) as u128).min(total);
    let base = total.checked_div(count).unwrap_or(0);
    let extra = total.checked_rem(count).unwrap_or(0);
    (0..count).map(move |index| index * base + index.min(extra))
}

/// The nonempty intersections of `ranges` with `within`, in order.
fn clip(ranges: &[Range<u128>], within: Range<u128>) -> Vec<Range<u128>> {
    ranges
        .iter()
        .map(|r| r.start.max(within.start)..r.end.min(within.end))
        .filter(|r| r.start < r.end)
        .collect()
}

/// A contiguous slice `[start, end)` of a scenario's pattern enumeration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Shard {
    index: usize,
    start: u128,
    end: u128,
}

impl Shard {
    /// This shard's position among its siblings (0-based).
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// The global index of the shard's first pattern.
    #[must_use]
    pub fn start(&self) -> u128 {
        self.start
    }

    /// One past the global index of the shard's last pattern.
    #[must_use]
    pub fn end(&self) -> u128 {
        self.end
    }

    /// The number of patterns in the shard.
    #[must_use]
    pub fn len(&self) -> u128 {
        self.end - self.start
    }

    /// Whether the shard holds no patterns (never true for shards built by
    /// [`ScenarioSpace::shards`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Iterator over one shard's covered patterns; see
/// [`ScenarioSpace::shard_patterns`].
#[derive(Clone, Debug)]
pub struct ShardPatterns {
    inner: Patterns,
    ranges: std::vec::IntoIter<Range<u128>>,
    /// Patterns left in the range `inner` is positioned in.
    remaining: u128,
}

impl Iterator for ShardPatterns {
    type Item = crate::FailurePattern;

    fn next(&mut self) -> Option<Self::Item> {
        while self.remaining == 0 {
            let range = self.ranges.next()?;
            self.inner.seek(range.start);
            self.remaining = range.end - range.start;
        }
        self.remaining -= 1;
        self.inner.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.remaining
            + self
                .ranges
                .as_slice()
                .iter()
                .map(|r| r.end - r.start)
                .sum::<u128>();
        let n = usize::try_from(left).ok();
        (n.unwrap_or(usize::MAX), n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{symmetry, FailureMode, FailurePattern};

    fn space(n: usize, t: usize, mode: FailureMode, horizon: u16) -> ScenarioSpace {
        ScenarioSpace::new(Scenario::new(n, t, mode, horizon).unwrap())
    }

    fn sequential(space: &ScenarioSpace) -> Vec<FailurePattern> {
        enumerate::patterns(&space.scenario()).collect()
    }

    #[test]
    fn shards_partition_the_pattern_axis() {
        let space = space(3, 2, FailureMode::Crash, 2);
        let total = space.num_patterns();
        let all = space.whole_axis();
        // Prefixes of the axis, the whole axis, and past its end.
        for prefix in [1, 6, 13, total - 1, total, total + 9] {
            for k in [1, 2, 3, 5, 8, 1000] {
                let shards = space.shards(&all, prefix, k);
                assert!(!shards.is_empty());
                assert!(shards.len() <= k.max(1));
                assert_eq!(shards[0].start(), 0);
                assert_eq!(shards.last().unwrap().end(), prefix.min(total));
                for pair in shards.windows(2) {
                    assert_eq!(pair[0].end(), pair[1].start());
                    // Balanced: sizes differ by at most one.
                    assert!(pair[0].len().abs_diff(pair[1].len()) <= 1);
                }
                for (i, shard) in shards.iter().enumerate() {
                    assert_eq!(shard.index(), i);
                    assert!(!shard.is_empty());
                }
            }
        }
        assert!(space.shards(&all, 0, 4).is_empty());
    }

    #[test]
    fn shard_patterns_concatenate_to_sequential_order() {
        for mode in [FailureMode::Crash, FailureMode::Omission] {
            let space = space(3, 1, mode, 2);
            let expected = sequential(&space);
            let all = space.whole_axis();
            for k in [1, 2, 3, 4, 7] {
                let mut got = Vec::new();
                for shard in space.shards(&all, space.num_patterns(), k) {
                    let chunk: Vec<_> = space.shard_patterns(shard, &all).collect();
                    assert_eq!(chunk.len() as u128, shard.len());
                    got.extend(chunk);
                }
                assert_eq!(got, expected, "mode {mode:?}, {k} shards");
            }
        }
    }

    #[test]
    fn seek_matches_skip() {
        let space = space(3, 2, FailureMode::Crash, 2);
        let expected = sequential(&space);
        for index in [0u128, 1, 7, 24, 25, 100, expected.len() as u128 - 1] {
            let mut iter = enumerate::patterns(&space.scenario());
            iter.seek(index);
            assert_eq!(iter.next().as_ref(), expected.get(index as usize));
        }
        // Seeking to the end (or past it) exhausts the iterator.
        let mut iter = enumerate::patterns(&space.scenario());
        iter.seek(expected.len() as u128);
        assert_eq!(iter.next(), None);
        let mut iter = enumerate::patterns(&space.scenario());
        iter.seek(u128::from(u64::MAX));
        assert_eq!(iter.next(), None);
    }

    #[test]
    fn more_workers_than_patterns_collapses_gracefully() {
        let space = space(3, 0, FailureMode::Crash, 1);
        assert_eq!(space.num_patterns(), 1);
        let shards = space.shards(&space.whole_axis(), space.num_patterns(), 16);
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].len(), 1);
    }

    #[test]
    fn per_processor_closed_form_matches_the_behavior_lists() {
        for mode in [
            FailureMode::Crash,
            FailureMode::Omission,
            FailureMode::GeneralOmission,
        ] {
            for (n, horizon) in [(2, 1), (3, 2), (4, 1)] {
                let scenario = Scenario::new(n, 1, mode, horizon).unwrap();
                for p in ProcessorId::all(n) {
                    assert_eq!(
                        enumerate::try_behaviors_per_processor(&scenario).unwrap(),
                        enumerate::behaviors(&scenario, p).len() as u128,
                        "{scenario}"
                    );
                }
            }
        }
    }

    /// Whether `index` lies in one of `ranges`.
    fn inside(ranges: &[Range<u128>], index: u128) -> bool {
        ranges.iter().any(|r| r.contains(&index))
    }

    #[test]
    fn representative_ranges_hold_exactly_the_top_block_patterns() {
        for space in [
            space(3, 2, FailureMode::Crash, 1),
            space(4, 2, FailureMode::Crash, 2),
            space(3, 1, FailureMode::Omission, 2),
            space(3, 2, FailureMode::GeneralOmission, 1),
        ] {
            let n = space.scenario().n();
            let ranges = space.representative_ranges();
            assert_eq!(ranges.len(), space.scenario().t() + 1);
            for (index, pattern) in sequential(&space).iter().enumerate() {
                let k = pattern.faulty_set().len();
                let top: ProcSet = (n - k..n).map(ProcessorId::new).collect();
                assert_eq!(
                    inside(&ranges, index as u128),
                    pattern.faulty_set() == top,
                    "pattern {index} of {}",
                    space.scenario()
                );
                if symmetry::is_canonical(pattern) {
                    assert!(inside(&ranges, index as u128));
                }
            }
        }
    }

    #[test]
    fn representative_shards_partition_the_prefix_and_balance_candidates() {
        let space = space(4, 2, FailureMode::Crash, 2);
        let total = space.num_patterns();
        let all = space.whole_axis();
        let ranges = space.representative_ranges();
        let top = ranges.last().unwrap().clone();
        let candidates_in = |shard: &Shard| {
            (shard.start()..shard.end())
                .filter(|&i| inside(&ranges, i))
                .count()
        };
        // Prefixes ending before, inside and after the size-t range.
        for prefix in [
            1,
            2,
            40,
            top.start,
            top.start + 7,
            top.end - 1,
            total,
            total + 3,
        ] {
            for k in [1, 2, 3, 8, 64, 1000] {
                let shards = space.shards(&ranges, prefix, k);
                assert!(!shards.is_empty() && shards.len() <= k);
                assert_eq!(shards[0].start(), 0);
                assert_eq!(shards.last().unwrap().end(), prefix.min(total));
                for pair in shards.windows(2) {
                    assert_eq!(pair[0].end(), pair[1].start());
                    assert!(candidates_in(&pair[0]).abs_diff(candidates_in(&pair[1])) <= 1);
                }
                for (i, shard) in shards.iter().enumerate() {
                    assert_eq!(shard.index(), i);
                    assert!(candidates_in(shard) > 0, "prefix {prefix}, {k} shards");
                    let got: Vec<_> = space.shard_patterns(*shard, &ranges).collect();
                    let expected: Vec<_> = space
                        .shard_patterns(*shard, &all)
                        .zip(shard.start()..)
                        .filter(|&(_, i)| inside(&ranges, i))
                        .map(|(q, _)| q)
                        .collect();
                    assert_eq!(got, expected);
                }
            }
        }
        assert!(space.shards(&ranges, 0, 4).is_empty());
    }

    #[test]
    fn shards_start_at_zero_whatever_the_cover() {
        let space = space(3, 2, FailureMode::Crash, 2);
        // The prefix 0..21 covers 5, 6, 7, 8 and 20: blocks of 2, 2 and 1.
        let shards = space.shards(&[5..9, 20..22], 21, 3);
        let bounds: Vec<_> = shards.iter().map(|s| (s.start(), s.end())).collect();
        assert_eq!(bounds, [(0, 7), (7, 20), (20, 21)]);
    }

    #[test]
    fn totals_are_consistent() {
        let space = space(3, 1, FailureMode::Crash, 2);
        assert_eq!(space.num_configs(), 8);
        assert_eq!(space.num_patterns(), 25);
        assert_eq!(space.total_runs(), 200);
        assert_eq!(space.configs().count() as u128, space.num_configs());
    }
}
