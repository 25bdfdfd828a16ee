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

use crate::enumerate::{self, Patterns};
use crate::symmetry;
use crate::{FailurePattern, InitialConfig, ModelError, Scenario};

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

    /// Splits the first `patterns` patterns of the axis (all of them when
    /// `patterns ≥ num_patterns`) into at most `requested` contiguous
    /// shards.
    ///
    /// Shard sizes differ by at most one pattern, empty shards are never
    /// produced (so fewer than `requested` shards come back when the
    /// prefix holds fewer patterns than that, and none for an empty
    /// prefix), and the division depends only on `(scenario, patterns,
    /// requested)` — the same inputs always produce the same shards.
    /// `requested` is clamped to at least 1.
    #[must_use]
    pub fn shards(&self, patterns: u128, requested: usize) -> Vec<Shard> {
        let patterns = patterns.min(self.num_patterns);
        let requested = (requested.max(1) as u128).min(patterns).max(1);
        let base = patterns / requested;
        let extra = patterns % requested;
        let mut out = Vec::with_capacity(requested as usize);
        let mut start = 0u128;
        for index in 0..requested {
            let len = if index < extra { base + 1 } else { base };
            if len == 0 {
                break;
            }
            out.push(Shard {
                index: index as usize,
                start,
                end: start + len,
            });
            start += len;
        }
        out
    }

    /// The patterns of one shard, in global enumeration order.
    #[must_use]
    pub fn shard_patterns(&self, shard: Shard) -> ShardPatterns {
        let mut inner = enumerate::patterns(&self.scenario);
        inner.seek(shard.start);
        ShardPatterns {
            inner,
            remaining: shard.len(),
        }
    }

    /// One representative per `Sym(n)` orbit of the pattern axis, with its
    /// multiplicity (orbit size), in enumeration order of the
    /// representatives — the pattern stream the symmetry-quotiented
    /// builder simulates. Every representative is its own canonical form
    /// (`symmetry::is_canonical`), and the multiplicities sum back to
    /// [`ScenarioSpace::num_patterns`] because the enumeration's canonical
    /// behavior conventions are themselves permutation-invariant.
    pub fn orbit_representatives(&self) -> impl Iterator<Item = (FailurePattern, u64)> + '_ {
        enumerate::patterns(&self.scenario).filter_map(|pattern| {
            let canon = symmetry::canonicalize(&pattern);
            (canon.canonical == pattern).then_some((pattern, canon.orbit_size))
        })
    }

    /// The number of pattern orbits under `Sym(n)` (the quotiented
    /// engine's pattern-axis size). Enumerates the space once; intended
    /// for reporting, not hot paths.
    #[must_use]
    pub fn count_orbits(&self) -> u128 {
        self.orbit_representatives().count() as u128
    }
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

/// Iterator over one shard's failure patterns; see
/// [`ScenarioSpace::shard_patterns`].
#[derive(Clone, Debug)]
pub struct ShardPatterns {
    inner: Patterns,
    remaining: u128,
}

impl Iterator for ShardPatterns {
    type Item = crate::FailurePattern;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.inner.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = usize::try_from(self.remaining).ok();
        (n.unwrap_or(usize::MAX), n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FailureMode, FailurePattern};

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
        // Prefixes of the axis, the whole axis, and past its end.
        for prefix in [1, 6, 13, total - 1, total, total + 9] {
            for k in [1, 2, 3, 5, 8, 1000] {
                let shards = space.shards(prefix, k);
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
        assert!(space.shards(0, 4).is_empty());
    }

    #[test]
    fn shard_patterns_concatenate_to_sequential_order() {
        for mode in [FailureMode::Crash, FailureMode::Omission] {
            let space = space(3, 1, mode, 2);
            let expected = sequential(&space);
            for k in [1, 2, 3, 4, 7] {
                let mut got = Vec::new();
                for shard in space.shards(space.num_patterns(), k) {
                    let chunk: Vec<_> = space.shard_patterns(shard).collect();
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
        let shards = space.shards(space.num_patterns(), 16);
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].len(), 1);
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
