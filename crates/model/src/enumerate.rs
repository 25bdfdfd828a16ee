//! Exhaustive enumeration of faulty behaviors and failure patterns.
//!
//! The generated systems of the reproduction are built by enumerating *all*
//! failure patterns of a [`Scenario`] (together with all initial
//! configurations). Enumeration is exact but exponential; see
//! [`count_patterns`] to estimate a scenario's size before generating it.
//!
//! Canonical encodings avoid double-counting runs that are identical inside
//! the horizon:
//!
//! * crash mode: [`FaultyBehavior::Clean`] represents "fails after the
//!   horizon"; a crash in the last round that delivers to everyone is
//!   *not* emitted (it would be indistinguishable from `Clean`);
//! * omission mode: the all-empty omission vector plays the role of
//!   `Clean`, which is therefore not emitted separately.

use crate::procset::subsets;
use crate::{
    FailureMode, FailurePattern, FaultyBehavior, ModelError, ProcSet, ProcessorId, Round, Scenario,
    Time,
};

/// Enumerates all crash-mode faulty behaviors of processor `p` in a system
/// of `n` processors within `horizon`.
///
/// Includes [`FaultyBehavior::Clean`] and every `Crash { round, receivers }`
/// with `round ≤ horizon` and `receivers` a subset of the other processors,
/// except the crash-at-last-round-delivering-to-all behavior, which is
/// indistinguishable from `Clean` inside the horizon.
#[must_use]
pub fn crash_behaviors(p: ProcessorId, n: usize, horizon: Time) -> Vec<FaultyBehavior> {
    let others = ProcSet::full(n) - ProcSet::singleton(p);
    let mut out = vec![FaultyBehavior::Clean];
    for round in Round::upto(horizon) {
        for receivers in subsets(others) {
            if round.end() == horizon && receivers == others {
                continue; // indistinguishable from Clean inside the horizon
            }
            out.push(FaultyBehavior::Crash { round, receivers });
        }
    }
    out
}

/// Enumerates all omission-mode faulty behaviors of processor `p` in a
/// system of `n` processors within `horizon`: every vector of per-round
/// omission sets. The all-empty vector (no deviation inside the horizon)
/// is included and serves as the canonical "clean" behavior.
#[must_use]
pub fn omission_behaviors(p: ProcessorId, n: usize, horizon: Time) -> Vec<FaultyBehavior> {
    let others = ProcSet::full(n) - ProcSet::singleton(p);
    let rounds = horizon.index();
    let mut out = Vec::new();
    let mut current: Vec<ProcSet> = vec![ProcSet::empty(); rounds];
    fill_omissions(&mut out, &mut current, 0, others, rounds);
    out
}

fn fill_omissions(
    out: &mut Vec<FaultyBehavior>,
    current: &mut Vec<ProcSet>,
    round_idx: usize,
    others: ProcSet,
    rounds: usize,
) {
    if round_idx == rounds {
        out.push(FaultyBehavior::Omission {
            omissions: current.clone(),
        });
        return;
    }
    for omitted in subsets(others) {
        current[round_idx] = omitted;
        fill_omissions(out, current, round_idx + 1, others, rounds);
    }
    current[round_idx] = ProcSet::empty();
}

/// Enumerates all general-omission faulty behaviors of processor `p`:
/// every pair of send/receive omission vectors. The space is the square
/// of the sending-omission space — use only for very small scenarios.
#[must_use]
pub fn general_omission_behaviors(p: ProcessorId, n: usize, horizon: Time) -> Vec<FaultyBehavior> {
    let sends = omission_behaviors(p, n, horizon);
    let mut out = Vec::with_capacity(sends.len() * sends.len());
    for send_behavior in &sends {
        let FaultyBehavior::Omission { omissions: send } = send_behavior else {
            unreachable!("omission_behaviors yields omission behaviors");
        };
        for recv_behavior in &sends {
            let FaultyBehavior::Omission { omissions: receive } = recv_behavior else {
                unreachable!("omission_behaviors yields omission behaviors");
            };
            out.push(FaultyBehavior::GeneralOmission {
                send: send.clone(),
                receive: receive.clone(),
            });
        }
    }
    out
}

/// Enumerates the faulty behaviors of `p` permitted by the scenario's
/// failure mode.
#[must_use]
pub fn behaviors(scenario: &Scenario, p: ProcessorId) -> Vec<FaultyBehavior> {
    match scenario.mode() {
        FailureMode::Crash => crash_behaviors(p, scenario.n(), scenario.horizon()),
        FailureMode::Omission => omission_behaviors(p, scenario.n(), scenario.horizon()),
        FailureMode::GeneralOmission => {
            general_omission_behaviors(p, scenario.n(), scenario.horizon())
        }
    }
}

/// Enumerates all sets of at most `t` faulty processors out of `n`, in
/// increasing size order within a deterministic overall order.
#[must_use]
pub fn faulty_sets(n: usize, t: usize) -> Vec<ProcSet> {
    let mut sets: Vec<ProcSet> = subsets(ProcSet::full(n)).filter(|s| s.len() <= t).collect();
    sets.sort_by_key(|s| (s.len(), s.bits()));
    sets
}

/// An iterator over every failure pattern of a scenario; see [`patterns`].
#[derive(Clone, Debug)]
pub struct Patterns {
    scenario: Scenario,
    faulty_sets: Vec<ProcSet>,
    set_idx: usize,
    members: Vec<ProcessorId>,
    behavior_lists: Vec<Vec<FaultyBehavior>>,
    odometer: Vec<usize>,
    finished: bool,
}

impl Patterns {
    fn load_set(&mut self) {
        let set = self.faulty_sets[self.set_idx];
        self.members = set.iter().collect();
        self.behavior_lists = self
            .members
            .iter()
            .map(|&p| behaviors(&self.scenario, p))
            .collect();
        self.odometer = vec![0; self.members.len()];
    }

    fn current_pattern(&self) -> FailurePattern {
        let mut pat = FailurePattern::failure_free(self.scenario.n());
        for (k, &p) in self.members.iter().enumerate() {
            pat.set_behavior(p, self.behavior_lists[k][self.odometer[k]].clone());
        }
        pat
    }

    /// Positions the iterator so that the next `next()` call yields the
    /// pattern at position `index` of the full enumeration order, in
    /// O(#faulty-sets) time (no patterns are materialized while seeking).
    ///
    /// Seeking to [`count_patterns`] or beyond leaves the iterator
    /// exhausted. This is the primitive behind
    /// [`ScenarioSpace`](crate::ScenarioSpace) sharding: a shard over
    /// `[start, end)` is `patterns(&s)` seeked to `start` and taken
    /// `end − start` times.
    pub fn seek(&mut self, mut index: u128) {
        // A faulty set of size k contributes per_proc^k patterns, so whole
        // sets are skipped without materializing behavior lists. A count
        // past `u128` means "stop here", like a block that overflows.
        let per_proc = try_behaviors_per_processor(&self.scenario).ok();
        self.finished = false;
        self.set_idx = 0;
        loop {
            if self.set_idx >= self.faulty_sets.len() {
                self.finished = true;
                return;
            }
            let width = u32::try_from(self.faulty_sets[self.set_idx].len())
                .expect("a faulty set holds at most 128 processors");
            // A block larger than `u128::MAX` trivially contains any
            // in-range index, so a checked-pow overflow means "stop here"
            // rather than wrapping into a bogus skip distance.
            match per_proc.and_then(|per_proc| per_proc.checked_pow(width)) {
                Some(block) if index >= block => {
                    index -= block;
                    self.set_idx += 1;
                }
                _ => break,
            }
        }
        self.load_set();
        // Mixed-radix decomposition of the within-set offset; the first
        // member is the fastest-moving digit, matching `advance`. Each
        // digit is a remainder modulo a `Vec` length, so the narrowing is
        // lossless by construction.
        for k in 0..self.odometer.len() {
            let len = self.behavior_lists[k].len() as u128;
            self.odometer[k] =
                usize::try_from(index % len).expect("remainder is below a vector length");
            index /= len;
        }
        debug_assert_eq!(index, 0, "seek offset exceeded the faulty set's block");
    }

    fn advance(&mut self) {
        // Increment the odometer; on overflow move to the next faulty set.
        for k in 0..self.odometer.len() {
            self.odometer[k] += 1;
            if self.odometer[k] < self.behavior_lists[k].len() {
                return;
            }
            self.odometer[k] = 0;
        }
        self.set_idx += 1;
        if self.set_idx >= self.faulty_sets.len() {
            self.finished = true;
        } else {
            self.load_set();
        }
    }
}

impl Iterator for Patterns {
    type Item = FailurePattern;

    fn next(&mut self) -> Option<FailurePattern> {
        if self.finished {
            return None;
        }
        let pattern = self.current_pattern();
        self.advance();
        Some(pattern)
    }
}

/// Enumerates every failure pattern of `scenario`: every faulty set of size
/// at most `t`, crossed with every combination of canonical behaviors for
/// its members. The failure-free pattern comes first.
///
/// # Example
///
/// ```
/// use eba_model::{enumerate, FailureMode, Scenario};
///
/// # fn main() -> Result<(), eba_model::ModelError> {
/// let s = Scenario::new(3, 1, FailureMode::Crash, 2)?;
/// let all: Vec<_> = enumerate::patterns(&s).collect();
/// assert_eq!(all.len() as u128, enumerate::count_patterns(&s));
/// assert_eq!(all[0].num_faulty(), 0);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn patterns(scenario: &Scenario) -> Patterns {
    let mut iter = Patterns {
        scenario: *scenario,
        faulty_sets: faulty_sets(scenario.n(), scenario.t()),
        set_idx: 0,
        members: Vec::new(),
        behavior_lists: Vec::new(),
        odometer: Vec::new(),
        finished: false,
    };
    iter.load_set();
    iter
}

/// Computes the number of patterns [`patterns`] will yield, without
/// enumerating them; every intermediate product is checked, so a scenario
/// whose pattern count outgrows `u128` surfaces a typed
/// [`ModelError::CapacityExceeded`] instead of wrapping.
///
/// # Errors
///
/// Returns [`ModelError::CapacityExceeded`] when the count overflows
/// `u128` (the pattern-index arithmetic of [`Patterns::seek`] and the
/// sharding of [`crate::ScenarioSpace`] both key on this width).
pub fn try_count_patterns(scenario: &Scenario) -> Result<u128, ModelError> {
    let per_proc = try_behaviors_per_processor(scenario)?;
    let mut total: u128 = 0;
    for s in faulty_sets(scenario.n(), scenario.t()) {
        let width = u32::try_from(s.len()).expect("a faulty set holds at most 128 processors");
        let block = per_proc.checked_pow(width).ok_or_else(overflow)?;
        total = total.checked_add(block).ok_or_else(overflow)?;
    }
    Ok(total)
}

fn overflow() -> ModelError {
    ModelError::capacity_exceeded("pattern enumeration indices", u128::MAX)
}

/// The length of every processor's [`behaviors`] list, in closed form.
/// All lists have the same length: they differ only in which processor
/// the receiver sets exclude. A faulty set of size `k` therefore holds
/// `per_proc^k` patterns.
///
/// # Errors
///
/// Returns [`ModelError::CapacityExceeded`] when the length overflows
/// `u128`.
pub(crate) fn try_behaviors_per_processor(scenario: &Scenario) -> Result<u128, ModelError> {
    let n = scenario.n();
    let horizon = scenario.horizon();
    let subsets_of_others = 1u128
        .checked_shl(u32::try_from(n - 1).expect("scenario widths fit u32"))
        .ok_or_else(overflow)?;
    Ok(match scenario.mode() {
        FailureMode::Crash => {
            // Clean + T·2^(n−1) crash behaviors, minus the one skipped
            // (last round, all receivers).
            u128::from(horizon.ticks())
                .checked_mul(subsets_of_others)
                .ok_or_else(overflow)?
        }
        FailureMode::Omission => subsets_of_others
            .checked_pow(u32::from(horizon.ticks()))
            .ok_or_else(overflow)?,
        FailureMode::GeneralOmission => subsets_of_others
            .checked_pow(u32::from(horizon.ticks()))
            .and_then(|v| v.checked_pow(2))
            .ok_or_else(overflow)?,
    })
}

/// [`try_count_patterns`] for callers without an error channel.
///
/// # Panics
///
/// Panics with the rendered [`ModelError::CapacityExceeded`] when the
/// count overflows `u128`.
#[must_use]
pub fn count_patterns(scenario: &Scenario) -> u128 {
    match try_count_patterns(scenario) {
        Ok(count) => count,
        Err(e) => panic!("{e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessorId {
        ProcessorId::new(i)
    }

    #[test]
    fn crash_behaviors_count_and_validity() {
        let n = 3;
        let horizon = Time::new(2);
        let list = crash_behaviors(p(0), n, horizon);
        // Clean + 2 rounds × 4 subsets − 1 skipped = 8.
        assert_eq!(list.len(), 8);
        for b in &list {
            assert!(b.allowed_in(FailureMode::Crash));
        }
        assert!(list.contains(&FaultyBehavior::Clean));
        // The skipped behavior is absent.
        let skipped = FaultyBehavior::Crash {
            round: Round::new(2),
            receivers: ProcSet::full(3) - ProcSet::singleton(p(0)),
        };
        assert!(!list.contains(&skipped));
    }

    #[test]
    fn omission_behaviors_count() {
        let list = omission_behaviors(p(1), 3, Time::new(2));
        // (2^2)^2 = 16 vectors.
        assert_eq!(list.len(), 16);
        for b in &list {
            assert!(b.allowed_in(FailureMode::Omission));
            if let FaultyBehavior::Omission { omissions } = b {
                assert_eq!(omissions.len(), 2);
                assert!(omissions.iter().all(|o| !o.contains(p(1))));
            }
        }
    }

    #[test]
    fn faulty_sets_bounded_by_t() {
        let sets = faulty_sets(4, 2);
        // C(4,0) + C(4,1) + C(4,2) = 1 + 4 + 6 = 11.
        assert_eq!(sets.len(), 11);
        assert!(sets.iter().all(|s| s.len() <= 2));
        assert_eq!(sets[0], ProcSet::empty());
    }

    #[test]
    fn patterns_match_count_crash() {
        let s = Scenario::new(3, 1, FailureMode::Crash, 2).unwrap();
        let all: Vec<_> = patterns(&s).collect();
        assert_eq!(all.len() as u128, count_patterns(&s));
        // 1 (failure-free) + 3 processors × 8 behaviors = 25.
        assert_eq!(all.len(), 25);
        for pat in &all {
            s.validate_pattern(pat).unwrap();
        }
    }

    #[test]
    fn patterns_match_count_omission() {
        let s = Scenario::new(3, 2, FailureMode::Omission, 2).unwrap();
        let all: Vec<_> = patterns(&s).collect();
        assert_eq!(all.len() as u128, count_patterns(&s));
        // 1 + 3×16 + 3×16² = 817.
        assert_eq!(all.len(), 817);
        for pat in &all {
            s.validate_pattern(pat).unwrap();
        }
    }

    #[test]
    fn patterns_are_distinct() {
        let s = Scenario::new(3, 1, FailureMode::Crash, 2).unwrap();
        let mut all: Vec<_> = patterns(&s).collect();
        let before = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), before);
    }

    #[test]
    fn failure_free_comes_first() {
        let s = Scenario::new(4, 2, FailureMode::Crash, 3).unwrap();
        let first = patterns(&s).next().unwrap();
        assert_eq!(first.num_faulty(), 0);
    }
}
