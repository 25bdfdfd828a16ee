//! Processor-permutation symmetry: relabelings under `Sym(n)`, canonical
//! forms of failure patterns, and the orbit accounting behind the
//! symmetry-quotiented engine (DESIGN.md §4i).
//!
//! The model is symmetric in the processor set: relabeling every
//! processor of a run by a permutation `π` yields another legal run, and
//! every symmetric formula holds at the relabeled point iff it held at
//! the original. The quotiented engine therefore builds one
//! *representative* run per orbit of `Sym(n)` acting on `(config,
//! pattern)` pairs — concretely, one per **pattern** orbit crossed with
//! every initial configuration, since configurations are cheap and keying
//! the quotient on patterns alone keeps the run layout regular.
//!
//! The canonical representative of a pattern orbit is the
//! lexicographically minimal relabeling under the derived ordering of
//! `Vec<Option<FaultyBehavior>>`. Because `None < Some(_)`, the minimum
//! always carries its faulty processors in the top index block, so the
//! search enumerates only the `k!·(n−k)!` permutations mapping the
//! faulty set onto the top block instead of all `n!` (the stabilizer-aware
//! search of the issue); the number of candidates attaining the minimum
//! is exactly the stabilizer order, giving the orbit size as
//! `n!/|Stab|` without a second pass.

use crate::config::InitialConfig;
use crate::failure::{FailurePattern, FaultyBehavior};
use crate::ids::ProcessorId;
use crate::procset::ProcSet;

/// Largest `n` the symmetry machinery enumerates permutations for; the
/// quotient targets small exhaustive spaces, and `8! = 40320` keeps every
/// search instant while `ProcSet`'s `u128` width is never approached.
pub const MAX_SYMMETRY_N: usize = 8;

/// A permutation of the `n` processor labels; `map[i]` is `π(i)`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Perm {
    map: Vec<u8>,
}

impl Perm {
    /// The identity permutation on `n` labels.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        assert!(
            n <= MAX_SYMMETRY_N,
            "symmetry supports n ≤ {MAX_SYMMETRY_N}"
        );
        Perm {
            map: (0..n as u8).collect(),
        }
    }

    /// Builds a permutation from its image vector (`map[i] = π(i)`).
    ///
    /// # Panics
    ///
    /// Panics if `map` is not a permutation of `0..map.len()`.
    #[must_use]
    pub fn from_map(map: Vec<u8>) -> Self {
        let n = map.len();
        assert!(
            n <= MAX_SYMMETRY_N,
            "symmetry supports n ≤ {MAX_SYMMETRY_N}"
        );
        let mut seen = vec![false; n];
        for &i in &map {
            assert!((i as usize) < n && !seen[i as usize], "not a permutation");
            seen[i as usize] = true;
        }
        Perm { map }
    }

    /// Number of labels.
    #[must_use]
    pub fn n(&self) -> usize {
        self.map.len()
    }

    /// `π(p)`.
    #[must_use]
    pub fn apply(&self, p: ProcessorId) -> ProcessorId {
        ProcessorId::new(self.map[p.index()] as usize)
    }

    /// The inverse permutation.
    #[must_use]
    pub fn inverse(&self) -> Perm {
        let mut inv = vec![0u8; self.map.len()];
        for (i, &j) in self.map.iter().enumerate() {
            inv[j as usize] = i as u8;
        }
        Perm { map: inv }
    }

    /// The elementwise image `π(S)` of a processor set.
    #[must_use]
    pub fn apply_set(&self, s: ProcSet) -> ProcSet {
        s.iter().map(|p| self.apply(p)).collect()
    }

    /// The relabeled configuration: processor `π(i)` starts with `i`'s
    /// value.
    #[must_use]
    pub fn apply_config(&self, config: &InitialConfig) -> InitialConfig {
        let n = self.n();
        assert_eq!(config.n(), n, "configuration has the wrong width");
        let mut values = vec![crate::value::Value::Zero; n];
        for i in 0..n {
            values[self.map[i] as usize] = config.value(ProcessorId::new(i));
        }
        InitialConfig::new(values)
    }

    /// The relabeled behavior: every processor set mentioned inside the
    /// behavior is mapped through `π` (the behavior itself moves to the
    /// relabeled owner separately, in [`Perm::apply_pattern`]).
    #[must_use]
    pub fn apply_behavior(&self, b: &FaultyBehavior) -> FaultyBehavior {
        match b {
            FaultyBehavior::Clean => FaultyBehavior::Clean,
            FaultyBehavior::Crash { round, receivers } => FaultyBehavior::Crash {
                round: *round,
                receivers: self.apply_set(*receivers),
            },
            FaultyBehavior::Omission { omissions } => FaultyBehavior::Omission {
                omissions: omissions.iter().map(|o| self.apply_set(*o)).collect(),
            },
            FaultyBehavior::GeneralOmission { send, receive } => FaultyBehavior::GeneralOmission {
                send: send.iter().map(|o| self.apply_set(*o)).collect(),
                receive: receive.iter().map(|o| self.apply_set(*o)).collect(),
            },
        }
    }

    /// The relabeled pattern `π·q`: processor `π(i)` exhibits `i`'s
    /// behavior with every mentioned processor set mapped through `π`.
    #[must_use]
    pub fn apply_pattern(&self, q: &FailurePattern) -> FailurePattern {
        let n = self.n();
        assert_eq!(q.n(), n, "pattern has the wrong width");
        let mut out = FailurePattern::failure_free(n);
        for i in 0..n {
            let p = ProcessorId::new(i);
            if let Some(b) = q.behavior(p) {
                out.set_behavior(self.apply(p), self.apply_behavior(b));
            }
        }
        out
    }

    /// All `n!` permutations, in lexicographic order of their image
    /// vectors (deterministic across platforms).
    #[must_use]
    pub fn all(n: usize) -> Vec<Perm> {
        assert!(
            n <= MAX_SYMMETRY_N,
            "symmetry supports n ≤ {MAX_SYMMETRY_N}"
        );
        let mut out = Vec::with_capacity(factorial(n) as usize);
        let mut prefix = Vec::with_capacity(n);
        let mut used = vec![false; n];
        fill_perms(n, &mut prefix, &mut used, &mut out);
        out
    }
}

fn fill_perms(n: usize, prefix: &mut Vec<u8>, used: &mut [bool], out: &mut Vec<Perm>) {
    if prefix.len() == n {
        out.push(Perm {
            map: prefix.clone(),
        });
        return;
    }
    for i in 0..n {
        if !used[i] {
            used[i] = true;
            prefix.push(i as u8);
            fill_perms(n, prefix, used, out);
            prefix.pop();
            used[i] = false;
        }
    }
}

/// `n!` as a `u64` (exact for the supported `n ≤ 8`).
#[must_use]
pub fn factorial(n: usize) -> u64 {
    (1..=n as u64).product()
}

/// The canonical form of a failure-pattern orbit: the representative, a
/// witnessing permutation carrying the input onto it, and the orbit size.
#[derive(Clone, Debug)]
pub struct CanonicalPattern {
    /// The lexicographically minimal relabeling of the input pattern.
    pub canonical: FailurePattern,
    /// A permutation `σ` with `σ·input = canonical` (the *recorded
    /// witness* the quotiented run store relabels queries through).
    pub witness: Perm,
    /// `|orbit| = n!/|Stab|` — how many raw patterns the representative
    /// stands for.
    pub orbit_size: u64,
}

/// Enumerates the permutations mapping `faulty` onto the top `|faulty|`
/// index block — the only candidates that can produce the lexicographic
/// minimum (every other permutation leaves a `Some` below a `None`).
fn candidate_perms(n: usize, faulty: ProcSet) -> Vec<Perm> {
    let faulty_list: Vec<u8> = faulty.iter().map(|p| p.index() as u8).collect();
    let nonfaulty_list: Vec<u8> = (0..n as u8)
        .filter(|&i| !faulty.contains(ProcessorId::new(i as usize)))
        .collect();
    let k = faulty_list.len();
    let faulty_targets: Vec<u8> = ((n - k) as u8..n as u8).collect();
    let nonfaulty_targets: Vec<u8> = (0..(n - k) as u8).collect();
    let mut out = Vec::with_capacity((factorial(k) * factorial(n - k)) as usize);
    for f_assign in assignments(&faulty_targets) {
        for nf_assign in assignments(&nonfaulty_targets) {
            let mut map = vec![0u8; n];
            for (src, dst) in faulty_list.iter().zip(&f_assign) {
                map[*src as usize] = *dst;
            }
            for (src, dst) in nonfaulty_list.iter().zip(&nf_assign) {
                map[*src as usize] = *dst;
            }
            out.push(Perm { map });
        }
    }
    out
}

/// All orderings of `items`, lexicographic by position choices.
fn assignments(items: &[u8]) -> Vec<Vec<u8>> {
    if items.is_empty() {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for (i, &x) in items.iter().enumerate() {
        let mut rest: Vec<u8> = items.to_vec();
        rest.remove(i);
        for mut tail in assignments(&rest) {
            tail.insert(0, x);
            out.push(tail);
        }
    }
    out
}

/// Canonicalizes a failure pattern under `Sym(n)`: the lexicographically
/// minimal relabeling, a witness permutation reaching it, and the orbit
/// size — in one stabilizer-aware pass over the `k!·(n−k)!` candidate
/// permutations (see the module docs).
///
/// # Panics
///
/// Panics when `n > MAX_SYMMETRY_N`.
#[must_use]
pub fn canonicalize(pattern: &FailurePattern) -> CanonicalPattern {
    let n = pattern.n();
    assert!(
        n <= MAX_SYMMETRY_N,
        "symmetry supports n ≤ {MAX_SYMMETRY_N}"
    );
    let faulty = pattern.faulty_set();
    let mut best: Option<(FailurePattern, Perm)> = None;
    let mut min_count: u64 = 0;
    for perm in candidate_perms(n, faulty) {
        let relabeled = perm.apply_pattern(pattern);
        match &best {
            None => {
                best = Some((relabeled, perm));
                min_count = 1;
            }
            Some((cur, _)) => {
                if relabeled < *cur {
                    best = Some((relabeled, perm));
                    min_count = 1;
                } else if relabeled == *cur {
                    min_count += 1;
                }
            }
        }
    }
    let (canonical, witness) = best.expect("candidate set is never empty");
    // #{π : π·q = canonical} = |Stab(canonical)|, so the orbit size is
    // n!/min_count by orbit–stabilizer.
    let orbit_size = factorial(n) / min_count;
    CanonicalPattern {
        canonical,
        witness,
        orbit_size,
    }
}

/// Whether a pattern is its own orbit representative (the builder's
/// skip test: non-representatives are never simulated).
#[must_use]
pub fn is_canonical(pattern: &FailurePattern) -> bool {
    canonicalize(pattern).canonical == *pattern
}

/// The distinct members of a pattern's orbit, sorted (deterministic);
/// the unfolding oracle of the differential suite rebuilds the raw space
/// from these.
#[must_use]
pub fn orbit_members(pattern: &FailurePattern) -> Vec<FailurePattern> {
    let mut out: Vec<FailurePattern> = Perm::all(pattern.n())
        .iter()
        .map(|perm| perm.apply_pattern(pattern))
        .collect();
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use crate::{enumerate, FailureMode, Round, Value};

    fn p(i: usize) -> ProcessorId {
        ProcessorId::new(i)
    }

    #[test]
    fn identity_and_inverse_round_trip() {
        let id = Perm::identity(4);
        for i in 0..4 {
            assert_eq!(id.apply(p(i)), p(i));
        }
        for perm in Perm::all(4) {
            let inv = perm.inverse();
            for i in 0..4 {
                assert_eq!(inv.apply(perm.apply(p(i))), p(i));
            }
        }
    }

    #[test]
    fn all_perms_are_distinct_and_complete() {
        let perms = Perm::all(4);
        assert_eq!(perms.len(), 24);
        let mut maps: Vec<_> = perms.iter().map(|q| q.map.clone()).collect();
        maps.sort();
        maps.dedup();
        assert_eq!(maps.len(), 24);
    }

    #[test]
    fn relabeled_patterns_validate_in_their_scenario() {
        for mode in [
            FailureMode::Crash,
            FailureMode::Omission,
            FailureMode::GeneralOmission,
        ] {
            let scenario = Scenario::new(3, 1, mode, 2).unwrap();
            for pattern in enumerate::patterns(&scenario) {
                for perm in Perm::all(3) {
                    let relabeled = perm.apply_pattern(&pattern);
                    assert!(
                        scenario.validate_pattern(&relabeled).is_ok(),
                        "relabeling broke validity: {pattern} under {:?}",
                        perm
                    );
                }
            }
        }
    }

    #[test]
    fn canonical_form_is_orbit_invariant_and_minimal() {
        let scenario = Scenario::new(3, 1, FailureMode::Omission, 2).unwrap();
        for pattern in enumerate::patterns(&scenario) {
            let canon = canonicalize(&pattern);
            // The witness actually maps the input onto the canonical form.
            assert_eq!(canon.witness.apply_pattern(&pattern), canon.canonical);
            // Every orbit member canonicalizes to the same representative,
            // which is the orbit's minimum.
            let members = orbit_members(&pattern);
            assert_eq!(canon.canonical, members[0]);
            assert_eq!(members.len() as u64, canon.orbit_size);
            for m in &members {
                assert_eq!(canonicalize(m).canonical, canon.canonical);
            }
        }
    }

    #[test]
    fn orbit_sizes_sum_to_the_raw_pattern_count() {
        for mode in [
            FailureMode::Crash,
            FailureMode::Omission,
            FailureMode::GeneralOmission,
        ] {
            let scenario = Scenario::new(3, 1, mode, 2).unwrap();
            let mut raw = 0u64;
            let mut covered = 0u64;
            for pattern in enumerate::patterns(&scenario) {
                raw += 1;
                if is_canonical(&pattern) {
                    covered += canonicalize(&pattern).orbit_size;
                }
            }
            assert_eq!(covered, raw, "orbit accounting is off in {mode:?}");
        }
    }

    #[test]
    fn canonical_faulty_set_is_the_top_block() {
        let scenario = Scenario::new(4, 2, FailureMode::Crash, 2).unwrap();
        for pattern in enumerate::patterns(&scenario) {
            let canon = canonicalize(&pattern).canonical;
            let k = canon.faulty_set().len();
            let top: ProcSet = (4 - k..4).map(p).collect();
            assert_eq!(canon.faulty_set(), top);
        }
    }

    #[test]
    fn canonical_slot_behaviors_need_not_be_ordered() {
        // p2 crashes in round 1 delivering only to p3, and p3 in round 1
        // delivering only to p2. The faulty slots' behaviors decrease, yet
        // the pattern is its own representative: swapping p2 and p3 maps
        // it onto itself. So "assign behaviors to faulty slots in
        // non-decreasing order" is not an exact orderly-generation prune;
        // only the top-block faulty set is.
        let crash_to = |q: usize| FaultyBehavior::Crash {
            round: Round::new(1),
            receivers: ProcSet::singleton(p(q)),
        };
        let pattern = FailurePattern::failure_free(3)
            .with_behavior(p(1), crash_to(2))
            .with_behavior(p(2), crash_to(1));
        let scenario = Scenario::new(3, 2, FailureMode::Crash, 1).unwrap();
        assert!(enumerate::patterns(&scenario).any(|q| q == pattern));
        assert!(pattern.behavior(p(1)) > pattern.behavior(p(2)));
        let canon = canonicalize(&pattern);
        assert_eq!(canon.canonical, pattern);
        assert_eq!(canon.orbit_size, 3);
    }

    #[test]
    fn config_relabeling_moves_values_with_labels() {
        let config = InitialConfig::new(vec![Value::One, Value::Zero, Value::Zero]);
        for perm in Perm::all(3) {
            let relabeled = perm.apply_config(&config);
            for i in 0..3 {
                assert_eq!(relabeled.value(perm.apply(p(i))), config.value(p(i)));
            }
        }
    }

    #[test]
    fn crash_receivers_are_relabeled() {
        let pattern = FailurePattern::failure_free(3).with_behavior(
            p(0),
            FaultyBehavior::Crash {
                round: Round::new(1),
                receivers: ProcSet::singleton(p(1)),
            },
        );
        let perm = Perm::from_map(vec![2, 0, 1]);
        let relabeled = perm.apply_pattern(&pattern);
        match relabeled.behavior(p(2)) {
            Some(FaultyBehavior::Crash { receivers, .. }) => {
                assert_eq!(*receivers, ProcSet::singleton(p(0)));
            }
            other => panic!("expected a crash at the relabeled owner, got {other:?}"),
        }
    }
}
