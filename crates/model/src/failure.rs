//! Failure modes, faulty behaviors, and failure patterns (Section 2.1).

use crate::{ModelError, ProcSet, ProcessorId, Round, Time};
use std::fmt;

/// The failure mode of a system: which deviations faulty processors may
/// exhibit.
///
/// The paper studies *crash* failures and *(sending-)omission* failures
/// (Section 2.1). *General omission* failures (\[PT86\]), where a faulty
/// processor may also fail to receive, are explicitly out of the paper's
/// scope; the reproduction implements them as an extension to test which
/// results carry over (experiment EXP11). Byzantine failures remain out
/// of scope.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum FailureMode {
    /// A faulty processor obeys its protocol until some round `k`, sends an
    /// arbitrary subset of its round-`k` messages, and sends nothing
    /// afterwards.
    Crash,
    /// A faulty processor obeys its protocol except that it may omit to
    /// send an arbitrary set of messages in each round (*sending omission*
    /// failures of \[MT88\]).
    Omission,
    /// A faulty processor may omit to send **and to receive** arbitrary
    /// sets of messages in each round (*general omission* failures of
    /// \[PT86\]) — the reproduction's extension mode.
    GeneralOmission,
}

impl FailureMode {
    /// The paper's two failure modes.
    pub const ALL: [FailureMode; 2] = [FailureMode::Crash, FailureMode::Omission];

    /// The paper's modes plus the general-omission extension.
    pub const ALL_EXTENDED: [FailureMode; 3] = [
        FailureMode::Crash,
        FailureMode::Omission,
        FailureMode::GeneralOmission,
    ];

    /// Parses the [`fmt::Display`] spelling of a mode.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownMode`] on any other spelling.
    pub fn parse(spec: &str) -> Result<Self, ModelError> {
        match spec {
            "crash" => Ok(FailureMode::Crash),
            "omission" => Ok(FailureMode::Omission),
            "general-omission" => Ok(FailureMode::GeneralOmission),
            other => Err(ModelError::UnknownMode {
                spec: other.to_owned(),
            }),
        }
    }
}

impl fmt::Display for FailureMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureMode::Crash => write!(f, "crash"),
            FailureMode::Omission => write!(f, "omission"),
            FailureMode::GeneralOmission => write!(f, "general-omission"),
        }
    }
}

/// The faulty behavior of a single faulty processor within the finite
/// horizon.
///
/// A *clean* behavior ([`FaultyBehavior::Clean`]) deviates nowhere inside
/// the horizon: it models a processor that fails only after the horizon.
/// Including it in the pattern space is what keeps knowledge honest — a
/// processor that observes only correct behavior from `j` can still not
/// rule out that `j` is faulty.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum FaultyBehavior {
    /// Faulty, but exhibits no deviation within the horizon.
    Clean,
    /// Crashes in `round`: delivers its round-`round` message only to
    /// `receivers` and is silent (and dead) in later rounds.
    Crash {
        /// The round in which the crash occurs.
        round: Round,
        /// The processors that still receive the crash-round message.
        receivers: ProcSet,
    },
    /// Omits messages per round: `omissions[k-1]` is the set of processors
    /// that do **not** receive this processor's round-`k` message.
    Omission {
        /// Omission sets, indexed by round number − 1; length equals the
        /// horizon.
        omissions: Vec<ProcSet>,
    },
    /// General omission (\[PT86\], extension): per round, messages omitted
    /// on the sending side and on the receiving side.
    GeneralOmission {
        /// `send[k-1]` = processors not receiving this processor's
        /// round-`k` message.
        send: Vec<ProcSet>,
        /// `receive[k-1]` = processors whose round-`k` message this
        /// processor fails to receive.
        receive: Vec<ProcSet>,
    },
}

impl FaultyBehavior {
    /// Whether this behavior is permitted under `mode`.
    ///
    /// `Clean` is permitted in both modes (it is also expressible as an
    /// all-empty `Omission`, but enumerators use the canonical encoding:
    /// `Clean` in crash mode, the empty omission vector in omission mode).
    #[must_use]
    pub fn allowed_in(&self, mode: FailureMode) -> bool {
        match (self, mode) {
            (FaultyBehavior::Clean, _) => true,
            (FaultyBehavior::Crash { .. }, FailureMode::Crash) => true,
            (FaultyBehavior::Omission { .. }, FailureMode::Omission) => true,
            // General omission subsumes sending omission.
            (FaultyBehavior::Omission { .. }, FailureMode::GeneralOmission) => true,
            (FaultyBehavior::GeneralOmission { .. }, FailureMode::GeneralOmission) => true,
            _ => false,
        }
    }

    /// Whether a message sent in `round` by a processor with this behavior
    /// reaches `receiver`.
    #[must_use]
    pub fn delivers(&self, round: Round, receiver: ProcessorId) -> bool {
        match self {
            FaultyBehavior::Clean => true,
            FaultyBehavior::Crash {
                round: crash_round,
                receivers,
            } => {
                if round < *crash_round {
                    true
                } else if round == *crash_round {
                    receivers.contains(receiver)
                } else {
                    false
                }
            }
            FaultyBehavior::Omission { omissions } => omissions
                .get(round.number() as usize - 1)
                .is_none_or(|omitted| !omitted.contains(receiver)),
            FaultyBehavior::GeneralOmission { send, .. } => send
                .get(round.number() as usize - 1)
                .is_none_or(|omitted| !omitted.contains(receiver)),
        }
    }

    /// Whether a processor with this behavior *receives* the round-`round`
    /// message from `sender` (assuming it was sent) — `false` only for a
    /// general-omission receive failure.
    #[must_use]
    pub fn receives(&self, round: Round, sender: ProcessorId) -> bool {
        match self {
            FaultyBehavior::GeneralOmission { receive, .. } => receive
                .get(round.number() as usize - 1)
                .is_none_or(|omitted| !omitted.contains(sender)),
            _ => true,
        }
    }

    /// Whether the processor is dead (has crashed) *before* the given round
    /// begins, and therefore no longer receives messages.
    ///
    /// Only crash behaviors ever report `true`: an omission-faulty
    /// processor keeps receiving normally.
    #[must_use]
    pub fn is_dead_in(&self, round: Round) -> bool {
        match self {
            FaultyBehavior::Crash {
                round: crash_round, ..
            } => round > *crash_round,
            _ => false,
        }
    }

    /// The first round in which this behavior deviates from the protocol
    /// within horizon `horizon` (omits at least one message it should have
    /// sent to one of the `n` processors other than itself), if any.
    #[must_use]
    pub fn first_deviation(&self, me: ProcessorId, n: usize, horizon: Time) -> Option<Round> {
        let others = ProcSet::full(n) - ProcSet::singleton(me);
        Round::upto(horizon).find(|&r| others.iter().any(|q| !self.delivers(r, q)))
    }

    /// Restricts this behavior (of processor `me` in a system of `n`) to a
    /// smaller `horizon`, returning the **canonical** base-horizon behavior
    /// that produces identical deliveries, receptions, and crash freezes in
    /// every round up to `horizon` — or `None` when no canonical behavior
    /// does.
    ///
    /// The `None` case is a crash in round `horizon` that delivers to every
    /// other processor: within `horizon` it deviates nowhere *visible to
    /// others*, so the canonical enumeration of the base horizon skips it,
    /// yet it is not equivalent to `Clean` either — the crashed processor's
    /// own view freezes at `horizon` where a clean processor's keeps
    /// growing. This is the inverse of horizon extension: a run whose
    /// behavior truncates to `Some(b)` has, up to `horizon`, exactly the
    /// views of the base run with behavior `b` (see
    /// [`crate::Scenario::extend_horizon`]).
    #[must_use]
    pub fn truncated_to(&self, me: ProcessorId, n: usize, horizon: Time) -> Option<FaultyBehavior> {
        match self {
            FaultyBehavior::Clean => Some(FaultyBehavior::Clean),
            FaultyBehavior::Crash { round, receivers } => {
                if round.end() > horizon {
                    // The crash happens after the base horizon: inside it
                    // the processor delivers, receives, and extends its
                    // view exactly like a clean one.
                    Some(FaultyBehavior::Clean)
                } else if round.end() == horizon
                    && *receivers == ProcSet::full(n) - ProcSet::singleton(me)
                {
                    None
                } else {
                    Some(self.clone())
                }
            }
            FaultyBehavior::Omission { omissions } => Some(FaultyBehavior::Omission {
                omissions: omissions[..horizon.index().min(omissions.len())].to_vec(),
            }),
            FaultyBehavior::GeneralOmission { send, receive } => {
                Some(FaultyBehavior::GeneralOmission {
                    send: send[..horizon.index().min(send.len())].to_vec(),
                    receive: receive[..horizon.index().min(receive.len())].to_vec(),
                })
            }
        }
    }

    /// Re-encodes this behavior for a larger `horizon` without changing
    /// any delivery inside the original one: crash rounds are preserved
    /// and omission vectors are padded with empty rounds (the processor
    /// deviates nowhere in the added rounds). The inverse direction of
    /// [`FaultyBehavior::truncated_to`].
    #[must_use]
    pub fn padded_to(&self, horizon: Time) -> FaultyBehavior {
        let pad = |v: &[ProcSet]| {
            let mut v = v.to_vec();
            v.resize(horizon.index(), ProcSet::empty());
            v
        };
        match self {
            FaultyBehavior::Clean | FaultyBehavior::Crash { .. } => self.clone(),
            FaultyBehavior::Omission { omissions } => FaultyBehavior::Omission {
                omissions: pad(omissions),
            },
            FaultyBehavior::GeneralOmission { send, receive } => FaultyBehavior::GeneralOmission {
                send: pad(send),
                receive: pad(receive),
            },
        }
    }
}

impl fmt::Display for FaultyBehavior {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultyBehavior::Clean => write!(f, "clean"),
            FaultyBehavior::Crash { round, receivers } => {
                write!(f, "crash@{round}→{receivers}")
            }
            FaultyBehavior::Omission { omissions } => {
                write!(f, "omit[")?;
                for (i, o) in omissions.iter().enumerate() {
                    if i > 0 {
                        write!(f, ";")?;
                    }
                    write!(f, "{o}")?;
                }
                write!(f, "]")
            }
            FaultyBehavior::GeneralOmission { send, receive } => {
                write!(f, "gomit[send:")?;
                for (i, o) in send.iter().enumerate() {
                    if i > 0 {
                        write!(f, ";")?;
                    }
                    write!(f, "{o}")?;
                }
                write!(f, " recv:")?;
                for (i, o) in receive.iter().enumerate() {
                    if i > 0 {
                        write!(f, ";")?;
                    }
                    write!(f, "{o}")?;
                }
                write!(f, "]")
            }
        }
    }
}

/// A failure pattern: the faulty behavior of every processor that fails in
/// the run (Section 2.3).
///
/// A protocol, an initial configuration, and a failure pattern uniquely
/// determine a run.
///
/// # Example
///
/// ```
/// use eba_model::{FailurePattern, FaultyBehavior, ProcSet, ProcessorId, Round};
///
/// let p0 = ProcessorId::new(0);
/// let pattern = FailurePattern::failure_free(3)
///     .with_behavior(p0, FaultyBehavior::Crash {
///         round: Round::new(1),
///         receivers: ProcSet::empty(),
///     });
/// assert_eq!(pattern.faulty_set().len(), 1);
/// assert!(!pattern.delivers(p0, ProcessorId::new(1), Round::new(1)));
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FailurePattern {
    behaviors: Vec<Option<FaultyBehavior>>,
}

impl FailurePattern {
    /// The failure-free pattern for `n` processors.
    #[must_use]
    pub fn failure_free(n: usize) -> Self {
        assert!((1..=ProcessorId::MAX_PROCESSORS).contains(&n));
        FailurePattern {
            behaviors: vec![None; n],
        }
    }

    /// Returns a copy of this pattern in which `p` is faulty with the
    /// given behavior.
    #[must_use]
    pub fn with_behavior(mut self, p: ProcessorId, behavior: FaultyBehavior) -> Self {
        self.set_behavior(p, behavior);
        self
    }

    /// Marks `p` faulty with the given behavior.
    pub fn set_behavior(&mut self, p: ProcessorId, behavior: FaultyBehavior) {
        self.behaviors[p.index()] = Some(behavior);
    }

    /// Number of processors in the system.
    #[must_use]
    pub fn n(&self) -> usize {
        self.behaviors.len()
    }

    /// The faulty behavior of `p`, or `None` if `p` is nonfaulty.
    #[must_use]
    pub fn behavior(&self, p: ProcessorId) -> Option<&FaultyBehavior> {
        self.behaviors[p.index()].as_ref()
    }

    /// Whether `p` is faulty in this run.
    #[must_use]
    pub fn is_faulty(&self, p: ProcessorId) -> bool {
        self.behaviors[p.index()].is_some()
    }

    /// The set of faulty processors.
    #[must_use]
    pub fn faulty_set(&self) -> ProcSet {
        ProcessorId::all(self.n())
            .filter(|&p| self.is_faulty(p))
            .collect()
    }

    /// The set of nonfaulty processors (the paper's nonrigid set `N`,
    /// which is constant along a run under the convention of Section 2.1).
    #[must_use]
    pub fn nonfaulty_set(&self) -> ProcSet {
        self.faulty_set().complement(self.n())
    }

    /// Number of faulty processors.
    #[must_use]
    pub fn num_faulty(&self) -> usize {
        self.behaviors.iter().filter(|b| b.is_some()).count()
    }

    /// Whether a message from `sender` to `receiver` in `round` is
    /// delivered.
    ///
    /// This accounts for both ends: the sender's behavior may drop the
    /// message, and a receiver that has already crashed receives nothing.
    /// Self-messages are never modeled (a processor always remembers its
    /// own state); this method returns `false` for `sender == receiver`.
    #[must_use]
    pub fn delivers(&self, sender: ProcessorId, receiver: ProcessorId, round: Round) -> bool {
        if sender == receiver {
            return false;
        }
        let sent = self.behaviors[sender.index()]
            .as_ref()
            .is_none_or(|b| b.delivers(round, receiver));
        // A processor that crashes in round `cr` is gone before the receive
        // phase of that round: it receives messages only in rounds `< cr`.
        let received = match &self.behaviors[receiver.index()] {
            Some(FaultyBehavior::Crash { round: cr, .. }) => round < *cr,
            Some(behavior) => behavior.receives(round, sender),
            None => true,
        };
        sent && received
    }

    /// Whether `p` has crashed at or before `time` (and its state is
    /// frozen). Only meaningful in crash mode.
    #[must_use]
    pub fn crashed_by(&self, p: ProcessorId, time: Time) -> bool {
        match self.behaviors[p.index()] {
            Some(FaultyBehavior::Crash { round, .. }) => round.end() <= time,
            _ => false,
        }
    }

    /// Restricts the pattern to a smaller `horizon`, keeping the faulty
    /// set intact: every behavior is truncated by
    /// [`FaultyBehavior::truncated_to`]. Returns `None` when any behavior
    /// has no canonical base-horizon counterpart (a crash in round
    /// `horizon` delivering to all others) — such a run's view prefix
    /// cannot be looked up in a base-horizon system and must be computed
    /// from scratch by the horizon-extension path.
    #[must_use]
    pub fn truncated_to(&self, horizon: Time) -> Option<FailurePattern> {
        let n = self.n();
        let mut out = FailurePattern::failure_free(n);
        for p in ProcessorId::all(n) {
            if let Some(behavior) = self.behavior(p) {
                out.set_behavior(p, behavior.truncated_to(p, n, horizon)?);
            }
        }
        Some(out)
    }

    /// Re-encodes the pattern for a larger `horizon` without changing any
    /// delivery inside the original one; see [`FaultyBehavior::padded_to`].
    /// Padding is injective on valid patterns, so distinct base runs stay
    /// distinct after extension.
    #[must_use]
    pub fn padded_to(&self, horizon: Time) -> FailurePattern {
        let n = self.n();
        let mut out = FailurePattern::failure_free(n);
        for p in ProcessorId::all(n) {
            if let Some(behavior) = self.behavior(p) {
                out.set_behavior(p, behavior.padded_to(horizon));
            }
        }
        out
    }

    /// Validates the pattern against a failure mode, bound `t`, and
    /// horizon.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidPattern`] if more than `t` processors
    /// are faulty, a behavior is not allowed under `mode`, a crash round or
    /// omission vector exceeds the horizon, or a behavior addresses the
    /// faulty processor itself.
    pub fn validate(&self, mode: FailureMode, t: usize, horizon: Time) -> Result<(), ModelError> {
        if self.num_faulty() > t {
            return Err(ModelError::invalid_pattern(format!(
                "{} faulty processors exceeds the bound t = {t}",
                self.num_faulty()
            )));
        }
        for p in ProcessorId::all(self.n()) {
            let Some(behavior) = self.behavior(p) else {
                continue;
            };
            if !behavior.allowed_in(mode) {
                return Err(ModelError::invalid_pattern(format!(
                    "behavior {behavior} of {p} is not allowed in {mode} mode"
                )));
            }
            match behavior {
                FaultyBehavior::Clean => {}
                FaultyBehavior::Crash { round, receivers } => {
                    if round.end() > horizon {
                        return Err(ModelError::invalid_pattern(format!(
                            "crash round {round} of {p} exceeds horizon {horizon}"
                        )));
                    }
                    if receivers.contains(p) {
                        return Err(ModelError::invalid_pattern(format!(
                            "crash receivers of {p} include itself"
                        )));
                    }
                }
                FaultyBehavior::Omission { omissions } => {
                    if omissions.len() != horizon.index() {
                        return Err(ModelError::invalid_pattern(format!(
                            "omission vector of {p} has length {}, expected horizon {}",
                            omissions.len(),
                            horizon.index()
                        )));
                    }
                    if omissions.iter().any(|o| o.contains(p)) {
                        return Err(ModelError::invalid_pattern(format!(
                            "omission sets of {p} include itself"
                        )));
                    }
                }
                FaultyBehavior::GeneralOmission { send, receive } => {
                    if send.len() != horizon.index() || receive.len() != horizon.index() {
                        return Err(ModelError::invalid_pattern(format!(
                            "general-omission vectors of {p} have lengths {}/{}, \
                             expected horizon {}",
                            send.len(),
                            receive.len(),
                            horizon.index()
                        )));
                    }
                    if send.iter().chain(receive).any(|o| o.contains(p)) {
                        return Err(ModelError::invalid_pattern(format!(
                            "general-omission sets of {p} include itself"
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for FailurePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.num_faulty() == 0 {
            return write!(f, "failure-free");
        }
        let mut first = true;
        for p in ProcessorId::all(self.n()) {
            if let Some(b) = self.behavior(p) {
                if !first {
                    write!(f, ", ")?;
                }
                first = false;
                write!(f, "{p}:{b}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessorId {
        ProcessorId::new(i)
    }

    #[test]
    fn modes_parse_from_their_display_form() {
        for mode in FailureMode::ALL_EXTENDED {
            assert_eq!(FailureMode::parse(&mode.to_string()), Ok(mode));
        }
        let err = FailureMode::parse("byzantine").unwrap_err();
        assert_eq!(err.to_string(), "unknown mode `byzantine`");
    }

    #[test]
    fn failure_free_delivers_everything() {
        let pat = FailurePattern::failure_free(3);
        for r in 1..=4u16 {
            for s in 0..3 {
                for d in 0..3 {
                    assert_eq!(pat.delivers(p(s), p(d), Round::new(r)), s != d);
                }
            }
        }
        assert_eq!(pat.nonfaulty_set(), ProcSet::full(3));
    }

    #[test]
    fn crash_behavior_delivery() {
        let b = FaultyBehavior::Crash {
            round: Round::new(2),
            receivers: ProcSet::singleton(p(1)),
        };
        assert!(b.delivers(Round::new(1), p(2)));
        assert!(b.delivers(Round::new(2), p(1)));
        assert!(!b.delivers(Round::new(2), p(2)));
        assert!(!b.delivers(Round::new(3), p(1)));
        assert!(!b.is_dead_in(Round::new(2)));
        assert!(b.is_dead_in(Round::new(3)));
    }

    #[test]
    fn omission_behavior_delivery() {
        let b = FaultyBehavior::Omission {
            omissions: vec![ProcSet::singleton(p(2)), ProcSet::empty()],
        };
        assert!(!b.delivers(Round::new(1), p(2)));
        assert!(b.delivers(Round::new(1), p(1)));
        assert!(b.delivers(Round::new(2), p(2)));
        // Beyond the recorded vector the processor behaves correctly.
        assert!(b.delivers(Round::new(3), p(2)));
        assert!(!b.is_dead_in(Round::new(3)));
    }

    #[test]
    fn clean_behavior_never_deviates() {
        let b = FaultyBehavior::Clean;
        assert!(b.delivers(Round::new(1), p(1)));
        assert_eq!(b.first_deviation(p(0), 4, Time::new(5)), None);
    }

    #[test]
    fn first_deviation_finds_crash() {
        let b = FaultyBehavior::Crash {
            round: Round::new(2),
            receivers: ProcSet::empty(),
        };
        assert_eq!(
            b.first_deviation(p(0), 3, Time::new(4)),
            Some(Round::new(2))
        );
        // Crash in the last round delivering to everyone: no deviation inside
        // the horizon.
        let b = FaultyBehavior::Crash {
            round: Round::new(4),
            receivers: ProcSet::full(3) - ProcSet::singleton(p(0)),
        };
        assert_eq!(b.first_deviation(p(0), 3, Time::new(4)), None);
    }

    #[test]
    fn crashed_receiver_gets_nothing() {
        let pat = FailurePattern::failure_free(3).with_behavior(
            p(1),
            FaultyBehavior::Crash {
                round: Round::new(1),
                receivers: ProcSet::empty(),
            },
        );
        // In its crash round and after, the crashed processor receives
        // nothing.
        assert!(!pat.delivers(p(0), p(1), Round::new(1)));
        assert!(!pat.delivers(p(0), p(1), Round::new(2)));
        assert!(pat.delivers(p(0), p(2), Round::new(1)));
        assert!(pat.crashed_by(p(1), Time::new(1)));
        assert!(!pat.crashed_by(p(1), Time::new(0)));
    }

    #[test]
    fn validate_rejects_too_many_faulty() {
        let pat = FailurePattern::failure_free(3)
            .with_behavior(p(0), FaultyBehavior::Clean)
            .with_behavior(p(1), FaultyBehavior::Clean);
        assert!(pat.validate(FailureMode::Crash, 1, Time::new(2)).is_err());
        assert!(pat.validate(FailureMode::Crash, 2, Time::new(2)).is_ok());
    }

    #[test]
    fn validate_rejects_wrong_mode() {
        let pat = FailurePattern::failure_free(3).with_behavior(
            p(0),
            FaultyBehavior::Crash {
                round: Round::new(1),
                receivers: ProcSet::empty(),
            },
        );
        assert!(pat
            .validate(FailureMode::Omission, 1, Time::new(2))
            .is_err());
        assert!(pat.validate(FailureMode::Crash, 1, Time::new(2)).is_ok());
    }

    #[test]
    fn validate_rejects_horizon_overflow() {
        let pat = FailurePattern::failure_free(3).with_behavior(
            p(0),
            FaultyBehavior::Crash {
                round: Round::new(4),
                receivers: ProcSet::empty(),
            },
        );
        assert!(pat.validate(FailureMode::Crash, 1, Time::new(3)).is_err());
        let pat = FailurePattern::failure_free(3).with_behavior(
            p(0),
            FaultyBehavior::Omission {
                omissions: vec![ProcSet::empty(); 2],
            },
        );
        assert!(pat
            .validate(FailureMode::Omission, 1, Time::new(3))
            .is_err());
        assert!(pat.validate(FailureMode::Omission, 1, Time::new(2)).is_ok());
    }

    #[test]
    fn validate_rejects_self_addressing() {
        let pat = FailurePattern::failure_free(3).with_behavior(
            p(0),
            FaultyBehavior::Omission {
                omissions: vec![ProcSet::singleton(p(0))],
            },
        );
        assert!(pat
            .validate(FailureMode::Omission, 1, Time::new(1))
            .is_err());
    }

    #[test]
    fn truncation_follows_the_canonical_rules() {
        let h = Time::new(2);
        let others = ProcSet::full(3) - ProcSet::singleton(p(0));
        // Clean stays clean.
        assert_eq!(
            FaultyBehavior::Clean.truncated_to(p(0), 3, h),
            Some(FaultyBehavior::Clean)
        );
        // A crash inside the base horizon is kept verbatim.
        let early = FaultyBehavior::Crash {
            round: Round::new(1),
            receivers: ProcSet::empty(),
        };
        assert_eq!(early.truncated_to(p(0), 3, h), Some(early.clone()));
        // A crash after the base horizon is invisible inside it.
        let late = FaultyBehavior::Crash {
            round: Round::new(3),
            receivers: ProcSet::empty(),
        };
        assert_eq!(late.truncated_to(p(0), 3, h), Some(FaultyBehavior::Clean));
        // A crash at the base horizon delivering to all others has no
        // canonical counterpart (the crashed view freezes, Clean's grows).
        let boundary = FaultyBehavior::Crash {
            round: Round::new(2),
            receivers: others,
        };
        assert_eq!(boundary.truncated_to(p(0), 3, h), None);
        // …but delivering to a strict subset keeps the crash.
        let partial = FaultyBehavior::Crash {
            round: Round::new(2),
            receivers: ProcSet::singleton(p(1)),
        };
        assert_eq!(partial.truncated_to(p(0), 3, h), Some(partial.clone()));
        // Omission vectors are cut to the base horizon.
        let omit = FaultyBehavior::Omission {
            omissions: vec![
                ProcSet::singleton(p(1)),
                ProcSet::empty(),
                ProcSet::singleton(p(2)),
            ],
        };
        assert_eq!(
            omit.truncated_to(p(0), 3, h),
            Some(FaultyBehavior::Omission {
                omissions: vec![ProcSet::singleton(p(1)), ProcSet::empty()],
            })
        );
    }

    #[test]
    fn general_omission_truncation_cuts_both_axes() {
        // Truncation of a general-omission behavior cuts the send *and*
        // receive vectors independently to the base horizon — neither axis
        // leaks rounds of the other.
        let behavior = FaultyBehavior::GeneralOmission {
            send: vec![
                ProcSet::singleton(p(1)),
                ProcSet::empty(),
                ProcSet::singleton(p(2)),
            ],
            receive: vec![
                ProcSet::empty(),
                ProcSet::singleton(p(2)),
                ProcSet::singleton(p(1)),
            ],
        };
        assert_eq!(
            behavior.truncated_to(p(0), 3, Time::new(2)),
            Some(FaultyBehavior::GeneralOmission {
                send: vec![ProcSet::singleton(p(1)), ProcSet::empty()],
                receive: vec![ProcSet::empty(), ProcSet::singleton(p(2))],
            })
        );
        // Unlike a boundary crash, general omission always has a canonical
        // truncation — even when every message of the final round is lost.
        let everything_lost = FaultyBehavior::GeneralOmission {
            send: vec![
                ProcSet::empty(),
                ProcSet::full(3) - ProcSet::singleton(p(0)),
            ],
            receive: vec![
                ProcSet::empty(),
                ProcSet::full(3) - ProcSet::singleton(p(0)),
            ],
        };
        assert_eq!(
            everything_lost.truncated_to(p(0), 3, Time::new(1)),
            Some(FaultyBehavior::GeneralOmission {
                send: vec![ProcSet::empty()],
                receive: vec![ProcSet::empty()],
            })
        );
    }

    #[test]
    fn general_omission_truncate_after_pad_is_identity_on_all_patterns() {
        // `truncate ∘ pad = id` over the *entire* canonical general-omission
        // enumeration of a small scenario, and padding never disturbs
        // deliveries or receptions inside the base horizon.
        let base = Time::new(2);
        let extended = Time::new(4);
        let scenario = crate::Scenario::new(3, 1, FailureMode::GeneralOmission, 2).unwrap();
        let mut checked = 0usize;
        for pattern in crate::enumerate::patterns(&scenario) {
            let padded = pattern.padded_to(extended);
            padded
                .validate(FailureMode::GeneralOmission, 1, extended)
                .unwrap();
            for q in 0..3 {
                let Some(behavior) = pattern.behavior(p(q)) else {
                    continue;
                };
                let grown = padded.behavior(p(q)).unwrap();
                for r in 1..=2u16 {
                    for other in (0..3).filter(|&o| o != q) {
                        assert_eq!(
                            behavior.delivers(Round::new(r), p(other)),
                            grown.delivers(Round::new(r), p(other)),
                            "{pattern}: send side moved inside the base horizon"
                        );
                        assert_eq!(
                            behavior.receives(Round::new(r), p(other)),
                            grown.receives(Round::new(r), p(other)),
                            "{pattern}: receive side moved inside the base horizon"
                        );
                    }
                }
            }
            assert_eq!(
                padded.truncated_to(base),
                Some(pattern),
                "truncation failed to undo padding"
            );
            checked += 1;
        }
        // The sweep really covered the general-omission space (1 failure-free
        // pattern plus 3 · 4^2 · 4^2 single-faulty behaviors).
        assert_eq!(checked, 769);
    }

    #[test]
    fn padding_round_trips_through_truncation() {
        let base = Time::new(2);
        let extended = Time::new(4);
        let behaviors = [
            FaultyBehavior::Clean,
            FaultyBehavior::Crash {
                round: Round::new(2),
                receivers: ProcSet::singleton(p(1)),
            },
            FaultyBehavior::Omission {
                omissions: vec![ProcSet::singleton(p(2)), ProcSet::empty()],
            },
            FaultyBehavior::GeneralOmission {
                send: vec![ProcSet::singleton(p(1)), ProcSet::empty()],
                receive: vec![ProcSet::empty(), ProcSet::singleton(p(2))],
            },
        ];
        for behavior in behaviors {
            let padded = behavior.padded_to(extended);
            // Padding never changes deliveries inside the base horizon …
            for r in 1..=2u16 {
                for q in 0..3 {
                    assert_eq!(
                        behavior.delivers(Round::new(r), p(q)),
                        padded.delivers(Round::new(r), p(q))
                    );
                }
            }
            // … and truncation undoes it exactly.
            assert_eq!(padded.truncated_to(p(0), 3, base), Some(behavior));
        }
    }

    #[test]
    fn pattern_truncation_preserves_the_faulty_set() {
        let pattern = FailurePattern::failure_free(3)
            .with_behavior(
                p(0),
                FaultyBehavior::Crash {
                    round: Round::new(3),
                    receivers: ProcSet::empty(),
                },
            )
            .with_behavior(p(2), FaultyBehavior::Clean);
        let truncated = pattern.truncated_to(Time::new(2)).unwrap();
        assert_eq!(truncated.faulty_set(), pattern.faulty_set());
        assert_eq!(truncated.behavior(p(0)), Some(&FaultyBehavior::Clean));
        // A single non-truncatable behavior poisons the whole pattern.
        let poisoned = pattern.with_behavior(
            p(1),
            FaultyBehavior::Crash {
                round: Round::new(2),
                receivers: ProcSet::full(3) - ProcSet::singleton(p(1)),
            },
        );
        assert_eq!(poisoned.truncated_to(Time::new(2)), None);
    }

    #[test]
    fn pattern_padding_is_valid_at_the_larger_horizon() {
        let pattern = FailurePattern::failure_free(3).with_behavior(
            p(1),
            FaultyBehavior::Omission {
                omissions: vec![ProcSet::singleton(p(0))],
            },
        );
        let padded = pattern.padded_to(Time::new(3));
        padded
            .validate(FailureMode::Omission, 1, Time::new(3))
            .unwrap();
        assert_eq!(padded.truncated_to(Time::new(1)), Some(pattern));
    }

    #[test]
    fn display_is_informative() {
        let pat = FailurePattern::failure_free(2);
        assert_eq!(pat.to_string(), "failure-free");
        let pat = pat.with_behavior(p(0), FaultyBehavior::Clean);
        assert!(pat.to_string().contains("p1:clean"));
    }
}
