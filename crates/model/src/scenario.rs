//! Finite system scenarios.

use crate::{ExchangeKind, FailureMode, FailurePattern, ModelError, Time};
use std::fmt;

/// A fully-specified finite instance of the paper's model: `n` processors,
/// at most `t` of which may be faulty, a [`FailureMode`], and a finite
/// *horizon* (the number of rounds a generated system simulates).
///
/// # Horizon
///
/// The paper's systems contain runs of unbounded length; the reproduction
/// works with a finite horizon `T`. Every protocol studied in the paper
/// decides by time `t + 1` (crash) or `f + 1 ≤ t + 1` (the omission-mode
/// 0-chain protocol), so a horizon of `t + 2`
/// ([`Scenario::recommended_horizon`]) captures every decision and makes
/// the knowledge tests the protocols use stable; see DESIGN.md §2 and the
/// horizon ablation in EXP10.
///
/// # Example
///
/// ```
/// use eba_model::{FailureMode, Scenario};
///
/// # fn main() -> Result<(), eba_model::ModelError> {
/// let s = Scenario::new(4, 1, FailureMode::Crash, 3)?;
/// assert_eq!(s.n(), 4);
/// assert_eq!(s.t(), 1);
/// assert_eq!(s.horizon().ticks(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Scenario {
    n: usize,
    t: usize,
    mode: FailureMode,
    horizon: Time,
    exchange: ExchangeKind,
}

impl Scenario {
    /// Creates a scenario.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidScenario`] if `n < 2`, `n > 128`,
    /// `t ≥ n`, or `horizon < 1`.
    pub fn new(n: usize, t: usize, mode: FailureMode, horizon: u16) -> Result<Self, ModelError> {
        if n < 2 {
            return Err(ModelError::invalid_scenario("need at least two processors"));
        }
        if n > crate::ProcessorId::MAX_PROCESSORS {
            return Err(ModelError::invalid_scenario(format!(
                "n = {n} exceeds the supported maximum of {}",
                crate::ProcessorId::MAX_PROCESSORS
            )));
        }
        if t >= n {
            return Err(ModelError::invalid_scenario(format!(
                "t = {t} must be smaller than n = {n}"
            )));
        }
        if horizon == 0 {
            return Err(ModelError::invalid_scenario(
                "horizon must cover at least one round",
            ));
        }
        Ok(Scenario {
            n,
            t,
            mode,
            horizon: Time::new(horizon),
            exchange: ExchangeKind::FullInformation,
        })
    }

    /// Creates a scenario with the recommended horizon `t + 2`.
    ///
    /// # Errors
    ///
    /// Same as [`Scenario::new`]. The parameters are validated before
    /// `t + 2` is computed, so no `t` can overflow the horizon.
    pub fn with_recommended_horizon(
        n: usize,
        t: usize,
        mode: FailureMode,
    ) -> Result<Self, ModelError> {
        let scenario = Scenario::new(n, t, mode, 1)?;
        scenario.with_horizon(scenario.recommended_horizon().ticks())
    }

    /// Number of processors.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Upper bound on the number of faulty processors.
    #[must_use]
    pub fn t(&self) -> usize {
        self.t
    }

    /// The failure mode.
    #[must_use]
    pub fn mode(&self) -> FailureMode {
        self.mode
    }

    /// The information exchange the scenario's processors run
    /// ([`ExchangeKind::FullInformation`] unless overridden by
    /// [`Scenario::with_exchange`]).
    #[must_use]
    pub fn exchange(&self) -> ExchangeKind {
        self.exchange
    }

    /// The horizon: generated runs cover times `0..=horizon`.
    #[must_use]
    pub fn horizon(&self) -> Time {
        self.horizon
    }

    /// The recommended horizon for this `(n, t)`: `t + 2` rounds.
    #[must_use]
    pub fn recommended_horizon(&self) -> Time {
        Time::new(self.t as u16 + 2)
    }

    /// Returns a copy of this scenario with a different horizon (the
    /// exchange and every other parameter are preserved).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidScenario`] if `horizon < 1`.
    pub fn with_horizon(self, horizon: u16) -> Result<Self, ModelError> {
        Scenario::new(self.n, self.t, self.mode, horizon).map(|s| Scenario {
            exchange: self.exchange,
            ..s
        })
    }

    /// Returns a copy of this scenario running a different information
    /// exchange.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidScenario`] for a digest fingerprint
    /// width above 64 bits.
    pub fn with_exchange(self, exchange: ExchangeKind) -> Result<Self, ModelError> {
        if let ExchangeKind::Digest { bits } = exchange {
            // Re-validate: the enum's fields are public, so a width that
            // bypassed `ExchangeKind::digest` is caught here before it
            // can reach a generated system.
            ExchangeKind::digest(bits)?;
        }
        Ok(Scenario { exchange, ..self })
    }

    /// Produces the delta spec of an **append-only horizon extension**:
    /// the same `(n, t, mode)` simulated for more rounds. The returned
    /// [`HorizonDelta`] is what the incremental engine consumes — it
    /// carries both scenarios plus the pattern translation helpers
    /// (truncate a pattern of the extended space to the base space, pad a
    /// base pattern into the extended space) that let
    /// `SystemBuilder::extend` reuse base-horizon view prefixes.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidScenario`] if `horizon` does not
    /// strictly exceed the current one.
    pub fn extend_horizon(&self, horizon: u16) -> Result<HorizonDelta, ModelError> {
        if !self.exchange.supports_session_extension() {
            return Err(ModelError::invalid_scenario(format!(
                "exchange `{}` does not support session extension \
                 (see ExchangeKind::supports_session_extension); rebuild at the target horizon",
                self.exchange
            )));
        }
        if Time::new(horizon) <= self.horizon {
            return Err(ModelError::invalid_scenario(format!(
                "extended horizon {horizon} must exceed the current horizon {}",
                self.horizon.ticks()
            )));
        }
        Ok(HorizonDelta {
            base: *self,
            extended: self.with_horizon(horizon)?,
        })
    }

    /// Like [`Scenario::extend_horizon`], but validated against a full
    /// target scenario — the form the incremental builder uses.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidScenario`] unless `target` has the
    /// same `n`, `t`, mode, and exchange and a strictly larger horizon.
    pub fn extend_into(&self, target: &Scenario) -> Result<HorizonDelta, ModelError> {
        if self.n != target.n
            || self.t != target.t
            || self.mode != target.mode
            || self.exchange != target.exchange
        {
            return Err(ModelError::invalid_scenario(format!(
                "cannot extend {self} into {target}: only the horizon may change"
            )));
        }
        self.extend_horizon(target.horizon.ticks())
    }

    /// Validates a failure pattern against this scenario.
    ///
    /// # Errors
    ///
    /// See [`FailurePattern::validate`]; additionally rejects patterns
    /// whose processor count differs from `n`.
    pub fn validate_pattern(&self, pattern: &FailurePattern) -> Result<(), ModelError> {
        if pattern.n() != self.n {
            return Err(ModelError::invalid_pattern(format!(
                "pattern is over {} processors, scenario has {}",
                pattern.n(),
                self.n
            )));
        }
        pattern.validate(self.mode, self.t, self.horizon)
    }
}

/// The delta spec of an append-only horizon extension: a base scenario
/// and the same scenario with a strictly larger horizon (see
/// [`Scenario::extend_horizon`]).
///
/// Growing the horizon grows a scenario along **two** axes at once: every
/// existing run gains `added_rounds` new time steps, and the pattern
/// space itself grows (new crash rounds, longer omission vectors). The
/// translation helpers below relate the two spaces: a pattern of the
/// extended space whose truncation is found in the base space shares its
/// entire base-horizon view prefix with that base run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HorizonDelta {
    base: Scenario,
    extended: Scenario,
}

impl HorizonDelta {
    /// The scenario being extended.
    #[must_use]
    pub fn base(&self) -> &Scenario {
        &self.base
    }

    /// The scenario after extension (same `n`, `t`, mode; larger horizon).
    #[must_use]
    pub fn extended(&self) -> &Scenario {
        &self.extended
    }

    /// How many rounds the extension appends.
    #[must_use]
    pub fn added_rounds(&self) -> u16 {
        self.extended.horizon().ticks() - self.base.horizon().ticks()
    }

    /// Truncates a pattern of the extended space to the base space; see
    /// [`FailurePattern::truncated_to`]. `None` means the pattern's
    /// base-horizon prefix matches no canonical base pattern and must be
    /// simulated from scratch.
    #[must_use]
    pub fn truncate_pattern(&self, pattern: &FailurePattern) -> Option<FailurePattern> {
        pattern.truncated_to(self.base.horizon())
    }

    /// Pads a pattern of the base space into the extended space; see
    /// [`FailurePattern::padded_to`].
    #[must_use]
    pub fn pad_pattern(&self, pattern: &FailurePattern) -> FailurePattern {
        pattern.padded_to(self.extended.horizon())
    }
}

impl fmt::Display for HorizonDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} extended to T={}",
            self.base,
            self.extended.horizon().ticks()
        )
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} t={} mode={} T={}",
            self.n,
            self.t,
            self.mode,
            self.horizon.ticks()
        )?;
        // Full information is the paper's default and stays implicit, so
        // every pre-exchange rendering (and test expectation) is stable.
        if !self.exchange.is_full() {
            write!(f, " exchange={}", self.exchange)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultyBehavior, ProcessorId};

    #[test]
    fn valid_scenario() {
        let s = Scenario::new(4, 2, FailureMode::Omission, 4).unwrap();
        assert_eq!(s.n(), 4);
        assert_eq!(s.t(), 2);
        assert_eq!(s.mode(), FailureMode::Omission);
        assert_eq!(s.horizon(), Time::new(4));
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(Scenario::new(1, 0, FailureMode::Crash, 2).is_err());
        assert!(Scenario::new(3, 3, FailureMode::Crash, 2).is_err());
        assert!(Scenario::new(3, 1, FailureMode::Crash, 0).is_err());
        assert!(Scenario::new(129, 1, FailureMode::Crash, 2).is_err());
    }

    #[test]
    fn recommended_horizon_is_t_plus_two() {
        let s = Scenario::with_recommended_horizon(5, 2, FailureMode::Crash).unwrap();
        assert_eq!(s.horizon(), Time::new(4));
        assert_eq!(s.recommended_horizon(), Time::new(4));
    }

    #[test]
    fn recommended_horizon_validates_before_adding() {
        // `t + 2` would overflow a `u16` horizon; the error is the model's.
        let err = Scenario::with_recommended_horizon(3, 65534, FailureMode::Crash).unwrap_err();
        assert!(
            err.to_string()
                .contains("t = 65534 must be smaller than n = 3"),
            "{err}"
        );
    }

    #[test]
    fn with_horizon_changes_only_horizon() {
        let s = Scenario::new(4, 1, FailureMode::Crash, 3).unwrap();
        let s2 = s.with_horizon(5).unwrap();
        assert_eq!(s2.horizon(), Time::new(5));
        assert_eq!(s2.n(), 4);
    }

    #[test]
    fn validate_pattern_checks_size_and_content() {
        let s = Scenario::new(3, 1, FailureMode::Crash, 2).unwrap();
        assert!(s
            .validate_pattern(&FailurePattern::failure_free(4))
            .is_err());
        assert!(s.validate_pattern(&FailurePattern::failure_free(3)).is_ok());
        let bad = FailurePattern::failure_free(3).with_behavior(
            ProcessorId::new(0),
            FaultyBehavior::Omission { omissions: vec![] },
        );
        assert!(s.validate_pattern(&bad).is_err());
    }

    #[test]
    fn display() {
        let s = Scenario::new(4, 1, FailureMode::Crash, 3).unwrap();
        assert_eq!(s.to_string(), "n=4 t=1 mode=crash T=3");
    }

    #[test]
    fn with_exchange_threads_through_horizon_changes() {
        let s = Scenario::new(4, 1, FailureMode::Crash, 3)
            .unwrap()
            .with_exchange(ExchangeKind::Digest { bits: 0 })
            .unwrap();
        assert_eq!(s.exchange(), ExchangeKind::Digest { bits: 0 });
        assert_eq!(s.to_string(), "n=4 t=1 mode=crash T=3 exchange=digest:0");
        // `with_horizon` routes through `Scenario::new`; the exchange must
        // survive the round trip.
        let s2 = s.with_horizon(5).unwrap();
        assert_eq!(s2.exchange(), ExchangeKind::Digest { bits: 0 });
        // Out-of-range widths are rejected even when the enum is built
        // directly (its fields are public).
        assert!(Scenario::new(4, 1, FailureMode::Crash, 3)
            .unwrap()
            .with_exchange(ExchangeKind::Digest { bits: 65 })
            .is_err());
    }

    #[test]
    fn extension_respects_exchange_policy() {
        let full = Scenario::new(3, 1, FailureMode::Crash, 3).unwrap();
        // digest:0 extends like full information…
        let d0 = full
            .with_exchange(ExchangeKind::Digest { bits: 0 })
            .unwrap();
        let delta = d0.extend_horizon(4).unwrap();
        assert_eq!(
            delta.extended().exchange(),
            ExchangeKind::Digest { bits: 0 }
        );
        // …fingerprinted digests are rebuild-only…
        let d32 = full
            .with_exchange(ExchangeKind::Digest { bits: 32 })
            .unwrap();
        let err = d32.extend_horizon(4).unwrap_err();
        assert!(err.to_string().contains("session extension"), "{err}");
        // …and a base never extends into a target with a different
        // exchange, even when both support extension on their own.
        let full_t4 = full.with_horizon(4).unwrap();
        assert!(d0.extend_into(&full_t4).is_err());
        assert!(full.extend_into(&full_t4).is_ok());
    }

    #[test]
    fn extend_horizon_requires_strict_growth() {
        let s = Scenario::new(3, 1, FailureMode::Crash, 3).unwrap();
        assert!(s.extend_horizon(3).is_err());
        assert!(s.extend_horizon(2).is_err());
        let delta = s.extend_horizon(5).unwrap();
        assert_eq!(delta.base(), &s);
        assert_eq!(delta.extended().horizon(), Time::new(5));
        assert_eq!(delta.extended().n(), 3);
        assert_eq!(delta.added_rounds(), 2);
        assert_eq!(delta.to_string(), "n=3 t=1 mode=crash T=3 extended to T=5");
    }

    #[test]
    fn delta_pattern_helpers_translate_both_ways() {
        let s = Scenario::new(3, 1, FailureMode::Omission, 2).unwrap();
        let delta = s.extend_horizon(3).unwrap();
        let base_pattern = FailurePattern::failure_free(3).with_behavior(
            ProcessorId::new(1),
            FaultyBehavior::Omission {
                omissions: vec![crate::ProcSet::singleton(ProcessorId::new(0)); 2],
            },
        );
        let padded = delta.pad_pattern(&base_pattern);
        delta.extended().validate_pattern(&padded).unwrap();
        assert_eq!(delta.truncate_pattern(&padded), Some(base_pattern));
    }
}
