//! Information-exchange descriptors.
//!
//! The paper analyzes *full-information* protocols: every processor
//! sends its entire local state to everyone in every round, so the local
//! state at time `m` is the full view tree of Section 2.4. The follow-up
//! literature on limited information exchange (van der Meyden,
//! arXiv 2508.03418; Alpturer–Ruj, arXiv 2511.22380) shows that
//! bounded-size message digests — fixed-size who-heard-what summaries —
//! preserve the optimality structure the knowledge machinery checks,
//! while keeping the per-processor state space *bounded in the horizon*.
//!
//! [`ExchangeKind`] is the model-level descriptor of which exchange a
//! scenario runs: it is part of the [`crate::Scenario`] identity, so
//! systems generated under different exchanges never compare equal and
//! never extend into each other. The sim layer maps the descriptor to an
//! executable exchange implementation.

use crate::ModelError;
use std::fmt;

/// Which information exchange a scenario's processors run; see the
/// module docs. The default ([`ExchangeKind::FullInformation`]) is the
/// paper's FIP and preserves every prior behavior of the engine.
///
/// # Example
///
/// ```
/// use eba_model::ExchangeKind;
///
/// let digest = ExchangeKind::parse("digest:32").unwrap();
/// assert_eq!(digest, ExchangeKind::Digest { bits: 32 });
/// assert!(!digest.is_full());
/// assert_eq!(ExchangeKind::parse("full").unwrap(), ExchangeKind::default());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum ExchangeKind {
    /// The paper's full-information protocol: the round message is the
    /// entire local state, and the interned state is the full view tree.
    #[default]
    FullInformation,
    /// A bounded digest exchange: the round message and the interned
    /// state are a fixed-size who-heard-what summary (per-processor
    /// knowledge sets) plus an optional content fingerprint truncated to
    /// `bits` bits. `bits = 0` keeps the pure bounded summary; larger
    /// `bits` makes state identity finer (at 64 bits, collisions are
    /// negligible) at the cost of a state space that can grow with the
    /// horizon again.
    Digest {
        /// Fingerprint width in bits, `0..=64`.
        bits: u8,
    },
}

/// The widest digest fingerprint (the full 64-bit content hash).
pub const MAX_DIGEST_BITS: u8 = 64;

impl ExchangeKind {
    /// A digest exchange with a validated fingerprint width.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidScenario`] if `bits > 64`.
    pub fn digest(bits: u8) -> Result<Self, ModelError> {
        if bits > MAX_DIGEST_BITS {
            return Err(ModelError::invalid_scenario(format!(
                "digest fingerprint width {bits} exceeds the maximum of {MAX_DIGEST_BITS} bits"
            )));
        }
        Ok(ExchangeKind::Digest { bits })
    }

    /// Parses the CLI spelling: `full` or `digest:<bits>`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidScenario`] on any other spelling or
    /// an out-of-range width.
    pub fn parse(spec: &str) -> Result<Self, ModelError> {
        if spec == "full" {
            return Ok(ExchangeKind::FullInformation);
        }
        if let Some(bits) = spec.strip_prefix("digest:") {
            let bits: u8 = bits.parse().map_err(|_| {
                ModelError::invalid_scenario(format!(
                    "bad digest fingerprint width `{bits}` (want 0..={MAX_DIGEST_BITS})"
                ))
            })?;
            return ExchangeKind::digest(bits);
        }
        Err(ModelError::invalid_scenario(format!(
            "unknown exchange `{spec}` (want `full` or `digest:<bits>`)"
        )))
    }

    /// Whether this is the paper's full-information exchange.
    #[must_use]
    pub fn is_full(self) -> bool {
        matches!(self, ExchangeKind::FullInformation)
    }

    /// Whether the incremental engine's append-only session extension
    /// ([`crate::Scenario::extend_horizon`] and everything built on it)
    /// is supported for this exchange.
    ///
    /// This is a **validation boundary, not a mathematical limit**: any
    /// exchange defined by a leaf and a per-round step extends soundly by
    /// replaying appended rounds. The sweep's byte-identical-to-cold
    /// contract, however, is certified by the differential suites only
    /// for exchanges whose interned state identity carries no truncated
    /// fingerprint — full information and `digest:0`. Fingerprinted
    /// digests (`bits > 0`) are conservatively rebuild-only until their
    /// extension path earns the same differential coverage.
    #[must_use]
    pub fn supports_session_extension(self) -> bool {
        match self {
            ExchangeKind::FullInformation => true,
            ExchangeKind::Digest { bits } => bits == 0,
        }
    }
}

impl fmt::Display for ExchangeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExchangeKind::FullInformation => write!(f, "full"),
            ExchangeKind::Digest { bits } => write!(f, "digest:{bits}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_with_display() {
        for spec in ["full", "digest:0", "digest:32", "digest:64"] {
            let kind = ExchangeKind::parse(spec).unwrap();
            assert_eq!(kind.to_string(), spec);
        }
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(ExchangeKind::parse("digest").is_err());
        assert!(ExchangeKind::parse("digest:65").is_err());
        assert!(ExchangeKind::parse("digest:x").is_err());
        assert!(ExchangeKind::parse("views").is_err());
        assert!(ExchangeKind::digest(65).is_err());
    }

    #[test]
    fn default_is_full_information() {
        assert_eq!(ExchangeKind::default(), ExchangeKind::FullInformation);
        assert!(ExchangeKind::FullInformation.is_full());
        assert!(!ExchangeKind::Digest { bits: 0 }.is_full());
    }

    #[test]
    fn session_extension_policy() {
        assert!(ExchangeKind::FullInformation.supports_session_extension());
        assert!(ExchangeKind::Digest { bits: 0 }.supports_session_extension());
        assert!(!ExchangeKind::Digest { bits: 1 }.supports_session_extension());
        assert!(!ExchangeKind::Digest { bits: 64 }.supports_session_extension());
    }
}
