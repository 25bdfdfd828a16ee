//! Error types.

use std::error::Error;
use std::fmt;

/// An error produced while constructing or validating model objects.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ModelError {
    /// A scenario's parameters are inconsistent (e.g. `t ≥ n`).
    InvalidScenario {
        /// Human-readable description of the violation.
        reason: String,
    },
    /// A failure pattern violates its scenario's constraints.
    InvalidPattern {
        /// Human-readable description of the violation.
        reason: String,
    },
    /// A failure-mode spelling that names no [`crate::FailureMode`].
    UnknownMode {
        /// The rejected spelling.
        spec: String,
    },
    /// A generated artifact outgrew a fixed-width id space (e.g. more
    /// distinct views than a `u32` view id can index).
    CapacityExceeded {
        /// The id space or table that overflowed.
        what: &'static str,
        /// The largest count the representation supports.
        limit: u128,
    },
}

impl ModelError {
    pub(crate) fn invalid_scenario(reason: impl Into<String>) -> Self {
        ModelError::InvalidScenario {
            reason: reason.into(),
        }
    }

    pub(crate) fn invalid_pattern(reason: impl Into<String>) -> Self {
        ModelError::InvalidPattern {
            reason: reason.into(),
        }
    }

    /// An error reporting that `what` cannot hold more than `limit` items.
    ///
    /// Public because downstream crates (the simulator's system builder)
    /// surface their own id-space overflows through this type.
    #[must_use]
    pub fn capacity_exceeded(what: &'static str, limit: u128) -> Self {
        ModelError::CapacityExceeded { what, limit }
    }
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::InvalidScenario { reason } => {
                write!(f, "invalid scenario: {reason}")
            }
            ModelError::InvalidPattern { reason } => {
                write!(f, "invalid failure pattern: {reason}")
            }
            ModelError::UnknownMode { spec } => write!(f, "unknown mode `{spec}`"),
            ModelError::CapacityExceeded { what, limit } => {
                write!(f, "capacity exceeded: {what} holds at most {limit} items")
            }
        }
    }
}

impl Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_reason() {
        let e = ModelError::invalid_scenario("t must be smaller than n");
        assert!(e.to_string().contains("t must be smaller than n"));
        let e = ModelError::invalid_pattern("too many failures");
        assert!(e.to_string().contains("too many failures"));
    }

    #[test]
    fn is_std_error() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<ModelError>();
    }
}
