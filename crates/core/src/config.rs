//! One engine configuration behind every front end.
//!
//! `eba-check` and `eba-serve` fill an [`EngineOptions`] from their own
//! input; [`EngineConfig::new`] applies the defaults and every conflict
//! rule they share, and [`EngineSession::open`](crate::EngineSession::open)
//! builds the configured system. A front end only renders a
//! [`ConfigError`] in its own terms.

use eba_kripke::Formula;
use eba_model::{ExchangeKind, FailureMode, ModelError, RunBudget, Scenario};
use eba_sim::chaos::FaultInjector;
use eba_sim::RUN_CAPACITY;
use std::fmt;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Every setting that can change an answer; the daemon's pool key.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ScenarioSpec {
    /// Number of processors.
    pub n: usize,
    /// Failure bound.
    pub t: usize,
    /// Failure mode.
    pub mode: FailureMode,
    /// Information exchange.
    pub exchange: ExchangeKind,
    /// Horizon (rounds simulated).
    pub horizon: u16,
    /// `Some((runs, seed))` for a sampled system.
    pub sampled: Option<(usize, u64)>,
    /// Build the symmetry quotient (one pattern per `Sym(n)` orbit).
    pub symmetry: bool,
}

impl ScenarioSpec {
    /// Fits the spec to `formula`, returning whether it dropped the
    /// quotient: the quotient preserves verdicts only for
    /// processor-symmetric formulas (DESIGN.md §4i), so a formula naming
    /// specific processors is checked on the unreduced system.
    pub fn for_formula(&mut self, formula: &Formula) -> bool {
        // Parsed formulas cannot reference engine-registered state-set
        // families, so the family orbit-closure oracle is never consulted.
        let dropped = self.symmetry && !formula.symmetric_under_relabeling(&mut |_| true);
        self.symmetry &= !dropped;
        dropped
    }
}

/// A front end's request, before [`EngineConfig::new`]; the default is
/// n = 3, t = 1, crash, full information, exhaustive and unbudgeted.
#[derive(Clone, Copy, Debug)]
pub struct EngineOptions {
    /// Number of processors.
    pub n: usize,
    /// Failure bound.
    pub t: usize,
    /// Failure mode.
    pub mode: FailureMode,
    /// Information exchange.
    pub exchange: ExchangeKind,
    /// Horizon, or the first horizon of a sweep; `None` is `t + 2`.
    pub horizon: Option<u16>,
    /// `Some((runs, seed))` for a sampled system.
    pub sampled: Option<(usize, u64)>,
    /// Build the symmetry quotient.
    pub symmetry: bool,
    /// The session will be grown horizon by horizon.
    pub sweep: bool,
    /// Bounds on the exhaustive build.
    pub budget: RunBudget,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            n: 3,
            t: 1,
            mode: FailureMode::Crash,
            exchange: ExchangeKind::FullInformation,
            horizon: None,
            sampled: None,
            symmetry: false,
            sweep: false,
            budget: RunBudget::unlimited(),
        }
    }
}

/// Options that conflict, or a scenario the model rejects.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ConfigError {
    /// The symmetry quotient of a sampled system.
    SymmetryNeedsExhaustive,
    /// The symmetry quotient under an exchange whose states carry labels.
    SymmetryNeedsFullExchange(ExchangeKind),
    /// A run budget for a sampled system.
    BudgetNeedsExhaustive,
    /// A sweep of a sampled system.
    SweepNeedsExhaustive,
    /// A sweep under an exchange that cannot extend a session.
    SweepNeedsExtension(ExchangeKind),
    /// The model rejected the scenario.
    Scenario(ModelError),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::SymmetryNeedsExhaustive => write!(
                f,
                "the symmetry quotient needs the exhaustive system; drop `sampled`"
            ),
            ConfigError::SymmetryNeedsFullExchange(exchange) => write!(
                f,
                "the symmetry quotient requires the full exchange; `{exchange}` bakes \
                 processor labels into its bounded states"
            ),
            ConfigError::BudgetNeedsExhaustive => {
                write!(f, "budgets govern exhaustive generation; drop `sampled`")
            }
            ConfigError::SweepNeedsExhaustive => {
                write!(f, "sweeps need the exhaustive system; drop `sampled`")
            }
            ConfigError::SweepNeedsExtension(exchange) => write!(
                f,
                "sweeps need an exchange supporting session extension; `{exchange}` is \
                 rebuild-only"
            ),
            ConfigError::Scenario(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// A validated [`ScenarioSpec`] plus the settings that never change an
/// answer.
#[derive(Clone)]
pub struct EngineConfig {
    spec: ScenarioSpec,
    scenario: Scenario,
    budget: RunBudget,
    /// Worker threads for builds and extensions (`None` = all cores);
    /// evaluation always runs on the calling thread.
    pub threads: Option<usize>,
    /// Fault injector for exhaustive builds (the self-chaos hook).
    pub chaos: Option<Arc<dyn FaultInjector>>,
}

impl fmt::Debug for EngineConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EngineConfig")
            .field("spec", &self.spec)
            .field("budget", &self.budget)
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl EngineConfig {
    /// Checks the shared conflict rules in the variants' order, then
    /// validates the scenario, the horizon defaulting to `t + 2`.
    ///
    /// # Errors
    ///
    /// The first [`ConfigError`] that applies.
    pub fn new(options: EngineOptions) -> Result<Self, ConfigError> {
        let (exchange, sampled) = (options.exchange, options.sampled.is_some());
        if options.symmetry && sampled {
            return Err(ConfigError::SymmetryNeedsExhaustive);
        }
        if options.symmetry && !exchange.is_full() {
            return Err(ConfigError::SymmetryNeedsFullExchange(exchange));
        }
        if options.budget.is_bounded() && sampled {
            return Err(ConfigError::BudgetNeedsExhaustive);
        }
        if options.sweep && sampled {
            return Err(ConfigError::SweepNeedsExhaustive);
        }
        if options.sweep && !exchange.supports_session_extension() {
            return Err(ConfigError::SweepNeedsExtension(exchange));
        }
        let (n, t, mode) = (options.n, options.t, options.mode);
        let scenario = match options.horizon {
            Some(horizon) => Scenario::new(n, t, mode, horizon),
            None => Scenario::with_recommended_horizon(n, t, mode),
        }
        .and_then(|s| s.with_exchange(exchange))
        .map_err(ConfigError::Scenario)?;
        // A sampled system holds up to two runs per sample (the sample
        // and its configuration's failure-free run).
        if let Some((runs, _)) = options.sampled {
            if 2 * runs as u128 > RUN_CAPACITY {
                let e = ModelError::capacity_exceeded("run ids", RUN_CAPACITY);
                return Err(ConfigError::Scenario(e));
            }
        }
        let spec = ScenarioSpec {
            n,
            t,
            mode,
            exchange,
            horizon: scenario.horizon().ticks(),
            sampled: options.sampled,
            symmetry: options.symmetry,
        };
        Ok(EngineConfig {
            spec,
            scenario,
            budget: options.budget,
            threads: None,
            chaos: None,
        })
    }

    /// The scenario spec.
    #[must_use]
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// The spec's validated scenario.
    #[must_use]
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The budget of an exhaustive build.
    #[must_use]
    pub fn budget(&self) -> &RunBudget {
        &self.budget
    }

    /// Attaches a cancellation flag (SIGINT, a server drain) to the budget.
    #[must_use]
    pub fn with_interrupt(mut self, flag: &'static AtomicBool) -> Self {
        self.budget = self.budget.with_interrupt(flag);
        self
    }

    /// Fits the spec to `formula`; see [`ScenarioSpec::for_formula`].
    pub fn for_formula(&mut self, formula: &Formula) -> bool {
        self.spec.for_formula(formula)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineSession;

    #[test]
    fn each_shared_conflict_has_its_own_error() {
        let base = EngineOptions::default();
        let sampled = Some((5, 1));
        let digest = |bits| ExchangeKind::Digest { bits };
        let cases = [
            (
                EngineOptions {
                    symmetry: true,
                    sampled,
                    ..base
                },
                ConfigError::SymmetryNeedsExhaustive,
            ),
            (
                EngineOptions {
                    symmetry: true,
                    exchange: digest(0),
                    ..base
                },
                ConfigError::SymmetryNeedsFullExchange(digest(0)),
            ),
            (
                EngineOptions {
                    budget: RunBudget::unlimited().with_max_runs(10),
                    sampled,
                    ..base
                },
                ConfigError::BudgetNeedsExhaustive,
            ),
            (
                EngineOptions {
                    sweep: true,
                    sampled,
                    ..base
                },
                ConfigError::SweepNeedsExhaustive,
            ),
            (
                EngineOptions {
                    sweep: true,
                    exchange: digest(32),
                    ..base
                },
                ConfigError::SweepNeedsExtension(digest(32)),
            ),
        ];
        for (options, expected) in cases {
            assert_eq!(
                EngineConfig::new(options).unwrap_err(),
                expected,
                "{options:?}"
            );
        }
    }

    #[test]
    fn a_sample_the_run_ids_cannot_index_is_a_capacity_error() {
        let sampled = |runs| EngineOptions {
            sampled: Some((runs, 1)),
            ..EngineOptions::default()
        };
        let full = ModelError::capacity_exceeded("run ids", RUN_CAPACITY);
        let err = EngineConfig::new(sampled((1 << 31) + 1)).unwrap_err();
        assert_eq!(err, ConfigError::Scenario(full));
        assert!(EngineConfig::new(sampled(1 << 31)).is_ok());
    }

    #[test]
    fn the_horizon_defaults_to_t_plus_two_and_never_overflows() {
        let base = EngineOptions::default();
        for (n, t) in [(3, 1), (4, 2), (6, 5)] {
            let config = EngineConfig::new(EngineOptions { n, t, ..base }).unwrap();
            assert_eq!(usize::from(config.spec().horizon), t + 2);
        }
        let err = EngineConfig::new(EngineOptions { t: 65534, ..base }).unwrap_err();
        assert!(matches!(err, ConfigError::Scenario(_)), "{err:?}");
    }

    #[test]
    fn one_config_of_each_build_kind_is_accepted_and_opens() {
        let base = EngineOptions {
            horizon: Some(2),
            ..EngineOptions::default()
        };
        let kinds = [
            base,
            EngineOptions {
                symmetry: true,
                ..base
            },
            EngineOptions {
                sampled: Some((20, 7)),
                ..base
            },
            EngineOptions {
                budget: RunBudget::unlimited().with_max_runs(100),
                ..base
            },
        ];
        for options in kinds {
            let mut config = EngineConfig::new(options).unwrap();
            config.threads = Some(1);
            let session = EngineSession::open(&config).unwrap();
            assert!(session.system().num_runs() > 0, "{options:?}");
            assert_eq!(
                session.system().symmetry().is_some(),
                options.symmetry,
                "{options:?}"
            );
            assert_eq!(
                session.partial().is_some(),
                options.budget.is_bounded(),
                "{options:?}"
            );
        }
    }
}
