//! Incremental engine sessions: one growing system, many queries.
//!
//! The classic pipeline treats every scenario as a cold start: generate
//! the system, evaluate, throw everything away. Horizon sweeps — the
//! paper's own methodology for checking that a horizon is large enough
//! (decision times stabilize once `T ≥ t + 2`; see DESIGN.md §2 and the
//! EXP10 ablation) — pay that full cost at every horizon even though a
//! horizon-`T+1` system *contains* the horizon-`T` system: runs only gain
//! rounds, and base-horizon views are append-only artifacts of the past.
//!
//! [`EngineSession`] exploits that structure. It owns one
//! [`GeneratedSystem`] and one shared [`KnowledgeCache`] and grows the
//! system in place via [`EngineSession::extend_to`]:
//!
//! * **model** — [`eba_model::Scenario::extend_horizon`] produces the
//!   delta spec and the pattern translation rules;
//! * **sim** — [`SystemBuilder::extend`] reuses every surviving base
//!   view row and simulates only appended rounds;
//! * **kripke** — [`KnowledgeCache::advance_epoch`] invalidates the
//!   point-indexed knowledge artifacts (reachability bitsets, scope
//!   columns, `D_S` partitions), which are sized to the old point set
//!   and must never hit across horizons, while the cache handle and its
//!   statistics survive;
//! * **core** — [`EngineSession::constructor`] /
//!   [`EngineSession::evaluator`] hand out optimization and evaluation
//!   frontends wired to the session's current system and cache, so the
//!   Theorem 5.2 construction and the Theorem 5.3 optimality check can be
//!   re-run at each horizon.
//!
//! Incremental growth is **equivalence-checked against cold builds**: the
//! extension re-enumerates the extended pattern space in canonical order,
//! so run ids, run order, and every decision/optimality artifact are
//! bit-identical to generating the extended scenario from scratch
//! (`tests/incremental_equivalence.rs` enforces this differentially).
//! Only a session over an exhaustive system extends: a sampled or
//! budget-partial session answers queries at its own horizon and is
//! rebuilt for another one.
//!
//! # Example
//!
//! ```
//! use eba_core::{DecisionPair, EngineSession};
//! use eba_model::{FailureMode, Scenario};
//!
//! # fn main() -> Result<(), eba_model::ModelError> {
//! let scenario = Scenario::new(3, 1, FailureMode::Crash, 2)?;
//! let mut session = EngineSession::exhaustive(&scenario)?;
//! let at_h2 = session.constructor().optimize(&DecisionPair::empty(3));
//! let report = session.extend_to(3)?;
//! assert!(report.reused_runs > 0);
//! let at_h3 = session.constructor().optimize(&DecisionPair::empty(3));
//! # let _ = (at_h2, at_h3);
//! # Ok(())
//! # }
//! ```

use crate::{Constructor, EngineConfig};
use eba_kripke::{Evaluator, Formula, KnowledgeCache};
use eba_model::{BudgetHit, ModelError, Scenario, Time};
use eba_sim::chaos::EngineFault;
use eba_sim::{BuildOutcome, ExtendReport, GeneratedSystem, Partial, RunId, SystemBuilder};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Why [`EngineSession::open`] built no session.
#[derive(Clone, Debug)]
pub enum OpenError {
    /// The build failed (a model error or an unrecovered worker fault).
    Fault(EngineFault),
    /// The budget stopped the build before it covered any failure
    /// pattern.
    Exhausted(BudgetHit),
}

/// A formula's verdict over every point of a system, with points
/// described as `run R at tK: config C under [pattern] (nonfaulty P)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Verdict {
    /// Points where the formula holds.
    pub holds: usize,
    /// Points of the system.
    pub points: usize,
    /// A point where the formula fails; `None` when it is valid.
    pub counterexample: Option<String>,
    /// The first point where the formula holds, if any.
    pub witness: Option<String>,
}

impl Verdict {
    /// Whether the formula holds at every point.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.holds == self.points
    }
}

/// An incremental engine session; see the module docs.
#[derive(Debug)]
pub struct EngineSession {
    system: GeneratedSystem,
    cache: KnowledgeCache,
    /// Whether the system is the exhaustive system of its scenario; only
    /// then does [`extend_to`](EngineSession::extend_to) grow it.
    exhaustive: bool,
    extensions: Vec<ExtendReport>,
    threads: Option<usize>,
    partial: Option<Partial>,
}

impl EngineSession {
    /// Opens a session on the system `config` selects: the sampled one, or
    /// the exhaustive one built under the config's budget, threads and
    /// chaos injector. A budget-stopped build yields a session over the
    /// failure-pattern prefix it covered (see
    /// [`partial`](EngineSession::partial)).
    /// Sampled and budget-partial sessions do not extend; an exhaustive
    /// one extends on the config's threads. Evaluation and construction
    /// run on the calling thread.
    ///
    /// # Errors
    ///
    /// [`OpenError::Fault`] when the build fails, [`OpenError::Exhausted`]
    /// when the budget stopped it before it covered any pattern.
    pub fn open(config: &EngineConfig) -> Result<Self, OpenError> {
        let spec = config.spec();
        let mut session = if let Some((runs, seed)) = spec.sampled {
            Self::from_system(GeneratedSystem::sampled(config.scenario(), runs, seed))
        } else {
            let mut builder = SystemBuilder::new(config.scenario())
                .symmetry(spec.symmetry)
                .budget(*config.budget());
            if let Some(threads) = config.threads {
                builder = builder.threads(threads);
            }
            if let Some(chaos) = &config.chaos {
                builder = builder.chaos(Arc::clone(chaos));
            }
            match builder.build_governed().map_err(OpenError::Fault)? {
                BuildOutcome::Complete { system, .. } => Self::from_system(system),
                BuildOutcome::Partial { partial, .. } if partial.patterns == 0 => {
                    return Err(OpenError::Exhausted(partial.budget_hit));
                }
                BuildOutcome::Partial {
                    system, partial, ..
                } => EngineSession {
                    partial: Some(partial),
                    ..Self::from_system(system)
                },
            }
        };
        session.threads = config.threads;
        session.exhaustive = spec.sampled.is_none() && session.partial.is_none();
        Ok(session)
    }

    /// Opens a session on the exhaustive system of `scenario`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::CapacityExceeded`] when the scenario
    /// overflows the run or view id space.
    pub fn exhaustive(scenario: &Scenario) -> Result<Self, ModelError> {
        let system = SystemBuilder::new(scenario).build()?;
        Ok(Self::from_system(system))
    }

    /// Opens a session on an existing **exhaustive** system (a complete
    /// [`SystemBuilder`] build, quotiented or not): extension
    /// re-enumerates the full pattern space of the larger horizon.
    #[must_use]
    pub fn from_system(system: GeneratedSystem) -> Self {
        EngineSession {
            system,
            cache: KnowledgeCache::new(),
            exhaustive: true,
            extensions: Vec::new(),
            threads: None,
            partial: None,
        }
    }

    /// A copy of this session with a fresh knowledge cache, for a caller
    /// to grow on its own while this session stays at its horizon.
    #[must_use]
    pub fn fork(&self) -> Self {
        EngineSession {
            threads: self.threads,
            partial: self.partial,
            exhaustive: self.exhaustive,
            ..Self::from_system(self.system.clone())
        }
    }

    /// Grows the session's system to `horizon`, reusing base view rows
    /// ([`SystemBuilder::extend`]), and advances the knowledge cache's
    /// epoch so no stale point-indexed artifact survives. Returns the
    /// reuse accounting of this step.
    ///
    /// Extension is gated on the scenario's exchange
    /// ([`eba_model::ExchangeKind::supports_session_extension`]):
    /// full-information and `digest:0` sessions extend; fingerprinted
    /// digest sessions (`digest:<bits>` with `bits > 0`) fail typed here
    /// and must be rebuilt at the target horizon.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidScenario`] for a sampled or
    /// budget-partial session (before touching anything, so the epoch is
    /// unchanged) and unless `horizon` strictly exceeds the current one,
    /// and [`ModelError::CapacityExceeded`] on id-space overflow of the
    /// extended system.
    pub fn extend_to(&mut self, horizon: u16) -> Result<ExtendReport, ModelError> {
        if !self.exhaustive {
            return Err(ModelError::InvalidScenario {
                reason: "only an exhaustive session extends; rebuild a sampled or \
                         budget-partial session at the target horizon"
                    .into(),
            });
        }
        let target = self.system.scenario().with_horizon(horizon)?;
        let mut builder = SystemBuilder::new(&target);
        if let Some(threads) = self.threads {
            builder = builder.threads(threads);
        }
        let (system, report) = builder.extend(&self.system)?;
        self.system = system;
        self.cache.advance_epoch();
        self.extensions.push(report);
        Ok(report)
    }

    /// The session's current system.
    #[must_use]
    pub fn system(&self) -> &GeneratedSystem {
        &self.system
    }

    /// The session's current scenario.
    #[must_use]
    pub fn scenario(&self) -> &Scenario {
        self.system.scenario()
    }

    /// The session's current horizon.
    #[must_use]
    pub fn horizon(&self) -> Time {
        self.system.horizon()
    }

    /// How far a budget-stopped build got; `None` for a complete system.
    #[must_use]
    pub fn partial(&self) -> Option<Partial> {
        self.partial
    }

    /// The shared knowledge cache (clone it to share with ad-hoc
    /// evaluators over the session's current system).
    #[must_use]
    pub fn cache(&self) -> &KnowledgeCache {
        &self.cache
    }

    /// The cache epoch — equals the number of extensions performed.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.cache.epoch()
    }

    /// The reuse accounting of every extension performed so far, in
    /// order.
    #[must_use]
    pub fn extensions(&self) -> &[ExtendReport] {
        &self.extensions
    }

    /// A [`Constructor`] over the session's current system, wired to the
    /// session cache. The borrow ends before the next
    /// [`extend_to`](EngineSession::extend_to) — the borrow checker
    /// enforces that no evaluator built for an old horizon outlives the
    /// extension that invalidates it.
    #[must_use]
    pub fn constructor(&self) -> Constructor<'_> {
        Constructor::from_evaluator(self.evaluator())
    }

    /// An [`Evaluator`] over the session's current system, wired to the
    /// session cache; same borrow discipline as
    /// [`constructor`](EngineSession::constructor).
    #[must_use]
    pub fn evaluator(&self) -> Evaluator<'_> {
        Evaluator::with_cache(&self.system, self.cache.clone())
    }

    /// Evaluates `formula` over every point of the session's system.
    #[must_use]
    pub fn verdict(&self, formula: &Formula) -> Verdict {
        let describe = |(run, time): (RunId, Time)| {
            let record = self.system.run(run);
            format!(
                "run {} at {time}: config {} under [{}] (nonfaulty {})",
                run.index(),
                record.config,
                record.pattern,
                record.nonfaulty,
            )
        };
        let mut eval = self.evaluator();
        let satisfied = eval.eval(formula);
        let (holds, points) = (satisfied.count_ones(), satisfied.len());
        let counterexample = if holds < points {
            eval.counterexample(formula).map(describe)
        } else {
            None
        };
        let witness = satisfied
            .first_one()
            .map(|idx| describe(eval.point_of(idx)));
        Verdict {
            holds,
            points,
            counterexample,
            witness,
        }
    }

    /// Checks `formula` at the session's horizon and every larger one up
    /// to `to`, growing the session in place, and hands each verdict to
    /// `each` with the extension that reached it. Once `interrupt` is set
    /// the sweep stops, returning the first horizon it did not check.
    ///
    /// # Errors
    ///
    /// As [`extend_to`](EngineSession::extend_to).
    pub fn sweep<F>(
        &mut self,
        formula: &Formula,
        to: u16,
        interrupt: Option<&AtomicBool>,
        mut each: F,
    ) -> Result<Option<u16>, ModelError>
    where
        F: FnMut(&EngineSession, Option<&ExtendReport>, Verdict),
    {
        let from = self.horizon().ticks();
        for horizon in from..=to {
            if interrupt.is_some_and(|flag| flag.load(Ordering::Relaxed)) {
                return Ok(Some(horizon));
            }
            let report = (horizon > from)
                .then(|| self.extend_to(horizon))
                .transpose()?;
            let verdict = self.verdict(formula);
            each(self, report.as_ref(), verdict);
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_optimality, DecisionPair, FipDecisions};
    use eba_model::FailureMode;

    fn scenario() -> Scenario {
        Scenario::new(3, 1, FailureMode::Crash, 2).unwrap()
    }

    #[test]
    fn session_growth_matches_cold_builds() {
        let mut session = EngineSession::exhaustive(&scenario()).unwrap();
        for h in [3u16, 4] {
            session.extend_to(h).unwrap();
            let pair = session.constructor().optimize(&DecisionPair::empty(3));

            let cold_scenario = scenario().with_horizon(h).unwrap();
            let cold_system = GeneratedSystem::exhaustive(&cold_scenario);
            let mut cold_ctor = Constructor::new(&cold_system);
            let cold_pair = cold_ctor.optimize(&DecisionPair::empty(3));

            // Run ids are aligned by construction, so decisions compare
            // directly, run by run.
            let warm = FipDecisions::compute(session.system(), &pair, "warm");
            let cold = FipDecisions::compute(&cold_system, &cold_pair, "cold");
            assert_eq!(session.system().num_runs(), cold_system.num_runs());
            for r in cold_system.run_ids() {
                for p in eba_model::ProcessorId::all(3) {
                    assert_eq!(warm.decision(r, p), cold.decision(r, p), "run {r:?} {p}");
                }
            }
            assert!(check_optimality(&mut session.constructor(), &pair).is_optimal());
        }
        assert_eq!(session.epoch(), 2);
        assert_eq!(session.extensions().len(), 2);
    }

    #[test]
    fn extend_to_rejects_non_growth() {
        let mut session = EngineSession::exhaustive(&scenario()).unwrap();
        assert!(session.extend_to(2).is_err());
        assert!(session.extend_to(1).is_err());
        assert_eq!(session.epoch(), 0, "failed extensions must not advance");
    }

    #[test]
    fn extend_to_rejects_unsupported_exchange() {
        use eba_model::ExchangeKind;
        // digest:0 sessions extend like full-information ones…
        let d0 = scenario()
            .with_exchange(ExchangeKind::Digest { bits: 0 })
            .unwrap();
        let mut session = EngineSession::exhaustive(&d0).unwrap();
        assert!(session.extend_to(4).is_ok());
        // …fingerprinted digests are rebuild-only and fail typed.
        let d32 = scenario()
            .with_exchange(ExchangeKind::Digest { bits: 32 })
            .unwrap();
        let mut session = EngineSession::exhaustive(&d32).unwrap();
        let err = session.extend_to(4).unwrap_err();
        assert!(err.to_string().contains("session extension"), "{err}");
        assert_eq!(session.epoch(), 0, "failed extensions must not advance");
    }

    #[test]
    fn sampled_and_partial_sessions_do_not_extend() {
        use crate::EngineOptions;
        use eba_model::RunBudget;
        let sampled = EngineConfig::new(EngineOptions {
            sampled: Some((20, 7)),
            ..EngineOptions::default()
        })
        .unwrap();
        let mut budgeted = EngineConfig::new(EngineOptions {
            budget: RunBudget::unlimited().with_max_runs(100),
            ..EngineOptions::default()
        })
        .unwrap();
        budgeted.threads = Some(1);
        for config in [sampled, budgeted] {
            let mut session = EngineSession::open(&config).unwrap();
            let (runs, horizon) = (session.system().num_runs(), session.horizon());
            let err = session.extend_to(horizon.ticks() + 1).unwrap_err();
            assert!(matches!(err, ModelError::InvalidScenario { .. }), "{err}");
            assert_eq!(session.epoch(), 0, "failed extensions must not advance");
            assert_eq!(session.system().num_runs(), runs);
            assert_eq!(session.horizon(), horizon);
            assert!(session.fork().extend_to(horizon.ticks() + 1).is_err());
        }
    }
}
