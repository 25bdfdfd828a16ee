//! The core contribution of *A Characterization of Eventual Byzantine
//! Agreement* (Halpern–Moses–Waarts, PODC 1990), implemented over the
//! `eba-sim` generated systems and the `eba-kripke` epistemic model
//! checker:
//!
//! * [`DecisionPair`] / [`FipDecisions`] — decision pairs `(Z, O)` and the
//!   semantics of the full-information protocol `FIP(Z, O)` (Section 4);
//! * [`Constructor`] — the Proposition 5.1 optimization steps and the
//!   Theorem 5.2 two-step construction of optimal protocols;
//! * [`check_optimality`] — the Theorem 5.3 necessary-and-sufficient
//!   optimality conditions, in terms of continual common knowledge;
//! * [`lift_protocol`] — Corollary 2.3 made executable: lift *any*
//!   protocol to a full-information decision pair, ready to optimize;
//! * [`dominates`] — the domination preorder of Section 2.3;
//! * [`verify_properties`] — the agreement/validity/decision/simultaneity
//!   properties of Section 2.1;
//! * [`protocols`] — the paper's concrete protocols: `F^Λ`, `F^{Λ,1}`,
//!   `F^{Λ,2}`, the crash rule `FIP(Z^cr, O^cr)` of Theorem 6.1, the
//!   0-chain protocol `FIP(Z⁰, O⁰)` and `F*` of Section 6.2, and the
//!   common-knowledge SBA rule;
//! * [`EngineConfig`] — the one validated configuration (scenario spec,
//!   threads, budget, chaos) through which the front ends reach the
//!   engine;
//! * [`EngineSession`] — incremental engine sessions: one system grown
//!   in place by append-only horizon extension, with a knowledge cache
//!   per horizon's system, serving constructors, evaluators and verdicts
//!   at every horizon;
//! * [`chains`] — 0-chains and the `∃0*` predicate;
//! * [`analysis`] — decision-time breakdowns by failure count and
//!   configuration class.
//!
//! # Example
//!
//! Build the optimal crash-mode EBA protocol from nothing and verify it:
//!
//! ```
//! use eba_core::{check_optimality, verify_properties, Constructor, DecisionPair, FipDecisions};
//! use eba_model::{FailureMode, Scenario};
//! use eba_sim::GeneratedSystem;
//!
//! # fn main() -> Result<(), eba_model::ModelError> {
//! let scenario = Scenario::new(3, 1, FailureMode::Crash, 3)?;
//! let system = GeneratedSystem::exhaustive(&scenario);
//! let mut ctor = Constructor::new(&system);
//!
//! let f2 = ctor.optimize(&DecisionPair::empty(3)); // Theorem 5.2
//! let decisions = FipDecisions::compute(&system, &f2, "F^{Λ,2}");
//! assert!(verify_properties(&system, &decisions).is_eba());
//! assert!(check_optimality(&mut ctor, &f2).is_optimal()); // Theorem 5.3
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod construct;
mod decision;
mod domination;
mod fip;
mod lift;
mod optimality;
mod properties;
mod session;

pub mod analysis;
pub mod chains;
pub mod protocols;

pub use config::{ConfigError, EngineConfig, EngineOptions, ScenarioSpec};
pub use construct::Constructor;
pub use decision::DecisionPair;
pub use domination::{dominates, DominationReport};
pub use fip::{Conflict, FipDecisions};
pub use lift::lift_protocol;
pub use optimality::{check_optimality, ConditionCheck, OptimalityReport};
pub use properties::{
    decision_profile, strict_validity_violations, verify_properties, PropertyReport,
};
pub use session::{EngineSession, OpenError, Verdict};
