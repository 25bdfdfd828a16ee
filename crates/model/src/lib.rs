//! Model vocabulary for the eventual-Byzantine-agreement (EBA) reproduction.
//!
//! This crate defines the shared, dependency-light vocabulary used by every
//! other crate in the workspace:
//!
//! * [`ProcessorId`], [`ProcSet`] — processor identities and sets thereof;
//! * [`Value`] — the binary agreement values of the paper (`V = {0, 1}`);
//! * [`Time`] and [`Round`] — the synchronous global clock (round `k` takes
//!   place between time `k − 1` and time `k`);
//! * [`InitialConfig`] — the system's initial configuration (one initial
//!   value per processor);
//! * [`FailureMode`], [`FaultyBehavior`], [`FailurePattern`] — crash and
//!   sending-omission failures, exactly as defined in Section 2.1 of the
//!   paper;
//! * [`Scenario`] — a fully-specified finite instance `(n, t, mode, horizon)`
//!   of the model;
//! * exhaustive pattern/configuration enumerators ([`enumerate`]) and seeded
//!   random samplers ([`sample`]).
//!
//! # Modeling conventions
//!
//! A *failure pattern* assigns a faulty behavior to every processor that
//! fails in the run. Following the usage of the paper (and of \[MT88\]), the
//! set of faulty processors is chosen by the adversary up front and a faulty
//! processor **may exhibit no deviation inside the finite horizon** — this
//! represents a processor that fails only after the horizon, and is
//! essential for the knowledge analysis: observing correct behavior from `j`
//! never lets `i` conclude that `j` is nonfaulty.
//!
//! A processor is *nonfaulty in a run* iff it does not appear in the run's
//! failure pattern (the paper's convention: nonfaulty throughout the run).
//!
//! # Example
//!
//! ```
//! use eba_model::{Scenario, FailureMode, InitialConfig, Value};
//!
//! # fn main() -> Result<(), eba_model::ModelError> {
//! let scenario = Scenario::new(4, 1, FailureMode::Crash, 3)?;
//! assert_eq!(scenario.n(), 4);
//! let config = InitialConfig::uniform(scenario.n(), Value::One);
//! assert!(config.all_same());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod config;
mod error;
mod exchange;
mod failure;
mod ids;
mod procset;
mod scenario;
mod space;
mod time;
mod value;

pub mod enumerate;
pub mod fasthash;
pub mod sample;
pub mod symmetry;

pub use budget::{ArmedBudget, BudgetHit, RunBudget};
pub use config::InitialConfig;
pub use error::ModelError;
pub use exchange::{ExchangeKind, MAX_DIGEST_BITS};
pub use failure::{FailureMode, FailurePattern, FaultyBehavior};
pub use ids::ProcessorId;
pub use procset::{subsets as procset_subsets, ProcSet, Subsets};
pub use scenario::{HorizonDelta, Scenario};
pub use space::{ScenarioSpace, Shard, ShardPatterns};
pub use time::{Round, Time};
pub use value::Value;
