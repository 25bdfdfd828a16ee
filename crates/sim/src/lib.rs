//! Synchronous round-based simulator and full-information view machinery.
//!
//! This crate provides the execution substrate of the reproduction:
//!
//! * [`Protocol`] — the paper's notion of a protocol (Section 2.3): a
//!   message-generation function, a state-transition function, and an
//!   output function, all deterministic;
//! * [`execute`] / [`Trace`] — running a protocol against an initial
//!   configuration and a failure pattern, producing the full run;
//! * [`ViewTable`] / [`ViewId`] — hash-consed *full-information views*
//!   (Section 2.4): the local states of processors running the
//!   full-information protocol, shared across runs so that two points have
//!   equal `ViewId` exactly when the processor has the same FIP local
//!   state at both;
//! * [`GeneratedSystem`] — the set of runs of the full-information
//!   protocol for a scenario (exhaustive or sampled), the object on which
//!   all knowledge tests are evaluated;
//! * [`SystemBuilder`] — staged, shard-parallel exhaustive generation
//!   whose output is bit-identical for every thread/shard count;
//! * [`PointStore`] — the columnar (struct-of-arrays) point store built
//!   alongside every system: per-processor view columns and CSR bucket
//!   partitions that back the knowledge kernels of `eba-kripke`;
//! * [`try_exchange_views`] — the information exchanges (DESIGN.md §4g):
//!   the builder simulates whichever [`eba_model::ExchangeKind`] the
//!   scenario declares, full information or the bounded who-heard-what
//!   digest ([`DigestState`]);
//! * [`chaos`] — fault injection and `catch_unwind` worker supervision
//!   with retry and sequential fallback; with [`eba_model::RunBudget`]
//!   this is the robustness substrate of the engine (DESIGN.md §4c).
//!
//! # Example
//!
//! ```
//! use eba_model::{FailureMode, Scenario};
//! use eba_sim::GeneratedSystem;
//!
//! # fn main() -> Result<(), eba_model::ModelError> {
//! let scenario = Scenario::new(3, 1, FailureMode::Crash, 3)?;
//! let system = GeneratedSystem::exhaustive(&scenario);
//! assert!(system.num_runs() > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod exchange;
mod executor;
mod full_info;
mod points;
mod protocol;
mod system;
mod trace;
mod view;

pub mod chaos;
pub mod sched;
pub mod stats;
pub mod symmetry;

pub use builder::{BuildOutcome, BuildReport, ExtendReport, Partial, SystemBuilder, RUN_CAPACITY};
pub use exchange::{try_exchange_views, DigestState, CONTACT_WINDOW};
pub use executor::{execute, execute_unchecked, ExecError};
pub use full_info::{FullInformation, View};
pub use points::PointStore;
pub use protocol::Protocol;
pub use sched::{scheduler_stats, SchedulerStats};
pub use system::{GeneratedSystem, RunId, RunRecord};
pub use trace::{Decision, Trace};
pub use view::{ViewId, ViewNode, ViewTable, VIEW_CAPACITY};
