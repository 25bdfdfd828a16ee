//! Umbrella crate for the EBA reproduction; re-exports every sub-crate.
//!
//! This workspace reproduces *A Characterization of Eventual Byzantine
//! Agreement* (Halpern, Moses, Waarts — PODC 1990). See the README for the
//! full tour. The sub-crates are:
//!
//! * [`model`] — shared vocabulary (processors, values, failures, scenarios);
//! * [`sim`] — the synchronous simulator and full-information views;
//! * [`kripke`] — epistemic model checking (knowledge, common knowledge,
//!   continual common knowledge);
//! * [`core`] — the paper's contribution: decision pairs, `FIP(Z, O)`, the
//!   two-step optimization, optimality checking;
//! * [`protocols`] — message-level protocols (`P0`, `P0opt`, `FloodMin`,
//!   `EarlyStoppingCrash`, `ChainOmission`).

#![forbid(unsafe_code)]

pub use eba_core as core;
pub use eba_kripke as kripke;
pub use eba_model as model;
pub use eba_protocols as protocols;
pub use eba_sim as sim;

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use eba_core::{
        check_optimality, dominates, lift_protocol, verify_properties, Constructor, DecisionPair,
        EngineSession, FipDecisions,
    };
    pub use eba_kripke::{Evaluator, Formula, KnowledgeCache, NonRigidSet, StateSets};
    pub use eba_model::{BudgetHit, RunBudget};
    pub use eba_model::{
        ExchangeKind, FailureMode, FailurePattern, FaultyBehavior, HorizonDelta, InitialConfig,
        ProcSet, ProcessorId, Round, Scenario, Time, Value,
    };
    pub use eba_sim::{
        execute, execute_unchecked, BuildOutcome, ExecError, ExtendReport, GeneratedSystem,
        Protocol, RunId, SystemBuilder, Trace,
    };
}
