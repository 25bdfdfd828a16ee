//! Epistemic model checking over generated systems: knowledge, common
//! knowledge, and **continual common knowledge** (Halpern–Moses–Waarts,
//! Section 3).
//!
//! The crate provides:
//!
//! * [`Formula`] — the epistemic-temporal language: `K_i`, `B^S_i`, `E_S`,
//!   `S_S` (someone), `D_S` (distributed), `C_S`, `C□_S`, `□`, `◇`, `□̄`;
//! * [`Evaluator`] — a model checker mapping each formula to the exact
//!   set of points of a [`eba_sim::GeneratedSystem`] satisfying it: it
//!   hash-conses every subformula into one table of dense-bitset kernels
//!   over the columnar [`eba_sim::PointStore`] and keeps every node's
//!   result, its one engine. `K`/`B`/`E`/`S` close over view partitions,
//!   `C`/`C□`/`D` over point partitions ([`reach`]);
//! * [`oracle`] — the recursive evaluator, per-set reachability, per-point
//!   `D_S` and the formula-iteration gfp of Lemma 3.4, kept as reference
//!   implementations for the differential suites;
//! * [`StateSets`] / [`NonRigidSet`] — decision-set families and the
//!   nonrigid sets `N`, `N ∧ A` they induce;
//! * [`axioms`] — checkers for the S5 properties of `K_i`
//!   (Proposition 3.1) and the K45/fixed-point/induction properties of
//!   `C□_S` (Lemma 3.4);
//! * [`Bitset`] and [`UnionFind`] — the underlying dense set and
//!   reachability machinery (Proposition 3.2 / Corollary 3.3).
//!
//! # Example
//!
//! Continual common knowledge is strictly stronger than common knowledge
//! (Section 3.3); both directions checked mechanically:
//!
//! ```
//! use eba_kripke::{Evaluator, Formula, NonRigidSet};
//! use eba_model::{FailureMode, Scenario, Value};
//! use eba_sim::GeneratedSystem;
//!
//! # fn main() -> Result<(), eba_model::ModelError> {
//! let scenario = Scenario::new(3, 1, FailureMode::Crash, 2)?;
//! let system = GeneratedSystem::exhaustive(&scenario);
//! let mut eval = Evaluator::new(&system);
//!
//! let phi = Formula::exists(Value::Zero);
//! let stronger = phi.clone().continual_common(NonRigidSet::Nonfaulty);
//! let weaker = phi.common(NonRigidSet::Nonfaulty);
//! assert!(eval.valid(&stronger.clone().implies(weaker.clone())));
//! assert!(!eval.valid(&weaker.implies(stronger))); // strictly stronger
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
mod cache;
mod eval;
mod formula;
mod kernels;
mod nonrigid;
mod plan;
mod uf;

pub mod axioms;
pub mod explain;
pub mod oracle;
pub mod parse;
pub mod reach;

pub use bitset::Bitset;
pub use cache::{CacheStats, KnowledgeCache, ScopeColumns};
pub use eval::{Evaluator, Reachability};
pub use formula::Formula;
pub use nonrigid::{NonRigidSet, PointPredId, RunPredId, StateSets, StateSetsId, ViewSet};
pub use reach::BatchBuilder;
pub use uf::UnionFind;
