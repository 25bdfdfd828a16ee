//! `eba-serve`: a fault-tolerant concurrent agreement-checking daemon.
//!
//! The engine layers below this crate (model → sim → kripke → core)
//! answer one query per process invocation; every `eba-check` run pays
//! a cold system build even when the previous run checked a different
//! formula over the *same* scenario. This crate turns the engine into a
//! persistent daemon:
//!
//! * a [`pool::SessionPool`] keeps warm [`eba_core::EngineSession`]s
//!   keyed by their [`ScenarioSpec`] `(n, t, mode, exchange, horizon,
//!   sampling, symmetry)`, shared immutably (`Arc`) by any number of concurrent
//!   queries, LRU-evicted under a configurable memory budget driven by
//!   the new resident-bytes accounting;
//! * a [`server::Server`] answers line-delimited JSON queries
//!   ([`protocol`]) over TCP with per-connection threads, bounded
//!   admission (load shedding with retry hints), per-query panic
//!   isolation, slow-loris timeouts, and graceful drain on SIGINT;
//! * per-query deadlines reuse the cooperative [`eba_model::RunBudget`]
//!   machinery — a timed-out or drain-interrupted query returns the
//!   same deterministic `partial` verdict as `eba-check --deadline`;
//! * transient engine faults ([`eba_sim::chaos::EngineFault`]) are
//!   retried with bounded exponential backoff, then surfaced as typed
//!   `engine-fault` frames;
//! * [`query::oracle`] is the single-threaded cold reference: the chaos
//!   suite (`tests/serve_chaos.rs`) asserts the concurrent daemon's
//!   responses are **byte-identical** to it under load, injected worker
//!   panics, malformed frames, slow-loris clients, and mid-query
//!   eviction.
//!
//! The [`signal`] module is the workspace's single audited `unsafe`
//! exception (a POSIX `signal(2)` handler that sets one atomic flag);
//! everything else in the crate is `#![deny(unsafe_code)]` via the
//! workspace lints.

#![warn(missing_docs)]

pub mod json;
pub mod pool;
pub mod protocol;
pub mod query;
pub mod server;
pub mod signal;

pub use eba_core::ScenarioSpec;
pub use pool::{PoolStats, RetryPolicy, SessionPool};
pub use protocol::{CheckRequest, Request, ServeError, SweepRequest};
pub use query::{execute, oracle, QueryContext};
pub use server::{render_stats_line, ServeConfig, Server, ServerStats, StatsSnapshot};
pub use signal::install_sigint;
