//! Resource governance for long-running engine work.
//!
//! The exhaustive machinery of this workspace is exponential in the
//! scenario parameters, so a run over an ambitious scenario can only fail
//! by hanging or exhausting memory unless something bounds it. A
//! [`RunBudget`] declares those bounds — a wall-clock deadline, a maximum
//! number of runs, a maximum number of interned views — and an
//! [`ArmedBudget`] (a budget plus a start instant) governs the one
//! place the engine does unbounded work, `SystemBuilder` in `eba-sim`:
//!
//! * the run bound is planned before any work, as the longest prefix of
//!   whole failure patterns whose runs fit under it;
//! * the deadline, the interrupt flag and the view bound are checked
//!   *cooperatively* per pattern inside every block of the build, and the
//!   view bound again after each merged block.
//!
//! Exhaustion surfaces as a typed [`BudgetHit`], never as a panic: callers
//! receive the work completed so far (e.g. the builder's
//! `BuildOutcome::Partial`) together with the hit that stopped them.
//! Because checks are cooperative, a deadline is honored to within one
//! loop body, not exactly; the engine guarantees termination within a
//! small multiple of the deadline rather than at it.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Declarative resource bounds for one engine run. The default
/// ([`RunBudget::unlimited`]) bounds nothing and adds no overhead beyond
/// the checks themselves.
///
/// # Example
///
/// ```
/// use eba_model::RunBudget;
/// use std::time::Duration;
///
/// let budget = RunBudget::unlimited()
///     .with_deadline(Duration::from_secs(30))
///     .with_max_views(1_000_000);
/// let armed = budget.arm();
/// assert!(armed.check_views(999).is_ok());
/// assert!(armed.check_views(2_000_000).is_err());
/// ```
#[derive(Clone, Copy, Default, Debug)]
pub struct RunBudget {
    deadline: Option<Duration>,
    max_runs: Option<u64>,
    max_views: Option<u64>,
    /// Cooperative cancellation flag: when set (by a signal handler, a
    /// draining server, …) every subsequent budget check reports
    /// [`BudgetHit::Interrupted`]. A `&'static` reference keeps the
    /// budget `Copy`, so it still fans out to parallel workers without
    /// synchronization; long-lived owners that need a fresh flag per
    /// instance can `Box::leak` one.
    interrupt: Option<&'static AtomicBool>,
}

impl RunBudget {
    /// A budget that bounds nothing.
    #[must_use]
    pub fn unlimited() -> Self {
        RunBudget::default()
    }

    /// Bounds the wall-clock time of the run, measured from [`arm`].
    ///
    /// [`arm`]: RunBudget::arm
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Bounds the number of runs generated or enumerated.
    #[must_use]
    pub fn with_max_runs(mut self, max_runs: u64) -> Self {
        self.max_runs = Some(max_runs);
        self
    }

    /// Bounds the number of distinct views (interned states) generated.
    #[must_use]
    pub fn with_max_views(mut self, max_views: u64) -> Self {
        self.max_views = Some(max_views);
        self
    }

    /// Attaches a cooperative cancellation flag: once `flag` is set,
    /// every budget check fails with [`BudgetHit::Interrupted`]. This is
    /// how SIGINT handling and server drains reuse the budget machinery —
    /// the interrupted computation stops at the same cooperative
    /// checkpoints a deadline would, yielding the same deterministic
    /// partial results.
    #[must_use]
    pub fn with_interrupt(mut self, flag: &'static AtomicBool) -> Self {
        self.interrupt = Some(flag);
        self
    }

    /// The attached cancellation flag, if any.
    #[must_use]
    pub fn interrupt(&self) -> Option<&'static AtomicBool> {
        self.interrupt
    }

    /// The configured run bound, if any.
    #[must_use]
    pub fn max_runs(&self) -> Option<u64> {
        self.max_runs
    }

    /// The configured view bound, if any.
    #[must_use]
    pub fn max_views(&self) -> Option<u64> {
        self.max_views
    }

    /// Whether this budget sets a deadline, a run bound or a view bound
    /// (a cancellation flag alone bounds nothing).
    #[must_use]
    pub fn is_bounded(&self) -> bool {
        self.deadline.is_some() || self.max_runs.is_some() || self.max_views.is_some()
    }

    /// Starts the clock: returns an [`ArmedBudget`] whose deadline counts
    /// from now. Arming an unlimited budget is free and every check on it
    /// succeeds.
    #[must_use]
    pub fn arm(&self) -> ArmedBudget {
        ArmedBudget {
            budget: *self,
            start: Instant::now(),
        }
    }
}

/// A [`RunBudget`] with a start instant; `Copy`, so it can be handed to
/// every worker of a parallel stage without synchronization.
#[derive(Clone, Copy, Debug)]
pub struct ArmedBudget {
    budget: RunBudget,
    start: Instant,
}

impl ArmedBudget {
    /// The underlying budget.
    #[must_use]
    pub fn budget(&self) -> &RunBudget {
        &self.budget
    }

    /// Checks the cancellation flag and the wall-clock deadline.
    ///
    /// # Errors
    ///
    /// Returns [`BudgetHit::Interrupted`] when the attached cancellation
    /// flag is set (it takes precedence: an interrupt is an explicit
    /// request), or [`BudgetHit::Deadline`] when the deadline has passed.
    pub fn check_deadline(&self) -> Result<(), BudgetHit> {
        if let Some(flag) = self.budget.interrupt {
            if flag.load(Ordering::Relaxed) {
                return Err(BudgetHit::Interrupted);
            }
        }
        match self.budget.deadline {
            Some(limit) if self.start.elapsed() >= limit => Err(BudgetHit::Deadline { limit }),
            _ => Ok(()),
        }
    }

    /// Checks the deadline and the view bound against `views_interned`.
    ///
    /// # Errors
    ///
    /// Returns the [`BudgetHit`] describing the first exceeded bound.
    pub fn check_views(&self, views_interned: u64) -> Result<(), BudgetHit> {
        self.check_deadline()?;
        match self.budget.max_views {
            Some(limit) if views_interned > limit => Err(BudgetHit::MaxViews { limit }),
            _ => Ok(()),
        }
    }
}

/// The typed outcome of a budget check that failed: which bound was
/// exceeded, with its configured limit. Returned alongside partial
/// results; never thrown as a panic.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BudgetHit {
    /// The wall-clock deadline passed.
    Deadline {
        /// The configured deadline.
        limit: Duration,
    },
    /// More runs were requested than the budget allows.
    MaxRuns {
        /// The configured run bound.
        limit: u64,
    },
    /// More views were interned than the budget allows.
    MaxViews {
        /// The configured view bound.
        limit: u64,
    },
    /// The budget's cancellation flag was set (SIGINT, server drain, …).
    Interrupted,
}

impl fmt::Display for BudgetHit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetHit::Deadline { limit } => {
                write!(f, "deadline of {:.3}s exceeded", limit.as_secs_f64())
            }
            BudgetHit::MaxRuns { limit } => write!(f, "run budget of {limit} exhausted"),
            BudgetHit::MaxViews { limit } => write!(f, "view budget of {limit} exhausted"),
            BudgetHit::Interrupted => write!(f, "interrupted"),
        }
    }
}

impl std::error::Error for BudgetHit {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_always_passes() {
        let armed = RunBudget::unlimited().arm();
        assert!(armed.check_deadline().is_ok());
        assert!(armed.check_views(u64::MAX).is_ok());
    }

    #[test]
    fn view_bound_is_inclusive() {
        let armed = RunBudget::unlimited().with_max_views(5).arm();
        assert!(armed.check_views(5).is_ok());
        assert_eq!(armed.check_views(6), Err(BudgetHit::MaxViews { limit: 5 }));
    }

    #[test]
    fn zero_deadline_trips_immediately() {
        let armed = RunBudget::unlimited().with_deadline(Duration::ZERO).arm();
        assert!(matches!(
            armed.check_deadline(),
            Err(BudgetHit::Deadline { .. })
        ));
        // And the deadline hit takes precedence in combined checks.
        assert!(matches!(
            armed.check_views(0),
            Err(BudgetHit::Deadline { .. })
        ));
    }

    #[test]
    fn generous_deadline_passes() {
        let armed = RunBudget::unlimited()
            .with_deadline(Duration::from_secs(3600))
            .arm();
        assert!(armed.check_deadline().is_ok());
    }

    #[test]
    fn interrupt_flag_trips_every_check() {
        let flag: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
        let armed = RunBudget::unlimited().with_interrupt(flag).arm();
        assert!(armed.check_deadline().is_ok());
        assert!(armed.check_views(u64::MAX).is_ok());
        flag.store(true, Ordering::Relaxed);
        assert_eq!(armed.check_deadline(), Err(BudgetHit::Interrupted));
        assert_eq!(armed.check_views(0), Err(BudgetHit::Interrupted));
        // The flag survives round-trips through the accessor.
        assert!(armed.budget().interrupt().is_some());
    }

    #[test]
    fn interrupt_takes_precedence_over_deadline() {
        let flag: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(true)));
        let armed = RunBudget::unlimited()
            .with_deadline(Duration::ZERO)
            .with_interrupt(flag)
            .arm();
        assert_eq!(armed.check_deadline(), Err(BudgetHit::Interrupted));
    }

    #[test]
    fn display_names_the_bound() {
        assert!(BudgetHit::MaxRuns { limit: 7 }.to_string().contains("7"));
        assert!(BudgetHit::MaxViews { limit: 9 }
            .to_string()
            .contains("view"));
        assert!(BudgetHit::Deadline {
            limit: Duration::from_secs(2)
        }
        .to_string()
        .contains("deadline"));
    }
}
