//! The full-information protocol as an ordinary message-level
//! [`Protocol`], used to differentially test the executor against the
//! hash-consed [`crate::try_exchange_views`] fast path.
//!
//! The state is a literal view tree (Section 2.4): the initial value at
//! time 0, and at time `m` the previous state plus each received state.
//! This is exponentially large — which is exactly why the production path
//! interns views into a [`crate::ViewTable`] — but perfect as an
//! executable specification: `tests` check that running this protocol
//! through [`crate::execute`] produces states structurally identical to
//! the interned views, run by run and point by point.

use crate::{Protocol, ViewId, ViewTable};
use eba_model::{ProcessorId, Round, Value};
use std::sync::Arc;

/// A literal full-information view (an executable specification of the
/// FIP local state).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum View {
    /// The time-0 state: the processor's own initial value.
    Leaf {
        /// The owner.
        proc: ProcessorId,
        /// The owner's initial value.
        value: Value,
    },
    /// The state after one more round.
    Node {
        /// The owner's previous state.
        prev: Arc<View>,
        /// Per sender, the received state (if its message was delivered).
        received: Vec<Option<Arc<View>>>,
    },
}

impl View {
    /// Structural equality against an interned view from `table`.
    #[must_use]
    pub fn matches(&self, table: &ViewTable, id: ViewId) -> bool {
        match (self, table.node(id)) {
            (
                View::Leaf { proc, value },
                crate::ViewNode::Leaf {
                    proc: tp,
                    value: tv,
                },
            ) => *proc == tp && *value == tv,
            (
                View::Node { prev, received },
                crate::ViewNode::Node {
                    prev: tprev,
                    received: treceived,
                },
            ) => {
                if received.len() != treceived.len() {
                    return false;
                }
                if !prev.matches(table, tprev) {
                    return false;
                }
                received
                    .iter()
                    .zip(treceived.iter())
                    .all(|(mine, theirs)| match (mine, theirs) {
                        (None, None) => true,
                        (Some(mine), Some(theirs)) => mine.matches(table, *theirs),
                        _ => false,
                    })
            }
            _ => false,
        }
    }

    /// The depth of the view (its time).
    #[must_use]
    pub fn time(&self) -> u16 {
        match self {
            View::Leaf { .. } => 0,
            View::Node { prev, .. } => 1 + prev.time(),
        }
    }

    /// The number of nodes in the view tree — the size of the
    /// full-information message, which grows exponentially with time
    /// (the cost the paper's `P0opt` avoids).
    #[must_use]
    pub fn size(&self) -> u64 {
        match self {
            View::Leaf { .. } => 1,
            View::Node { prev, received } => {
                1 + prev.size() + received.iter().flatten().map(|v| v.size()).sum::<u64>()
            }
        }
    }
}

/// The full-information protocol: every processor sends its entire state
/// to everyone in every round and never decides (decision functions are
/// layered on top at the knowledge level).
#[derive(Clone, Copy, Debug, Default)]
pub struct FullInformation;

impl Protocol for FullInformation {
    type State = Arc<View>;
    type Message = Arc<View>;

    fn name(&self) -> &str {
        "full-information"
    }

    fn initial_state(&self, p: ProcessorId, _n: usize, value: Value) -> Arc<View> {
        Arc::new(View::Leaf { proc: p, value })
    }

    fn message(
        &self,
        state: &Arc<View>,
        _from: ProcessorId,
        _to: ProcessorId,
        _round: Round,
    ) -> Option<Arc<View>> {
        Some(Arc::clone(state))
    }

    fn transition(
        &self,
        state: &Arc<View>,
        _p: ProcessorId,
        _round: Round,
        received: &[Option<Arc<View>>],
    ) -> Arc<View> {
        Arc::new(View::Node {
            prev: Arc::clone(state),
            received: received
                .iter()
                .map(|m| m.as_ref().map(Arc::clone))
                .collect(),
        })
    }

    fn output(&self, _state: &Arc<View>, _p: ProcessorId) -> Option<Value> {
        None
    }

    fn message_units(&self, message: &Arc<View>) -> u64 {
        message.size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{execute, GeneratedSystem};
    use eba_model::{FailureMode, Scenario, Time};

    /// The executable specification agrees with the interned fast path on
    /// every processor, time, and run of exhaustive systems in all three
    /// failure modes.
    #[test]
    fn executor_views_match_interned_views() {
        for (mode, horizon) in [
            (FailureMode::Crash, 3),
            (FailureMode::Omission, 2),
            (FailureMode::GeneralOmission, 2),
        ] {
            let scenario = Scenario::new(3, 1, mode, horizon).unwrap();
            let system = GeneratedSystem::exhaustive(&scenario);
            for run in system.run_ids() {
                let record = system.run(run);
                let trace = execute(
                    &FullInformation,
                    &record.config,
                    &record.pattern,
                    scenario.horizon(),
                )
                .unwrap();
                for time in Time::upto(scenario.horizon()) {
                    for p in ProcessorId::all(3) {
                        // The fast path freezes crashed views exactly like
                        // the executor freezes crashed states, so the
                        // comparison covers faulty processors too.
                        let spec = trace.state(p, time);
                        let interned = system.view(run, p, time);
                        assert!(
                            spec.matches(system.table(), interned),
                            "view mismatch: {mode} run {} {p} {time} ({} / [{}])",
                            run.index(),
                            record.config,
                            record.pattern,
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn view_time_is_depth() {
        let scenario = Scenario::new(3, 1, FailureMode::Crash, 3).unwrap();
        let config = eba_model::InitialConfig::uniform(3, Value::One);
        let pattern = eba_model::FailurePattern::failure_free(3);
        let trace = execute(&FullInformation, &config, &pattern, scenario.horizon()).unwrap();
        for time in Time::upto(scenario.horizon()) {
            assert_eq!(trace.state(ProcessorId::new(0), time).time(), time.ticks());
        }
    }

    #[test]
    fn full_information_messages_grow_exponentially() {
        // The motivating cost contrast of Section 6.1: FIP messages blow
        // up; P0opt's stay linear.
        let config = eba_model::InitialConfig::uniform(4, Value::One);
        let pattern = eba_model::FailurePattern::failure_free(4);
        let short = execute(&FullInformation, &config, &pattern, Time::new(2)).unwrap();
        let long = execute(&FullInformation, &config, &pattern, Time::new(4)).unwrap();
        // Unit growth from 2 to 4 rounds far exceeds the 2× of a linear
        // protocol.
        assert!(long.message_units() > short.message_units() * 8);
    }

    #[test]
    fn full_information_never_decides() {
        let config = eba_model::InitialConfig::uniform(2, Value::Zero);
        let pattern = eba_model::FailurePattern::failure_free(2);
        let trace = execute(&FullInformation, &config, &pattern, Time::new(2)).unwrap();
        assert_eq!(trace.decision(ProcessorId::new(0)), None);
    }
}
