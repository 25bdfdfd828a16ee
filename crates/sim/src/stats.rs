//! Decision-time statistics, used by the experiment harness.

use crate::{Decision, Trace};
use eba_model::{Time, Value};
use std::fmt;

/// An online accumulator of decision times.
///
/// Tracks, separately per decided value and overall: count, sum, maximum,
/// and a histogram over times, plus the number of processors that never
/// decided. Feed it [`Trace`]s or raw decisions and read off summary rows.
///
/// # Example
///
/// ```
/// use eba_model::{Time, Value};
/// use eba_sim::{stats::DecisionStats, Decision};
///
/// let mut stats = DecisionStats::new();
/// stats.record(Some(Decision { value: Value::One, time: Time::new(2) }));
/// stats.record(None);
/// assert_eq!(stats.decided(), 1);
/// assert_eq!(stats.undecided(), 1);
/// assert_eq!(stats.max_time(), Some(Time::new(2)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct DecisionStats {
    histogram: Vec<u64>,
    per_value: [PerValue; 2],
    undecided: u64,
}

#[derive(Clone, Copy, Debug, Default)]
struct PerValue {
    count: u64,
    sum: u64,
    max: u16,
}

impl DecisionStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        DecisionStats::default()
    }

    /// Records one processor's decision (or lack thereof).
    pub fn record(&mut self, decision: Option<Decision>) {
        match decision {
            None => self.undecided += 1,
            Some(d) => {
                let t = d.time.ticks();
                if self.histogram.len() <= usize::from(t) {
                    self.histogram.resize(usize::from(t) + 1, 0);
                }
                self.histogram[usize::from(t)] += 1;
                let pv = &mut self.per_value[usize::from(d.value.as_u8())];
                pv.count += 1;
                pv.sum += u64::from(t);
                pv.max = pv.max.max(t);
            }
        }
    }

    /// Records the decisions of every *nonfaulty* processor of a trace.
    pub fn record_trace<S>(&mut self, trace: &Trace<S>) {
        for p in trace.nonfaulty() {
            self.record(trace.decision(p));
        }
    }

    /// Number of recorded decisions.
    #[must_use]
    pub fn decided(&self) -> u64 {
        self.per_value.iter().map(|pv| pv.count).sum()
    }

    /// Number of recorded non-decisions.
    #[must_use]
    pub fn undecided(&self) -> u64 {
        self.undecided
    }

    /// Number of decisions on `v`.
    #[must_use]
    pub fn decided_on(&self, v: Value) -> u64 {
        self.per_value[usize::from(v.as_u8())].count
    }

    /// Mean decision time over all decisions, or `None` if there were
    /// none.
    #[must_use]
    pub fn mean_time(&self) -> Option<f64> {
        let count = self.decided();
        if count == 0 {
            return None;
        }
        let sum: u64 = self.per_value.iter().map(|pv| pv.sum).sum();
        Some(sum as f64 / count as f64)
    }

    /// Mean decision time for decisions on `v`.
    #[must_use]
    pub fn mean_time_for(&self, v: Value) -> Option<f64> {
        let pv = self.per_value[usize::from(v.as_u8())];
        (pv.count > 0).then(|| pv.sum as f64 / pv.count as f64)
    }

    /// Maximum decision time, or `None` if nothing was decided.
    #[must_use]
    pub fn max_time(&self) -> Option<Time> {
        if self.decided() == 0 {
            return None;
        }
        Some(Time::new(
            self.per_value.iter().map(|pv| pv.max).max().unwrap_or(0),
        ))
    }

    /// Maximum decision time for decisions on `v`.
    #[must_use]
    pub fn max_time_for(&self, v: Value) -> Option<Time> {
        let pv = self.per_value[usize::from(v.as_u8())];
        (pv.count > 0).then(|| Time::new(pv.max))
    }

    /// The histogram of decision times: `histogram()[k]` decisions
    /// happened at time `k`.
    #[must_use]
    pub fn histogram(&self) -> &[u64] {
        &self.histogram
    }
}

impl fmt::Display for DecisionStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "decided={} (0:{} 1:{}) undecided={} mean={} max={}",
            self.decided(),
            self.decided_on(Value::Zero),
            self.decided_on(Value::One),
            self.undecided(),
            self.mean_time()
                .map_or_else(|| "-".into(), |m| format!("{m:.2}")),
            self.max_time()
                .map_or_else(|| "-".into(), |m| m.to_string()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(v: Value, t: u16) -> Option<Decision> {
        Some(Decision {
            value: v,
            time: Time::new(t),
        })
    }

    #[test]
    fn records_and_summarizes() {
        let mut s = DecisionStats::new();
        s.record(d(Value::Zero, 1));
        s.record(d(Value::Zero, 3));
        s.record(d(Value::One, 2));
        s.record(None);
        assert_eq!(s.decided(), 3);
        assert_eq!(s.undecided(), 1);
        assert_eq!(s.decided_on(Value::Zero), 2);
        assert_eq!(s.mean_time(), Some(2.0));
        assert_eq!(s.mean_time_for(Value::Zero), Some(2.0));
        assert_eq!(s.max_time(), Some(Time::new(3)));
        assert_eq!(s.max_time_for(Value::One), Some(Time::new(2)));
        assert_eq!(s.histogram(), &[0, 1, 1, 1]);
    }

    #[test]
    fn empty_stats() {
        let s = DecisionStats::new();
        assert_eq!(s.decided(), 0);
        assert_eq!(s.mean_time(), None);
        assert_eq!(s.max_time(), None);
        assert_eq!(s.max_time_for(Value::Zero), None);
    }

    #[test]
    fn display_is_informative() {
        let mut s = DecisionStats::new();
        s.record(d(Value::One, 2));
        let text = s.to_string();
        assert!(text.contains("decided=1"));
        assert!(text.contains("max=t2"));
    }
}
