//! The correctness gate, run after the timed window so it never counts in
//! timings.
//!
//! Answers come from `eba_serve::execute` in the configuration of
//! `eba_serve::oracle`: one worker thread, no chaos, a private pool. The
//! pool is kept across lines (under a memory budget) so each scenario is
//! built once, and answers are memoized per distinct line; the daemon's
//! chaos suite holds warm answers byte-identical to cold `oracle` ones.

use eba_serve::json::{self, Json};
use eba_serve::{execute, QueryContext, Request, RetryPolicy, SessionPool};
use std::collections::HashMap;

/// What a benchmark query answered, to hold against the oracle's frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Expect {
    /// A `check` frame's `holds`.
    Holds(u64),
    /// An `optimize` frame's `optimal`.
    Optimal(bool),
    /// A `sweep` frame's per-horizon `holds`.
    SweepHolds(Vec<u64>),
    /// The whole response line of the daemon.
    Frame(String),
}

pub struct Oracle {
    pool: SessionPool,
    memo: HashMap<String, String>,
}

impl Oracle {
    #[must_use]
    pub fn new() -> Self {
        Oracle {
            pool: SessionPool::new(512 << 20, RetryPolicy::default(), None),
            memo: HashMap::new(),
        }
    }

    /// The oracle's response line for a request line.
    pub fn answer(&mut self, line: &str) -> &str {
        let pool = &self.pool;
        self.memo.entry(line.to_owned()).or_insert_with(|| {
            let ctx = QueryContext {
                pool,
                interrupt: None,
                threads: Some(1),
            };
            match Request::from_line(line).and_then(|req| execute(&req, &ctx)) {
                Ok(frame) => frame.to_line(),
                Err(e) => e.to_frame().to_line(),
            }
        })
    }

    /// Checks one answer; `Err` describes the mismatch.
    ///
    /// # Errors
    ///
    /// The mismatch, with the request line.
    pub fn check(&mut self, line: &str, expect: &Expect) -> Result<(), String> {
        let answer = self.answer(line);
        let frame = json::parse(answer).map_err(|e| format!("{line}: oracle frame: {e}"))?;
        let got = match expect {
            Expect::Frame(response) => {
                return if response == answer {
                    Ok(())
                } else {
                    Err(format!("{line}: daemon said {response}, oracle {answer}"))
                };
            }
            Expect::Holds(_) => frame.get("holds").and_then(Json::as_u64).map(Expect::Holds),
            Expect::Optimal(_) => frame
                .get("optimal")
                .and_then(Json::as_bool)
                .map(Expect::Optimal),
            Expect::SweepHolds(_) => frame.get("horizons").and_then(Json::as_arr).map(|hs| {
                Expect::SweepHolds(
                    hs.iter()
                        .map(|h| h.get("holds").and_then(Json::as_u64).unwrap_or(u64::MAX))
                        .collect(),
                )
            }),
        };
        if got.as_ref() == Some(expect) {
            Ok(())
        } else {
            Err(format!("{line}: benchmark got {expect:?}, oracle {answer}"))
        }
    }
}

/// Whether query `i` of a closed-loop run is in the seeded 10% sample
/// re-answered by the oracle.
#[must_use]
pub fn sampled(seed: u64, i: u64) -> bool {
    crate::gen::mix(seed, 0x5A, i).is_multiple_of(10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_and_mismatches_are_told_apart() {
        let mut oracle = Oracle::new();
        let line =
            r#"{"op":"check","formula":"CC(E0) -> C(E0)","n":3,"t":1,"mode":"crash","horizon":2}"#;
        let holds = json::parse(oracle.answer(line))
            .unwrap()
            .get("holds")
            .and_then(Json::as_u64)
            .unwrap();
        assert!(oracle.check(line, &Expect::Holds(holds)).is_ok());
        assert!(oracle.check(line, &Expect::Holds(holds + 1)).is_err());
        let frame = oracle.answer(line).to_owned();
        assert!(oracle.check(line, &Expect::Frame(frame)).is_ok());
        assert!(oracle.check(line, &Expect::Frame("x".into())).is_err());
        let opt = r#"{"op":"optimize","n":3,"t":1,"mode":"crash","horizon":2}"#;
        assert!(oracle.check(opt, &Expect::Optimal(true)).is_ok());
        let sweep = r#"{"op":"sweep","formula":"true","n":3,"t":1,"mode":"crash","from":2,"to":3}"#;
        assert!(oracle
            .check(sweep, &Expect::SweepHolds(vec![0, 0]))
            .is_err());
    }
}
