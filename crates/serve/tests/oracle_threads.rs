//! `eba_serve::oracle` answers on one worker thread: its query context
//! pins `threads: Some(1)`, which must reach the pooled build, the
//! evaluator and the constructor, so no query starts a parallel worker
//! pool. A test binary of its own, because `eba_sim::scheduler_stats()`
//! counts the pools of the whole process.

use eba_serve::{oracle, Request};

#[test]
fn oracle_queries_start_no_worker_pool() {
    for line in [
        r#"{"op":"check","formula":"CC(E0) -> C(E0)","mode":"omission","horizon":2}"#,
        r#"{"op":"optimize","n":4,"t":1,"mode":"crash","horizon":3}"#,
    ] {
        let before = eba_sim::scheduler_stats().pools;
        let answer = oracle(&Request::from_line(line).unwrap());
        assert!(answer.starts_with(r#"{"ok":true"#), "{answer}");
        let pools = eba_sim::scheduler_stats().pools - before;
        assert_eq!(pools, 0, "{line} ran {pools} worker pools");
    }
}
