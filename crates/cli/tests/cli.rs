//! End-to-end tests of the `eba-check` binary.

use std::process::Command;

fn run(args: &[&str]) -> (String, String, Option<i32>) {
    let output = Command::new(env!("CARGO_BIN_EXE_eba-check"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
        output.status.code(),
    )
}

#[test]
fn valid_formula_exits_zero() {
    let (stdout, _, code) = run(&["CC(E0) -> C(E0)"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("VALID"));
}

#[test]
fn invalid_formula_exits_one_with_counterexample() {
    let (stdout, _, code) = run(&["C(E0) -> CC(E0)"]);
    assert_eq!(code, Some(1));
    assert!(stdout.contains("NOT VALID"));
    assert!(stdout.contains("counterexample: run"));
}

#[test]
fn witness_flag_prints_a_witness() {
    let (stdout, _, code) = run(&["--witness", "B_1(E0)"]);
    assert_eq!(code, Some(1));
    assert!(stdout.contains("witness: run"));
}

#[test]
fn mode_and_size_options_are_honored() {
    let (stdout, _, code) = run(&[
        "--n",
        "4",
        "--t",
        "1",
        "--mode",
        "omission",
        "B_1(E0) -> (N(1) -> E0)",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("mode=omission"));
    assert!(stdout.contains("n=4"));
}

#[test]
fn general_omission_mode_is_available() {
    let (stdout, _, code) = run(&[
        "--mode",
        "general-omission",
        "--horizon",
        "2",
        "K_1(E0) -> E0",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
}

#[test]
fn sampled_systems_work() {
    let (stdout, _, code) = run(&[
        "--n",
        "6",
        "--t",
        "2",
        "--sampled",
        "40",
        "7",
        "K_1(E0) -> E0",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("sampled"));
}

#[test]
fn cache_stats_flag_prints_counters() {
    let (stdout, _, code) = run(&["--cache-stats", "CC(E0) -> C(E0)"]);
    assert_eq!(code, Some(0), "{stdout}");
    let cache_line = stdout
        .lines()
        .find(|l| l.starts_with("cache: "))
        .unwrap_or_else(|| panic!("no cache line in {stdout}"));
    assert!(cache_line.contains("reachability"), "{cache_line}");
    assert!(cache_line.contains("scope columns"), "{cache_line}");
    // CC and C over Everyone both need reachability, so the shared cache
    // must have seen at least one reachability miss.
    assert!(
        !cache_line.contains("reachability 0 hits / 0 misses"),
        "{cache_line}"
    );
}

#[test]
fn cache_stats_off_by_default() {
    let (stdout, _, code) = run(&["CC(E0) -> C(E0)"]);
    assert_eq!(code, Some(0));
    assert!(!stdout.contains("cache:"), "{stdout}");
}

#[test]
fn parse_errors_exit_two() {
    let (_, stderr, code) = run(&["E0 &"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("parse error"));
}

#[test]
fn formulas_nested_past_the_depth_cap_exit_two_not_abort() {
    let bangs = format!("{}true", "!".repeat(100_000));
    let (_, stderr, code) = run(&["--quiet", &bangs]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("nests deeper than 256 levels"), "{stderr}");
}

#[test]
fn iff_chains_past_the_size_cap_exit_two_not_exhaust_memory() {
    // 30 chained `<->` desugar to ~2^33 nodes: a 202-byte line.
    let chain = format!("E0{}", " <-> E0".repeat(30));
    let (_, stderr, code) = run(&["--quiet", "--n", "3", "--t", "1", "--horizon", "2", &chain]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("desugars to more than 65536 nodes"),
        "{stderr}"
    );
}

#[test]
fn usage_errors_exit_two() {
    let (_, stderr, code) = run(&["--mode", "byzantine", "E0"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown mode"));
}

#[test]
fn the_horizon_default_cannot_overflow() {
    let (_, err, code) = run(&["--t", "65534", "--quiet", "true"]);
    assert_eq!(code, Some(2), "{err}");
    assert!(
        err.contains("t = 65534 must be smaller than n = 3"),
        "{err}"
    );
}

#[test]
fn help_exits_zero() {
    let (stdout, _, code) = run(&["--help"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("FORMULA SYNTAX"));
}

#[test]
fn quiet_suppresses_preamble() {
    let (stdout, _, code) = run(&["--quiet", "true"]);
    assert_eq!(code, Some(0));
    assert!(!stdout.contains("scenario"));
    assert!(stdout.contains("VALID"));
}

#[test]
fn timeline_mode_prints_a_grid() {
    let (stdout, _, code) = run(&[
        "--timeline",
        "--config",
        "011",
        "--pattern",
        "p1:crash@1->p2",
        "B_2(E0)",
        "C(E0)",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("run: ⟨0,1,1⟩"));
    assert!(stdout.contains("●"));
    assert!(stdout.contains("·"));
}

#[test]
fn timeline_defaults_to_failure_free_all_ones() {
    let (stdout, _, code) = run(&["--timeline", "E1"]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("failure-free"));
}

#[test]
fn timeline_omission_pattern_parses() {
    let (stdout, _, code) = run(&[
        "--mode",
        "omission",
        "--timeline",
        "--config",
        "011",
        "--pattern",
        "p1:omit@1->p2,p3",
        "B_2(E0)",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("omit"));
}

#[test]
fn timeline_silent_shorthand() {
    let (stdout, _, code) = run(&[
        "--timeline",
        "--config",
        "011",
        "--pattern",
        "p1:silent",
        "C(E0)",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
}

#[test]
fn bad_pattern_specs_exit_two() {
    for spec in ["p1", "p9:clean", "p1:crash@0", "p1:warp", "p1:omit@9->p2"] {
        let (_, stderr, code) = run(&["--timeline", "--config", "011", "--pattern", spec, "E0"]);
        assert_eq!(code, Some(2), "spec `{spec}` should fail: {stderr}");
    }
}

#[test]
fn multiple_formulas_require_timeline() {
    let (_, stderr, code) = run(&["E0", "E1"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("--timeline"));
}

#[test]
fn zero_knobs_exit_two_with_one_line_diagnostics() {
    for args in [
        ["--threads", "0"],
        ["--shards", "0"],
        ["--max-runs", "0"],
        ["--deadline", "0"],
    ] {
        let (_, stderr, code) = run(&[args[0], args[1], "E0"]);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        let diagnostic = stderr.lines().next().unwrap_or_default();
        assert!(
            diagnostic.starts_with("error:") && diagnostic.contains(args[0]),
            "{args:?}: {stderr}"
        );
    }
    let (_, stderr, code) = run(&["--sampled", "0", "7", "E0"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--sampled needs at least 1 run"));
}

#[test]
fn generous_budget_still_reports_complete_verdict() {
    let (stdout, _, code) = run(&[
        "--deadline",
        "120",
        "--max-runs",
        "1000000",
        "CC(E0) -> C(E0)",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("VALID"));
    assert!(!stdout.contains("PARTIAL"), "{stdout}");
}

#[test]
fn exhausted_run_budget_prints_partial_banner() {
    // 3,1,omission,2 has well over 50 runs; with 64 shards each shard is
    // small enough that a nonempty prefix fits under the cap, so the
    // verdict must carry a PARTIAL banner.
    let (stdout, _, code) = run(&[
        "--mode",
        "omission",
        "--horizon",
        "2",
        "--shards",
        "64",
        "--max-runs",
        "50",
        "--quiet",
        "true",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(
        stdout.contains("PARTIAL: run budget of 50 exhausted"),
        "{stdout}"
    );
    assert!(stdout.contains("shards ("), "{stdout}");
}

#[test]
fn budget_flags_conflict_with_sampled_and_timeline() {
    let (_, stderr, code) = run(&["--sampled", "10", "7", "--deadline", "5", "E0"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("drop --sampled"), "{stderr}");
    let (_, stderr, code) = run(&["--timeline", "--max-runs", "10", "E0"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("complete system"), "{stderr}");
}

#[test]
fn sigint_degrades_to_a_partial_prefix_verdict() {
    use std::process::Stdio;
    use std::time::{Duration, Instant};

    // A build of 8,884,288 runs, far longer than the 3 s before the
    // signal (about 40 s on a 2-core host if it ran to completion), split
    // into many small shards so a prefix completes quickly and the
    // interrupt flag is polled often.
    let mut child = Command::new(env!("CARGO_BIN_EXE_eba-check"))
        .args([
            "--n",
            "6",
            "--t",
            "2",
            "--mode",
            "crash",
            "--horizon",
            "3",
            "--shards",
            "256",
            "--quiet",
            "true",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");

    std::thread::sleep(Duration::from_secs(3));
    let status = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(status.success(), "kill -INT failed");

    // Cooperative shutdown: the build must stop at the next shard
    // checkpoint, not run to completion and not die mid-write (which
    // would lose the exit status).
    let deadline = Instant::now() + Duration::from_secs(60);
    let output = loop {
        match child.try_wait().expect("try_wait") {
            Some(_) => break child.wait_with_output().expect("output"),
            None if Instant::now() > deadline => {
                let _ = child.kill();
                panic!("SIGINT was not honored within 60s");
            }
            None => std::thread::sleep(Duration::from_millis(100)),
        }
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    // Either a nonempty shard prefix completed (PARTIAL banner + prefix
    // verdict) or the signal landed before the first checkpoint (typed
    // error); both are graceful exits, never a signal death.
    assert!(
        output.status.code().is_some(),
        "process was killed by a signal instead of exiting: {stderr}"
    );
    assert!(
        stdout.contains("PARTIAL: interrupted") || stderr.contains("interrupted"),
        "no interrupt acknowledgement.\nstdout: {stdout}\nstderr: {stderr}"
    );
}
