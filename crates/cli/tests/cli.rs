//! End-to-end tests of the `eba-check` binary.

use std::process::{Command, Stdio};

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
fn cache_stats_count_only_lookups_the_shared_cache_answered() {
    // `CC(E0)` and `C(E0)` share one reachability structure, built once:
    // the plan's read-backs of its own prefetch are no hits. The resident
    // bytes are that structure's per-point component ids, per-run
    // component ids and per-run flags over the 3-processor crash system.
    let (stdout, _, code) = run(&["--cache-stats", "CC(E0) -> C(E0)"]);
    assert_eq!(code, Some(0), "{stdout}");
    let cache_line = stdout
        .lines()
        .find(|l| l.starts_with("cache: "))
        .unwrap_or_else(|| panic!("no cache line in {stdout}"));
    assert_eq!(
        cache_line,
        "cache: reachability 0 hits / 1 misses; scope columns 0 hits / 0 misses; \
         D partitions 0 hits / 0 misses; epoch 0 (0 invalidated); resident ~6216 bytes"
    );
}

#[test]
fn cache_stats_count_one_d_partition_per_set() {
    // `D(E0)` and `D(E1)` close over one partition of the nonfaulty set,
    // built once and held in the cache: 4 bytes per point of the
    // 7,744-point quotient.
    let (stdout, _, code) = run(&[
        "--n",
        "4",
        "--t",
        "1",
        "--mode",
        "omission",
        "--horizon",
        "3",
        "--symmetry",
        "on",
        "--cache-stats",
        "D(E0) & D(E1)",
    ]);
    assert_eq!(code, Some(1), "{stdout}");
    let cache_line = stdout
        .lines()
        .find(|l| l.starts_with("cache: "))
        .unwrap_or_else(|| panic!("no cache line in {stdout}"));
    assert_eq!(
        cache_line,
        "cache: reachability 0 hits / 0 misses; scope columns 0 hits / 0 misses; \
         D partitions 0 hits / 1 misses; epoch 0 (0 invalidated); resident ~30976 bytes"
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
fn samples_past_the_run_id_space_exit_two_not_abort() {
    // 2 × 10^12 runs could never get run ids; the count is refused
    // before anything is sampled or allocated.
    let (_, stderr, code) = run(&["--sampled", "1000000000000", "1", "--quiet", "true"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("capacity exceeded: run ids holds at most 4294967296 items"),
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
    for args in [["--threads", "0"], ["--max-runs", "0"], ["--deadline", "0"]] {
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

/// No front end sets how a build is split: `--shards` is gone.
#[test]
fn shards_is_an_unknown_option() {
    for value in ["0", "4"] {
        let (_, stderr, code) = run(&["--shards", value, "true"]);
        assert_eq!(code, Some(2), "{stderr}");
        assert!(stderr.contains("unknown option `--shards`"), "{stderr}");
    }
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
    // 3,1,omission,2 has 49 patterns of 8 runs each; 50 runs hold the
    // first 6 whole patterns, so the verdict carries a PARTIAL banner.
    let (stdout, _, code) = run(&[
        "--mode",
        "omission",
        "--horizon",
        "2",
        "--max-runs",
        "50",
        "true",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(
        stdout.starts_with(
            "PARTIAL: run budget of 50 exhausted; verdict covers 6/49 failure patterns (48 runs)\n\
             scenario n=3 t=1 mode=omission T=2: 48 runs, 144 points (exhaustive)\n"
        ),
        "{stdout}"
    );
}

/// A run-bounded verdict depends on the scenario and the bound alone:
/// the same bytes and exit code at every thread count.
#[test]
fn run_budget_partial_is_identical_at_every_thread_count() {
    for threads in ["1", "2", "4", "8"] {
        let (stdout, stderr, code) = run(&[
            "--threads",
            threads,
            "--mode",
            "omission",
            "--horizon",
            "2",
            "--max-runs",
            "50",
            "--quiet",
            "true",
        ]);
        assert_eq!(
            (stdout.as_str(), stderr.as_str(), code),
            (
                "PARTIAL: run budget of 50 exhausted; verdict covers 6/49 failure patterns \
                 (48 runs)\nVALID (144 points)\n",
                "",
                Some(0)
            ),
            "--threads {threads}"
        );
    }
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
    // signal (about 40 s on a 2-core host if it ran to completion); every
    // block polls the interrupt flag once per failure pattern.
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

    // Cooperative shutdown: the build must stop at the next pattern
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
    // Either a block completed before the signal (PARTIAL banner +
    // prefix verdict) or none did (typed error); both are graceful exits,
    // never a signal death.
    assert!(
        output.status.code().is_some(),
        "process was killed by a signal instead of exiting: {stderr}"
    );
    assert!(
        stdout.contains("PARTIAL: interrupted") || stderr.contains("interrupted"),
        "no interrupt acknowledgement.\nstdout: {stdout}\nstderr: {stderr}"
    );
}

#[test]
fn closed_stdout_ends_the_run_quietly_with_status_141() {
    use std::process::Stdio;

    // The build takes well over 100 ms, so the reader is gone before the
    // first line is written.
    let mut child = Command::new(env!("CARGO_BIN_EXE_eba-check"))
        .args([
            "--n",
            "4",
            "--t",
            "1",
            "--mode",
            "omission",
            "--horizon",
            "3",
            "CC(E0)",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    drop(child.stdout.take());
    let output = child.wait_with_output().expect("output");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(141), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// A closed stderr does not change the exit status: a parse error and a
/// budget too small for one failure pattern still exit 2, not 101 from a
/// panic on the failed write.
#[test]
fn errors_keep_status_two_when_stderr_is_closed() {
    let cases: [&[&str]; 2] = [&["E0 &"], &["--max-runs", "1", "C(E0)"]];
    for args in cases {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let status = Command::new(env!("CARGO_BIN_EXE_eba-check"))
            .args(args)
            .stdout(Stdio::null())
            .stderr(writer)
            .status()
            .expect("binary runs");
        assert_eq!(status.code(), Some(2), "{args:?}");
    }
}
