//! `benchmark`: the repository's end-to-end benchmark.
//!
//! ```text
//! benchmark [run] [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
//! ```
//!
//! Runs the four seeded workloads (all of them, or `W`) against the
//! engine's public entry points, each in a child process of its own so
//! peak RSS and process-wide state stay per workload. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`, the end-to-end metrics, or with `--trace` the
//! per-layer ones. Outputs are checked against the `eba-serve` oracle;
//! any mismatch makes the exit code non-zero. See README.md.

mod closed;
mod gen;
mod serve;
mod stats;
mod trace;
mod verify;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("throughput_qps", "queries/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every `--trace` run; a layer the
/// workload does not call reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("sim.build.ms_p50", "ms"),
    ("sim.build.share", "ratio"),
    ("sim.build.runs_per_s", "runs/s"),
    ("sim.extend.ms_p50", "ms"),
    ("sim.extend.share", "ratio"),
    ("sim.extend.reuse_frac", "ratio"),
    ("sim.system_mb", "MiB"),
    ("kripke.eval.ms_p50", "ms"),
    ("kripke.eval.share", "ratio"),
    ("kripke.eval.formulas_per_s", "formulas/s"),
    ("kripke.cache_mb", "MiB"),
    ("core.optimize.ms_p50", "ms"),
    ("core.optimize.share", "ratio"),
    ("core.optimality.ms_p50", "ms"),
    ("core.optimality.share", "ratio"),
    ("core.session.ms_p50", "ms"),
    ("serve.parse.us_p50", "us"),
    ("serve.execute.check.ms_p50", "ms"),
    ("serve.execute.optimize.ms_p50", "ms"),
    ("serve.execute.sweep.ms_p50", "ms"),
    ("serve.execute.coldkey.ms_p50", "ms"),
    ("serve.wire.ms_p50", "ms"),
    ("serve.pool.hit_frac", "ratio"),
    ("serve.pool.evictions", "count"),
    ("serve.pool.resident_mb", "MiB"),
    ("bench.gen_lag_p99_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.accounted_frac", "ratio"),
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    ColdPipeline,
    WarmKripke,
    HorizonSweep,
    ServeMixed,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::ColdPipeline,
        Workload::WarmKripke,
        Workload::HorizonSweep,
        Workload::ServeMixed,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ColdPipeline => "cold-pipeline",
            Workload::WarmKripke => "warm-kripke",
            Workload::HorizonSweep => "horizon-sweep",
            Workload::ServeMixed => "serve-mixed",
        }
    }
}

/// One workload run's settings.
#[derive(Clone, Copy, Debug)]
pub struct RunCfg {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny counts for a quick check that every metric prints.
    pub smoke: bool,
}

impl RunCfg {
    /// Set-up runs this many times; `setup_s` is the median.
    #[must_use]
    pub fn setup_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            7
        }
    }
}

/// Metric values by name.
#[derive(Default, Debug)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    #[must_use]
    pub fn new() -> Self {
        Values::default()
    }

    pub fn insert(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }
}

/// What a workload run produced.
pub struct Outcome {
    pub attempted: u64,
    /// One entry per failed operation: an error frame, a non-optimal
    /// construction, or an answer the oracle disagrees with.
    pub errors: Vec<String>,
    pub values: Values,
}

#[must_use]
pub fn mb(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// The process's peak resident set (`VmHWM`) in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Writes a traced run's spans to `target/benchmark/trace-<workload>.jsonl`.
pub fn write_trace(cfg: &RunCfg, spans: &[trace::Span]) {
    let path =
        PathBuf::from("target/benchmark").join(format!("trace-{}.jsonl", cfg.workload.name()));
    match trace::write_jsonl(&path, spans) {
        Ok(()) => eprintln!("wrote {} spans to {}", spans.len(), path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    child: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
        child: false,
    };
    let mut it = args.iter().peekable();
    if it.peek().is_some_and(|a| *a == "run") {
        it.next();
    }
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                parsed.workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|k| k.name() == w)
                        .ok_or_else(|| format!("unknown workload `{w}`"))?,
                );
            }
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                parsed.seconds = s;
            }
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => parsed.smoke = true,
            "--child" => parsed.child = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, String)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#))
        .collect();
    format!(
        r#"{{"correct":{correct},"attempted":{attempted},"failed":{failed},"metrics":{{{}}}}}"#,
        body.join(",")
    )
}

/// Runs one workload in this process and prints its result line.
fn child(cfg: RunCfg) -> ExitCode {
    eprintln!(
        "== {} (seed {}, {} s{}{})",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        if cfg.trace { ", traced" } else { "" },
        if cfg.smoke { ", smoke" } else { "" }
    );
    let result = match cfg.workload {
        Workload::ColdPipeline => closed::cold_pipeline(&cfg),
        Workload::WarmKripke => closed::warm_kripke(&cfg),
        Workload::HorizonSweep => closed::horizon_sweep(&cfg),
        Workload::ServeMixed => serve::serve_mixed(&cfg),
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for e in outcome.errors.iter().take(10) {
        eprintln!("FAILED: {e}");
    }
    let wanted = if cfg.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in wanted {
        let value = outcome.values.0.get(name).copied();
        if value.is_none() && !cfg.trace {
            eprintln!("error: the run measured no `{name}`");
            return ExitCode::FAILURE;
        }
        let value = value.filter(|v| v.is_finite()).unwrap_or(0.0);
        eprintln!("  {name:<32} {value:>14.4} {unit}");
        metrics.push((name.to_owned(), value, unit.to_owned()));
    }
    let correct = outcome.errors.is_empty();
    println!(
        "{}",
        json_line(
            correct,
            outcome.attempted.max(1),
            outcome.errors.len() as u64,
            &metrics
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("usage: benchmark [run] [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]\n{e}");
            return ExitCode::from(2);
        }
    };
    let cfg = |workload| RunCfg {
        workload,
        seed: args.seed,
        seconds: if args.smoke { 1.0 } else { args.seconds },
        trace: args.trace,
        smoke: args.smoke,
    };
    if args.child {
        let Some(workload) = args.workload else {
            eprintln!("--child needs --workload");
            return ExitCode::from(2);
        };
        return child(cfg(workload));
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut results = Vec::new();
    for workload in &workloads {
        let c = cfg(*workload);
        let mut cmd = Command::new(&exe);
        cmd.args(["--child", "--workload", workload.name()])
            .args([
                "--seed",
                &c.seed.to_string(),
                "--seconds",
                &c.seconds.to_string(),
            ])
            .args(["--trace", if c.trace { "1" } else { "0" }]);
        if c.smoke {
            cmd.arg("--smoke");
        }
        let out = match cmd.stdin(Stdio::null()).stderr(Stdio::inherit()).output() {
            Ok(out) => out,
            Err(e) => {
                eprintln!("cannot run the {} child: {e}", workload.name());
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        let Some(line) = stdout.lines().last().map(str::to_owned) else {
            eprintln!("{} printed no result ({})", workload.name(), out.status);
            return ExitCode::FAILURE;
        };
        results.push((*workload, line, out.status.success()));
    }
    if let [(_, line, ok)] = results.as_slice() {
        println!("{line}");
        return if *ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    aggregate(&results)
}

/// Prints every workload's metrics as a table, then one JSON line whose
/// metrics are named `<workload>.<metric>`.
fn aggregate(results: &[(Workload, String, bool)]) -> ExitCode {
    use eba_serve::json::{self, Json};
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Vec::new();
    for (workload, line, ok) in results {
        let Ok(frame) = json::parse(line) else {
            eprintln!("{}: unreadable result {line}", workload.name());
            return ExitCode::FAILURE;
        };
        correct &= *ok && frame.get("correct").and_then(Json::as_bool) == Some(true);
        attempted += frame.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        failed += frame.get("failed").and_then(Json::as_u64).unwrap_or(0);
        if let Some(Json::Obj(fields)) = frame.get("metrics") {
            for (name, m) in fields {
                let value = match m.get("value") {
                    Some(Json::Int(i)) => *i as f64,
                    Some(Json::Float(f)) => *f,
                    _ => 0.0,
                };
                let unit = m
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_owned();
                println!("{:<15} {name:<32} {value:>14.4} {unit}", workload.name());
                metrics.push((format!("{}.{name}", workload.name()), value, unit));
            }
        }
    }
    println!("{}", json_line(correct, attempted.max(1), failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
