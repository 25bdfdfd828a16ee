//! `eba-check`: a command-line epistemic model checker.
//!
//! Builds the exhaustive (or sampled) system of full-information runs for
//! a scenario and checks a formula over every point, reporting validity
//! and counterexamples/witnesses. See `eba-check --help` for the formula
//! syntax.

use eba_core::{ConfigError, EngineConfig, EngineOptions, EngineSession, OpenError, Verdict};
use eba_kripke::explain::Timeline;
use eba_kripke::parse::parse_formula;
use eba_kripke::Formula;
use eba_model::{
    BudgetHit, ExchangeKind, FailureMode, FailurePattern, FaultyBehavior, InitialConfig,
    ModelError, ProcSet, ProcessorId, Round, Scenario, Value,
};
use eba_serve::install_sigint;
use std::fmt;
use std::io::{self, Write};
use std::process::{self, ExitCode};
use std::time::Duration;

const HELP: &str = "\
eba-check — model-check epistemic formulas over Byzantine-agreement systems

USAGE:
    eba-check [OPTIONS] FORMULA

OPTIONS:
    --n N            number of processors        (default 3)
    --t T            failure bound               (default 1)
    --mode MODE      crash | omission | general-omission   (default crash)
    --horizon H      rounds simulated            (default t + 2)
    --exchange SPEC  information exchange the processors run:
                       full          full-information views (default)
                       digest:<bits> bounded who-heard-what digests with a
                                     content fingerprint truncated to
                                     0..=64 bits; the interned state space
                                     is bounded in the horizon, unlocking
                                     scales the full-information engine
                                     cannot enumerate. digest:0 (pure
                                     summary) also supports --horizon-sweep;
                                     fingerprinted digests are rebuild-only
    --sampled R S    use R seeded random runs (seed S) instead of the
                     exhaustive system
    --symmetry on|off
                     processor-relabeling quotient (default off): simulate
                     one representative failure pattern per Sym(n) orbit
                     and evaluate knowledge through orbit-canonical view
                     classes; verdicts over the quotient equal the
                     unreduced system's for processor-symmetric formulas.
                     A formula naming a specific processor (K_i, B_i,
                     init(i), N(i)) is checked on the unreduced system
                     with a notice. Requires the full exchange; conflicts
                     with --sampled and --timeline. `off` keeps today's
                     unreduced path, the differential oracle CI diffs
                     against
    --threads N|auto worker threads for system generation and horizon
                     extension (default: all available cores); knowledge
                     evaluation runs on the main thread. `auto` resolves to
                     std::thread::available_parallelism() and prints the
                     resolved count on a `threads:` preamble line; an
                     explicit N never prints it, so output stays
                     byte-identical across explicit thread counts
    --deadline SECS  wall-clock budget for exhaustive generation; on
                     exhaustion the verdict covers only the completed
                     prefix of failure patterns and a PARTIAL banner is
                     printed
    --max-runs N     cap on generated runs, honored per failure pattern:
                     the system keeps the first floor(N / 2^n) patterns,
                     the same prefix at every --threads; exceeding it
                     also yields a PARTIAL prefix verdict
    --horizon-sweep A..B
                     check FORMULA at every horizon A..=B out of ONE
                     incremental engine session: the exhaustive system is
                     built once at horizon A and grown append-only to each
                     larger horizon, reusing interned views; each
                     horizon's system gets its own knowledge cache.
                     Per-horizon output is bit-identical to independent
                     cold runs of each horizon. Exhaustive only:
                     conflicts with --horizon, --sampled, --timeline,
                     and --deadline/--max-runs
    --witness        also print a point where the formula holds
    --cache-stats    after the verdict, print knowledge-cache counters
                     (reachability, scope-column and D-partition lookups
                     the shared cache answered or missed, and the
                     resident bytes) on a `cache:` line, and the
                     worker-pool counters (pool runs, items, last run's
                     per-worker item counts and busy spans) on a
                     `scheduler:` line
    --quiet          print only the verdict line
    --timeline       timeline mode: print per-time truth values of the
                     FORMULAs along one run, selected with --config and
                     --pattern (requires the exhaustive system)
    --config BITS    timeline run's initial values, one char per
                     processor, p1 first (e.g. 011)
    --pattern SPEC   timeline run's failure pattern; ';'-separated
                     per-processor behaviors:
                       p1:clean
                       p1:silent                  (mute from round 1)
                       p1:crash@2                 (crash round 2, deliver none)
                       p1:crash@2->p2,p3          (…deliver to p2, p3)
                       p1:omit@1->p3[@2->p2,...]  (omission rounds)
                     default: failure-free
    --help           this text

FORMULA SYNTAX (processors are 1-based):
    atoms:       true  false  E0  E1  init(i)=0  init(i)=1  N(i)
    connectives: !f   f & g   f | g   f -> g   f <-> g
    knowledge:   K_i(f)   B_i(f)   E(f)   SK(f) someone   D(f) distributed
                 C(f) common   CC(f) continual common
    temporal:    G(f) always   F(f) eventually   A(f) all times   S(f) some time

EXAMPLES:
    # Continual common knowledge is stronger than common knowledge:
    eba-check 'CC(E0) -> C(E0)'            # valid
    eba-check 'C(E0) -> CC(E0)'            # NOT valid, counterexample shown

    # The knowledge axiom for belief guarded by nonfaultiness:
    eba-check --mode omission 'B_1(E0) -> (N(1) -> E0)'

    # Watch knowledge build along a run:
    eba-check --timeline --config 011 --pattern 'p1:crash@1->p2' \
        'B_2(E0)' 'B_3(E0)' 'C(E0)'

EXIT CODE: 0 if valid (at every swept horizon, for --horizon-sweep; or
timeline printed), 1 if not valid, 2 on usage errors, 141 if stdout
closes early (e.g. piped into `head`; 128 + SIGPIPE, as a shell reports
for a C filter): the run then ends at once, printing nothing more.

Ctrl-C is cooperative: an exhaustive build stops at its next pattern
checkpoint and the verdict covers the completed prefix (the same PARTIAL
banner as --deadline); a --horizon-sweep stops before its next horizon.
";

/// `eprintln!` that ignores a failed write, so a closed stderr never
/// turns the run's exit status into a panic's (101).
macro_rules! errln {
    ($($arg:tt)*) => {{
        let _ = writeln!(io::stderr(), $($arg)*);
    }};
}

/// Writes to stdout; every byte of stdout goes through here. When the
/// reader has gone (`eba-check … | head -1`) the run ends at once and
/// silently with status 141, 128 + SIGPIPE; any other write error ends
/// it with status 2.
fn write_out(text: fmt::Arguments<'_>) {
    if let Err(e) = io::stdout().write_fmt(text) {
        if e.kind() == io::ErrorKind::BrokenPipe {
            process::exit(141);
        }
        errln!("error: cannot write to stdout: {e}");
        process::exit(2);
    }
}

/// `println!` through [`write_out`].
macro_rules! outln {
    ($($arg:tt)*) => {
        write_out(format_args!("{}\n", format_args!($($arg)*)))
    };
}

#[derive(Default)]
struct Options {
    /// The engine's part: scenario, sampling, symmetry and budget.
    engine: EngineOptions,
    horizon_sweep: Option<(u16, u16)>,
    threads: Option<usize>,
    /// Whether `--threads auto` was given (prints the resolved count).
    threads_auto: bool,
    witness: bool,
    cache_stats: bool,
    quiet: bool,
    timeline: bool,
    config: Option<String>,
    pattern: Option<String>,
    formulas: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options::default();
    let engine = &mut options.engine;
    let mut iter = args.iter().peekable();
    let mut positional = Vec::new();
    while let Some(arg) = iter.next() {
        let mut take = |name: &str| -> Result<String, String> {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--help" | "-h" => return Err(String::new()),
            "--n" => engine.n = take("--n")?.parse().map_err(|_| "bad --n")?,
            "--t" => engine.t = take("--t")?.parse().map_err(|_| "bad --t")?,
            "--horizon" => {
                engine.horizon = Some(take("--horizon")?.parse().map_err(|_| "bad --horizon")?);
            }
            "--horizon-sweep" => {
                let spec = take("--horizon-sweep")?;
                let (from, to) = spec
                    .split_once("..")
                    .ok_or("--horizon-sweep needs a range like 2..5")?;
                let from: u16 = from.trim().parse().map_err(|_| "bad sweep start")?;
                let to: u16 = to.trim().parse().map_err(|_| "bad sweep end")?;
                if from == 0 {
                    return Err("sweep horizons start at 1".to_owned());
                }
                if to < from {
                    return Err(format!("--horizon-sweep range {from}..{to} is empty"));
                }
                options.horizon_sweep = Some((from, to));
            }
            "--exchange" => {
                engine.exchange =
                    ExchangeKind::parse(&take("--exchange")?).map_err(|e| e.to_string())?;
            }
            "--mode" => {
                engine.mode = FailureMode::parse(&take("--mode")?).map_err(|e| e.to_string())?;
            }
            "--sampled" => {
                let runs: usize = take("--sampled")?.parse().map_err(|_| "bad run count")?;
                let seed = take("--sampled")?.parse().map_err(|_| "bad seed")?;
                if runs == 0 {
                    return Err("--sampled needs at least 1 run".to_owned());
                }
                engine.sampled = Some((runs, seed));
            }
            "--symmetry" => {
                engine.symmetry = match take("--symmetry")?.as_str() {
                    "on" => true,
                    "off" => false,
                    other => return Err(format!("--symmetry needs on|off, got `{other}`")),
                };
            }
            "--threads" => {
                let spec = take("--threads")?;
                if spec == "auto" {
                    let resolved = std::thread::available_parallelism().map_or(1, |p| p.get());
                    options.threads = Some(resolved);
                    options.threads_auto = true;
                } else {
                    let threads: usize = spec.parse().map_err(|_| "bad --threads")?;
                    if threads == 0 {
                        return Err("--threads must be at least 1".to_owned());
                    }
                    options.threads = Some(threads);
                    options.threads_auto = false;
                }
            }
            "--deadline" => {
                let secs: f64 = take("--deadline")?.parse().map_err(|_| "bad --deadline")?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("--deadline must be a positive number of seconds".to_owned());
                }
                engine.budget = engine.budget.with_deadline(Duration::from_secs_f64(secs));
            }
            "--max-runs" => {
                let max: u64 = take("--max-runs")?.parse().map_err(|_| "bad --max-runs")?;
                if max == 0 {
                    return Err("--max-runs must be at least 1".to_owned());
                }
                engine.budget = engine.budget.with_max_runs(max);
            }
            "--witness" => options.witness = true,
            "--cache-stats" => options.cache_stats = true,
            "--quiet" => options.quiet = true,
            "--timeline" => options.timeline = true,
            "--config" => options.config = Some(take("--config")?),
            "--pattern" => options.pattern = Some(take("--pattern")?),
            other if other.starts_with("--") => {
                return Err(format!("unknown option `{other}`"));
            }
            _ => positional.push(arg.clone()),
        }
    }
    if positional.is_empty() {
        return Err("missing FORMULA".to_owned());
    }
    if !options.timeline && positional.len() > 1 {
        return Err("expected exactly one FORMULA (pass --timeline for several)".to_owned());
    }
    options.formulas = positional;
    Ok(options)
}

/// Parses `--config` bit strings: one char per processor, `p1` first.
fn parse_config(spec: &str, n: usize) -> Result<InitialConfig, String> {
    if spec.len() != n {
        return Err(format!(
            "--config needs exactly {n} bits, got {}",
            spec.len()
        ));
    }
    let values = spec
        .chars()
        .map(|c| match c {
            '0' => Ok(Value::Zero),
            '1' => Ok(Value::One),
            other => Err(format!("bad config bit `{other}`")),
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(InitialConfig::new(values))
}

/// Parses a `--pattern` spec; see the help text for the grammar.
fn parse_pattern(spec: &str, scenario: &Scenario) -> Result<FailurePattern, String> {
    let n = scenario.n();
    let mut pattern = FailurePattern::failure_free(n);
    let parse_proc = |s: &str| -> Result<ProcessorId, String> {
        let raw: usize = s
            .strip_prefix('p')
            .ok_or_else(|| format!("expected `pN`, got `{s}`"))?
            .parse()
            .map_err(|_| format!("bad processor `{s}`"))?;
        if raw == 0 || raw > n {
            return Err(format!("processor `{s}` out of range 1..={n}"));
        }
        Ok(ProcessorId::new(raw - 1))
    };
    let parse_receivers = |s: &str| -> Result<ProcSet, String> {
        if s.is_empty() || s == "{}" {
            return Ok(ProcSet::empty());
        }
        s.split(',').map(|part| parse_proc(part.trim())).collect()
    };
    for entry in spec.split(';').filter(|e| !e.trim().is_empty()) {
        let entry = entry.trim();
        let (proc_part, behavior_part) = entry
            .split_once(':')
            .ok_or_else(|| format!("expected `pN:behavior`, got `{entry}`"))?;
        let p = parse_proc(proc_part.trim())?;
        let behavior_part = behavior_part.trim();
        let behavior = if behavior_part == "clean" {
            FaultyBehavior::Clean
        } else if behavior_part == "silent" {
            match scenario.mode() {
                FailureMode::Crash => FaultyBehavior::Crash {
                    round: Round::new(1),
                    receivers: ProcSet::empty(),
                },
                _ => FaultyBehavior::Omission {
                    omissions: vec![
                        ProcSet::full(n) - ProcSet::singleton(p);
                        scenario.horizon().index()
                    ],
                },
            }
        } else if let Some(rest) = behavior_part.strip_prefix("crash@") {
            let (round_part, receivers) = match rest.split_once("->") {
                Some((r, recv)) => (r, parse_receivers(recv.trim())?),
                None => (rest, ProcSet::empty()),
            };
            let round: u16 = round_part
                .trim()
                .parse()
                .map_err(|_| format!("bad crash round in `{entry}`"))?;
            if round == 0 || round > scenario.horizon().ticks() {
                return Err(format!("crash round out of range in `{entry}`"));
            }
            FaultyBehavior::Crash {
                round: Round::new(round),
                receivers,
            }
        } else if let Some(rest) = behavior_part.strip_prefix("omit@") {
            let mut omissions = vec![ProcSet::empty(); scenario.horizon().index()];
            for clause in rest.split('@') {
                let (round_part, recv) = clause
                    .split_once("->")
                    .ok_or_else(|| format!("expected `R->procs` in `{entry}`"))?;
                let round: usize = round_part
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad omission round in `{entry}`"))?;
                if round == 0 || round > omissions.len() {
                    return Err(format!("omission round out of range in `{entry}`"));
                }
                omissions[round - 1] = parse_receivers(recv.trim())?;
            }
            FaultyBehavior::Omission { omissions }
        } else {
            return Err(format!("unknown behavior in `{entry}`"));
        };
        pattern.set_behavior(p, behavior);
    }
    scenario
        .validate_pattern(&pattern)
        .map_err(|e| e.to_string())?;
    Ok(pattern)
}

/// The flag phrasing of a [`ConfigError`].
fn config_message(error: ConfigError) -> String {
    match error {
        ConfigError::SymmetryNeedsExhaustive => {
            "--symmetry quotients the exhaustive system; drop --sampled".into()
        }
        ConfigError::SymmetryNeedsFullExchange(exchange) => format!(
            "--symmetry needs the full-information exchange; `{exchange}` bakes processor \
             labels into its bounded states"
        ),
        ConfigError::BudgetNeedsExhaustive => {
            "--deadline/--max-runs govern exhaustive generation; drop --sampled".into()
        }
        ConfigError::SweepNeedsExhaustive => {
            "--horizon-sweep needs the exhaustive system; drop --sampled".into()
        }
        ConfigError::SweepNeedsExtension(exchange) => format!(
            "--horizon-sweep needs an exchange supporting session extension; \
             `{exchange}` is rebuild-only (use full or digest:0, or check horizons individually)"
        ),
        ConfigError::Scenario(e) => e.to_string(),
    }
}

/// The rules only the CLI has: a timeline pins one complete, unreduced
/// run at one horizon; a sweep sets its own horizons and is never
/// budgeted.
fn check_cli_rules(options: &Options) -> Result<(), &'static str> {
    let sampled = options.engine.sampled.is_some();
    let budgeted = options.engine.budget.is_bounded();
    let sweep = options.horizon_sweep.is_some();
    if options.timeline {
        if options.engine.symmetry {
            return Err("--timeline pins one concrete run; drop --symmetry");
        }
        if sweep {
            return Err("--timeline checks one run at one horizon; drop --horizon-sweep");
        }
        if sampled {
            return Err("--timeline needs the exhaustive system; drop --sampled");
        }
        if budgeted {
            return Err("--timeline needs the complete system; drop --deadline/--max-runs");
        }
    }
    if sweep && options.engine.horizon.is_some() {
        return Err("--horizon conflicts with --horizon-sweep (the sweep sets the horizons)");
    }
    if sweep && budgeted {
        return Err("--deadline/--max-runs govern single builds; drop them for --horizon-sweep");
    }
    Ok(())
}

/// The preamble: the scenario line, the formulas, and the orbit
/// accounting of a quotiented system.
fn print_preamble(session: &EngineSession, options: &Options, formulas: &[(String, Formula)]) {
    if options.quiet {
        return;
    }
    let system = session.system();
    outln!(
        "scenario {}: {} runs, {} points ({})",
        session.scenario(),
        system.num_runs(),
        system.num_points(),
        if options.engine.sampled.is_some() {
            "sampled"
        } else {
            "exhaustive"
        },
    );
    for (_, f) in formulas {
        outln!("formula: {f}");
    }
    if let Some(info) = system.symmetry() {
        outln!(
            "symmetry: {} orbits cover {}/{} patterns ({:.2}x reduction)",
            info.num_orbits(),
            info.raw_patterns_covered(),
            info.raw_pattern_total(),
            info.reduction_ratio(),
        );
    }
}

/// The `cache:` and `scheduler:` lines of `--cache-stats`.
fn print_cache_stats(session: &EngineSession, options: &Options) {
    if options.cache_stats {
        outln!("cache: {}", session.cache().stats());
        outln!("scheduler: {}", eba_sim::scheduler_stats());
    }
}

/// Prints the verdict block (VALID/NOT VALID, counterexample, witness,
/// cache lines); returns whether the formula is valid.
fn print_verdict(session: &EngineSession, verdict: &Verdict, options: &Options) -> bool {
    if verdict.is_valid() {
        outln!("VALID ({} points)", verdict.points);
    } else {
        outln!(
            "NOT VALID: holds at {}/{} points",
            verdict.holds,
            verdict.points
        );
        if let Some(point) = &verdict.counterexample {
            outln!("counterexample: {point}");
        }
        if options.witness {
            match &verdict.witness {
                Some(point) => outln!("witness: {point}"),
                None => outln!("witness: none (formula is unsatisfiable here)"),
            }
        }
    }
    print_cache_stats(session, options);
    verdict.is_valid()
}

/// Checks one formula at every horizon of the sweep out of one
/// incremental [`EngineSession`], built at the first horizon and grown
/// append-only to each larger one. Each horizon prints what a separate
/// `--horizon` run prints, after a `== horizon H ==` line (CI diffs the
/// two), plus an `extend:` line under `--cache-stats`.
fn run_sweep(
    options: &Options,
    config: &EngineConfig,
    formulas: &[(String, Formula)],
    to: u16,
) -> Result<ExitCode, String> {
    let from = config.spec().horizon;
    let session = match EngineSession::open(config) {
        Ok(session) if session.partial().is_none() => session,
        // A sweep carries no bounds: only Ctrl-C stops its base build.
        Ok(_) | Err(OpenError::Exhausted(_)) => {
            outln!("PARTIAL: interrupted; sweep stopped before horizon {from}");
            return Ok(ExitCode::SUCCESS);
        }
        Err(OpenError::Fault(e)) => return Err(e.to_string()),
    };
    let mut all_valid = true;
    let interrupt = config.budget().interrupt();
    let stopped = EngineSession::sweep(
        session,
        &formulas[0].1,
        to,
        interrupt,
        |mut session, horizon| -> Result<_, ModelError> {
            let report = session.extend_to(horizon)?;
            if options.cache_stats {
                outln!("extend: {report}");
            }
            Ok(session)
        },
        |session, verdict| {
            outln!("== horizon {} ==", session.horizon().ticks());
            print_preamble(session, options, formulas);
            all_valid &= print_verdict(session, &verdict, options);
        },
    )
    .map_err(|e| e.to_string())?;
    if let Some(horizon) = stopped {
        outln!("PARTIAL: interrupted; sweep stopped before horizon {horizon}");
    }
    Ok(ExitCode::from(u8::from(!all_valid)))
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) if message.is_empty() => {
            write_out(format_args!("{HELP}"));
            return Ok(ExitCode::SUCCESS);
        }
        Err(message) => return Err(message),
    };

    // Only `--threads auto` prints the resolution, so explicit thread
    // counts keep byte-identical output (the parallel-equivalence CI job
    // diffs runs at --threads 1/2/8).
    if options.threads_auto && !options.quiet {
        if let Some(threads) = options.threads {
            outln!("threads: {threads} (auto)");
        }
    }

    let mut engine = options.engine;
    if let Some((from, _)) = options.horizon_sweep {
        engine.horizon = Some(from);
        engine.sweep = true;
    }
    // Ctrl-C sets a flag that every exhaustive build polls at its pattern
    // checkpoints; the run then finishes with a PARTIAL prefix verdict
    // instead of being killed mid-write.
    let mut config = EngineConfig::new(engine)
        .map_err(config_message)?
        .with_interrupt(install_sigint());
    check_cli_rules(&options)?;
    config.threads = options.threads;

    let formulas: Vec<(String, Formula)> = options
        .formulas
        .iter()
        .map(|text| {
            parse_formula(text)
                .map(|f| (text.clone(), f))
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    if config.for_formula(&formulas[0].1) && !options.quiet {
        outln!("symmetry: formula names specific processors; checking the unreduced system");
    }
    if let Some((_, to)) = options.horizon_sweep {
        return run_sweep(&options, &config, &formulas, to);
    }

    // Validate the timeline run selection before doing any heavy work or
    // printing the preamble.
    let n = options.engine.n;
    let timeline_run = if options.timeline {
        let initial = match &options.config {
            Some(spec) => parse_config(spec, n)?,
            None => InitialConfig::uniform(n, Value::One),
        };
        let pattern = match &options.pattern {
            Some(spec) => parse_pattern(spec, config.scenario())?,
            None => FailurePattern::failure_free(n),
        };
        Some((initial, pattern))
    } else {
        None
    };

    let session = match EngineSession::open(&config) {
        Ok(session) => session,
        Err(OpenError::Exhausted(BudgetHit::Interrupted)) => {
            return Err(
                "interrupted before the build covered any failure pattern; no partial verdict"
                    .into(),
            );
        }
        Err(OpenError::Exhausted(hit)) => {
            return Err(format!(
                "budget exhausted before the build covered any failure pattern ({hit}); \
                 raise --deadline/--max-runs"
            ));
        }
        Err(OpenError::Fault(e)) => return Err(e.to_string()),
    };
    if let Some(partial) = session.partial() {
        let hit = partial.budget_hit;
        if options.timeline {
            return Err(format!(
                "{hit} mid-build; --timeline needs the complete system"
            ));
        }
        outln!(
            "PARTIAL: {hit}; verdict covers {}/{} failure patterns ({} runs)",
            partial.patterns,
            partial.total_patterns,
            session.system().num_runs(),
        );
    }
    print_preamble(&session, &options, &formulas);

    if let Some((initial, pattern)) = timeline_run {
        let run = session
            .system()
            .find_run(&initial, &pattern)
            .ok_or("run not in the generated system")?;
        outln!("run: {initial} under [{pattern}]");
        let timeline = Timeline::build(&mut session.evaluator(), run, &formulas);
        outln!("{timeline}");
        print_cache_stats(&session, &options);
        return Ok(ExitCode::SUCCESS);
    }

    let valid = print_verdict(&session, &session.verdict(&formulas[0].1), &options);
    Ok(ExitCode::from(u8::from(!valid)))
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(message) => {
            errln!("error: {message}");
            errln!("run `eba-check --help` for usage");
            ExitCode::from(2)
        }
    }
}
