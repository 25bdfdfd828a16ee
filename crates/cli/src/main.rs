//! `eba-check`: a command-line epistemic model checker.
//!
//! Builds the exhaustive (or sampled) system of full-information runs for
//! a scenario and checks a formula over every point, reporting validity
//! and counterexamples/witnesses. See `eba-check --help` for the formula
//! syntax.

use eba_core::{EngineSession, SessionScope};
use eba_kripke::explain::Timeline;
use eba_kripke::parse::parse_formula;
use eba_kripke::{Evaluator, Formula, KnowledgeCache};
use eba_model::{
    BudgetHit, ExchangeKind, FailureMode, FailurePattern, FaultyBehavior, InitialConfig, ProcSet,
    ProcessorId, Round, RunBudget, Scenario, Time, Value,
};
use eba_serve::install_sigint;
use eba_sim::{BuildOutcome, GeneratedSystem, SystemBuilder};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
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
    --threads N|auto worker threads for system generation, horizon
                     extension, and knowledge evaluation (default: all
                     available cores). `auto` resolves to
                     std::thread::available_parallelism() and prints the
                     resolved count on a `threads:` preamble line; an
                     explicit N never prints it, so output stays
                     byte-identical across explicit thread counts
    --shards K       split exhaustive generation into K shards (default:
                     4 per thread; the result is identical for any K)
    --deadline SECS  wall-clock budget for exhaustive generation; on
                     exhaustion the verdict covers only the completed
                     prefix of shards and a PARTIAL banner is printed
    --max-runs N     cap on generated runs, honored at shard granularity;
                     exceeding it also yields a PARTIAL prefix verdict
    --horizon-sweep A..B
                     check FORMULA at every horizon A..=B out of ONE
                     incremental engine session: the exhaustive system is
                     built once at horizon A and grown append-only to each
                     larger horizon, reusing interned views and carrying
                     an epoch-scoped knowledge cache. Per-horizon output
                     is bit-identical to independent cold runs of each
                     horizon. Exhaustive only: conflicts with --horizon,
                     --sampled, --timeline, and --deadline/--max-runs
    --sweep-cold     with --horizon-sweep: rebuild every horizon from
                     scratch instead of extending — the differential
                     oracle for the incremental path; prints the same
                     output (diagnostic `cache:`/`extend:` lines under
                     --cache-stats excepted)
    --witness        also print a point where the formula holds
    --cache-stats    after the verdict, print knowledge-cache counters
                     (reachability and scope-column hits/misses, interned
                     scope dedup) on a `cache:` line, and the
                     work-stealing pool counters (pool runs, items,
                     steals, last run's per-worker item counts and busy
                     spans) on a `scheduler:` line
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
timeline printed), 1 if not valid, 2 on usage errors.

Ctrl-C is cooperative: an exhaustive build stops at the next shard
checkpoint and the verdict covers the completed prefix (the same PARTIAL
banner as --deadline); a --horizon-sweep stops before its next horizon.
";

struct Options {
    n: usize,
    t: usize,
    mode: FailureMode,
    exchange: ExchangeKind,
    horizon: Option<u16>,
    horizon_sweep: Option<(u16, u16)>,
    sweep_cold: bool,
    sampled: Option<(usize, u64)>,
    symmetry: bool,
    threads: Option<usize>,
    /// Whether `--threads auto` was given (prints the resolved count).
    threads_auto: bool,
    shards: Option<usize>,
    deadline: Option<Duration>,
    max_runs: Option<u64>,
    witness: bool,
    cache_stats: bool,
    quiet: bool,
    timeline: bool,
    config: Option<String>,
    pattern: Option<String>,
    formulas: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        n: 3,
        t: 1,
        mode: FailureMode::Crash,
        exchange: ExchangeKind::FullInformation,
        horizon: None,
        horizon_sweep: None,
        sweep_cold: false,
        sampled: None,
        symmetry: false,
        threads: None,
        threads_auto: false,
        shards: None,
        deadline: None,
        max_runs: None,
        witness: false,
        cache_stats: false,
        quiet: false,
        timeline: false,
        config: None,
        pattern: None,
        formulas: Vec::new(),
    };
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
            "--n" => options.n = take("--n")?.parse().map_err(|_| "bad --n")?,
            "--t" => options.t = take("--t")?.parse().map_err(|_| "bad --t")?,
            "--horizon" => {
                options.horizon = Some(take("--horizon")?.parse().map_err(|_| "bad --horizon")?);
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
            "--sweep-cold" => options.sweep_cold = true,
            "--exchange" => {
                options.exchange =
                    ExchangeKind::parse(&take("--exchange")?).map_err(|e| e.to_string())?;
            }
            "--mode" => {
                options.mode = match take("--mode")?.as_str() {
                    "crash" => FailureMode::Crash,
                    "omission" => FailureMode::Omission,
                    "general-omission" => FailureMode::GeneralOmission,
                    other => return Err(format!("unknown mode `{other}`")),
                };
            }
            "--sampled" => {
                let runs: usize = take("--sampled")?.parse().map_err(|_| "bad run count")?;
                let seed = take("--sampled")?.parse().map_err(|_| "bad seed")?;
                if runs == 0 {
                    return Err("--sampled needs at least 1 run".to_owned());
                }
                options.sampled = Some((runs, seed));
            }
            "--symmetry" => {
                options.symmetry = match take("--symmetry")?.as_str() {
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
            "--shards" => {
                let shards: usize = take("--shards")?.parse().map_err(|_| "bad --shards")?;
                if shards == 0 {
                    return Err("--shards must be at least 1".to_owned());
                }
                options.shards = Some(shards);
            }
            "--deadline" => {
                let secs: f64 = take("--deadline")?.parse().map_err(|_| "bad --deadline")?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("--deadline must be a positive number of seconds".to_owned());
                }
                options.deadline = Some(Duration::from_secs_f64(secs));
            }
            "--max-runs" => {
                let max: u64 = take("--max-runs")?.parse().map_err(|_| "bad --max-runs")?;
                if max == 0 {
                    return Err("--max-runs must be at least 1".to_owned());
                }
                options.max_runs = Some(max);
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

fn describe_point(system: &GeneratedSystem, run: eba_sim::RunId, time: Time) -> String {
    let record = system.run(run);
    format!(
        "run {} at {time}: config {} under [{}] (nonfaulty {})",
        run.index(),
        record.config,
        record.pattern,
        record.nonfaulty,
    )
}

/// Builds the exhaustive system honoring the thread/shard knobs (the
/// unbudgeted path; sweeps reject budgets up front). The build is still
/// governed by an interrupt-only budget so Ctrl-C stops it at the next
/// shard checkpoint instead of being ignored until completion.
fn build_exhaustive(
    scenario: &Scenario,
    options: &Options,
    quotient: bool,
    interrupt: &'static AtomicBool,
) -> Result<BuildOutcome, String> {
    let mut builder = SystemBuilder::new(scenario)
        .budget(RunBudget::unlimited().with_interrupt(interrupt))
        .symmetry(quotient);
    if let Some(threads) = options.threads {
        builder = builder.threads(threads);
    }
    if let Some(shards) = options.shards {
        builder = builder.shards(shards);
    }
    builder.build_governed().map_err(|e| e.to_string())
}

/// Whether `--symmetry` applies to `formula`: the quotient preserves
/// verdicts only for processor-symmetric formulas (DESIGN.md §4i), so a
/// formula naming specific processors falls back to the unreduced
/// system, with a notice unless `--quiet`.
fn quotient_eligible(options: &Options, formula: &Formula) -> bool {
    if !options.symmetry {
        return false;
    }
    // Parsed formulas cannot reference engine-registered state-set
    // families, so the family orbit-closure oracle is never consulted.
    let eligible = formula.symmetric_under_relabeling(&mut |_| true);
    if !eligible && !options.quiet {
        println!("symmetry: formula names specific processors; checking the unreduced system");
    }
    eligible
}

/// The `symmetry:` preamble line of a quotiented check.
fn print_symmetry_line(system: &GeneratedSystem, options: &Options) {
    if options.quiet {
        return;
    }
    if let Some(info) = system.symmetry() {
        println!(
            "symmetry: {} orbits cover {}/{} patterns ({:.2}x reduction)",
            info.num_orbits(),
            info.raw_patterns_covered(),
            info.raw_pattern_total(),
            info.reduction_ratio(),
        );
    }
}

/// Evaluates `formula` over every point of `system` and prints the
/// verdict block (VALID/NOT VALID, counterexample, witness, cache line) —
/// shared by the single-scenario path and each horizon of a sweep.
/// Returns whether the formula is valid.
fn check_valid(
    system: &GeneratedSystem,
    formula: &Formula,
    options: &Options,
    cache: Option<KnowledgeCache>,
) -> bool {
    let mut eval = Evaluator::with_cache(system, cache.unwrap_or_default());
    if let Some(threads) = options.threads {
        eval.set_threads(threads);
    }
    let satisfied = eval.eval(formula);
    let holding = satisfied.count_ones();
    let total = satisfied.len();
    let valid = holding == total;
    if valid {
        println!("VALID ({total} points)");
    } else {
        println!("NOT VALID: holds at {holding}/{total} points");
        if let Some((run, time)) = eval.counterexample(formula) {
            println!("counterexample: {}", describe_point(system, run, time));
        }
        if options.witness {
            match satisfied.first_one() {
                Some(idx) => {
                    let (run, time) = eval.point_of(idx);
                    println!("witness: {}", describe_point(system, run, time));
                }
                None => println!("witness: none (formula is unsatisfiable here)"),
            }
        }
    }
    if options.cache_stats {
        println!("cache: {}", eval.knowledge_cache().stats());
        println!("scheduler: {}", eba_sim::scheduler_stats());
    }
    valid
}

/// The per-horizon preamble of a sweep (always exhaustive, one formula).
fn print_sweep_preamble(system: &GeneratedSystem, options: &Options, formula: &Formula) {
    if options.quiet {
        return;
    }
    println!(
        "scenario {}: {} runs, {} points (exhaustive)",
        system.scenario(),
        system.num_runs(),
        system.num_points(),
    );
    println!("formula: {formula}");
    print_symmetry_line(system, options);
}

/// Checks one formula at every horizon `from..=to`, either out of one
/// incremental [`EngineSession`] (the default) or via independent cold
/// builds (`--sweep-cold`, the differential oracle). Both modes print
/// identical per-horizon output — CI diffs them — except for the
/// diagnostic `cache:`/`extend:` lines under `--cache-stats`.
fn run_sweep(
    options: &Options,
    from: u16,
    to: u16,
    interrupt: &'static AtomicBool,
) -> Result<ExitCode, String> {
    let formula = parse_formula(&options.formulas[0]).map_err(|e| e.to_string())?;
    let base_scenario = Scenario::new(options.n, options.t, options.mode, from)
        .and_then(|s| s.with_exchange(options.exchange))
        .map_err(|e| e.to_string())?;
    let quotient = quotient_eligible(options, &formula);
    let mut all_valid = true;
    if options.sweep_cold {
        for h in from..=to {
            if h > from && interrupt.load(Ordering::Relaxed) {
                println!("PARTIAL: interrupted; sweep stopped before horizon {h}");
                break;
            }
            let scenario = base_scenario.with_horizon(h).map_err(|e| e.to_string())?;
            let system = match build_exhaustive(&scenario, options, quotient, interrupt)? {
                BuildOutcome::Complete { system, .. } => system,
                BuildOutcome::Partial { budget_hit, .. } => {
                    println!("PARTIAL: {budget_hit}; sweep stopped before horizon {h}");
                    break;
                }
            };
            println!("== horizon {h} ==");
            print_sweep_preamble(&system, options, &formula);
            all_valid &= check_valid(&system, &formula, options, None);
        }
    } else {
        let base = match build_exhaustive(&base_scenario, options, quotient, interrupt)? {
            BuildOutcome::Complete { system, .. } => system,
            BuildOutcome::Partial { budget_hit, .. } => {
                println!("PARTIAL: {budget_hit}; sweep stopped before horizon {from}");
                return Ok(ExitCode::SUCCESS);
            }
        };
        let mut session = EngineSession::from_system(base, SessionScope::FullSpace);
        if let Some(threads) = options.threads {
            session.set_threads(threads);
        }
        for h in from..=to {
            if h > from {
                if interrupt.load(Ordering::Relaxed) {
                    println!("PARTIAL: interrupted; sweep stopped before horizon {h}");
                    break;
                }
                let report = session.extend_to(h).map_err(|e| e.to_string())?;
                if options.cache_stats {
                    println!("extend: {report}");
                }
            }
            println!("== horizon {h} ==");
            print_sweep_preamble(session.system(), options, &formula);
            all_valid &= check_valid(
                session.system(),
                &formula,
                options,
                Some(session.cache().clone()),
            );
        }
    }
    Ok(if all_valid {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) if message.is_empty() => {
            print!("{HELP}");
            return Ok(ExitCode::SUCCESS);
        }
        Err(message) => return Err(message),
    };
    // Ctrl-C sets a flag that every governed build polls at its shard
    // checkpoints; the run then finishes with a PARTIAL prefix verdict
    // instead of being killed mid-write.
    let interrupt = install_sigint();

    // Only `--threads auto` prints the resolution, so explicit thread
    // counts keep byte-identical output (the parallel-equivalence CI job
    // diffs runs at --threads 1/2/8).
    if options.threads_auto && !options.quiet {
        if let Some(threads) = options.threads {
            println!("threads: {threads} (auto)");
        }
    }

    if options.sweep_cold && options.horizon_sweep.is_none() {
        return Err("--sweep-cold needs --horizon-sweep".into());
    }
    if options.symmetry {
        // Knob validation before any heavy work, mirroring the builder's
        // own `check_symmetry_supported` but with CLI-level phrasing.
        if options.sampled.is_some() {
            return Err("--symmetry quotients the exhaustive system; drop --sampled".into());
        }
        if options.timeline {
            return Err("--timeline pins one concrete run; drop --symmetry".into());
        }
        if !options.exchange.is_full() {
            return Err(format!(
                "--symmetry needs the full-information exchange; `{}` bakes processor \
                 labels into its bounded states",
                options.exchange
            ));
        }
    }
    if let Some((from, to)) = options.horizon_sweep {
        // Gate before any heavy work, in the PR 2 knob-validation style:
        // the session-extension path is only certified for exchanges that
        // support it (and --sweep-cold's contract is to mirror that path).
        if !options.exchange.supports_session_extension() {
            return Err(format!(
                "--horizon-sweep needs an exchange supporting session extension; \
                 `{}` is rebuild-only (use full or digest:0, or check horizons individually)",
                options.exchange
            ));
        }
        if options.horizon.is_some() {
            return Err(
                "--horizon conflicts with --horizon-sweep (the sweep sets the horizons)".into(),
            );
        }
        if options.sampled.is_some() {
            return Err("--horizon-sweep needs the exhaustive system; drop --sampled".into());
        }
        if options.timeline {
            return Err("--timeline checks one run at one horizon; drop --horizon-sweep".into());
        }
        if options.deadline.is_some() || options.max_runs.is_some() {
            return Err(
                "--deadline/--max-runs govern single builds; drop them for --horizon-sweep".into(),
            );
        }
        return run_sweep(&options, from, to, interrupt);
    }

    let horizon = options.horizon.unwrap_or(options.t as u16 + 2);
    let scenario = Scenario::new(options.n, options.t, options.mode, horizon)
        .and_then(|s| s.with_exchange(options.exchange))
        .map_err(|e| e.to_string())?;

    if options.timeline && options.sampled.is_some() {
        return Err("--timeline needs the exhaustive system; drop --sampled".into());
    }

    let formulas: Vec<(String, Formula)> = options
        .formulas
        .iter()
        .map(|text| {
            parse_formula(text)
                .map(|f| (text.clone(), f))
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let quotient = quotient_eligible(&options, &formulas[0].1);

    // Validate the timeline run selection before doing any heavy work or
    // printing the preamble.
    let timeline_run = if options.timeline {
        let config = match &options.config {
            Some(spec) => parse_config(spec, options.n)?,
            None => InitialConfig::uniform(options.n, Value::One),
        };
        let pattern = match &options.pattern {
            Some(spec) => parse_pattern(spec, &scenario)?,
            None => FailurePattern::failure_free(options.n),
        };
        Some((config, pattern))
    } else {
        None
    };

    if options.shards.is_some() && options.sampled.is_some() {
        return Err("--shards applies to exhaustive generation; drop --sampled".into());
    }
    let budgeted = options.deadline.is_some() || options.max_runs.is_some();
    if budgeted && options.sampled.is_some() {
        return Err("--deadline/--max-runs govern exhaustive generation; drop --sampled".into());
    }
    if budgeted && options.timeline {
        return Err("--timeline needs the complete system; drop --deadline/--max-runs".into());
    }

    let system = match options.sampled {
        Some((runs, seed)) => GeneratedSystem::sampled(&scenario, runs, seed),
        None => {
            // Every exhaustive build is governed: even without
            // --deadline/--max-runs the budget carries the Ctrl-C flag,
            // so an interrupted build degrades to the same PARTIAL
            // prefix verdict a deadline would produce.
            let mut budget = RunBudget::unlimited().with_interrupt(interrupt);
            if let Some(deadline) = options.deadline {
                budget = budget.with_deadline(deadline);
            }
            if let Some(max_runs) = options.max_runs {
                budget = budget.with_max_runs(max_runs);
            }
            let mut builder = SystemBuilder::new(&scenario)
                .budget(budget)
                .symmetry(quotient);
            if let Some(threads) = options.threads {
                builder = builder.threads(threads);
            }
            if let Some(shards) = options.shards {
                builder = builder.shards(shards);
            }
            match builder.build_governed().map_err(|e| e.to_string())? {
                BuildOutcome::Complete { system, .. } => system,
                BuildOutcome::Partial {
                    system,
                    completed_shards,
                    total_shards,
                    budget_hit,
                    ..
                } => {
                    if system.num_runs() == 0 {
                        return Err(match budget_hit {
                            BudgetHit::Interrupted => {
                                "interrupted before any shard completed; no partial verdict"
                                    .to_owned()
                            }
                            _ => format!(
                                "budget exhausted before any shard completed ({budget_hit}); \
                                 raise --deadline/--max-runs"
                            ),
                        });
                    }
                    if options.timeline {
                        return Err(format!(
                            "{budget_hit} mid-build; --timeline needs the complete system"
                        ));
                    }
                    println!(
                        "PARTIAL: {budget_hit}; verdict covers {completed_shards}/{total_shards} \
                         shards ({} runs)",
                        system.num_runs(),
                    );
                    system
                }
            }
        }
    };
    if !options.quiet {
        println!(
            "scenario {scenario}: {} runs, {} points ({})",
            system.num_runs(),
            system.num_points(),
            if options.sampled.is_some() {
                "sampled"
            } else {
                "exhaustive"
            },
        );
        for (_, f) in &formulas {
            println!("formula: {f}");
        }
        print_symmetry_line(&system, &options);
    }

    if let Some((config, pattern)) = timeline_run {
        let mut eval = Evaluator::new(&system);
        if let Some(threads) = options.threads {
            eval.set_threads(threads);
        }
        let run = system
            .find_run(&config, &pattern)
            .ok_or("run not in the generated system")?;
        println!("run: {config} under [{pattern}]");
        let timeline = Timeline::build(&mut eval, run, &formulas);
        println!("{timeline}");
        if options.cache_stats {
            println!("cache: {}", eval.knowledge_cache().stats());
            println!("scheduler: {}", eba_sim::scheduler_stats());
        }
        return Ok(ExitCode::SUCCESS);
    }

    if check_valid(&system, &formulas[0].1, &options, None) {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::from(1))
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("run `eba-check --help` for usage");
            ExitCode::from(2)
        }
    }
}
