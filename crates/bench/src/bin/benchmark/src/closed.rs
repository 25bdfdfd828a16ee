//! The three closed-loop workloads: one caller thread sends the next
//! query when the previous one has returned.
//!
//! * `cold-pipeline` — cold build, Theorem 5.2 construction, Theorem 5.3
//!   check and two formulas per query; the `sim` build is about half.
//! * `warm-kripke` — the same questions on two systems built once in
//!   set-up; the `kripke` and `core` layers do all the timed work.
//! * `horizon-sweep` — one session grown from horizon 2 to 5 per query
//!   through the append-only extension path.
//!
//! Shapes are drawn in seeded permutations of a fixed cycle and runs end
//! on a cycle boundary, so every seed runs the same mix. The cycles weigh
//! the shapes so that the median and the 90th percentile fall inside a
//! shape's latency mode, not on the step between two modes.

use crate::gen::{self, cycle_slot, formula, Heavy, Shape};
use crate::stats;
use crate::trace::{self, Span, Table};
use crate::verify::{self, Expect, Oracle};
use crate::{mb, Outcome, RunCfg, Values};
use eba_core::{check_optimality, Constructor, DecisionPair, EngineSession};
use eba_kripke::parse::parse_formula;
use eba_kripke::{Evaluator, KnowledgeCache};
use eba_model::FailureMode::{Crash, GeneralOmission, Omission};
use eba_sim::{GeneratedSystem, SystemBuilder};
use std::time::Instant;

const OM4: Shape = Shape::new(4, 1, Omission, 3, false);
const GO3: Shape = Shape::new(3, 1, GeneralOmission, 3, false);
const CR5_QUOTIENT: Shape = Shape::new(5, 2, Crash, 4, true);
const OM4_QUOTIENT: Shape = Shape::new(4, 1, Omission, 3, true);

/// Cheap quotient, mid-size omission, and the two heavy shapes: the
/// median falls mid-way through the `OM4` mode and the 90th percentile
/// inside the `CR5_QUOTIENT` one.
const COLD_CYCLE: [Shape; 6] = [OM4_QUOTIENT, OM4_QUOTIENT, OM4, OM4, GO3, CR5_QUOTIENT];
/// Indices into the two warm systems `[OM4, GO3]`.
const WARM_CYCLE: [usize; 3] = [0, 0, 1];
const SWEEP_CYCLE: [Shape; 3] = [
    Shape::new(4, 1, Crash, 2, false),
    Shape::new(4, 1, Crash, 2, false),
    Shape::new(3, 1, Omission, 2, false),
];
const SWEEP_FROM: u16 = 2;
const SWEEP_TO: u16 = 5;

/// Formula slots per query. `D` goes only where the `kripke` layer is
/// the measured one: on the n=5 quotient a single `D` would outweigh the
/// cold build it sits beside.
const COLD_FORMULAS: [Heavy; 2] = [Heavy::Group, Heavy::None];
const WARM_FORMULAS: [Heavy; 4] = [Heavy::Group, Heavy::Distributed, Heavy::None, Heavy::None];
const SWEEP_FORMULAS: [Heavy; 1] = [Heavy::Group];

/// Random-stream tags.
const SHAPES: u64 = 1;
const FORMULAS: u64 = 2;
const WARMUP: u64 = 3;
/// Warm-up queries draw from this seed whatever `--seed` is, so every
/// run's set-up does the same work and `setup_s` measures only set-up.
const WARMUP_SEED: u64 = 0;

/// A timed window never runs longer than this, whatever `--seconds` and
/// the sample floor ask.
const HARD_CAP_S: f64 = 90.0;

/// What one query answered, for the correctness gate.
type Checks = Vec<(String, Expect)>;

/// The formulas of one query, one per slot, each slot with its costly
/// operator.
fn formulas(seed: u64, stream: u64, i: u64, shape: &Shape, slots: &[Heavy]) -> Vec<String> {
    let mut r = gen::rng(seed, stream, i);
    slots
        .iter()
        .map(|&heavy| formula(&mut r, shape.n, shape.symmetry, heavy))
        .collect()
}

fn build(shape: &Shape) -> Result<GeneratedSystem, String> {
    let system = trace::span("sim.build", || {
        SystemBuilder::new(&shape.scenario())
            .symmetry(shape.symmetry)
            .build()
    })
    .map_err(|e| format!("{shape:?}: {e}"))?;
    trace::note("sim.build.runs", system.num_runs() as f64);
    trace::note("sim.system_mb", mb(system.approx_resident_bytes()));
    Ok(system)
}

/// Theorem 5.2 from the empty pair, then Theorem 5.3 on the result.
fn optimize(ctor: &mut Constructor<'_>, n: usize) -> bool {
    let pair = trace::span("core.optimize", || ctor.optimize(&DecisionPair::empty(n)));
    trace::span("core.optimality", || {
        check_optimality(ctor, &pair).is_optimal()
    })
}

fn eval_all(eval: &mut Evaluator<'_>, texts: &[String]) -> Result<Vec<u64>, String> {
    texts
        .iter()
        .map(|text| {
            let f = trace::span("kripke.parse", || parse_formula(text))
                .map_err(|e| format!("`{text}`: {e}"))?;
            Ok(trace::span("kripke.eval", || eval.eval(&f).count_ones()) as u64)
        })
        .collect()
}

fn not_optimal(line: String) -> String {
    format!("{line}: the Theorem 5.2 construction failed the Theorem 5.3 check")
}

fn question_checks(shape: &Shape, texts: &[String], holds: &[u64], optimal: bool) -> Checks {
    let mut checks = vec![(gen::optimize_line(shape), Expect::Optimal(optimal))];
    for (text, &h) in texts.iter().zip(holds) {
        checks.push((gen::check_line(shape, text), Expect::Holds(h)));
    }
    checks
}

fn cold_query(shape: &Shape, texts: &[String]) -> Result<Checks, String> {
    let system = build(shape)?;
    let mut ctor = Constructor::with_cache(&system, KnowledgeCache::new());
    let optimal = optimize(&mut ctor, shape.n);
    let cache = KnowledgeCache::new();
    let mut eval = Evaluator::with_cache(&system, cache.clone());
    let holds = eval_all(&mut eval, texts)?;
    trace::note("kripke.cache_mb", mb(cache.resident_bytes()));
    // Freeing a cold system and its caches is part of every cold query.
    trace::span("sim.release", move || drop((ctor, eval, cache)));
    trace::span("sim.release", move || drop(system));
    if !optimal {
        return Err(not_optimal(gen::optimize_line(shape)));
    }
    Ok(question_checks(shape, texts, &holds, optimal))
}

fn warm_query(shape: &Shape, system: &GeneratedSystem, texts: &[String]) -> Result<Checks, String> {
    let cache = KnowledgeCache::new();
    let optimal = optimize(&mut Constructor::with_cache(system, cache.clone()), shape.n);
    let holds = eval_all(&mut Evaluator::with_cache(system, cache.clone()), texts)?;
    trace::note("kripke.cache_mb", mb(cache.resident_bytes()));
    if !optimal {
        return Err(not_optimal(gen::optimize_line(shape)));
    }
    Ok(question_checks(shape, texts, &holds, optimal))
}

fn sweep_query(shape: &Shape, text: &str) -> Result<Checks, String> {
    let mut session = trace::span("core.session", || {
        EngineSession::exhaustive(&shape.scenario())
    })
    .map_err(|e| format!("{shape:?}: {e}"))?;
    let mut checks = Vec::new();
    let mut holds = Vec::new();
    for h in SWEEP_FROM..=SWEEP_TO {
        if h > SWEEP_FROM {
            let report = trace::span("sim.extend", || session.extend_to(h))
                .map_err(|e| format!("{shape:?} to {h}: {e}"))?;
            trace::note("sim.extend.reused", report.reused_runs as f64);
            trace::note("sim.extend.runs", report.total_runs() as f64);
        }
        let optimal = optimize(&mut session.constructor(), shape.n);
        let line = gen::optimize_line(&shape.at(h));
        if !optimal {
            return Err(not_optimal(line));
        }
        checks.push((line, Expect::Optimal(optimal)));
        holds.extend(eval_all(&mut session.evaluator(), &[text.to_owned()])?);
    }
    trace::note(
        "sim.system_mb",
        mb(session.system().approx_resident_bytes()),
    );
    trace::note("kripke.cache_mb", mb(session.cache().resident_bytes()));
    trace::span("sim.release", move || drop(session));
    checks.push((
        gen::sweep_line(shape, text, SWEEP_FROM, SWEEP_TO),
        Expect::SweepHolds(holds),
    ));
    Ok(checks)
}

/// The timed window of a closed-loop workload.
#[derive(Default)]
struct Window {
    latencies_ms: Vec<f64>,
    /// Queries per cycle, and the wall time of each whole cycle in s.
    cycle: usize,
    cycles_s: Vec<f64>,
    elapsed_s: f64,
    attempted: u64,
    errors: Vec<String>,
    checks: Checks,
    /// Per-query latencies of the traced and untraced cycles of a
    /// `--trace` run, for the tracing overhead.
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
}

/// Runs `query(i)` for `i = 0, 1, …` until `cfg.seconds` have passed and
/// the sample floor is met, stopping on a boundary of two cycles. With
/// `--trace`, every other cycle is traced.
fn closed_loop(
    cfg: &RunCfg,
    cycle: usize,
    mut query: impl FnMut(u64) -> Result<Checks, String>,
) -> Window {
    let floor = if cfg.smoke {
        cycle
    } else {
        stats::min_samples(90)
    };
    let mut w = Window {
        cycle,
        ..Window::default()
    };
    let start = Instant::now();
    let mut cycle_start = start;
    let mut i: u64 = 0;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if i > 0 && i.is_multiple_of(cycle as u64) {
            w.cycles_s.push(cycle_start.elapsed().as_secs_f64());
            cycle_start = Instant::now();
        }
        let boundary = i.is_multiple_of(2 * cycle as u64);
        if boundary
            && ((elapsed >= cfg.seconds && w.latencies_ms.len() >= floor) || elapsed >= HARD_CAP_S)
        {
            break;
        }
        let traced = cfg.trace && (i / cycle as u64) % 2 == 1;
        trace::set_enabled(traced);
        let t0 = Instant::now();
        let result = trace::query(i, || query(i));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        trace::set_enabled(false);
        w.attempted += 1;
        match result {
            Ok(checks) => {
                w.latencies_ms.push(ms);
                if cfg.trace {
                    if traced {
                        &mut w.traced_ms
                    } else {
                        &mut w.untraced_ms
                    }
                    .push(ms);
                }
                if verify::sampled(cfg.seed, i) {
                    w.checks.extend(checks);
                }
            }
            Err(e) => w.errors.push(e),
        }
        i += 1;
    }
    w.elapsed_s = start.elapsed().as_secs_f64();
    w
}

/// Runs `setup` `cfg.setup_reps()` times, returning the last result and
/// the median set-up time.
fn repeated_setup<T>(
    cfg: &RunCfg,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..cfg.setup_reps() {
        // Free the previous set-up first, so peak RSS never holds two.
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    let last = last.expect("at least one set-up");
    eprintln!("set-up runs (s): {times:.3?}");
    Ok((last, stats::median(&mut times)))
}

fn finish(
    cfg: &RunCfg,
    setup_s: f64,
    mut w: Window,
    spans: &[Span],
    notes: &[(&str, f64)],
) -> Outcome {
    let rss = crate::peak_rss_mb();
    let mut oracle = Oracle::new();
    let verify_start = Instant::now();
    for (line, expect) in &w.checks {
        if let Err(e) = oracle.check(line, expect) {
            w.errors.push(e);
        }
    }
    eprintln!(
        "verified {} sampled answers against the oracle in {:.1}s",
        w.checks.len(),
        verify_start.elapsed().as_secs_f64()
    );
    let samples = w.latencies_ms.len();
    stats::sort(&mut w.latencies_ms);
    let mut values = Values::new();
    if cfg.trace {
        layer_values(&mut values, &w, spans, notes);
    } else {
        let p = |pct| {
            if samples == 0 {
                0.0
            } else {
                stats::percentile(&w.latencies_ms, pct)
            }
        };
        values.insert("setup_s", setup_s);
        values.insert("query_p50_ms", p(50));
        values.insert("query_p90_ms", p(90));
        // Queries per second over the median cycle, each cycle holding
        // the workload's exact shape mix: a burst of contention from
        // outside the process moves this less than a whole-window mean.
        values.insert(
            "throughput_qps",
            w.cycle as f64 / stats::median(&mut w.cycles_s),
        );
        values.insert("peak_rss_mb", rss);
    }
    eprintln!(
        "{samples} queries in {:.1}s (90th percentile has {} samples beyond it)",
        w.elapsed_s,
        stats::tail(samples, 90)
    );
    Outcome {
        attempted: w.attempted,
        errors: w.errors,
        values,
    }
}

fn sum_notes(notes: &[(&str, f64)], name: &str) -> f64 {
    notes
        .iter()
        .filter(|(n, _)| *n == name)
        .map(|(_, v)| v)
        .sum()
}

fn max_note(notes: &[(&str, f64)], name: &str) -> f64 {
    notes
        .iter()
        .filter(|(n, _)| *n == name)
        .map(|(_, v)| *v)
        .fold(0.0, f64::max)
}

fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e9)
        .sum()
}

fn per_s(count: f64, secs: f64) -> f64 {
    if secs > 0.0 {
        count / secs
    } else {
        0.0
    }
}

fn layer_values(values: &mut Values, w: &Window, spans: &[Span], notes: &[(&str, f64)]) {
    let table = Table::from_spans(spans);
    eprint!("{}", table.render());
    for (key, layer) in [
        ("sim.build", "sim.build"),
        ("sim.extend", "sim.extend"),
        ("kripke.eval", "kripke.eval"),
        ("core.optimize", "core.optimize"),
        ("core.optimality", "core.optimality"),
    ] {
        values.insert(format!("{key}.ms_p50"), table.p50_ms(layer));
        values.insert(format!("{key}.share"), table.share(layer));
    }
    values.insert("core.session.ms_p50", table.p50_ms("core.session"));
    values.insert(
        "sim.build.runs_per_s",
        per_s(
            sum_notes(notes, "sim.build.runs"),
            total_s(spans, "sim.build"),
        ),
    );
    let extended = sum_notes(notes, "sim.extend.runs");
    values.insert(
        "sim.extend.reuse_frac",
        if extended > 0.0 {
            sum_notes(notes, "sim.extend.reused") / extended
        } else {
            0.0
        },
    );
    values.insert("sim.system_mb", max_note(notes, "sim.system_mb"));
    values.insert("kripke.cache_mb", max_note(notes, "kripke.cache_mb"));
    let evals = spans.iter().filter(|s| s.name == "kripke.eval").count();
    values.insert(
        "kripke.eval.formulas_per_s",
        per_s(evals as f64, total_s(spans, "kripke.eval")),
    );
    values.insert(
        "trace.overhead_frac",
        stats::mean(&w.traced_ms) / stats::mean(&w.untraced_ms) - 1.0,
    );
    values.insert("trace.accounted_frac", table.accounted());
}

fn take_trace(cfg: &RunCfg) -> (Vec<Span>, Vec<(&'static str, f64)>) {
    let (spans, notes) = trace::take();
    if cfg.trace {
        crate::write_trace(cfg, &spans);
    }
    (spans, notes)
}

pub fn cold_pipeline(cfg: &RunCfg) -> Result<Outcome, String> {
    let seed = cfg.seed;
    let ((), setup_s) = repeated_setup(cfg, || {
        // One untimed query per distinct shape.
        for (k, shape) in [OM4_QUOTIENT, OM4, GO3, CR5_QUOTIENT].iter().enumerate() {
            cold_query(
                shape,
                &formulas(WARMUP_SEED, WARMUP, k as u64, shape, &COLD_FORMULAS),
            )?;
        }
        Ok(())
    })?;
    let w = closed_loop(cfg, COLD_CYCLE.len(), |i| {
        let shape = COLD_CYCLE[cycle_slot(seed, SHAPES, i, COLD_CYCLE.len())];
        cold_query(&shape, &formulas(seed, FORMULAS, i, &shape, &COLD_FORMULAS))
    });
    let (spans, notes) = take_trace(cfg);
    Ok(finish(cfg, setup_s, w, &spans, &notes))
}

pub fn warm_kripke(cfg: &RunCfg) -> Result<Outcome, String> {
    let seed = cfg.seed;
    let shapes = [OM4, GO3];
    let (systems, setup_s) = repeated_setup(cfg, || {
        trace::set_enabled(cfg.trace);
        let systems = shapes.iter().map(build).collect::<Result<Vec<_>, _>>();
        trace::set_enabled(false);
        let systems = systems?;
        for k in 0..3u64 {
            let s = WARM_CYCLE[k as usize % WARM_CYCLE.len()];
            warm_query(
                &shapes[s],
                &systems[s],
                &formulas(WARMUP_SEED, WARMUP, k, &shapes[s], &WARM_FORMULAS),
            )?;
        }
        Ok(systems)
    })?;
    let w = closed_loop(cfg, WARM_CYCLE.len(), |i| {
        let s = WARM_CYCLE[cycle_slot(seed, SHAPES, i, WARM_CYCLE.len())];
        warm_query(
            &shapes[s],
            &systems[s],
            &formulas(seed, FORMULAS, i, &shapes[s], &WARM_FORMULAS),
        )
    });
    let (spans, notes) = take_trace(cfg);
    Ok(finish(cfg, setup_s, w, &spans, &notes))
}

pub fn horizon_sweep(cfg: &RunCfg) -> Result<Outcome, String> {
    let seed = cfg.seed;
    let ((), setup_s) = repeated_setup(cfg, || {
        for (k, shape) in SWEEP_CYCLE.iter().enumerate() {
            sweep_query(
                shape,
                &formulas(WARMUP_SEED, WARMUP, k as u64, shape, &SWEEP_FORMULAS)[0],
            )?;
        }
        Ok(())
    })?;
    let w = closed_loop(cfg, SWEEP_CYCLE.len(), |i| {
        let shape = SWEEP_CYCLE[cycle_slot(seed, SHAPES, i, SWEEP_CYCLE.len())];
        sweep_query(
            &shape,
            &formulas(seed, FORMULAS, i, &shape, &SWEEP_FORMULAS)[0],
        )
    });
    let (spans, notes) = take_trace(cfg);
    Ok(finish(cfg, setup_s, w, &spans, &notes))
}
