//! Query execution: one [`Request`] in, one response frame out.
//!
//! The same execution path serves the concurrent daemon and the
//! single-threaded [`oracle`] — byte-identity between the two is the
//! daemon's core correctness contract, enforced by the chaos suite.
//! Responses therefore carry **no** timing, host, or pool-state fields:
//! a response is a pure function of the request (given a deterministic
//! budget; wall-clock deadlines are inherently timing-dependent and the
//! suite bounds builds with `max_runs` instead, whose pattern prefix
//! depends on the request alone).
//!
//! Every query reaches the engine through its request's
//! [`EngineConfig`] and [`SessionPool::checkout`]. Budgeted checks bypass
//! the pool (a partial prefix system must never be pooled); a deadline or
//! drain interrupt yields the same deterministic `partial` verdict shape
//! as `eba-check --deadline`'s PARTIAL banner.

use crate::json::Json;
use crate::pool::{RetryPolicy, SessionPool};
use crate::protocol::{CheckRequest, Request, ServeError, SweepRequest};
use eba_core::{check_optimality, DecisionPair, EngineConfig, Verdict};
use eba_kripke::parse::parse_formula;
use eba_kripke::Formula;
use eba_sim::symmetry::SymmetryInfo;
use eba_sim::GeneratedSystem;
use std::sync::atomic::AtomicBool;

/// Everything a query needs besides the request itself.
#[derive(Clone, Copy, Debug)]
pub struct QueryContext<'a> {
    /// The warm-session pool.
    pub pool: &'a SessionPool,
    /// Drain flag: set when the server is shutting down; in-flight
    /// budgeted builds stop at their next cooperative checkpoint with a
    /// deterministic `partial` verdict, and sweeps before their next
    /// horizon.
    pub interrupt: Option<&'static AtomicBool>,
    /// Worker threads for builds and extensions (`None` = all cores).
    /// Any value yields bit-identical results.
    pub threads: Option<usize>,
}

/// Executes one request. `Err` values map 1:1 onto typed error frames.
///
/// # Errors
///
/// Any [`ServeError`]; the caller renders it with
/// [`ServeError::to_frame`].
pub fn execute(req: &Request, ctx: &QueryContext<'_>) -> Result<Json, ServeError> {
    match req {
        Request::Ping => Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("op", Json::Str("pong".into())),
        ])),
        Request::Check(check) => run_check(check, ctx),
        Request::Optimize(config) => run_optimize(config, ctx),
        Request::Sweep(sweep) => run_sweep(sweep, ctx),
        Request::Stats => Ok(render_stats(ctx.pool)),
        Request::Evict(spec) => {
            let evicted = ctx.pool.evict(*spec);
            Ok(Json::obj([
                ("ok", Json::Bool(true)),
                ("op", Json::Str("evict".into())),
                ("evicted", Json::Int(evicted as i64)),
            ]))
        }
    }
}

/// The single-threaded cold oracle: answers `req` with a fresh
/// unbounded pool, no chaos, one worker thread. The chaos suite asserts
/// the concurrent daemon's frames are byte-identical to this.
#[must_use]
pub fn oracle(req: &Request) -> String {
    let pool = SessionPool::new(u64::MAX, RetryPolicy::default(), None);
    let ctx = QueryContext {
        pool: &pool,
        interrupt: None,
        threads: Some(1),
    };
    match execute(req, &ctx) {
        Ok(frame) => frame.to_line(),
        Err(e) => e.to_frame().to_line(),
    }
}

/// The request's config on the context's thread count. Only a budgeted
/// build, which yields a prefix anyway, stops at the drain flag; pooled
/// sessions are complete by construction.
fn configure(config: &EngineConfig, ctx: &QueryContext<'_>) -> EngineConfig {
    let mut config = config.clone();
    config.threads = ctx.threads;
    match ctx.interrupt {
        Some(flag) if config.budget().is_bounded() => config.with_interrupt(flag),
        _ => config,
    }
}

fn parse_checked_formula(text: &str) -> Result<Formula, ServeError> {
    parse_formula(text).map_err(|e| ServeError::BadRequest(e.to_string()))
}

/// The scenario field of `config`, plus the notice when `formula` drops
/// the quotient (see [`EngineConfig::for_formula`]).
fn scenario_fields(config: &mut EngineConfig, formula: &Formula) -> Vec<(&'static str, Json)> {
    let mut fields = vec![("scenario", Json::Str(config.scenario().to_string()))];
    if config.for_formula(formula) {
        fields.push((
            "symmetry",
            Json::Str("formula names specific processors; checked unreduced".into()),
        ));
    }
    fields
}

/// The orbit accounting of a quotiented system.
fn symmetry_json(info: &SymmetryInfo) -> Json {
    let reduction = format!("{:.2}", info.reduction_ratio());
    Json::obj([
        ("orbits", Json::Int(info.num_orbits() as i64)),
        (
            "raw_patterns",
            Json::Int(info.raw_patterns_covered() as i64),
        ),
        ("reduction", Json::Str(reduction)),
    ])
}

/// Appends the orbit-accounting field for quotiented systems.
fn symmetry_fields(system: &GeneratedSystem, fields: &mut Vec<(&'static str, Json)>) {
    if let Some(info) = system.symmetry() {
        fields.push(("symmetry", symmetry_json(info)));
    }
}

/// The VALID/NOT-VALID fields shared by checks and sweep horizons.
fn verdict_fields(verdict: &Verdict, witness: bool, fields: &mut Vec<(&'static str, Json)>) {
    fields.push(("valid", Json::Bool(verdict.is_valid())));
    fields.push(("holds", Json::Int(verdict.holds as i64)));
    fields.push(("points", Json::Int(verdict.points as i64)));
    if let Some(point) = &verdict.counterexample {
        fields.push(("counterexample", Json::Str(point.clone())));
    }
    if witness {
        let point = verdict.witness.clone().map_or(Json::Null, Json::Str);
        fields.push(("witness", point));
    }
}

fn run_check(check: &CheckRequest, ctx: &QueryContext<'_>) -> Result<Json, ServeError> {
    let formula = parse_checked_formula(&check.formula)?;
    let mut config = configure(&check.config, ctx);
    let mut fields = vec![("ok", Json::Bool(true)), ("op", Json::Str("check".into()))];
    fields.extend(scenario_fields(&mut config, &formula));
    let (session, _hit) = ctx.pool.checkout(&config)?;
    fields.push(("runs", Json::Int(session.system().num_runs() as i64)));
    symmetry_fields(session.system(), &mut fields);
    if let Some(partial) = session.partial() {
        let partial = [
            ("reason", Json::Str(partial.budget_hit.to_string())),
            ("patterns", Json::Int(partial.patterns as i64)),
            ("total_patterns", Json::Int(partial.total_patterns as i64)),
        ];
        fields.push(("partial", Json::obj(partial)));
    }
    verdict_fields(&session.verdict(&formula), check.witness, &mut fields);
    Ok(Json::obj(fields))
}

fn run_optimize(config: &EngineConfig, ctx: &QueryContext<'_>) -> Result<Json, ServeError> {
    // The optimization and the Theorem 5.3 check are processor-covariant
    // end to end (the engine twists its belief kernels family-wise under
    // the quotient), so `symmetry:true` needs no formula-eligibility
    // fallback here.
    let config = configure(config, ctx);
    let (session, _hit) = ctx.pool.checkout(&config)?;
    let mut ctor = session.constructor();
    let pair = ctor.optimize(&DecisionPair::empty(config.spec().n));
    let optimal = check_optimality(&mut ctor, &pair).is_optimal();
    let mut fields = vec![
        ("ok", Json::Bool(true)),
        ("op", Json::Str("optimize".into())),
        ("scenario", Json::Str(config.scenario().to_string())),
        ("runs", Json::Int(session.system().num_runs() as i64)),
        ("points", Json::Int(session.system().num_points() as i64)),
    ];
    symmetry_fields(session.system(), &mut fields);
    fields.push(("optimal", Json::Bool(optimal)));
    Ok(Json::obj(fields))
}

fn run_sweep(sweep: &SweepRequest, ctx: &QueryContext<'_>) -> Result<Json, ServeError> {
    let formula = parse_checked_formula(&sweep.formula)?;
    let mut config = configure(&sweep.config, ctx);
    let mut fields = vec![("ok", Json::Bool(true)), ("op", Json::Str("sweep".into()))];
    fields.extend(scenario_fields(&mut config, &formula));

    // Warm start: fork the pooled base session (cheap — the point store
    // is behind an Arc) into a private one that this query alone
    // extends. The pooled entry stays immutable at its own horizon.
    let (base, _hit) = ctx.pool.checkout(&config)?;
    let mut session = base.fork();
    let mut horizons = Vec::new();
    let mut all_valid = true;
    let stopped = session
        .sweep(&formula, sweep.to, ctx.interrupt, |session, _, verdict| {
            let horizon = i64::from(session.horizon().ticks());
            let mut fields = vec![
                ("horizon", Json::Int(horizon)),
                ("runs", Json::Int(session.system().num_runs() as i64)),
            ];
            symmetry_fields(session.system(), &mut fields);
            verdict_fields(&verdict, false, &mut fields);
            all_valid &= verdict.is_valid();
            horizons.push(Json::obj(fields));
        })
        .map_err(|e| ServeError::InvalidScenario(e.to_string()))?;
    fields.push(("horizons", Json::Arr(horizons)));
    fields.push(("valid", Json::Bool(all_valid)));
    if stopped.is_some() {
        fields.push(("partial", Json::Str("interrupted".into())));
    }
    Ok(Json::obj(fields))
}

fn render_stats(pool: &SessionPool) -> Json {
    let stats = pool.stats();
    let pooled: Vec<Json> = pool
        .sessions()
        .iter()
        .map(|session| {
            let system = session.system();
            Json::obj([
                ("scenario", Json::Str(session.scenario().to_string())),
                ("runs", Json::Int(system.num_runs() as i64)),
                (
                    "symmetry",
                    system.symmetry().map_or(Json::Null, symmetry_json),
                ),
            ])
        })
        .collect();
    let sched = eba_sim::scheduler_stats();
    let scheduler = Json::obj([
        ("pools", Json::Int(sched.pools as i64)),
        ("items", Json::Int(sched.items as i64)),
        ("last_workers", Json::Int(sched.last_workers as i64)),
        ("last_items_max", Json::Int(sched.last_items_max as i64)),
        ("last_items_min", Json::Int(sched.last_items_min as i64)),
        ("last_span_max_us", Json::Int(sched.last_span_max_us as i64)),
        ("last_span_min_us", Json::Int(sched.last_span_min_us as i64)),
    ]);
    Json::obj([
        ("ok", Json::Bool(true)),
        ("op", Json::Str("stats".into())),
        ("sessions", Json::Int(stats.sessions as i64)),
        ("resident_bytes", Json::Int(stats.resident_bytes as i64)),
        ("hits", Json::Int(stats.hits as i64)),
        ("misses", Json::Int(stats.misses as i64)),
        ("evictions", Json::Int(stats.evictions as i64)),
        ("retries", Json::Int(stats.retries as i64)),
        ("scheduler", scheduler),
        ("pooled", Json::Arr(pooled)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_with<'a>(pool: &'a SessionPool) -> QueryContext<'a> {
        QueryContext {
            pool,
            interrupt: None,
            threads: Some(1),
        }
    }

    fn run(pool: &SessionPool, line: &str) -> String {
        let req = match Request::from_line(line) {
            Ok(req) => req,
            Err(e) => return e.to_frame().to_line(),
        };
        match execute(&req, &ctx_with(pool)) {
            Ok(frame) => frame.to_line(),
            Err(e) => e.to_frame().to_line(),
        }
    }

    #[test]
    fn check_valid_and_invalid_formulas() {
        let pool = SessionPool::new(u64::MAX, RetryPolicy::default(), None);
        let valid = run(&pool, r#"{"op":"check","formula":"CC(E0) -> C(E0)"}"#);
        assert!(valid.contains(r#""valid":true"#), "{valid}");
        let invalid = run(&pool, r#"{"op":"check","formula":"C(E0) -> CC(E0)"}"#);
        assert!(invalid.contains(r#""valid":false"#), "{invalid}");
        assert!(invalid.contains("counterexample"), "{invalid}");
        // Both answers came off one pooled session.
        assert_eq!(pool.stats().sessions, 1);
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn responses_are_deterministic_and_match_the_oracle() {
        let pool = SessionPool::new(u64::MAX, RetryPolicy::default(), None);
        for line in [
            r#"{"op":"check","formula":"CC(E0) -> C(E0)","witness":true}"#,
            r#"{"op":"check","formula":"C(E0) -> CC(E0)","mode":"omission","horizon":2}"#,
            r#"{"op":"optimize","n":3,"t":1,"mode":"crash","horizon":3}"#,
            r#"{"op":"sweep","formula":"CC(E0) -> C(E0)","from":2,"to":3}"#,
        ] {
            let warm = run(&pool, line);
            let again = run(&pool, line);
            let cold = oracle(&Request::from_line(line).unwrap());
            assert_eq!(warm, again, "non-deterministic: {line}");
            assert_eq!(warm, cold, "oracle mismatch: {line}");
        }
    }

    #[test]
    fn pooled_d_checks_build_one_partition() {
        let pool = SessionPool::new(u64::MAX, RetryPolicy::default(), None);
        let line = r#"{"op":"check","formula":"D(E0)"}"#;
        let cold = oracle(&Request::from_line(line).unwrap());
        for _ in 0..3 {
            assert_eq!(run(&pool, line), cold);
        }
        let Request::Check(check) = Request::from_line(line).unwrap() else {
            unreachable!("a check line")
        };
        let (session, hit) = pool.checkout(&check.config).unwrap();
        assert!(hit);
        let stats = session.cache().stats();
        assert_eq!(
            (stats.partition_hits, stats.partition_misses),
            (2, 1),
            "{stats}"
        );
    }

    #[test]
    fn budgeted_check_returns_a_deterministic_partial() {
        let pool = SessionPool::new(u64::MAX, RetryPolicy::default(), None);
        let line = r#"{"op":"check","formula":"true","mode":"omission","horizon":2,
                       "max_runs":50}"#;
        let a = run(&pool, line);
        let b = oracle(&Request::from_line(line).unwrap());
        assert_eq!(a, b);
        // 50 runs hold 6 whole patterns of 8 configurations each.
        assert!(
            a.contains(
                r#""partial":{"reason":"run budget of 50 exhausted","patterns":6,"total_patterns":49}"#
            ),
            "{a}"
        );
        assert!(
            pool.stats().sessions == 0,
            "partial systems must not be pooled"
        );
    }

    #[test]
    fn budget_below_one_pattern_is_a_typed_error() {
        let pool = SessionPool::new(u64::MAX, RetryPolicy::default(), None);
        // max_runs=1 holds no whole pattern of 8 configurations.
        let line = r#"{"op":"check","formula":"true","max_runs":1}"#;
        let resp = run(&pool, line);
        assert!(resp.contains(r#""error":"budget-exhausted""#), "{resp}");
    }

    #[test]
    fn sweep_horizons_match_individual_checks() {
        let pool = SessionPool::new(u64::MAX, RetryPolicy::default(), None);
        let sweep = run(
            &pool,
            r#"{"op":"sweep","formula":"CC(E0) -> C(E0)","from":2,"to":4}"#,
        );
        assert!(sweep.contains(r#""valid":true"#), "{sweep}");
        // Each horizon's runs/points must equal a direct check's.
        for h in 2..=4 {
            let single = run(
                &pool,
                &format!(r#"{{"op":"check","formula":"CC(E0) -> C(E0)","horizon":{h}}}"#),
            );
            let runs = single
                .split(r#""runs":"#)
                .nth(1)
                .and_then(|s| s.split(',').next())
                .unwrap()
                .to_owned();
            assert!(
                sweep.contains(&format!(r#""horizon":{h},"runs":{runs}"#)),
                "horizon {h}: {sweep} vs {single}"
            );
        }
    }

    #[test]
    fn symmetry_quotient_matches_the_unreduced_verdict_and_reports_orbits() {
        let pool = SessionPool::new(u64::MAX, RetryPolicy::default(), None);
        let line = r#"{"op":"check","formula":"C(E0) -> CC(E0)","mode":"omission","horizon":2"#;
        let quotiented = run(&pool, &format!(r#"{line},"symmetry":true}}"#));
        let unreduced = run(&pool, &format!("{line}}}"));
        assert!(quotiented.contains(r#""valid":false"#), "{quotiented}");
        assert!(unreduced.contains(r#""valid":false"#), "{unreduced}");
        assert!(
            quotiented.contains(r#""symmetry":{"orbits":"#),
            "{quotiented}"
        );
        assert!(
            pool.stats().sessions == 2,
            "quotiented and unreduced sessions must not alias"
        );
        // The stats frame carries the per-session orbit accounting.
        let stats = run(&pool, r#"{"op":"stats"}"#);
        assert!(stats.contains(r#""pooled":["#), "{stats}");
        assert!(stats.contains(r#""orbits":"#), "{stats}");
        assert!(stats.contains(r#""reduction":"#), "{stats}");
        assert!(stats.contains(r#""symmetry":null"#), "{stats}");
    }

    #[test]
    fn asymmetric_formulas_fall_back_to_the_unreduced_system() {
        let pool = SessionPool::new(u64::MAX, RetryPolicy::default(), None);
        let resp = run(
            &pool,
            r#"{"op":"check","formula":"K_1(E0) -> E0","symmetry":true}"#,
        );
        assert!(resp.contains("checked unreduced"), "{resp}");
        assert!(resp.contains(r#""valid":true"#), "{resp}");
        // The pooled session is the unreduced one — a later unreduced
        // query for the same scenario hits it.
        let unreduced = EngineConfig::new(eba_core::EngineOptions {
            n: 3,
            t: 1,
            mode: eba_model::FailureMode::Crash,
            exchange: eba_model::ExchangeKind::FullInformation,
            horizon: Some(3),
            sampled: None,
            symmetry: false,
            ..eba_core::EngineOptions::default()
        })
        .unwrap();
        let (_, hit) = pool.checkout(&unreduced).unwrap();
        assert!(hit);
    }

    #[test]
    fn quotiented_optimize_agrees_with_the_unreduced_verdict() {
        let pool = SessionPool::new(u64::MAX, RetryPolicy::default(), None);
        let quotiented = run(&pool, r#"{"op":"optimize","symmetry":true}"#);
        let unreduced = run(&pool, r#"{"op":"optimize"}"#);
        assert!(quotiented.contains(r#""optimal":true"#), "{quotiented}");
        assert!(unreduced.contains(r#""optimal":true"#), "{unreduced}");
        assert!(
            quotiented.contains(r#""symmetry":{"orbits":"#),
            "{quotiented}"
        );
    }

    #[test]
    fn stats_and_evict_round_trip() {
        let pool = SessionPool::new(u64::MAX, RetryPolicy::default(), None);
        run(&pool, r#"{"op":"check","formula":"true"}"#);
        let stats = run(&pool, r#"{"op":"stats"}"#);
        assert!(stats.contains(r#""sessions":1"#), "{stats}");
        assert!(stats.contains(r#""resident_bytes":"#), "{stats}");
        assert!(stats.contains(r#""scheduler":{"pools":"#), "{stats}");
        let evicted = run(&pool, r#"{"op":"evict"}"#);
        assert!(evicted.contains(r#""evicted":1"#), "{evicted}");
        let stats = run(&pool, r#"{"op":"stats"}"#);
        assert!(stats.contains(r#""sessions":0"#), "{stats}");
    }
}
