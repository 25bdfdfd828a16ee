//! The `eba-serve` wire protocol: line-delimited JSON frames.
//!
//! Every request is one JSON object on one line; every response is one
//! JSON object on one line. Success frames start with `"ok":true`,
//! error frames with `"ok":false` plus a typed `"error"` kind from the
//! closed taxonomy below (see README for the full grammar):
//!
//! | kind               | meaning                                        |
//! |--------------------|------------------------------------------------|
//! | `bad-frame`        | not JSON, not an object, oversize, missing op  |
//! | `bad-request`      | unknown op, bad field, unparsable formula      |
//! | `invalid-scenario` | the scenario parameters are rejected by model  |
//! | `budget-exhausted` | budget ran out before any pattern was covered  |
//! | `overloaded`       | admission queue full; `retry_after_ms` hints   |
//! | `engine-fault`     | an engine fault survived the retry budget      |
//! | `shutting-down`    | the server is draining; reconnect elsewhere    |
//! | `internal-panic`   | a worker panicked; the panic was isolated      |
//!
//! Responses carry **no timing or host information**: a response is a
//! pure function of the request, which is what lets the chaos suite
//! assert byte-identity between the concurrent daemon and the
//! single-threaded oracle.

use crate::json::Json;
use eba_core::{ConfigError, EngineConfig, EngineOptions, ScenarioSpec};
use eba_model::{ExchangeKind, FailureMode};
use std::fmt;
use std::time::Duration;

/// Default deadline hint returned with `overloaded` frames.
pub const DEFAULT_RETRY_AFTER_MS: u64 = 100;

/// A parsed request frame. Engine-touching requests carry a validated
/// [`EngineConfig`]; the query adds the daemon's thread count, and the
/// pool its chaos injector.
#[derive(Clone, Debug)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Evaluate a formula over every point of a scenario's system.
    Check(CheckRequest),
    /// Run the Theorem 5.2 construction and the Theorem 5.3 optimality
    /// check on a scenario's exhaustive system.
    Optimize(EngineConfig),
    /// Check a formula at every horizon of a range, each out of its
    /// horizon's pooled session.
    Sweep(SweepRequest),
    /// Server/pool statistics.
    Stats,
    /// Evict pooled sessions: all of them, or one scenario's.
    Evict(Option<ScenarioSpec>),
}

/// A `check` request: scenario + formula. A budgeted config
/// (`deadline_ms`/`max_runs`) bypasses the pool and may return a
/// `partial` verdict over a failure-pattern prefix. A `max_runs` prefix
/// depends on the request alone, so it is oracle-comparable on any host;
/// a deadline prefix depends on timing.
#[derive(Clone, Debug)]
pub struct CheckRequest {
    /// The scenario to build (or fetch from the pool), with its budget.
    pub config: EngineConfig,
    /// Formula text, in the `eba-check` grammar.
    pub formula: String,
    /// Also report a point where the formula holds.
    pub witness: bool,
}

/// A `sweep` request: one formula checked at every horizon from the
/// config's (the frame's `from`) to `to`.
#[derive(Clone, Debug)]
pub struct SweepRequest {
    /// Scenario shape at the first horizon.
    pub config: EngineConfig,
    /// Formula text.
    pub formula: String,
    /// Last horizon (inclusive).
    pub to: u16,
}

/// Typed failures; each maps to one error-frame kind.
#[derive(Clone, PartialEq, Debug)]
pub enum ServeError {
    /// The frame itself is unusable (not JSON / not an object / no op /
    /// oversize).
    BadFrame(String),
    /// The frame is well-formed but the request is not (unknown op, bad
    /// field type, unparsable formula, conflicting options).
    BadRequest(String),
    /// The model rejected the scenario parameters.
    InvalidScenario(String),
    /// A budget expired before the build covered any failure pattern;
    /// nothing to report.
    BudgetExhausted(String),
    /// Admission control shed this query.
    Overloaded {
        /// Suggested client backoff.
        retry_after_ms: u64,
    },
    /// An [`eba_sim::chaos::EngineFault`] survived the retry budget.
    EngineFault(String),
    /// The server is draining.
    ShuttingDown,
    /// A worker panicked; the connection survived, the query did not.
    Panic(String),
}

impl ServeError {
    /// The wire kind of this error.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::BadFrame(_) => "bad-frame",
            ServeError::BadRequest(_) => "bad-request",
            ServeError::InvalidScenario(_) => "invalid-scenario",
            ServeError::BudgetExhausted(_) => "budget-exhausted",
            ServeError::Overloaded { .. } => "overloaded",
            ServeError::EngineFault(_) => "engine-fault",
            ServeError::ShuttingDown => "shutting-down",
            ServeError::Panic(_) => "internal-panic",
        }
    }

    /// Renders the error frame.
    #[must_use]
    pub fn to_frame(&self) -> Json {
        let message = match self {
            ServeError::BadFrame(m)
            | ServeError::BadRequest(m)
            | ServeError::InvalidScenario(m)
            | ServeError::BudgetExhausted(m)
            | ServeError::EngineFault(m)
            | ServeError::Panic(m) => m.clone(),
            ServeError::Overloaded { .. } => "admission queue full".to_owned(),
            ServeError::ShuttingDown => "server is draining".to_owned(),
        };
        let mut fields = vec![
            ("ok", Json::Bool(false)),
            ("error", Json::Str(self.kind().to_owned())),
            ("message", Json::Str(message)),
        ];
        if let ServeError::Overloaded { retry_after_ms } = self {
            fields.push(("retry_after_ms", Json::Int(*retry_after_ms as i64)));
        }
        Json::obj(fields)
    }
}

impl fmt::Display for ServeError {
    /// The wire frame *is* the canonical textual form of a protocol
    /// error.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_frame().to_line())
    }
}

impl std::error::Error for ServeError {}

fn field_usize(frame: &Json, key: &str, default: usize) -> Result<usize, ServeError> {
    match frame.get(key) {
        None => Ok(default),
        Some(Json::Int(i)) if *i >= 0 => Ok(*i as usize),
        Some(_) => Err(ServeError::BadRequest(format!(
            "field `{key}` must be a non-negative integer"
        ))),
    }
}

fn field_u64(frame: &Json, key: &str) -> Result<Option<u64>, ServeError> {
    match frame.get(key) {
        None => Ok(None),
        Some(Json::Int(i)) if *i > 0 => Ok(Some(*i as u64)),
        Some(_) => Err(ServeError::BadRequest(format!(
            "field `{key}` must be a positive integer"
        ))),
    }
}

fn field_bool(frame: &Json, key: &str) -> Result<bool, ServeError> {
    match frame.get(key) {
        None => Ok(false),
        Some(Json::Bool(b)) => Ok(*b),
        Some(_) => Err(ServeError::BadRequest(format!(
            "field `{key}` must be a boolean"
        ))),
    }
}

fn field_str<'a>(frame: &'a Json, key: &str) -> Result<Option<&'a str>, ServeError> {
    match frame.get(key) {
        None => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s)),
        Some(_) => Err(ServeError::BadRequest(format!(
            "field `{key}` must be a string"
        ))),
    }
}

/// Reads the scenario fields, with [`EngineOptions::default`] for the
/// absent ones.
fn parse_options(frame: &Json) -> Result<EngineOptions, ServeError> {
    let mut options = EngineOptions::default();
    let bad = |e: eba_model::ModelError| ServeError::BadRequest(e.to_string());
    options.n = field_usize(frame, "n", options.n)?;
    options.t = field_usize(frame, "t", options.t)?;
    if let Some(spec) = field_str(frame, "mode")? {
        options.mode = FailureMode::parse(spec).map_err(bad)?;
    }
    if let Some(spec) = field_str(frame, "exchange")? {
        options.exchange = ExchangeKind::parse(spec).map_err(bad)?;
    }
    options.horizon = match frame.get("horizon") {
        None => None,
        Some(Json::Int(i)) if (1..=i64::from(u16::MAX)).contains(i) => Some(*i as u16),
        Some(_) => {
            return Err(ServeError::BadRequest(
                "field `horizon` must be a positive integer".into(),
            ));
        }
    };
    options.sampled = match frame.get("sampled") {
        None => None,
        Some(Json::Arr(pair)) => match pair.as_slice() {
            [Json::Int(runs), Json::Int(seed)] if *runs > 0 && *seed >= 0 => {
                Some((*runs as usize, *seed as u64))
            }
            _ => {
                return Err(ServeError::BadRequest(
                    "field `sampled` must be [runs, seed] with runs >= 1".into(),
                ));
            }
        },
        Some(_) => {
            return Err(ServeError::BadRequest(
                "field `sampled` must be an array [runs, seed]".into(),
            ));
        }
    };
    options.symmetry = field_bool(frame, "symmetry")?;
    Ok(options)
}

/// Validates `options`: a rejected scenario is `invalid-scenario`, a
/// conflict between fields `bad-request`.
fn validate(options: EngineOptions) -> Result<EngineConfig, ServeError> {
    EngineConfig::new(options).map_err(|e| match e {
        ConfigError::Scenario(e) => ServeError::InvalidScenario(e.to_string()),
        conflict => ServeError::BadRequest(conflict.to_string()),
    })
}

fn field_formula(frame: &Json) -> Result<String, ServeError> {
    Ok(field_str(frame, "formula")?
        .ok_or_else(|| ServeError::BadRequest("missing field `formula`".into()))?
        .to_owned())
}

impl Request {
    /// Parses one frame into a request.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadFrame`] when the frame is not an object with an
    /// `op` string, [`ServeError::BadRequest`] for everything else.
    pub fn from_frame(frame: &Json) -> Result<Request, ServeError> {
        if !matches!(frame, Json::Obj(_)) {
            return Err(ServeError::BadFrame("frame must be a JSON object".into()));
        }
        let op = frame
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| ServeError::BadFrame("missing string field `op`".into()))?;
        match op {
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "evict" => match frame.get("n") {
                Some(_) => Ok(Request::Evict(Some(
                    *validate(parse_options(frame)?)?.spec(),
                ))),
                None => Ok(Request::Evict(None)),
            },
            "check" => {
                let mut options = parse_options(frame)?;
                let formula = field_formula(frame)?;
                if let Some(ms) = field_u64(frame, "deadline_ms")? {
                    options.budget = options.budget.with_deadline(Duration::from_millis(ms));
                }
                if let Some(max) = field_u64(frame, "max_runs")? {
                    options.budget = options.budget.with_max_runs(max);
                }
                let witness = field_bool(frame, "witness")?;
                Ok(Request::Check(CheckRequest {
                    config: validate(options)?,
                    formula,
                    witness,
                }))
            }
            "optimize" => Ok(Request::Optimize(validate(parse_options(frame)?)?)),
            "sweep" => {
                let mut options = parse_options(frame)?;
                let formula = field_formula(frame)?;
                let from = match frame.get("from").and_then(Json::as_i64) {
                    Some(i) if (1..=i64::from(u16::MAX)).contains(&i) => i as u16,
                    _ => {
                        return Err(ServeError::BadRequest(
                            "field `from` must be a positive integer".into(),
                        ));
                    }
                };
                let to = match frame.get("to").and_then(Json::as_i64) {
                    Some(i) if i >= i64::from(from) && i <= i64::from(u16::MAX) => i as u16,
                    _ => {
                        return Err(ServeError::BadRequest(
                            "field `to` must be an integer >= `from`".into(),
                        ));
                    }
                };
                options.horizon = Some(from);
                options.sweep = true;
                Ok(Request::Sweep(SweepRequest {
                    config: validate(options)?,
                    formula,
                    to,
                }))
            }
            other => Err(ServeError::BadRequest(format!("unknown op `{other}`"))),
        }
    }

    /// Parses a raw line (convenience for tests and the stdin mode).
    ///
    /// # Errors
    ///
    /// [`ServeError::BadFrame`] on malformed JSON, else as
    /// [`Request::from_frame`].
    pub fn from_line(line: &str) -> Result<Request, ServeError> {
        let frame = crate::json::parse(line).map_err(|e| ServeError::BadFrame(e.to_string()))?;
        Request::from_frame(&frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_check_frame() {
        let req = Request::from_line(
            r#"{"op":"check","formula":"CC(E0) -> C(E0)","n":3,"t":1,"mode":"omission",
               "exchange":"digest:0","horizon":3,"max_runs":50,"witness":true}"#,
        )
        .unwrap();
        let Request::Check(check) = req else {
            panic!("wrong op");
        };
        let spec = check.config.spec();
        assert_eq!(spec.n, 3);
        assert_eq!(spec.mode, FailureMode::Omission);
        assert_eq!(spec.horizon, 3);
        assert_eq!(check.config.budget().max_runs(), Some(50));
        assert!(check.witness);
        assert_eq!(
            check.config.scenario().exchange(),
            ExchangeKind::Digest { bits: 0 }
        );
    }

    #[test]
    fn defaults_match_the_cli() {
        let Request::Check(check) =
            Request::from_line(r#"{"op":"check","formula":"true"}"#).unwrap()
        else {
            panic!("wrong op");
        };
        let spec = check.config.spec();
        assert_eq!((spec.n, spec.t), (3, 1));
        assert_eq!(spec.mode, FailureMode::Crash);
        assert_eq!(spec.horizon, 3, "horizon defaults to t + 2");
        assert_eq!(spec.exchange, ExchangeKind::FullInformation);
    }

    #[test]
    fn typed_errors_have_stable_kinds() {
        let cases: Vec<(ServeError, &str)> = vec![
            (ServeError::BadFrame("x".into()), "bad-frame"),
            (ServeError::BadRequest("x".into()), "bad-request"),
            (ServeError::InvalidScenario("x".into()), "invalid-scenario"),
            (ServeError::BudgetExhausted("x".into()), "budget-exhausted"),
            (ServeError::Overloaded { retry_after_ms: 5 }, "overloaded"),
            (ServeError::EngineFault("x".into()), "engine-fault"),
            (ServeError::ShuttingDown, "shutting-down"),
            (ServeError::Panic("x".into()), "internal-panic"),
        ];
        for (err, kind) in cases {
            assert_eq!(err.kind(), kind);
            let frame = err.to_frame();
            assert_eq!(frame.get("ok"), Some(&Json::Bool(false)));
            assert_eq!(frame.get("error").and_then(Json::as_str), Some(kind));
        }
        let frame = ServeError::Overloaded { retry_after_ms: 7 }.to_frame();
        assert_eq!(frame.get("retry_after_ms").and_then(Json::as_i64), Some(7));
    }

    #[test]
    fn rejects_bad_requests_with_the_right_kind() {
        let bad_frame = Request::from_line("not json").unwrap_err();
        assert_eq!(bad_frame.kind(), "bad-frame");
        let no_op = Request::from_line(r#"{"x":1}"#).unwrap_err();
        assert_eq!(no_op.kind(), "bad-frame");
        let unknown = Request::from_line(r#"{"op":"fry"}"#).unwrap_err();
        assert_eq!(unknown.kind(), "bad-request");
        let bad_field =
            Request::from_line(r#"{"op":"check","formula":"true","n":"three"}"#).unwrap_err();
        assert_eq!(bad_field.kind(), "bad-request");
        let sampled_sweep = Request::from_line(
            r#"{"op":"sweep","formula":"true","from":2,"to":3,"sampled":[5,1]}"#,
        )
        .unwrap_err();
        assert_eq!(sampled_sweep.kind(), "bad-request");
        let rebuild_only = Request::from_line(
            r#"{"op":"sweep","formula":"true","from":2,"to":3,"exchange":"digest:32"}"#,
        )
        .unwrap_err();
        assert_eq!(rebuild_only.kind(), "bad-request");
        let sampled_symmetry = Request::from_line(
            r#"{"op":"check","formula":"true","symmetry":true,"sampled":[5,1]}"#,
        )
        .unwrap_err();
        assert_eq!(sampled_symmetry.kind(), "bad-request");
        let digest_symmetry = Request::from_line(
            r#"{"op":"check","formula":"true","symmetry":true,"exchange":"digest:0"}"#,
        )
        .unwrap_err();
        assert_eq!(digest_symmetry.kind(), "bad-request");
    }
}
