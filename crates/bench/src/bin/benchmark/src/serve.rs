//! The `serve-mixed` workload: an in-process `eba-serve` daemon under
//! open-loop load from two connections.
//!
//! Each connection has one thread that sends pipelined frames on a fixed
//! schedule and polls for answers in between, so a slow daemon does not
//! slow the offered load down. A request is timed from the
//! moment it was due to be sent, which charges a stall to every request
//! queued behind it. The run holds a nominal rate for latency, then keeps
//! every connection busy to measure the daemon's capacity.

use crate::gen::{self, formula, Heavy, Shape};
use crate::stats;
use crate::trace::{self, Table};
use crate::verify::{Expect, Oracle};
use crate::{mb, Outcome, RunCfg, Values};
use eba_model::FailureMode::{Crash, GeneralOmission, Omission};
use eba_serve::{execute, QueryContext, Request, RetryPolicy, ServeConfig, Server, SessionPool};
use rand::Rng;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Pooled scenarios the `check` and `optimize` traffic hits.
const HOT: [Shape; 4] = [
    Shape::new(4, 1, Omission, 3, true),
    Shape::new(3, 1, Omission, 3, false),
    Shape::new(4, 1, Crash, 3, false),
    Shape::new(3, 1, GeneralOmission, 2, false),
];
const SWEEP: Shape = Shape::new(3, 1, Crash, 2, false);
const SWEEP_TO: u16 = 4;
/// Cold keys: sampled systems with a fresh seed each, so they miss the
/// pool and push older sessions out of it.
const COLD_KEY: Shape = Shape::new(5, 2, Crash, 4, false);
const COLD_KEY_RUNS: usize = 300;
/// Formulas the traffic draws from; the first half is processor-symmetric
/// (the only ones sent to the quotient scenario). Processor indices stay
/// within the smallest scenario's `n`.
const FORMULAS: usize = 64;
const FORMULA_N: usize = 3;
const MEM_BUDGET_BYTES: u64 = 64 << 20;
const CONNECTIONS: usize = 2;

/// The nominal rate: a sixth to a quarter of the daemon's capacity under
/// this mix on the 2-core calibration host, whose speed varies (see
/// README).
const NOMINAL_QPS: f64 = 200.0;
/// Share of `--seconds` spent at the nominal rate; the capacity phase
/// gets the rest.
const NOMINAL_SHARE: f64 = 0.5;
/// Requests kept in flight per connection in the capacity phase. The
/// daemon answers one connection's frames one at a time, so a second
/// frame already waiting is all it needs to never idle on the generator.
const IN_FLIGHT: usize = 2;
/// Latency and capacity are medians over windows of this length, so a
/// burst of contention from outside the process in one window does not
/// set the run's figure.
const WINDOW_S: f64 = 1.0;
/// A p99 generator lateness above this makes a run invalid: its
/// nominal-rate latencies would measure the generator, not the daemon.
const MAX_LAG_MS: f64 = 1.0;

/// Random-stream tags.
const POOL: u64 = 10;
const TRAFFIC: u64 = 11;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Check,
    Optimize,
    Sweep,
    ColdKey,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Check => "serve.execute.check",
            Kind::Optimize => "serve.execute.optimize",
            Kind::Sweep => "serve.execute.sweep",
            Kind::ColdKey => "serve.execute.coldkey",
        }
    }
}

/// Half the pool holds a `C`/`CC`, a quarter a `D`, for every seed.
fn formula_pool(seed: u64) -> Vec<String> {
    (0..FORMULAS as u64)
        .map(|k| {
            let symmetric = k < FORMULAS as u64 / 2;
            let heavy =
                [Heavy::Group, Heavy::Distributed, Heavy::Group, Heavy::None][(k % 4) as usize];
            formula(&mut gen::rng(seed, POOL, k), FORMULA_N, symmetric, heavy)
        })
        .collect()
}

/// Request `k` of connection `conn` in phase `phase`: 60% `check` on a
/// hot scenario, 15% `optimize` on one, 15% `sweep`, 10% cold-key
/// `check`.
fn request(seed: u64, conn: usize, phase: usize, k: usize, pool: &[String]) -> (Kind, String) {
    let stream = TRAFFIC + conn as u64;
    let mut r = gen::rng(seed, stream, ((phase as u64) << 32) | k as u64);
    let any = |r: &mut rand::rngs::StdRng| pool[r.gen_range(0..FORMULAS)].as_str();
    match r.gen_range(0..100) {
        0..=59 => {
            let spec = HOT[r.gen_range(0..HOT.len())];
            let f = if spec.symmetry {
                pool[r.gen_range(0..FORMULAS / 2)].as_str()
            } else {
                any(&mut r)
            };
            (Kind::Check, gen::check_line(&spec, f))
        }
        60..=74 => (
            Kind::Optimize,
            gen::optimize_line(&HOT[r.gen_range(0..HOT.len())]),
        ),
        75..=89 => (
            Kind::Sweep,
            gen::sweep_line(&SWEEP, any(&mut r), SWEEP.horizon, SWEEP_TO),
        ),
        _ => {
            let f = any(&mut r);
            let sample_seed = r.gen_range(0..1u64 << 40);
            (
                Kind::ColdKey,
                gen::sampled_check_line(&COLD_KEY, f, COLD_KEY_RUNS, sample_seed),
            )
        }
    }
}

/// Sockets are non-blocking and the generator polls them between sends:
/// a blocking read's timeout is rounded up to the kernel tick, which
/// would make sends late by whole ticks.
const POLL: Duration = Duration::from_micros(100);
/// The longest a connection waits for an answer before giving up.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(60);

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    partial: Vec<u8>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            partial: Vec::new(),
        })
    }

    fn send(&mut self, line: &str) -> std::io::Result<()> {
        let mut frame = Vec::with_capacity(line.len() + 1);
        frame.extend_from_slice(line.as_bytes());
        frame.push(b'\n');
        let mut sent = 0;
        while sent < frame.len() {
            match self.writer.write(&frame[sent..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => thread::sleep(POLL),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// One whole response line, if one has arrived.
    fn recv(&mut self) -> std::io::Result<Option<String>> {
        match self.reader.read_until(b'\n', &mut self.partial) {
            Ok(0) => Err(ErrorKind::UnexpectedEof.into()),
            Ok(_) if self.partial.ends_with(b"\n") => {
                let line = String::from_utf8_lossy(&self.partial).trim_end().to_owned();
                self.partial.clear();
                Ok(Some(line))
            }
            Ok(_) => Err(ErrorKind::UnexpectedEof.into()),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    fn ask(&mut self, line: &str) -> std::io::Result<String> {
        self.send(line)?;
        let sent = Instant::now();
        loop {
            if let Some(response) = self.recv()? {
                return Ok(response);
            }
            if sent.elapsed() > ANSWER_TIMEOUT {
                return Err(ErrorKind::TimedOut.into());
            }
            thread::sleep(POLL);
        }
    }
}

/// What one connection saw in one phase.
#[derive(Default)]
struct Seen {
    latencies_ms: Vec<f64>,
    /// The time each answer is filed under, in s from the phase start:
    /// its request's due time in an open loop, its arrival when saturated.
    at_s: Vec<f64>,
    lags_ms: Vec<f64>,
    /// `(request index, response line)`.
    responses: Vec<(usize, String)>,
}

/// Sends `lines[k]` at `start + k * interval` and collects every answer.
/// The generator's lateness is how far each send trailed its due time.
fn drive(
    conn: &mut Conn,
    lines: &[(Kind, String)],
    start: Instant,
    interval: Duration,
) -> std::io::Result<Seen> {
    let mut seen = Seen::default();
    let mut pending: VecDeque<(usize, Instant)> = VecDeque::new();
    let due = |k: usize| start + interval.mul_f64(k as f64);
    let mut k = 0;
    while k < lines.len() || !pending.is_empty() {
        let now = Instant::now();
        if k < lines.len() && now >= due(k) {
            seen.lags_ms.push((now - due(k)).as_secs_f64() * 1e3);
            conn.send(&lines[k].1)?;
            pending.push_back((k, due(k)));
            k += 1;
            continue;
        }
        if let Some(response) = conn.recv()? {
            let (index, due) = pending
                .pop_front()
                .ok_or_else(|| std::io::Error::other("answer to no request"))?;
            seen.latencies_ms.push(due.elapsed().as_secs_f64() * 1e3);
            seen.at_s.push((due - start).as_secs_f64());
            seen.responses.push((index, response));
            continue;
        }
        if k < lines.len() {
            thread::sleep((due(k) - now).min(POLL));
        } else if now > due(lines.len()) + ANSWER_TIMEOUT {
            return Err(ErrorKind::TimedOut.into());
        } else {
            thread::sleep(POLL);
        }
    }
    Ok(seen)
}

/// One phase of traffic over all connections.
struct Phase {
    lines: Vec<Vec<(Kind, String)>>,
    seen: Vec<Seen>,
}

impl Phase {
    fn latencies(&self) -> Vec<f64> {
        let mut all: Vec<f64> = self
            .seen
            .iter()
            .flat_map(|s| s.latencies_ms.iter().copied())
            .collect();
        stats::sort(&mut all);
        all
    }

    fn answers(&self) -> impl Iterator<Item = (&(Kind, String), &String)> {
        self.seen.iter().zip(&self.lines).flat_map(|(seen, lines)| {
            seen.responses
                .iter()
                .map(move |(i, response)| (&lines[*i], response))
        })
    }

    /// The median over `WINDOW_S` windows of each window's `pct`
    /// percentile; windows too small for the sample-size rule are
    /// skipped, and with none left the whole phase is one window.
    fn windowed(&self, pct: usize) -> f64 {
        let mut windows: Vec<Vec<f64>> = Vec::new();
        for seen in &self.seen {
            for (&due, &ms) in seen.at_s.iter().zip(&seen.latencies_ms) {
                let w = (due / WINDOW_S) as usize;
                if windows.len() <= w {
                    windows.resize(w + 1, Vec::new());
                }
                windows[w].push(ms);
            }
        }
        let mut per_window: Vec<f64> = windows
            .into_iter()
            .filter(|w| w.len() >= stats::min_samples(pct))
            .map(|mut w| {
                stats::sort(&mut w);
                stats::percentile(&w, pct)
            })
            .collect();
        if per_window.is_empty() {
            stats::percentile(&self.latencies(), pct)
        } else {
            stats::median(&mut per_window)
        }
    }
}

/// Offers `rate_qps` for `secs` over every connection, the connections'
/// schedules interleaved.
fn open_loop(
    conns: &mut [Conn],
    seed: u64,
    phase: usize,
    rate_qps: f64,
    secs: f64,
    pool: &[String],
) -> Result<Phase, String> {
    let per_conn = rate_qps / CONNECTIONS as f64;
    let count = (per_conn * secs).round().max(1.0) as usize;
    let interval = Duration::from_secs_f64(1.0 / per_conn);
    let lines: Vec<Vec<(Kind, String)>> = (0..CONNECTIONS)
        .map(|c| {
            (0..count)
                .map(|k| request(seed, c, phase, k, pool))
                .collect()
        })
        .collect();
    let start = Instant::now() + Duration::from_millis(5);
    let seen = per_connection(conns, |c, conn| {
        let offset = interval.mul_f64(c as f64 / CONNECTIONS as f64);
        drive(conn, &lines[c], start + offset, interval)
    })?;
    Ok(Phase { lines, seen })
}

/// Runs `work` on every connection, one generator thread each.
fn per_connection<T: Send>(
    conns: &mut [Conn],
    work: impl Fn(usize, &mut Conn) -> std::io::Result<T> + Sync,
) -> Result<Vec<T>, String> {
    let work = &work;
    thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| s.spawn(move || work(c, conn)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect::<Result<Vec<_>, _>>()
    })
    .map_err(|e| format!("generator: {e}"))
}

/// Keeps `window` requests in flight on every connection for `secs`:
/// the daemon's capacity under this traffic mix. Returns the answers and
/// each answer's arrival, in s from the start.
fn saturate(
    conns: &mut [Conn],
    seed: u64,
    phase: usize,
    window: usize,
    secs: f64,
    pool: &[String],
) -> Result<Phase, String> {
    let start = Instant::now();
    let run = |c: usize, conn: &mut Conn| -> std::io::Result<(Vec<(Kind, String)>, Seen)> {
        let mut lines = Vec::new();
        let mut seen = Seen::default();
        let mut pending: VecDeque<(usize, Instant)> = VecDeque::new();
        loop {
            let open = start.elapsed().as_secs_f64() < secs;
            if !open && pending.is_empty() {
                return Ok((lines, seen));
            }
            if open && pending.len() < window {
                let k = lines.len();
                lines.push(request(seed, c, phase, k, pool));
                conn.send(&lines[k].1)?;
                pending.push_back((k, Instant::now()));
                continue;
            }
            if let Some(response) = conn.recv()? {
                let (index, sent) = pending
                    .pop_front()
                    .ok_or_else(|| std::io::Error::other("answer to no request"))?;
                seen.latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                seen.at_s.push(start.elapsed().as_secs_f64());
                seen.responses.push((index, response));
            } else {
                thread::sleep(POLL);
            }
        }
    };
    let (lines, seen) = per_connection(conns, run)?.into_iter().unzip();
    Ok(Phase { lines, seen })
}

/// Answers per second over the whole windows of a saturated phase; the
/// median window.
fn capacity(phase: &Phase, secs: f64) -> f64 {
    let windows = (secs / WINDOW_S).floor().max(1.0) as usize;
    let mut counts = vec![0.0; windows];
    for &t in phase.seen.iter().flat_map(|s| &s.at_s) {
        if let Some(c) = counts.get_mut((t / WINDOW_S) as usize) {
            *c += 1.0 / WINDOW_S;
        }
    }
    stats::median(&mut counts)
}

struct Daemon {
    addr: SocketAddr,
    drain: &'static AtomicBool,
    pool: Arc<SessionPool>,
    handle: JoinHandle<eba_serve::StatsSnapshot>,
}

impl Daemon {
    fn start() -> Result<Daemon, String> {
        let server = Server::bind(ServeConfig {
            mem_budget_bytes: MEM_BUDGET_BYTES,
            ..ServeConfig::default()
        })
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| format!("addr: {e}"))?;
        Ok(Daemon {
            addr,
            drain: server.drain_flag(),
            pool: server.pool(),
            handle: thread::spawn(move || server.run()),
        })
    }

    fn stop(self) {
        self.drain.store(true, Ordering::Relaxed);
        let _ = self.handle.join();
    }
}

/// The lines that fill the pool and its sessions' caches before timing:
/// every hot `check`, every hot `optimize`, and one sweep.
fn warm_lines(pool: &[String]) -> Vec<String> {
    let mut lines = Vec::new();
    for spec in &HOT {
        let formulas = if spec.symmetry {
            &pool[..FORMULAS / 2]
        } else {
            pool
        };
        lines.extend(formulas.iter().map(|f| gen::check_line(spec, f)));
        lines.push(gen::optimize_line(spec));
    }
    lines.push(gen::sweep_line(&SWEEP, &pool[0], SWEEP.horizon, SWEEP_TO));
    lines
}

fn setup(cfg: &RunCfg, pool: &[String]) -> Result<(Daemon, Vec<Conn>, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..cfg.setup_reps() {
        if let Some((daemon, conns)) = last.take() {
            drop::<Vec<Conn>>(conns);
            Daemon::stop(daemon);
        }
        let t0 = Instant::now();
        let daemon = Daemon::start()?;
        let mut conns = (0..CONNECTIONS)
            .map(|_| Conn::connect(daemon.addr))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connect: {e}"))?;
        for line in warm_lines(pool) {
            let response = conns[0].ask(&line).map_err(|e| format!("warm-up: {e}"))?;
            if response.starts_with(r#"{"ok":false"#) {
                return Err(format!("warm-up {line}: {response}"));
            }
        }
        times.push(t0.elapsed().as_secs_f64());
        last = Some((daemon, conns));
    }
    let (daemon, conns) = last.expect("at least one set-up");
    eprintln!("set-up runs (s): {times:.3?}");
    Ok((daemon, conns, stats::median(&mut times)))
}

pub fn serve_mixed(cfg: &RunCfg) -> Result<Outcome, String> {
    let pool = formula_pool(cfg.seed);
    let (daemon, mut conns, setup_s) = setup(cfg, &pool)?;
    let nominal_s = cfg.seconds * NOMINAL_SHARE;
    let saturated_s = cfg.seconds - nominal_s;
    let nominal = open_loop(&mut conns, cfg.seed, 0, NOMINAL_QPS, nominal_s, &pool)?;
    let saturated = if cfg.trace {
        None
    } else {
        Some(saturate(
            &mut conns,
            cfg.seed,
            1,
            IN_FLIGHT,
            saturated_s,
            &pool,
        )?)
    };
    let rss = crate::peak_rss_mb();
    let pool_stats = daemon.pool.stats();
    drop(conns);
    daemon.stop();

    let mut lags: Vec<f64> = nominal
        .seen
        .iter()
        .flat_map(|s| s.lags_ms.iter().copied())
        .collect();
    stats::sort(&mut lags);
    let lag_p99 = stats::percentile(&lags, 99);
    if lag_p99 > MAX_LAG_MS {
        eprintln!(
            "warning: generator ran {lag_p99:.2} ms late at p99, over {MAX_LAG_MS} ms; \
             this run is invalid"
        );
    }
    let latencies = nominal.latencies();
    let p50 = nominal.windowed(50);
    let phases: Vec<&Phase> = std::iter::once(&nominal).chain(&saturated).collect();
    let attempted: usize = phases
        .iter()
        .map(|s| s.lines.iter().map(Vec::len).sum::<usize>())
        .sum();

    let replay = cfg.trace.then(|| replay(cfg, &nominal, &pool));
    let answers = phases
        .iter()
        .flat_map(|phase| {
            phase
                .answers()
                .map(|((_, line), response)| (line, response))
        })
        .chain(
            replay
                .iter()
                .flat_map(|r| r.answers.iter().map(|(line, response)| (line, response))),
        );
    let mut errors = Vec::new();
    let mut oracle = Oracle::new();
    let verify_start = Instant::now();
    let mut checked = 0;
    for (line, response) in answers {
        checked += 1;
        if response.starts_with(r#"{"ok":false"#) {
            errors.push(format!("{line}: {response}"));
        } else if let Err(e) = oracle.check(line, &Expect::Frame(response.clone())) {
            errors.push(e);
        }
    }

    let mut values = Values::new();
    if let Some(replay) = &replay {
        let table = Table::from_spans(&replay.spans);
        eprint!("{}", table.render());
        values.insert("serve.parse.us_p50", table.p50_ms("serve.parse") * 1e3);
        for kind in [Kind::Check, Kind::Optimize, Kind::Sweep, Kind::ColdKey] {
            values.insert(format!("{}.ms_p50", kind.span()), table.p50_ms(kind.span()));
        }
        values.insert("serve.wire.ms_p50", p50 - replay.query_p50_ms);
        let lookups = (pool_stats.hits + pool_stats.misses) as f64;
        values.insert(
            "serve.pool.hit_frac",
            if lookups > 0.0 {
                pool_stats.hits as f64 / lookups
            } else {
                0.0
            },
        );
        values.insert("serve.pool.evictions", pool_stats.evictions as f64);
        values.insert(
            "serve.pool.resident_mb",
            mb(pool_stats.resident_bytes as usize),
        );
        values.insert("bench.gen_lag_p99_ms", lag_p99);
        values.insert("trace.overhead_frac", replay.overhead_frac);
        values.insert("trace.accounted_frac", table.accounted());
    } else {
        values.insert("setup_s", setup_s);
        values.insert("query_p50_ms", p50);
        values.insert("query_p90_ms", nominal.windowed(90));
        let saturated = saturated.as_ref().expect("untraced runs saturate");
        values.insert("throughput_qps", capacity(saturated, saturated_s));
        values.insert("peak_rss_mb", rss);
    }
    eprintln!(
        "{} requests at the nominal {NOMINAL_QPS} qps (90th percentile has {} samples beyond it); \
         {attempted} requests in all; generator lateness p99 {lag_p99:.3} ms; \
         pool hits {} misses {} evictions {}; {checked} answers verified in {:.1}s",
        latencies.len(),
        stats::tail(latencies.len(), 90),
        pool_stats.hits,
        pool_stats.misses,
        pool_stats.evictions,
        verify_start.elapsed().as_secs_f64(),
    );
    Ok(Outcome {
        attempted: attempted as u64,
        errors,
        values,
    })
}

struct Replay {
    spans: Vec<trace::Span>,
    answers: Vec<(String, String)>,
    query_p50_ms: f64,
    overhead_frac: f64,
}

/// Replays the nominal phase's requests in send order, single-threaded,
/// through `Request::from_line` and `execute` on a pool of the daemon's
/// budget, alternating traced and untraced blocks.
fn replay(cfg: &RunCfg, nominal: &Phase, pool_formulas: &[String]) -> Replay {
    const BLOCK: usize = 64;
    let mut order: Vec<&(Kind, String)> = Vec::new();
    let longest = nominal.lines.iter().map(Vec::len).max().unwrap_or(0);
    for k in 0..longest {
        order.extend(nominal.lines.iter().filter_map(|lines| lines.get(k)));
    }
    let pool = SessionPool::new(MEM_BUDGET_BYTES, RetryPolicy::default(), None);
    let ctx = QueryContext {
        pool: &pool,
        interrupt: None,
        threads: None,
    };
    let answer = |line: &str, kind: Kind| {
        let parsed = trace::span("serve.parse", || Request::from_line(line));
        match parsed.and_then(|req| trace::span(kind.span(), || execute(&req, &ctx))) {
            Ok(frame) => frame.to_line(),
            Err(e) => e.to_frame().to_line(),
        }
    };
    for line in warm_lines(pool_formulas) {
        answer(&line, Kind::Check);
    }
    let budget = cfg.seconds * (1.0 - NOMINAL_SHARE);
    let start = Instant::now();
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let mut answers = Vec::new();
    let mut i: usize = 0;
    loop {
        let boundary = i.is_multiple_of(2 * BLOCK);
        if boundary && i >= order.len() && start.elapsed().as_secs_f64() >= budget {
            break;
        }
        let (kind, line) = order[i % order.len()];
        let on = (i / BLOCK) % 2 == 1;
        trace::set_enabled(on);
        let t0 = Instant::now();
        let response = trace::query(i as u64, || answer(line, *kind));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        trace::set_enabled(false);
        if on { &mut traced } else { &mut untraced }.push(ms);
        if i < order.len() {
            answers.push((line.clone(), response));
        }
        i += 1;
    }
    let (spans, _) = trace::take();
    crate::write_trace(cfg, &spans);
    let mut roots: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == trace::QUERY)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    Replay {
        query_p50_ms: if roots.is_empty() {
            0.0
        } else {
            stats::median(&mut roots)
        },
        overhead_frac: stats::mean(&traced) / stats::mean(&untraced) - 1.0,
        spans,
        answers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_lateness_and_latency_are_charged_from_the_due_time() {
        // A one-connection echo peer that answers the first frame only
        // after 30 ms. The schedule started 10 ms ago, so the generator
        // is late for both frames, and both latencies count that
        // lateness plus the wait behind the stalled first answer.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            for k in 0..2 {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                if k == 0 {
                    thread::sleep(Duration::from_millis(30));
                }
                writer.write_all(line.as_bytes()).unwrap();
            }
        });
        let mut conn = Conn::connect(addr).unwrap();
        let lines = vec![(Kind::Check, "a".to_owned()), (Kind::Check, "b".to_owned())];
        let start = Instant::now() - Duration::from_millis(10);
        let seen = drive(&mut conn, &lines, start, Duration::from_millis(5)).unwrap();
        peer.join().unwrap();
        assert_eq!(
            seen.responses,
            vec![(0, "a".to_owned()), (1, "b".to_owned())]
        );
        assert!(
            seen.lags_ms[0] >= 10.0 && seen.lags_ms[1] >= 5.0,
            "{:?}",
            seen.lags_ms
        );
        assert!(seen.latencies_ms[0] >= 40.0, "{:?}", seen.latencies_ms);
        assert!(seen.latencies_ms[1] >= 35.0, "{:?}", seen.latencies_ms);
    }

    #[test]
    fn capacity_is_the_median_window_and_latency_windows_skip_small_ones() {
        let seen = Seen {
            // 3 answers in window 0, 5 in window 1, 4 in window 2.
            at_s: vec![
                0.1, 0.2, 0.3, 1.1, 1.2, 1.3, 1.4, 1.5, 2.1, 2.2, 2.3, 2.4, 3.5,
            ],
            latencies_ms: (1..=13).map(f64::from).collect(),
            ..Seen::default()
        };
        let step = Phase {
            lines: vec![Vec::new()],
            seen: vec![seen],
        };
        // Window 3 is cut off by the phase end and does not count.
        assert_eq!(capacity(&step, 3.0), 4.0);
        // No window holds the 100 samples a 90th percentile needs, so the
        // whole phase is one window.
        assert_eq!(step.windowed(90), 12.0);
    }

    #[test]
    fn traffic_is_seeded_and_every_line_parses() {
        let pool = formula_pool(3);
        let a: Vec<_> = (0..200).map(|k| request(3, 1, 2, k, &pool)).collect();
        let b: Vec<_> = (0..200).map(|k| request(3, 1, 2, k, &pool)).collect();
        assert_eq!(a, b);
        for (_, line) in a.iter().chain(
            &warm_lines(&pool)
                .into_iter()
                .map(|l| (Kind::Check, l))
                .collect::<Vec<_>>(),
        ) {
            Request::from_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        for kind in [Kind::Check, Kind::Optimize, Kind::Sweep, Kind::ColdKey] {
            assert!(a.iter().any(|(k, _)| *k == kind), "{kind:?} never drawn");
        }
    }
}
