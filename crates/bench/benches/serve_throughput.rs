//! Throughput and latency of the `eba-serve` daemon (DESIGN.md §4h).
//!
//! An in-process [`eba_serve::Server`] answers a mixed
//! crash/omission/general-omission workload from concurrent TCP clients.
//! Two regimes are measured:
//!
//! * **warm** — every scenario already pooled, so a query costs one
//!   protocol round-trip plus a cache-wired evaluation; this is the
//!   daemon's raison d'être (the cold engine pays a full system build
//!   per query);
//! * **cold** — the pool is evicted before every query, forcing a
//!   rebuild each time; the gap between the regimes is the session
//!   pool's contribution.
//!
//! Custom harness (not criterion): concurrency and tail latency are the
//! point, so the bench reports aggregate qps and p50/p95/p99 per-query
//! latency over all clients rather than a single-threaded median.

use eba_serve::{ServeConfig, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::thread;
use std::time::{Duration, Instant};

const CLIENTS: usize = 8;
const ROUNDS: usize = 25;

/// The mixed workload: three failure modes, a budgeted partial, a
/// sampled scenario, and a control ping.
const WORKLOAD: &[&str] = &[
    r#"{"op":"check","formula":"CC(E0) -> C(E0)"}"#,
    r#"{"op":"check","formula":"C(E0) -> CC(E0)"}"#,
    r#"{"op":"check","formula":"B_1(E0) -> (N(1) -> E0)","mode":"omission","horizon":2}"#,
    r#"{"op":"check","formula":"K_1(E0) -> E0","mode":"general-omission","horizon":2}"#,
    r#"{"op":"check","formula":"true","mode":"omission","horizon":2,"max_runs":50}"#,
    r#"{"op":"check","formula":"CC(E0)","sampled":[20,7]}"#,
    r#"{"op":"ping"}"#,
];

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client {
            reader,
            writer: stream,
        }
    }

    fn ask(&mut self, line: &str) -> String {
        let mut frame = Vec::with_capacity(line.len() + 1);
        frame.extend_from_slice(line.as_bytes());
        frame.push(b'\n');
        self.writer.write_all(&frame).expect("send");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("recv");
        response
    }
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Runs `CLIENTS` concurrent clients through `ROUNDS` rotations of the
/// workload, returning (elapsed, per-query latencies).
fn drive(addr: SocketAddr, evict_each_query: bool) -> (Duration, Vec<Duration>) {
    let started = Instant::now();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|i| {
            thread::spawn(move || {
                let mut client = Client::connect(addr);
                let mut latencies = Vec::with_capacity(ROUNDS * WORKLOAD.len());
                for round in 0..ROUNDS {
                    for (j, _) in WORKLOAD.iter().enumerate() {
                        let line = WORKLOAD[(i + j + round) % WORKLOAD.len()];
                        if evict_each_query {
                            client.ask(r#"{"op":"evict"}"#);
                        }
                        let sent = Instant::now();
                        let response = client.ask(line);
                        latencies.push(sent.elapsed());
                        assert!(
                            response.contains("\"ok\":"),
                            "malformed response: {response}"
                        );
                    }
                }
                latencies
            })
        })
        .collect();
    let mut all = Vec::new();
    for handle in handles {
        all.extend(handle.join().expect("client thread"));
    }
    (started.elapsed(), all)
}

fn report(regime: &str, elapsed: Duration, mut latencies: Vec<Duration>) {
    latencies.sort_unstable();
    let queries = latencies.len();
    let qps = queries as f64 / elapsed.as_secs_f64();
    println!(
        "serve_throughput/{regime}: {queries} queries over {CLIENTS} clients in {:.2}s \
         = {qps:.0} qps; latency p50 {:?} p95 {:?} p99 {:?}",
        elapsed.as_secs_f64(),
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.95),
        percentile(&latencies, 0.99),
    );
}

fn main() {
    let server = Server::bind(ServeConfig::default()).expect("bind loopback");
    let addr = server.local_addr().expect("addr");
    let drain = server.drain_flag();
    let runner = thread::spawn(move || server.run());

    // Warm the pool: one pass over every workload line.
    let mut warmer = Client::connect(addr);
    for line in WORKLOAD {
        warmer.ask(line);
    }

    let (elapsed, latencies) = drive(addr, false);
    report("warm", elapsed, latencies);

    let (elapsed, latencies) = drive(addr, true);
    report("cold_evict_per_query", elapsed, latencies);

    drain.store(true, Ordering::Relaxed);
    let snapshot = runner.join().expect("server thread");
    println!(
        "serve_throughput/pool: hits={} misses={} evictions={} retries={}",
        snapshot.pool.hits, snapshot.pool.misses, snapshot.pool.evictions, snapshot.pool.retries,
    );
}
