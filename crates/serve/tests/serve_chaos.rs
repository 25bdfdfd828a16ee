//! Self-chaos suite for the `eba-serve` daemon.
//!
//! The daemon's correctness contract: under concurrency, injected
//! engine faults, eviction, malformed input, and abusive clients, every
//! successful response is **byte-identical** to the single-threaded
//! cold oracle ([`eba_serve::oracle`]), and the daemon itself never
//! dies — worker panics are isolated, bad clients are shed or
//! disconnected, and SIGINT drains gracefully.

use eba_serve::{oracle, Request, RetryPolicy, ServeConfig, Server, SessionPool, StatsSnapshot};
use eba_sim::chaos::{ChaosPlan, FaultKind};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

struct TestServer {
    addr: SocketAddr,
    drain: &'static AtomicBool,
    pool: Arc<SessionPool>,
    handle: thread::JoinHandle<StatsSnapshot>,
}

fn start(config: ServeConfig) -> TestServer {
    let server = Server::bind(config).expect("bind loopback");
    let addr = server.local_addr().expect("resolved addr");
    let drain = server.drain_flag();
    let pool = server.pool();
    let handle = thread::spawn(move || server.run());
    TestServer {
        addr,
        drain,
        pool,
        handle,
    }
}

impl TestServer {
    fn client(&self) -> Client {
        Client::connect(self.addr)
    }

    fn drain(self) -> StatsSnapshot {
        self.drain.store(true, Ordering::Relaxed);
        self.handle.join().expect("server thread must not panic")
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        stream.set_nodelay(true).expect("nodelay");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client {
            reader,
            writer: stream,
        }
    }

    fn send(&mut self, line: &str) {
        let mut frame = Vec::with_capacity(line.len() + 1);
        frame.extend_from_slice(line.as_bytes());
        frame.push(b'\n');
        self.writer.write_all(&frame).expect("send");
    }

    fn recv(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => Some(line.trim_end().to_owned()),
            Err(_) => None,
        }
    }

    fn ask(&mut self, line: &str) -> String {
        self.send(line);
        self.recv().expect("response before EOF")
    }
}

/// The mixed workload: crash, omission, and general-omission scenarios;
/// check/optimize/sweep ops; valid and invalid formulas; a witness
/// query; `D` checks unreduced and on a quotient, which pooled sessions
/// answer from a cached partition after the first; and a run-budgeted
/// partial, whose pattern prefix depends on the request alone.
/// Every line's response is a pure function of the line.
fn workload() -> Vec<&'static str> {
    vec![
        r#"{"op":"check","formula":"CC(E0) -> C(E0)"}"#,
        r#"{"op":"check","formula":"C(E0) -> CC(E0)"}"#,
        r#"{"op":"check","formula":"B_1(E0) -> (N(1) -> E0)","mode":"omission","horizon":2}"#,
        r#"{"op":"check","formula":"K_1(E0) -> E0","mode":"general-omission","horizon":2}"#,
        r#"{"op":"check","formula":"D(E0) & D(E1)"}"#,
        r#"{"op":"check","formula":"D(E0) & D(E1)","symmetry":true}"#,
        r#"{"op":"check","formula":"D_All(E(E0))"}"#,
        r#"{"op":"check","formula":"D_All(E(E0))","symmetry":true}"#,
        r#"{"op":"check","formula":"CC(E0) -> C(E0)","witness":true}"#,
        r#"{"op":"check","formula":"true","mode":"omission","horizon":2,"max_runs":50}"#,
        r#"{"op":"check","formula":"this is not a formula"}"#,
        r#"{"op":"check","formula":"CC(E0)","sampled":[20,7]}"#,
        r#"{"op":"optimize","n":3,"t":1,"mode":"crash","horizon":3}"#,
        r#"{"op":"sweep","formula":"CC(E0) -> C(E0)","from":2,"to":3}"#,
        r#"{"op":"ping"}"#,
    ]
}

fn oracle_map(lines: &[&'static str]) -> HashMap<&'static str, String> {
    lines
        .iter()
        .map(|line| {
            let answer = match Request::from_line(line) {
                Ok(req) => oracle(&req),
                Err(e) => e.to_frame().to_line(),
            };
            (*line, answer)
        })
        .collect()
}

/// ≥16 concurrent clients, chaos injection on, mid-run eviction: every
/// response byte-identical to the cold oracle; zero daemon panics.
#[test]
fn soak_sixteen_concurrent_clients_with_chaos_match_the_oracle() {
    let lines = workload();
    let expected = Arc::new(oracle_map(&lines));

    // Seeded bounded chaos over the build stage: panics (absorbed by
    // shard supervision), capacity faults (retried by the pool), and
    // delays (jitter). The retry budget outlasts the plan's fire count.
    let chaos = Arc::new(ChaosPlan::seeded(0xEBA5, 8, 6));
    let config = ServeConfig {
        retry: RetryPolicy {
            attempts: 10,
            base_backoff: Duration::from_micros(200),
        },
        chaos: Some(chaos.clone()),
        ..ServeConfig::default()
    };
    let server = start(config);

    // A chaos-monkey thread evicting and polling stats while the
    // clients run: eviction mid-workload must never change an answer.
    let monkey_addr = server.addr;
    let monkey_stop = Arc::new(AtomicBool::new(false));
    let monkey_stop2 = Arc::clone(&monkey_stop);
    let monkey = thread::spawn(move || {
        let mut client = Client::connect(monkey_addr);
        while !monkey_stop2.load(Ordering::Relaxed) {
            let evicted = client.ask(r#"{"op":"evict"}"#);
            assert!(evicted.contains(r#""evicted":"#), "{evicted}");
            let stats = client.ask(r#"{"op":"stats"}"#);
            assert!(stats.contains(r#""resident_bytes":"#), "{stats}");
            thread::sleep(Duration::from_millis(20));
        }
    });

    let clients: Vec<_> = (0..16)
        .map(|i| {
            let addr = server.addr;
            let lines = lines.clone();
            let expected = Arc::clone(&expected);
            thread::spawn(move || {
                let mut client = Client::connect(addr);
                // Each client rotates the workload differently so the
                // pool sees interleaved scenarios, not a convoy.
                for round in 0..2 {
                    for (j, _) in lines.iter().enumerate() {
                        let line = lines[(i + j + round) % lines.len()];
                        let response = client.ask(line);
                        assert_eq!(
                            response, expected[line],
                            "client {i} line {line} diverged from the oracle"
                        );
                    }
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread must not panic");
    }
    monkey_stop.store(true, Ordering::Relaxed);
    monkey.join().expect("monkey thread must not panic");

    // The daemon is still alive and sane after the storm.
    let mut probe = server.client();
    assert_eq!(probe.ask(r#"{"op":"ping"}"#), r#"{"ok":true,"op":"pong"}"#);
    let snapshot = server.drain();
    assert_eq!(snapshot.panics, 0, "no query may panic: {snapshot:?}");
    assert!(
        snapshot.queries >= 16 * 2 * lines.len() as u64,
        "{snapshot:?}"
    );
    assert!(chaos.fired() >= 1, "the chaos plan must actually fire");
}

#[test]
fn malformed_frames_get_typed_errors_and_the_connection_survives() {
    let server = start(ServeConfig::default());
    let mut client = server.client();
    let cases = [
        ("this is not json", "bad-frame"),
        (r#"[1,2,3]"#, "bad-frame"),
        (r#"{"no_op":true}"#, "bad-frame"),
        (r#"{"op":"transmogrify"}"#, "bad-request"),
        (r#"{"op":"check"}"#, "bad-request"),
        (r#"{"op":"check","formula":"true","n":-1}"#, "bad-request"),
        (
            r#"{"op":"check","formula":"true","n":500}"#,
            "invalid-scenario",
        ),
        (
            r#"{"op":"check","formula":"true","t":5}"#,
            "invalid-scenario",
        ),
    ];
    for (frame, kind) in cases {
        let response = client.ask(frame);
        assert!(
            response.contains(&format!(r#""error":"{kind}""#)),
            "{frame} -> {response}"
        );
    }
    // Deeply nested garbage is rejected, not stack-overflowed.
    let deep = format!("{}{}", "[".repeat(10_000), "]".repeat(10_000));
    let response = client.ask(&deep);
    assert!(response.contains(r#""error":"bad-frame""#), "{response}");
    // And the connection still works.
    assert_eq!(client.ask(r#"{"op":"ping"}"#), r#"{"ok":true,"op":"pong"}"#);
    server.drain();
}

#[test]
fn formulas_nested_past_the_parser_cap_are_rejected_and_the_daemon_survives() {
    let server = start(ServeConfig::default());
    let mut client = server.client();
    // A 10 KB frame nesting `K_1(` 2,000 deep: without the parser's depth
    // cap this overflows a worker thread's stack and aborts the daemon.
    let formula = format!("{}E0{}", "K_1(".repeat(2_000), ")".repeat(2_000));
    let response = client.ask(&format!(r#"{{"op":"check","formula":"{formula}"}}"#));
    assert!(response.contains(r#""error":"bad-request""#), "{response}");
    assert!(response.contains("nests deeper than"), "{response}");
    assert_eq!(client.ask(r#"{"op":"ping"}"#), r#"{"ok":true,"op":"pong"}"#);
    server.drain();
}

#[test]
fn iff_chains_past_the_parser_size_cap_are_rejected_and_the_daemon_survives() {
    let server = start(ServeConfig::default());
    let mut client = server.client();
    // A ~300-byte frame of 40 chained `<->`: desugaring copies both
    // operands per link, so without the size cap it would exhaust memory.
    let formula = format!("E0{}", " <-> E0".repeat(40));
    let response = client.ask(&format!(r#"{{"op":"check","formula":"{formula}"}}"#));
    assert!(response.contains(r#""error":"bad-request""#), "{response}");
    assert!(response.contains("desugars to more than"), "{response}");
    assert_eq!(client.ask(r#"{"op":"ping"}"#), r#"{"ok":true,"op":"pong"}"#);
    server.drain();
}

#[test]
fn samples_past_the_run_id_space_are_rejected_and_the_daemon_survives() {
    let server = start(ServeConfig::default());
    let mut client = server.client();
    // A 59-byte frame asking for 10^12 samples: their runs could never
    // get run ids, and without the capacity check sampling them would
    // exhaust memory before the first run is built.
    let frame = r#"{"op":"check","formula":"true","sampled":[1000000000000,1]}"#;
    let response = client.ask(frame);
    assert!(
        response.contains(r#""error":"invalid-scenario""#),
        "{response}"
    );
    assert!(
        response.contains("capacity exceeded: run ids holds at most 4294967296 items"),
        "{response}"
    );
    assert_eq!(client.ask(r#"{"op":"ping"}"#), r#"{"ok":true,"op":"pong"}"#);
    server.drain();
}

#[test]
fn oversized_frames_are_rejected_and_disconnected() {
    let config = ServeConfig {
        max_frame_bytes: 1024,
        ..ServeConfig::default()
    };
    let server = start(config);
    let mut client = server.client();
    let huge = format!(r#"{{"op":"ping","pad":"{}"}}"#, "x".repeat(4096));
    let response = client.ask(&huge);
    assert!(response.contains("frame too long"), "{response}");
    assert!(client.recv().is_none(), "oversize sender must be dropped");
    // A fresh connection is unaffected.
    let mut fresh = server.client();
    assert_eq!(fresh.ask(r#"{"op":"ping"}"#), r#"{"ok":true,"op":"pong"}"#);
    server.drain();
}

#[test]
fn slow_loris_clients_are_disconnected_without_hurting_others() {
    let config = ServeConfig {
        read_timeout: Duration::from_millis(200),
        ..ServeConfig::default()
    };
    let server = start(config);
    let mut loris = server.client();
    // Half a frame, then stall past the read timeout.
    loris
        .writer
        .write_all(br#"{"op":"chec"#)
        .expect("partial write");
    loris.writer.flush().unwrap();
    // A well-behaved client is served while the loris stalls.
    let mut good = server.client();
    assert_eq!(good.ask(r#"{"op":"ping"}"#), r#"{"ok":true,"op":"pong"}"#);
    thread::sleep(Duration::from_millis(400));
    // The loris connection is gone: its next read sees EOF/reset.
    let mut buf = [0u8; 16];
    loris
        .writer
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let gone = match loris.writer.read(&mut buf) {
        Ok(0) => true,
        Ok(_) => false,
        Err(_) => true,
    };
    assert!(gone, "slow-loris connection must be closed");
    let snapshot = server.drain();
    assert!(snapshot.bad_connections >= 1, "{snapshot:?}");
}

/// A run-budgeted check answers with the same pattern prefix at every
/// thread count, byte-identical to the single-threaded oracle: the
/// prefix depends on the request alone, not on how the daemon splits
/// the build.
#[test]
fn run_budgeted_partial_matches_the_oracle_at_every_thread_count() {
    let line = r#"{"op":"check","formula":"true","mode":"omission","horizon":2,"max_runs":50}"#;
    let expected = oracle(&Request::from_line(line).unwrap());
    assert!(
        expected.contains(
            r#""partial":{"reason":"run budget of 50 exhausted","patterns":6,"total_patterns":49}"#
        ),
        "{expected}"
    );
    for threads in [1, 4, 8] {
        let server = start(ServeConfig {
            threads_per_query: Some(threads),
            ..ServeConfig::default()
        });
        assert_eq!(server.client().ask(line), expected, "{threads} threads");
        server.drain();
    }
}

#[test]
fn admission_control_sheds_with_a_retry_hint_when_saturated() {
    // One slot, no queue; a delay in the build's first block, which every
    // block split has, keeps the slot busy long enough for the prober to
    // collide with it.
    let chaos =
        Arc::new(ChaosPlan::new().with_fault(0, FaultKind::Delay(Duration::from_millis(800))));
    let config = ServeConfig {
        max_active: 1,
        max_waiting: 0,
        chaos: Some(chaos),
        ..ServeConfig::default()
    };
    let server = start(config);
    let addr = server.addr;
    let slow = thread::spawn(move || {
        let mut client = Client::connect(addr);
        // A budgeted check bypasses the pool, so its build always runs.
        client.ask(
            r#"{"op":"check","formula":"true","mode":"omission","horizon":2,"max_runs":100000}"#,
        )
    });
    thread::sleep(Duration::from_millis(120));
    let mut prober = server.client();
    let shed = prober.ask(r#"{"op":"ping"}"#);
    assert!(
        shed.contains(r#""error":"overloaded""#),
        "expected load shedding, got {shed}"
    );
    assert!(shed.contains(r#""retry_after_ms":"#), "{shed}");
    let slow_response = slow.join().expect("slow client thread");
    assert!(slow_response.contains(r#""ok":true"#), "{slow_response}");
    let snapshot = server.drain();
    assert!(snapshot.shed >= 1, "{snapshot:?}");
}

#[test]
fn injected_persistent_faults_surface_as_typed_engine_fault_frames() {
    let chaos =
        Arc::new(ChaosPlan::new().with_recurring_fault(0, FaultKind::CapacityExhaustion, u32::MAX));
    let config = ServeConfig {
        retry: RetryPolicy {
            attempts: 2,
            base_backoff: Duration::from_micros(100),
        },
        chaos: Some(chaos),
        ..ServeConfig::default()
    };
    let server = start(config);
    let mut client = server.client();
    let response = client.ask(r#"{"op":"check","formula":"true"}"#);
    assert!(response.contains(r#""error":"engine-fault""#), "{response}");
    assert!(response.contains("2 attempts"), "{response}");
    // The daemon survives its engine failing.
    assert_eq!(client.ask(r#"{"op":"ping"}"#), r#"{"ok":true,"op":"pong"}"#);
    server.drain();
}

#[test]
fn graceful_drain_finishes_in_flight_work_and_flushes_stats() {
    let server = start(ServeConfig::default());
    // An idle client parked in a blocking read: drain must unblock it
    // promptly (read-half shutdown), not wait out the 30s read timeout.
    let mut idle = server.client();
    assert_eq!(idle.ask(r#"{"op":"ping"}"#), r#"{"ok":true,"op":"pong"}"#);

    // An in-flight query racing the drain: it must complete with a
    // well-formed frame (the build either finishes or stops at a
    // cooperative checkpoint with a typed outcome), never be cut off.
    let addr = server.addr;
    let inflight = thread::spawn(move || {
        let mut client = Client::connect(addr);
        client.ask(r#"{"op":"check","formula":"CC(E0) -> C(E0)","mode":"omission","horizon":3}"#)
    });
    thread::sleep(Duration::from_millis(50));

    let drain_started = std::time::Instant::now();
    let snapshot = server.drain();
    let drained_in = drain_started.elapsed();

    let response = inflight.join().expect("in-flight client");
    assert!(
        eba_serve::json::parse(&response).is_ok(),
        "in-flight response must be a complete frame: {response}"
    );
    assert!(
        drained_in < Duration::from_secs(20),
        "drain must not wait out idle read timeouts: {drained_in:?}"
    );
    assert!(idle.recv().is_none(), "idle connection closed by drain");
    assert!(snapshot.queries >= 2, "{snapshot:?}");
    assert_eq!(snapshot.panics, 0, "{snapshot:?}");
}

#[test]
fn mid_query_eviction_never_changes_answers() {
    let server = start(ServeConfig::default());
    let line = r#"{"op":"check","formula":"CC(E0) -> C(E0)","mode":"omission","horizon":2}"#;
    let expected = oracle(&Request::from_line(line).unwrap());

    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let pool = Arc::clone(&server.pool);
    // Direct pool eviction (no protocol round-trip) for the tightest
    // possible interleaving with in-flight checkouts.
    let evictor = thread::spawn(move || {
        while !stop2.load(Ordering::Relaxed) {
            pool.evict(None);
            thread::yield_now();
        }
    });

    let askers: Vec<_> = (0..4)
        .map(|_| {
            let addr = server.addr;
            let expected = expected.clone();
            thread::spawn(move || {
                let mut client = Client::connect(addr);
                for _ in 0..5 {
                    assert_eq!(client.ask(line), expected);
                }
            })
        })
        .collect();
    for asker in askers {
        asker.join().expect("asker thread");
    }
    stop.store(true, Ordering::Relaxed);
    evictor.join().expect("evictor thread");
    let snapshot = server.drain();
    assert_eq!(snapshot.panics, 0, "{snapshot:?}");
}

#[test]
fn connection_churn_does_not_hurt_the_daemon() {
    let server = start(ServeConfig::default());
    for i in 0..30 {
        let mut client = server.client();
        if i % 3 == 0 {
            // Connect-and-vanish.
            drop(client);
        } else {
            assert_eq!(client.ask(r#"{"op":"ping"}"#), r#"{"ok":true,"op":"pong"}"#);
        }
    }
    let snapshot = server.drain();
    assert!(snapshot.connections >= 30, "{snapshot:?}");
    assert_eq!(snapshot.panics, 0, "{snapshot:?}");
}
