//! The `eba-serve` binary: bind, serve, drain on SIGINT, flush stats.

use eba_serve::{install_sigint, render_stats_line, RetryPolicy, ServeConfig, Server};
use std::io::{self, Write};
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::Duration;

const HELP: &str = "\
eba-serve — persistent agreement-checking daemon (line-delimited JSON over TCP)

USAGE:
    eba-serve [OPTIONS]

OPTIONS:
    --addr HOST:PORT   bind address                  (default 127.0.0.1:7878)
    --max-active N     concurrent queries            (default 8)
    --max-waiting N    queued queries before load    (default 32)
                       shedding with `overloaded` frames
    --mem-budget MB    session-pool memory budget    (default 256)
    --read-timeout S   per-connection read timeout   (default 30)
    --retries N        build retry attempts          (default 3)
    --threads N        worker threads per query for  (default: all cores)
                       builds and sweep extensions;
                       evaluation runs on the query's
                       own thread
    --help             this text

PROTOCOL (one JSON object per line; see README for the full grammar):
    {\"op\":\"check\",\"formula\":\"CC(E0) -> C(E0)\",\"n\":3,\"t\":1,\"mode\":\"crash\"}
    {\"op\":\"optimize\",\"n\":3,\"t\":1,\"mode\":\"crash\",\"horizon\":3}
    {\"op\":\"sweep\",\"formula\":\"CC(E0) -> C(E0)\",\"from\":2,\"to\":4}
    {\"op\":\"stats\"}   {\"op\":\"evict\"}   {\"op\":\"ping\"}

SIGINT drains gracefully: stop accepting, finish or interrupt in-flight
queries at their next cooperative budget checkpoint, flush a stats line.
";

/// `eprintln!` that ignores a failed write, so a closed stderr never
/// turns the run's exit status into a panic's (101).
macro_rules! errln {
    ($($arg:tt)*) => {{
        let _ = writeln!(io::stderr(), $($arg)*);
    }};
}

fn parse_config(args: &[String]) -> Result<ServeConfig, String> {
    let mut config = ServeConfig {
        addr: "127.0.0.1:7878".to_owned(),
        ..ServeConfig::default()
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut take = |name: &str| -> Result<String, String> {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--help" | "-h" => return Err(String::new()),
            "--addr" => config.addr = take("--addr")?,
            "--max-active" => {
                config.max_active = take("--max-active")?
                    .parse()
                    .map_err(|_| "bad --max-active")?;
                if config.max_active == 0 {
                    return Err("--max-active must be at least 1".to_owned());
                }
            }
            "--max-waiting" => {
                config.max_waiting = take("--max-waiting")?
                    .parse()
                    .map_err(|_| "bad --max-waiting")?;
            }
            "--mem-budget" => {
                let mb: u64 = take("--mem-budget")?
                    .parse()
                    .map_err(|_| "bad --mem-budget")?;
                config.mem_budget_bytes = mb.saturating_mul(1024 * 1024);
            }
            "--read-timeout" => {
                let secs: f64 = take("--read-timeout")?
                    .parse()
                    .map_err(|_| "bad --read-timeout")?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("--read-timeout must be positive seconds".to_owned());
                }
                config.read_timeout = Duration::from_secs_f64(secs);
            }
            "--retries" => {
                let attempts: u32 = take("--retries")?.parse().map_err(|_| "bad --retries")?;
                config.retry = RetryPolicy {
                    attempts: attempts.max(1),
                    ..RetryPolicy::default()
                };
            }
            "--threads" => {
                let threads: usize = take("--threads")?.parse().map_err(|_| "bad --threads")?;
                if threads == 0 {
                    return Err("--threads must be at least 1".to_owned());
                }
                config.threads_per_query = Some(threads);
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(config)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_config(&args) {
        Ok(config) => config,
        Err(message) if message.is_empty() => {
            // A reader that has gone (`eba-serve --help | head -1`) ends the
            // run with status 141, 128 + SIGPIPE, as for `eba-check`.
            let mut out = io::stdout().lock();
            return match out.write_all(HELP.as_bytes()).and_then(|()| out.flush()) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::from(141),
                Err(e) => {
                    errln!("error: cannot write to stdout: {e}");
                    ExitCode::from(2)
                }
            };
        }
        Err(message) => {
            errln!("error: {message}");
            errln!("run `eba-serve --help` for usage");
            return ExitCode::from(2);
        }
    };
    let server = match Server::bind(config) {
        Ok(server) => server,
        Err(e) => {
            errln!("error: bind failed: {e}");
            return ExitCode::from(1);
        }
    };
    match server.local_addr() {
        Ok(addr) => errln!("eba-serve listening on {addr}"),
        Err(_) => errln!("eba-serve listening"),
    }

    // Bridge SIGINT to the server's drain flag: the handler sets the
    // process-global flag, a watcher thread forwards it.
    let sigint = install_sigint();
    let drain = server.drain_flag();
    std::thread::spawn(move || loop {
        if sigint.load(Ordering::Relaxed) {
            drain.store(true, Ordering::Relaxed);
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    });

    let snapshot = server.run();
    errln!("{}", render_stats_line(&snapshot));
    ExitCode::SUCCESS
}
