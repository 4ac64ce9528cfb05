//! `hrdm-serve` — serve an hrdm engine over TCP.
//!
//! ```text
//! hrdm-serve [--addr HOST:PORT] [--store DIR] [--bootstrap FILE]
//!            [--max-conn N] [--timeout-ms N]
//!            [--slowlog-ms N] [--slowlog-cap N]
//!            [--workers N] [--backpressure-depth N]
//! ```
//!
//! * `--addr` — address to bind (default `127.0.0.1:7878`; port 0
//!   picks a free port, printed on stdout).
//! * `--store DIR` — `OPEN` a durable store before serving: recovery
//!   replays the WAL, and every mutating statement journals through it.
//! * `--bootstrap FILE` — execute an HQL script before serving (after
//!   `--store`, so the bootstrap is journaled).
//! * `--max-conn N` — admission cap; excess connections get `BUSY`.
//! * `--timeout-ms N` — per-connection read timeout.
//! * `--slowlog-ms N` — requests at least this slow are captured (with
//!   their trace trees) into the slow-query log served by `SLOWLOG`
//!   (default 100; `0` captures everything).
//! * `--slowlog-cap N` — keep the N slowest requests (default 32).
//! * `--workers N` — query-execution worker threads (default 0 =
//!   sized from the machine's available parallelism).
//! * `--backpressure-depth N` — shed mutating scripts with `BUSY`
//!   while the engine's writer queue is at least N deep (default 0 =
//!   disabled; reads are never shed).
//!
//! The process runs until a client sends the `SHUTDOWN` verb (or the
//! process receives a fatal signal); shutdown is graceful — in-flight
//! requests finish and every connection thread is joined.

use std::process::ExitCode;
use std::time::Duration;

use hrdm::prelude::Engine;
use hrdm_server::{Server, ServerConfig};

struct Args {
    addr: String,
    store: Option<String>,
    bootstrap: Option<String>,
    max_conn: usize,
    timeout_ms: u64,
    slowlog_ms: u64,
    slowlog_cap: usize,
    workers: usize,
    backpressure_depth: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7878".into(),
        store: None,
        bootstrap: None,
        max_conn: 64,
        timeout_ms: 30_000,
        slowlog_ms: 100,
        slowlog_cap: 32,
        workers: 0,
        backpressure_depth: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--store" => args.store = Some(value("--store")?),
            "--bootstrap" => args.bootstrap = Some(value("--bootstrap")?),
            "--max-conn" => {
                args.max_conn = value("--max-conn")?
                    .parse()
                    .map_err(|e| format!("--max-conn: {e}"))?
            }
            "--timeout-ms" => {
                args.timeout_ms = value("--timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--timeout-ms: {e}"))?
            }
            "--slowlog-ms" => {
                args.slowlog_ms = value("--slowlog-ms")?
                    .parse()
                    .map_err(|e| format!("--slowlog-ms: {e}"))?
            }
            "--slowlog-cap" => {
                args.slowlog_cap = value("--slowlog-cap")?
                    .parse()
                    .map_err(|e| format!("--slowlog-cap: {e}"))?
            }
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--backpressure-depth" => {
                args.backpressure_depth = value("--backpressure-depth")?
                    .parse()
                    .map_err(|e| format!("--backpressure-depth: {e}"))?
            }
            "--help" | "-h" => {
                return Err("usage: hrdm-serve [--addr HOST:PORT] [--store DIR] \
                     [--bootstrap FILE] [--max-conn N] [--timeout-ms N] \
                     [--slowlog-ms N] [--slowlog-cap N] [--workers N] \
                     [--backpressure-depth N]"
                    .into())
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let engine = Engine::new();
    if let Some(dir) = &args.store {
        match engine.execute(&format!("OPEN \"{dir}\";")) {
            Ok(responses) => {
                for r in responses {
                    println!("{r}");
                }
            }
            Err(e) => {
                eprintln!("cannot open store {dir}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = &args.bootstrap {
        let script = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read bootstrap {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = engine.execute(&script) {
            eprintln!("bootstrap failed: {e}");
            return ExitCode::FAILURE;
        }
        println!("bootstrap {path} executed (epoch {})", engine.epoch());
    }
    let config = ServerConfig {
        addr: args.addr,
        max_connections: args.max_conn,
        read_timeout: Duration::from_millis(args.timeout_ms),
        slowlog_threshold: Duration::from_millis(args.slowlog_ms),
        slowlog_capacity: args.slowlog_cap.max(1),
        workers: args.workers,
        backpressure_depth: args.backpressure_depth,
        ..ServerConfig::default()
    };
    let handle = match Server::start(engine, config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {}", handle.addr());
    handle.wait();
    println!("shut down cleanly");
    ExitCode::SUCCESS
}
