//! Closed-loop and fixed-rate load generator for the serving tier;
//! emits `BENCH_server.json`.
//!
//! Starts an in-process `hrdm-server` over the Fig. 1 bootstrap world,
//! then drives it over real sockets with M concurrent [`Client`]s in
//! four phases:
//!
//! 1. **writes** — one client replays the deterministic serving write
//!    mix (snapshot publications through the single writer);
//! 2. **closed** — every client issues its next query the moment the
//!    previous reply lands (throughput-bound);
//! 3. **rate** — requests are released on a fixed schedule and latency
//!    is measured from the *scheduled* send time, so queueing delay
//!    under an offered load shows up in the percentiles.
//! 4. **pipeline** — a depth sweep: every client keeps `depth`
//!    requests in flight on one connection ([`Client::pipeline`]),
//!    measuring how request pipelining trades per-burst latency for
//!    throughput. Each sweep point reports total requests, burst
//!    round-trip percentiles, and throughput; the validator requires
//!    deep pipelining (depth >= 8) to beat depth 1 on throughput.
//!
//! Each phase reports throughput and exact (sorted-sample) p50/p95/p99
//! latency; the trailer reports the server-side counter deltas — the
//! same numbers the `METRICS`/`STATS` verbs export — so wire-level and
//! in-process accounting can be cross-checked. The `METRICS` and
//! `SLOWLOG` verbs themselves are driven once over the wire as part of
//! the run. `tools/validate_bench.py` gates the artifact against
//! `tests/golden/bench_server.schema.json`.
//!
//! Run with `cargo run -p hrdm-bench --release --bin loadgen`.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use hrdm_bench::fixtures::{
    clear_shared_caches, serving_bootstrap, serving_queries, serving_writes,
};
use hrdm_hql::Engine;
use hrdm_server::{Client, MetricsFormat, Reply, Request, Server, ServerConfig};

/// The pipelining sweep: depth 1 is the closed-loop baseline on the
/// same code path, the deeper points show the latency/throughput trade.
const PIPELINE_DEPTHS: [usize; 3] = [1, 8, 32];

struct Args {
    clients: usize,
    requests: usize,
    rate_rps: u64,
    slowlog_ms: u64,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        clients: 8,
        requests: 200,
        rate_rps: 400,
        slowlog_ms: 0,
        out: "BENCH_server.json".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--clients" => {
                args.clients = value("--clients")?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?
            }
            "--requests" => {
                args.requests = value("--requests")?
                    .parse()
                    .map_err(|e| format!("--requests: {e}"))?
            }
            "--rate" => {
                args.rate_rps = value("--rate")?
                    .parse()
                    .map_err(|e| format!("--rate: {e}"))?
            }
            "--slowlog-ms" => {
                args.slowlog_ms = value("--slowlog-ms")?
                    .parse()
                    .map_err(|e| format!("--slowlog-ms: {e}"))?
            }
            "--out" => args.out = value("--out")?,
            "--help" | "-h" => {
                return Err("usage: loadgen [--clients N] [--requests N] [--rate RPS] \
                     [--slowlog-ms N] [--out FILE]"
                    .into())
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.clients == 0 || args.requests == 0 || args.rate_rps == 0 {
        return Err("--clients, --requests and --rate must be positive".into());
    }
    Ok(args)
}

/// One phase's merged latency samples and wall clock.
struct Phase {
    name: &'static str,
    latencies_ns: Vec<u64>,
    errors: u64,
    wall: Duration,
}

impl Phase {
    fn new(name: &'static str, mut latencies_ns: Vec<u64>, errors: u64, wall: Duration) -> Phase {
        latencies_ns.sort_unstable();
        Phase {
            name,
            latencies_ns,
            errors,
            wall,
        }
    }

    fn requests(&self) -> u64 {
        self.latencies_ns.len() as u64
    }

    /// Exact percentile over the sorted samples (nearest-rank).
    fn percentile_ns(&self, q: f64) -> u64 {
        if self.latencies_ns.is_empty() {
            return 0;
        }
        let rank = ((q * (self.latencies_ns.len() - 1) as f64).round()) as usize;
        self.latencies_ns[rank.min(self.latencies_ns.len() - 1)]
    }

    fn throughput_rps(&self) -> f64 {
        self.requests() as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"requests\": {}, \"errors\": {}, \"wall_ns\": {}, \"throughput_rps\": {:.2}, \
             \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}}}",
            self.requests(),
            self.errors,
            self.wall.as_nanos(),
            self.throughput_rps(),
            self.percentile_ns(0.50),
            self.percentile_ns(0.95),
            self.percentile_ns(0.99),
        )
    }
}

fn expect_ok(reply: &Reply, what: &str) {
    assert!(reply.is_ok(), "{what} must succeed, got {reply:?}");
}

/// One point of the pipelining depth sweep. Latency samples are
/// per-*burst* round-trips (send `depth` requests, read `depth`
/// replies), so the depth-1 point is directly comparable to the closed
/// phase while deeper points measure the amortized batch.
struct PipelinePoint {
    depth: usize,
    requests: u64,
    errors: u64,
    burst_ns: Vec<u64>,
    wall: Duration,
}

impl PipelinePoint {
    fn percentile_ns(&self, q: f64) -> u64 {
        if self.burst_ns.is_empty() {
            return 0;
        }
        let rank = ((q * (self.burst_ns.len() - 1) as f64).round()) as usize;
        self.burst_ns[rank.min(self.burst_ns.len() - 1)]
    }

    fn throughput_rps(&self) -> f64 {
        self.requests as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"depth\": {}, \"requests\": {}, \"errors\": {}, \"wall_ns\": {}, \
             \"throughput_rps\": {:.2}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}}}",
            self.depth,
            self.requests,
            self.errors,
            self.wall.as_nanos(),
            self.throughput_rps(),
            self.percentile_ns(0.50),
            self.percentile_ns(0.95),
            self.percentile_ns(0.99),
        )
    }
}

/// Phase 4 (one sweep point): M clients, each keeping `depth` requests
/// in flight on a single connection.
fn run_pipeline(
    addr: std::net::SocketAddr,
    clients: usize,
    requests: usize,
    depth: usize,
) -> PipelinePoint {
    let queries = serving_queries();
    let bursts = requests.div_ceil(depth);
    let started = Instant::now();
    let per_client: Vec<Vec<u64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let queries = &queries;
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("client connects");
                    let mut burst_ns = Vec::with_capacity(bursts);
                    for b in 0..bursts {
                        let burst: Vec<Request> = (0..depth)
                            .map(|k| {
                                Request::Query(
                                    queries[(c + b * depth + k) % queries.len()].to_string(),
                                )
                            })
                            .collect();
                        let t = Instant::now();
                        let replies = client.pipeline(&burst).expect("burst round-trips");
                        burst_ns.push(t.elapsed().as_nanos() as u64);
                        assert_eq!(replies.len(), depth, "a reply per request, in order");
                        for (reply, request) in replies.iter().zip(&burst) {
                            expect_ok(reply, &request.render());
                        }
                    }
                    client.quit().expect("client quits");
                    burst_ns
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panics"))
            .collect()
    });
    let wall = started.elapsed();
    let mut burst_ns = per_client.concat();
    burst_ns.sort_unstable();
    PipelinePoint {
        depth,
        requests: (clients * bursts * depth) as u64,
        errors: 0,
        burst_ns,
        wall,
    }
}

/// Phase 1: replay the serving write mix through one connection.
fn run_writes(addr: std::net::SocketAddr) -> Phase {
    let mut client = Client::connect(addr).expect("writer connects");
    let writes = serving_writes();
    let mut latencies = Vec::with_capacity(writes.len());
    let started = Instant::now();
    for script in &writes {
        let t = Instant::now();
        let reply = client.query(script).expect("write round-trips");
        expect_ok(&reply, script);
        latencies.push(t.elapsed().as_nanos() as u64);
    }
    let wall = started.elapsed();
    client.quit().expect("writer quits");
    Phase::new("writes", latencies, 0, wall)
}

/// Phase 2: M clients in closed loop, each issuing its next query as
/// soon as the previous reply lands.
fn run_closed(addr: std::net::SocketAddr, clients: usize, requests: usize) -> Phase {
    let queries = serving_queries();
    let started = Instant::now();
    let per_client: Vec<Vec<u64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let queries = &queries;
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("client connects");
                    let mut latencies = Vec::with_capacity(requests);
                    for k in 0..requests {
                        let script = queries[(c + k) % queries.len()];
                        let t = Instant::now();
                        let reply = client.query(script).expect("query round-trips");
                        expect_ok(&reply, script);
                        latencies.push(t.elapsed().as_nanos() as u64);
                    }
                    client.quit().expect("client quits");
                    latencies
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panics"))
            .collect()
    });
    let wall = started.elapsed();
    Phase::new("closed", per_client.concat(), 0, wall)
}

/// Phase 3: requests released on a fixed schedule, latency measured
/// from the scheduled release time (queueing delay included).
fn run_rate(addr: std::net::SocketAddr, clients: usize, requests: usize, rate_rps: u64) -> Phase {
    let queries = serving_queries();
    // Each client owns an even slice of the offered rate.
    let per_client_interval = Duration::from_secs_f64(clients as f64 / rate_rps as f64);
    let started = Instant::now();
    let per_client: Vec<Vec<u64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let queries = &queries;
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("client connects");
                    // Stagger client start offsets across one interval
                    // so the aggregate arrival process is smooth.
                    let base =
                        Instant::now() + per_client_interval.mul_f64(c as f64 / clients as f64);
                    let mut latencies = Vec::with_capacity(requests);
                    for k in 0..requests {
                        let scheduled = base + per_client_interval.mul_f64(k as f64);
                        if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let script = queries[(c + k) % queries.len()];
                        let reply = client.query(script).expect("query round-trips");
                        expect_ok(&reply, script);
                        latencies.push(scheduled.elapsed().as_nanos() as u64);
                    }
                    client.quit().expect("client quits");
                    latencies
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panics"))
            .collect()
    });
    let wall = started.elapsed();
    Phase::new("rate", per_client.concat(), 0, wall)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    clear_shared_caches();

    let engine = Engine::new();
    engine.execute(serving_bootstrap()).expect("bootstrap runs");
    let handle = Server::start(
        // Engine handles share state, so the loadgen keeps one to read
        // the final epoch out-of-band.
        engine.clone(),
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            max_connections: args.clients + 4,
            read_timeout: Duration::from_secs(30),
            slowlog_threshold: Duration::from_millis(args.slowlog_ms),
            ..ServerConfig::default()
        },
    )
    .expect("server binds");
    let addr = handle.addr();
    println!(
        "loadgen: {} clients x {} requests against {addr} (rate phase at {} rps)",
        args.clients, args.requests, args.rate_rps
    );

    let writes = run_writes(addr);
    let closed = run_closed(addr, args.clients, args.requests);
    let rate = run_rate(addr, args.clients, args.requests, args.rate_rps);
    let pipeline: Vec<PipelinePoint> = PIPELINE_DEPTHS
        .iter()
        .map(|&depth| run_pipeline(addr, args.clients, args.requests, depth))
        .collect();

    // Drive the telemetry verbs over the wire as part of the workload:
    // obs builds must serve them, obs-off builds must refuse them with
    // the stable `unsupported` kind.
    let mut probe = Client::connect(addr).expect("probe connects");
    let slowlog_wire_entries = {
        let metrics_prom = probe
            .metrics(MetricsFormat::Prometheus)
            .expect("METRICS PROM");
        let metrics_json = probe.metrics(MetricsFormat::Json).expect("METRICS JSON");
        let slowlog = probe.slowlog(Some(10)).expect("SLOWLOG");
        if cfg!(feature = "obs") {
            expect_ok(&metrics_prom, "METRICS PROM");
            expect_ok(&metrics_json, "METRICS JSON");
            match &slowlog {
                Reply::Ok(parts) => parts.len() as u64,
                other => panic!("SLOWLOG must succeed, got {other:?}"),
            }
        } else {
            for (reply, what) in [
                (&metrics_prom, "METRICS PROM"),
                (&metrics_json, "METRICS JSON"),
                (&slowlog, "SLOWLOG"),
            ] {
                match reply {
                    Reply::Err { kind, .. } if kind == "unsupported" => {}
                    other => panic!("{what} must be ERR unsupported without obs, got {other:?}"),
                }
            }
            0
        }
    };
    probe.quit().expect("probe quits");

    let stats = handle.stats();
    println!(
        "\n{:>7} {:>9} {:>7} {:>12} {:>11} {:>11} {:>11}",
        "phase", "requests", "errors", "rps", "p50", "p95", "p99"
    );
    for p in [&writes, &closed, &rate] {
        println!(
            "{:>7} {:>9} {:>7} {:>12.1} {:>11} {:>11} {:>11}",
            p.name,
            p.requests(),
            p.errors,
            p.throughput_rps(),
            hrdm_obs::trace::fmt_ns(p.percentile_ns(0.50)),
            hrdm_obs::trace::fmt_ns(p.percentile_ns(0.95)),
            hrdm_obs::trace::fmt_ns(p.percentile_ns(0.99)),
        );
    }
    for p in &pipeline {
        println!(
            "{:>7} {:>9} {:>7} {:>12.1} {:>11} {:>11} {:>11}",
            format!("pipe@{}", p.depth),
            p.requests,
            p.errors,
            p.throughput_rps(),
            hrdm_obs::trace::fmt_ns(p.percentile_ns(0.50)),
            hrdm_obs::trace::fmt_ns(p.percentile_ns(0.95)),
            hrdm_obs::trace::fmt_ns(p.percentile_ns(0.99)),
        );
    }
    println!(
        "\nserver: {} queries, {} bytes in, {} bytes out, {} slowlog entries over the wire",
        stats.queries.load(Ordering::Relaxed),
        stats.bytes_in.load(Ordering::Relaxed),
        stats.bytes_out.load(Ordering::Relaxed),
        slowlog_wire_entries,
    );

    let mut json = String::from("{\n  \"schema_version\": 1,\n  \"label\": \"server\",\n");
    json.push_str(&format!(
        "  \"config\": {{\"clients\": {}, \"requests_per_client\": {}, \"rate_rps\": {}, \
         \"slowlog_ms\": {}, \"obs\": {}}},\n",
        args.clients,
        args.requests,
        args.rate_rps,
        args.slowlog_ms,
        cfg!(feature = "obs"),
    ));
    json.push_str("  \"phases\": {\n");
    let phases = [&writes, &closed, &rate];
    for (k, p) in phases.iter().enumerate() {
        json.push_str(&format!(
            "    \"{}\": {}{}\n",
            p.name,
            p.to_json(),
            if k + 1 < phases.len() { "," } else { "" }
        ));
    }
    json.push_str("  },\n");
    json.push_str("  \"pipeline\": [\n");
    for (k, p) in pipeline.iter().enumerate() {
        json.push_str(&format!(
            "    {}{}\n",
            p.to_json(),
            if k + 1 < pipeline.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"server\": {{\"queries\": {}, \"errors\": {}, \"busy_rejected\": {}, \
         \"timeouts\": {}, \"protocol_errors\": {}, \"bytes_in\": {}, \"bytes_out\": {}, \
         \"epoch\": {}, \"slowlog_entries\": {}}}\n",
        stats.queries.load(Ordering::Relaxed),
        stats.errors.load(Ordering::Relaxed),
        stats.busy_rejected.load(Ordering::Relaxed),
        stats.timeouts.load(Ordering::Relaxed),
        stats.protocol_errors.load(Ordering::Relaxed),
        stats.bytes_in.load(Ordering::Relaxed),
        stats.bytes_out.load(Ordering::Relaxed),
        engine.epoch(),
        slowlog_wire_entries,
    ));
    json.push_str("}\n");
    std::fs::write(&args.out, &json).unwrap_or_else(|e| panic!("write {}: {e}", args.out));
    println!("wrote {}", args.out);

    handle.shutdown();
}
