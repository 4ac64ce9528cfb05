//! Integration tests over a real socket: handshake, query round-trips
//! (byte-identical to an embedded session), stable error kinds on the
//! wire, admission control (`BUSY`), read timeouts, protocol errors,
//! `STATS`, and graceful shutdown.

use std::net::TcpStream;
use std::time::Duration;

use hrdm::prelude::Engine;
use hrdm_server::proto::{read_frame, write_frame, PROTOCOL_VERSION};
use hrdm_server::{Client, Reply, Request, Server, ServerConfig, ServerHandle};

fn start_with(config: ServerConfig) -> ServerHandle {
    Server::start(Engine::new(), config).expect("bind 127.0.0.1:0")
}

fn start(max_connections: usize, read_timeout: Duration) -> ServerHandle {
    start_with(ServerConfig {
        addr: "127.0.0.1:0".into(),
        max_connections,
        read_timeout,
        ..ServerConfig::default()
    })
}

#[test]
fn queries_over_the_wire_are_byte_identical_to_an_embedded_session() {
    let handle = start(8, Duration::from_secs(5));
    let script = "CREATE DOMAIN Animal; \
                  CREATE CLASS Bird UNDER Animal; \
                  CREATE INSTANCE Tweety OF Bird; \
                  CREATE RELATION Flies (Creature: Animal); \
                  ASSERT Flies (ALL Bird); \
                  HOLDS Flies (Tweety); \
                  SHOW Flies; \
                  COUNT Flies;";
    let session = Engine::new();
    let expected: Vec<String> = session
        .execute(script)
        .unwrap()
        .iter()
        .map(ToString::to_string)
        .collect();

    let mut client = Client::connect(handle.addr()).unwrap();
    let reply = client.query(script).unwrap();
    assert_eq!(
        reply,
        Reply::Ok(expected),
        "wire == embedded, byte for byte"
    );

    // A second statement batch sees the first batch's state.
    let reply = client.query("HOLDS Flies (Tweety);").unwrap();
    let expected: Vec<String> = session
        .execute("HOLDS Flies (Tweety);")
        .unwrap()
        .iter()
        .map(ToString::to_string)
        .collect();
    assert_eq!(reply, Reply::Ok(expected));
    client.quit().unwrap();
    handle.shutdown();
}

#[test]
fn error_kinds_travel_verbatim_on_the_wire() {
    let handle = start(8, Duration::from_secs(5));
    let mut client = Client::connect(handle.addr()).unwrap();
    for (script, kind) in [
        ("HOLDS", "parse"),
        ("SHOW Nope;", "unknown"),
        ("CHECKPOINT;", "execution"),
        ("LOAD \"/no/such/file.hrdm\";", "io"),
    ] {
        match client.query(script).unwrap() {
            Reply::Err { kind: k, .. } => assert_eq!(k, kind, "kind for {script:?}"),
            other => panic!("expected ERR {kind} for {script:?}, got {other:?}"),
        }
    }
    // Atomicity is per statement: the failing statement publishes
    // nothing, but the statements before it in the batch do.
    let reply = client.query("CREATE DOMAIN D; SHOW Nope;").unwrap();
    assert!(!reply.is_ok());
    match client.query("CREATE DOMAIN D;").unwrap() {
        Reply::Err { kind, .. } => assert_eq!(kind, "duplicate", "prefix was published"),
        other => panic!("D must already exist from the batch prefix: {other:?}"),
    }
    client.quit().unwrap();
    handle.shutdown();
}

#[test]
fn trace_replies_carry_the_span_tree() {
    let handle = start(8, Duration::from_secs(5));
    let mut client = Client::connect(handle.addr()).unwrap();
    client
        .query("CREATE DOMAIN D; CREATE RELATION R (A: D);")
        .unwrap();
    match client.trace("CHECK R;").unwrap() {
        Reply::Ok(parts) => {
            assert!(parts.len() >= 2, "response parts plus the trace");
            assert!(
                parts.last().unwrap().contains("server.query"),
                "trace names the root span: {:?}",
                parts.last().unwrap()
            );
        }
        other => panic!("expected OK, got {other:?}"),
    }
    client.quit().unwrap();
    handle.shutdown();
}

#[test]
fn stats_report_epoch_and_counters() {
    let handle = start(8, Duration::from_secs(5));
    let mut client = Client::connect(handle.addr()).unwrap();
    client.query("CREATE DOMAIN D;").unwrap();
    match client.stats().unwrap() {
        Reply::Ok(parts) => {
            let body = parts.join("\n");
            assert!(body.contains("epoch: 1"), "one write published: {body}");
            assert!(body.contains("queries: 1"), "{body}");
            assert!(body.contains("active: 1"), "{body}");
            // The enriched telemetry lines are always present (they
            // come from per-server atomics, not the metrics registry).
            for line in [
                "timeouts: ",
                "protocol-errors: ",
                "bytes-in: ",
                "bytes-out: ",
                "slowlog-entries: ",
                "slowlog-threshold-ms: ",
            ] {
                assert!(body.contains(line), "missing {line:?} in {body}");
            }
            // Both directions of the wire have moved bytes by now.
            let field = |name: &str| -> u64 {
                body.lines()
                    .find_map(|l| l.strip_prefix(name))
                    .unwrap_or_else(|| panic!("no {name:?} line in {body}"))
                    .trim()
                    .parse()
                    .expect("numeric stats field")
            };
            assert!(field("bytes-in:") > 0, "{body}");
            assert!(field("bytes-out:") > 0, "{body}");
            // `epoch:` stays the first line (`Client::last_epoch` reads
            // it there); where requests ran comes last. The one QUERY
            // was a write, so a worker ran it.
            assert!(body.starts_with("epoch: "), "{body}");
            assert!(body.ends_with("inline-reads: 0\ndispatched: 1"), "{body}");
        }
        other => panic!("expected OK, got {other:?}"),
    }
    client.quit().unwrap();
    handle.shutdown();
}

#[test]
fn stats_report_the_open_stores_lsns() {
    let handle = start(8, Duration::from_secs(5));
    let mut client = Client::connect(handle.addr()).unwrap();
    let stats = |client: &mut Client| match client.stats().unwrap() {
        Reply::Ok(parts) => parts.join("\n"),
        other => panic!("expected OK, got {other:?}"),
    };
    assert!(!stats(&mut client).contains("lsn"), "no store open yet");
    let dir = std::env::temp_dir().join(format!("hrdm_stats_lsns_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let script = format!(
        "OPEN \"{}\" SYNC EVERY 1; CREATE DOMAIN D; CREATE CLASS A UNDER D;",
        dir.display()
    );
    assert!(matches!(client.query(&script).unwrap(), Reply::Ok(_)));
    // SYNC EVERY 1: every acknowledged write is durable. The LSNs sit
    // under the epoch line, and where requests ran still comes last.
    let body = stats(&mut client);
    assert!(
        body.starts_with("epoch: 3\njournal-lsn: 2\ndurable-lsn: 2\naccepted: "),
        "{body}"
    );
    assert!(body.ends_with("inline-reads: 0\ndispatched: 1"), "{body}");
    client.quit().unwrap();
    handle.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn connections_past_the_cap_get_busy() {
    let handle = start(1, Duration::from_secs(5));
    let first = Client::connect(handle.addr()).unwrap();
    // The admitted connection holds the only slot, so the next
    // connection is turned away with BUSY at the handshake.
    let err = Client::connect(handle.addr()).expect_err("second client must be rejected");
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
    assert!(err.to_string().contains("busy"), "{err}");
    assert_eq!(
        handle
            .stats()
            .busy_rejected
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    // Once the slot frees, new connections are admitted again.
    first.quit().unwrap();
    let mut admitted = None;
    for _ in 0..100 {
        match Client::connect(handle.addr()) {
            Ok(c) => {
                admitted = Some(c);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    let client = admitted.expect("slot frees after QUIT");
    client.quit().unwrap();
    handle.shutdown();
}

#[test]
fn idle_connections_time_out_with_a_stable_kind() {
    let handle = start(8, Duration::from_millis(200));
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    write_frame(&mut stream, &Request::Hello.render()).unwrap();
    let greeting = read_frame(&mut stream).unwrap().unwrap();
    assert_eq!(
        Reply::parse(&greeting).unwrap(),
        Reply::Ok(vec![PROTOCOL_VERSION.into()])
    );
    // Say nothing; the server must give up and tell us why.
    std::thread::sleep(Duration::from_millis(600));
    let frame = read_frame(&mut stream).unwrap().expect("timeout reply");
    match Reply::parse(&frame).unwrap() {
        Reply::Err { kind, .. } => assert_eq!(kind, "timeout"),
        other => panic!("expected ERR timeout, got {other:?}"),
    }
    assert_eq!(
        read_frame(&mut stream).unwrap(),
        None,
        "then the connection closes"
    );
    assert_eq!(
        handle
            .stats()
            .timeouts
            .load(std::sync::atomic::Ordering::Relaxed),
        1,
        "the timeout is counted"
    );
    handle.shutdown();
}

#[test]
fn requests_before_hello_are_protocol_errors_that_close_the_connection() {
    let handle = start(8, Duration::from_secs(5));
    let mut client = Client::connect_raw(handle.addr()).unwrap();
    match client.send_raw("QUERY\nSHOW Flies;").unwrap() {
        Reply::Err { kind, message } => {
            assert_eq!(kind, "protocol");
            assert!(message.contains("HELLO"), "{message}");
        }
        other => panic!("expected ERR protocol, got {other:?}"),
    }
    let err = client.send_raw("HELLO").expect_err("connection is closed");
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::UnexpectedEof
                | std::io::ErrorKind::BrokenPipe
                | std::io::ErrorKind::ConnectionReset
        ),
        "{err}"
    );
    handle.shutdown();
}

#[test]
fn unknown_verbs_are_protocol_errors_but_keep_the_connection() {
    let handle = start(8, Duration::from_secs(5));
    let mut client = Client::connect(handle.addr()).unwrap();
    match client.send_raw("EXPLODE\nnow").unwrap() {
        Reply::Err { kind, .. } => assert_eq!(kind, "protocol"),
        other => panic!("expected ERR protocol, got {other:?}"),
    }
    // Still greeted, still serving.
    assert!(client.query("CREATE DOMAIN D;").unwrap().is_ok());
    assert!(
        handle
            .stats()
            .protocol_errors
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1,
        "the protocol error is counted"
    );
    client.quit().unwrap();
    handle.shutdown();
}

/// Pull one counter's value out of the `METRICS JSON` body without a
/// JSON parser: the exporter's layout is stable
/// (`"name":{"type":"counter","value":N}`).
fn json_counter(body: &str, name: &str) -> u64 {
    let needle = format!("\"{name}\":{{\"type\":\"counter\",\"value\":");
    let at = body
        .find(&needle)
        .unwrap_or_else(|| panic!("no counter {name:?} in {body}"));
    body[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("counter value")
}

/// The acceptance criterion for the serving tier: `METRICS` output
/// reflects the requests actually served — counters visibly increase
/// across a scripted session. The registry is process-global and other
/// tests run in parallel, so assertions are monotone (`after >= before
/// + n`), never exact.
#[test]
fn metrics_over_the_wire_reflect_requests_actually_served() {
    use hrdm_server::MetricsFormat;

    let handle = start(8, Duration::from_secs(5));
    let mut client = Client::connect(handle.addr()).unwrap();
    let before = match client.metrics(MetricsFormat::Json).unwrap() {
        Reply::Ok(parts) => parts.join(""),
        other => panic!("expected OK, got {other:?}"),
    };
    assert!(before.contains("\"label\":\"server\""), "{before}");
    assert!(client.query("CREATE DOMAIN MetricsD;").unwrap().is_ok());
    assert!(client
        .query("CREATE CLASS MetricsC UNDER MetricsD;")
        .unwrap()
        .is_ok());
    client.stats().unwrap();
    let after = match client.metrics(MetricsFormat::Json).unwrap() {
        Reply::Ok(parts) => parts.join(""),
        other => panic!("expected OK, got {other:?}"),
    };
    // Between the two scrapes this session issued 2 QUERYs, a STATS,
    // and the second METRICS itself: at least 4 more requests, at
    // least 2 more queries.
    assert!(
        json_counter(&after, "server.requests") >= json_counter(&before, "server.requests") + 4,
        "requests must advance: {before} -> {after}"
    );
    assert!(
        json_counter(&after, "server.query") >= json_counter(&before, "server.query") + 2,
        "queries must advance: {before} -> {after}"
    );
    assert!(
        json_counter(&after, "server.bytes_in") > json_counter(&before, "server.bytes_in"),
        "bytes flowed in"
    );

    // The Prometheus variant of the same registry, with exposition
    // metadata for every series.
    let prom = match client.metrics(MetricsFormat::Prometheus).unwrap() {
        Reply::Ok(parts) => parts.join(""),
        other => panic!("expected OK, got {other:?}"),
    };
    assert!(
        prom.contains("# TYPE hrdm_server_requests counter"),
        "{prom}"
    );
    assert!(prom.contains("# HELP hrdm_server_requests "), "{prom}");
    assert!(
        prom.contains("# TYPE hrdm_server_latency_query summary"),
        "per-verb latency series present: {prom}"
    );
    client.quit().unwrap();
    handle.shutdown();
}

#[test]
fn slowlog_captures_slow_requests_with_their_trace_trees() {
    let handle = start_with(ServerConfig {
        addr: "127.0.0.1:0".into(),
        // Threshold zero: every request qualifies as slow.
        slowlog_threshold: Duration::ZERO,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(handle.addr()).unwrap();
    let marker = "SlowlogMarkerDomain";
    client.query(&format!("CREATE DOMAIN {marker};")).unwrap();
    let parts = match client.slowlog(None).unwrap() {
        Reply::Ok(parts) => parts,
        other => panic!("expected OK, got {other:?}"),
    };
    let mine = parts
        .iter()
        .find(|p| p.contains(marker))
        .unwrap_or_else(|| panic!("no slowlog entry mentions {marker}: {parts:?}"));
    assert!(mine.contains("QUERY"), "verb recorded: {mine}");
    assert!(mine.contains("epoch="), "epoch recorded: {mine}");
    assert!(
        mine.contains("server.query"),
        "the rendered trace tree rides along: {mine}"
    );
    // A limit of zero is honoured.
    assert_eq!(client.slowlog(Some(0)).unwrap(), Reply::Ok(vec![]));
    client.quit().unwrap();
    handle.shutdown();
}

/// Each server owns its slow log: a second server in the process
/// neither resizes the first's log nor shows up in it.
#[test]
fn two_servers_keep_separate_slowlogs() {
    let start_capped = |slowlog_capacity| {
        start_with(ServerConfig {
            addr: "127.0.0.1:0".into(),
            slowlog_threshold: Duration::ZERO,
            slowlog_capacity,
            ..ServerConfig::default()
        })
    };
    let listed = |client: &mut Client| match client.slowlog(None).unwrap() {
        Reply::Ok(parts) => parts,
        other => panic!("expected OK, got {other:?}"),
    };
    let entries_line = |client: &mut Client| match client.stats().unwrap() {
        Reply::Ok(parts) => parts[0]
            .lines()
            .find(|l| l.starts_with("slowlog-entries: "))
            .expect("STATS reports slowlog-entries")
            .to_string(),
        other => panic!("expected OK, got {other:?}"),
    };

    let first = start_capped(4);
    let mut to_first = Client::connect(first.addr()).unwrap();
    for k in 0..3 {
        to_first.query(&format!("CREATE DOMAIN First{k};")).unwrap();
    }
    let second = start_capped(1);
    let mut to_second = Client::connect(second.addr()).unwrap();
    for k in 0..2 {
        to_second
            .query(&format!("CREATE DOMAIN Second{k};"))
            .unwrap();
    }
    to_first.query("CREATE DOMAIN First3;").unwrap();

    let (a, b) = (listed(&mut to_first), listed(&mut to_second));
    assert_eq!(a.len(), 4, "the first server keeps capacity 4: {a:?}");
    assert!(a
        .iter()
        .all(|e| e.contains("First") && !e.contains("Second")));
    assert_eq!(b.len(), 1, "the second server keeps capacity 1: {b:?}");
    assert!(b[0].contains("Second") && !b[0].contains("First"));
    assert_eq!(entries_line(&mut to_first), "slowlog-entries: 4");
    assert_eq!(entries_line(&mut to_second), "slowlog-entries: 1");

    to_first.quit().unwrap();
    to_second.quit().unwrap();
    first.shutdown();
    second.shutdown();
}

#[test]
fn the_shutdown_verb_unblocks_wait() {
    let handle = start(8, Duration::from_secs(5));
    let addr = handle.addr();
    let waiter = std::thread::spawn(move || handle.wait());
    let mut client = Client::connect(addr).unwrap();
    match client.shutdown_server().unwrap() {
        Reply::Ok(parts) => assert_eq!(parts, vec!["shutting down".to_string()]),
        other => panic!("expected OK, got {other:?}"),
    }
    drop(client);
    waiter.join().expect("wait() returns after SHUTDOWN");
}
