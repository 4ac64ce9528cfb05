//! Pipelining parity: a burst of K requests in flight on one
//! connection must answer **byte-identically** to the same K scripts
//! executed sequentially on an embedded engine — same replies, same
//! order, reads observing every earlier write in the burst
//! (read-your-writes survives the worker handoff and the tick-shared
//! snapshots). Point-read scripts are answered on the loop thread and
//! everything else on a worker, so the bursts here cross that boundary
//! in both directions; `ServerHandle::stats` says which side ran what.

use std::sync::atomic::Ordering;
use std::time::Duration;

mod common;

use common::{serial_reply, serving_bootstrap};
use hrdm::prelude::Engine;
use hrdm_server::{Client, Reply, Request, Server, ServerConfig};

/// A deliberately stateful burst against the Fig. 1 serving world:
/// writes interleaved with reads that only answer correctly if they
/// observe the writes earlier in the same burst, plus a script that
/// errors (unknown instance) so `ERR` replies are byte-checked too.
fn burst() -> Vec<String> {
    vec![
        "SHOW Flies;".into(),
        "CREATE INSTANCE P0 OF Penguin;".into(),
        "HOLDS Flies (P0);".into(),
        "ASSERT Flies (P0);".into(),
        "HOLDS Flies (P0);".into(),
        "COUNT Flies;".into(),
        "HOLDS Flies (NoSuchCreature);".into(),
        "CREATE INSTANCE P1 OF \"Amazing Flying Penguin\";".into(),
        "HOLDS Flies (P1);".into(),
        "COUNT Flies;".into(),
        "CHECK Flies;".into(),
        "COUNT Flies BY Creature;".into(),
        "SHOW Flies;".into(),
    ]
}

fn start_server() -> hrdm_server::ServerHandle {
    let engine = Engine::new();
    engine.execute(serving_bootstrap()).unwrap();
    Server::start(
        engine,
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            read_timeout: Duration::from_secs(10),
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

fn as_requests(scripts: &[String]) -> Vec<Request> {
    scripts.iter().map(|s| Request::Query(s.clone())).collect()
}

#[test]
fn a_pipelined_burst_matches_sequential_embedded_execution() {
    let scripts = burst();
    // Reference: the same scripts, in order, on an embedded engine.
    let reference = Engine::new();
    reference.execute(serving_bootstrap()).unwrap();
    let expected: Vec<Reply> = scripts
        .iter()
        .map(|s| serial_reply(&reference, s))
        .collect();

    let handle = start_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    let replies = client.pipeline(&as_requests(&scripts)).unwrap();

    assert_eq!(replies.len(), expected.len());
    for (k, (got, want)) in replies.iter().zip(&expected).enumerate() {
        assert_eq!(
            got, want,
            "pipelined reply {k} to {:?} diverged from sequential execution",
            scripts[k]
        );
    }
    client.quit().unwrap();
    handle.shutdown();
}

#[test]
fn pipelined_and_sequential_connections_answer_identically() {
    let scripts = burst();

    // One server, one burst down a pipelined connection.
    let handle = start_server();
    let mut pipelined = Client::connect(handle.addr()).unwrap();
    let piped = pipelined.pipeline(&as_requests(&scripts)).unwrap();
    pipelined.quit().unwrap();
    handle.shutdown();

    // A fresh identical server, same scripts one round-trip at a time.
    let handle = start_server();
    let mut sequential = Client::connect(handle.addr()).unwrap();
    let mut serial = Vec::new();
    for s in &scripts {
        serial.push(sequential.query(s).unwrap());
    }
    sequential.quit().unwrap();
    handle.shutdown();

    assert_eq!(piped, serial, "pipelining changed observable replies");
}

/// Pipelined bursts repeated back-to-back on a single connection keep
/// their in-order, read-your-writes guarantees across bursts, and the
/// server's query/error counters see every request exactly once.
#[test]
fn repeated_bursts_on_one_connection_stay_ordered() {
    let reference = Engine::new();
    reference.execute(serving_bootstrap()).unwrap();

    let handle = start_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    let mut sent = 0u64;
    for round in 0..8 {
        let scripts: Vec<String> = vec![
            format!("CREATE INSTANCE R{round} OF Canary;"),
            format!("HOLDS Flies (R{round});"),
            "COUNT Flies;".into(),
        ];
        let expected: Vec<Reply> = scripts
            .iter()
            .map(|s| serial_reply(&reference, s))
            .collect();
        let replies = client.pipeline(&as_requests(&scripts)).unwrap();
        assert_eq!(replies, expected, "round {round} diverged");
        sent += scripts.len() as u64;
    }
    client.quit().unwrap();
    let ok = handle
        .stats()
        .queries
        .load(std::sync::atomic::Ordering::Relaxed);
    let err = handle
        .stats()
        .errors
        .load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(
        ok + err,
        sent,
        "each pipelined request counted exactly once"
    );
    assert_eq!(err, 0, "every script in these bursts succeeds serially");
    handle.shutdown();
}

/// How many `QUERY`/`TRACE` requests the loop answered itself and how
/// many it handed to a worker.
fn split(handle: &hrdm_server::ServerHandle) -> (u64, u64) {
    let stats = handle.stats();
    (
        stats.inline_reads.load(Ordering::Relaxed),
        stats.dispatched.load(Ordering::Relaxed),
    )
}

/// One burst that alternates between the two sides: each write and the
/// `COUNT` run on a worker, each point read on the loop, and every
/// point read only answers correctly if it sees the write just before
/// it — the read-your-writes floor has to hold across the boundary, in
/// order, with nothing overtaking.
#[test]
fn inline_and_dispatched_requests_interleave_in_order() {
    let scripts: Vec<String> = [
        "CREATE INSTANCE P0 OF Penguin;",
        "HOLDS Flies (P0);",
        "COUNT Flies;",
        "HOLDS Flies (P0);",
        "ASSERT Flies (P0);",
        "WHY Flies (P0);",
        "HOLDS3 Flies (P0); HOLDS Flies (P0);",
        "RETRACT Flies (P0);",
        "HOLDS Flies (P0);",
    ]
    .map(String::from)
    .to_vec();
    let reference = Engine::new();
    reference.execute(serving_bootstrap()).unwrap();
    let expected: Vec<Reply> = scripts
        .iter()
        .map(|s| serial_reply(&reference, s))
        .collect();
    assert!(expected.iter().all(Reply::is_ok), "{expected:?}");

    let handle = start_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    let replies = client.pipeline(&as_requests(&scripts)).unwrap();
    for (k, (got, want)) in replies.iter().zip(&expected).enumerate() {
        assert_eq!(got, want, "reply {k} to {:?}", scripts[k]);
    }
    assert_eq!(
        split(&handle),
        (5, 4),
        "5 point-read scripts on the loop; 3 writes and the COUNT on workers"
    );
    client.quit().unwrap();
    handle.shutdown();
}

/// The requests that look like point reads but are not answered on the
/// loop, and the one non-read that is: each takes the side DESIGN.md
/// 14.2 gives it and answers exactly as the embedded engine does.
#[test]
fn the_edges_of_the_inline_path_answer_like_the_engine() {
    let reference = Engine::new();
    reference.execute(serving_bootstrap()).unwrap();
    let handle = start_server();
    let mut client = Client::connect(handle.addr()).unwrap();

    // Four point reads fit the statement bound; five do not.
    let four = "HOLDS Flies (Tweety); ".repeat(4);
    let five = "HOLDS Flies (Tweety); ".repeat(5);
    assert_eq!(
        client.query(&four).unwrap(),
        serial_reply(&reference, &four)
    );
    assert_eq!(split(&handle), (1, 0));
    assert_eq!(
        client.query(&five).unwrap(),
        serial_reply(&reference, &five)
    );
    assert_eq!(split(&handle), (1, 1), "over the bound: a worker's");

    // A point read that fails at execution is still the loop's.
    let unknown = "HOLDS Flies (NoSuchCreature);";
    let reply = client.query(unknown).unwrap();
    assert!(matches!(reply, Reply::Err { .. }), "{reply:?}");
    assert_eq!(reply, serial_reply(&reference, unknown));
    assert_eq!(split(&handle), (2, 1));

    // A script that does not parse has nothing to run: the loop
    // answers it, with the parser's own message.
    let garbage = "HOLDS Flies (Tweety); EXPLODE";
    let reply = client.query(garbage).unwrap();
    assert!(
        matches!(&reply, Reply::Err { kind, .. } if kind == "parse"),
        "{reply:?}"
    );
    assert_eq!(reply, serial_reply(&reference, garbage));
    assert_eq!(split(&handle), (3, 1));

    // ... unless it is too long for the loop to parse at all.
    let long = format!("{}EXPLODE", "HOLDS Flies (Tweety); ".repeat(60));
    assert_eq!(
        client.query(&long).unwrap(),
        serial_reply(&reference, &long)
    );
    assert_eq!(split(&handle), (3, 2));

    // The TRACE verb renders a span tree: a worker's, even for a point
    // read. Its statement responses come first, the tree last.
    let Reply::Ok(parts) = client.trace("HOLDS Flies (Tweety);").unwrap() else {
        panic!("TRACE of a point read failed");
    };
    let Reply::Ok(plain) = serial_reply(&reference, "HOLDS Flies (Tweety);") else {
        unreachable!("the reference answers it");
    };
    assert_eq!(parts[..plain.len()], plain[..]);
    assert_eq!(parts.len(), plain.len() + 1, "responses, then the tree");
    assert_eq!(split(&handle), (3, 3));

    let stats = handle.stats();
    assert_eq!(
        stats.queries.load(Ordering::Relaxed) + stats.errors.load(Ordering::Relaxed),
        6,
        "each request counted once, whichever side answered it"
    );
    client.quit().unwrap();
    handle.shutdown();
}
