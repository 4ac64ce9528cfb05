//! Multi-client soak: N concurrent clients hammer the server with the
//! serving workload while a writer mutates the catalog through the
//! WAL-journaled store. Every reply must be **byte-identical** to the
//! reply the same statement gets from a serial engine at some prefix of
//! the write history — zero protocol errors, zero `BUSY`, and after a
//! clean shutdown the store recovers to the full serial state.
//!
//! A second soak drives the real `hrdm-serve` binary over its stdout
//! handshake and the `SHUTDOWN` verb.

use std::io::BufRead;
use std::path::PathBuf;
use std::time::Duration;

mod common;

use common::{count, errors, serial_reply, serving_bootstrap, serving_queries, serving_writes};
use hrdm::prelude::Engine;
use hrdm_server::{Client, Reply, Server, ServerConfig};

const CLIENTS: usize = 8;
const QUERIES_PER_CLIENT: usize = 200;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hrdm_soak_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `expected[i][q]` = the reply to query `q` after the bootstrap plus
/// the first `i` writes, computed on a serial reference engine.
fn serial_prefix_replies(queries: &[&str], writes: &[String]) -> Vec<Vec<Reply>> {
    let engine = Engine::new();
    engine.execute(serving_bootstrap()).unwrap();
    let mut expected = Vec::with_capacity(writes.len() + 1);
    expected.push(queries.iter().map(|q| serial_reply(&engine, q)).collect());
    for w in writes {
        engine.execute(w).unwrap();
        expected.push(queries.iter().map(|q| serial_reply(&engine, q)).collect());
    }
    expected
}

#[test]
fn soak_eight_clients_against_a_journaled_store() {
    let queries = serving_queries();
    let writes = serving_writes();
    let expected = serial_prefix_replies(&queries, &writes);

    let dir = temp_dir("store");
    let engine = Engine::new();
    engine
        .execute(&format!("OPEN {:?};", dir.display().to_string()))
        .unwrap();
    engine.execute(serving_bootstrap()).unwrap();

    let handle = Server::start(
        engine,
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            max_connections: CLIENTS + 4,
            read_timeout: Duration::from_secs(30),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    // Every client tallies its replies by kind, so the server's
    // counters can be checked *exactly* per kind afterwards — not as a
    // lump sum that would hide misclassification.
    let (mut total_ok, mut total_err) = (0u64, 0u64);
    std::thread::scope(|s| {
        let queries = &queries;
        let writes = &writes;
        let expected = &expected;
        // The writer journals every mutation through the store's WAL.
        let writer = s.spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            for w in writes {
                assert!(client.query(w).unwrap().is_ok(), "write {w:?} failed");
                std::thread::sleep(Duration::from_millis(1));
            }
            client.quit().unwrap();
            (writes.len() as u64, 0u64)
        });
        let mut readers = Vec::new();
        for reader in 0..CLIENTS as u64 {
            readers.push(s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ (reader + 1);
                let (mut ok, mut err) = (0u64, 0u64);
                for _ in 0..QUERIES_PER_CLIENT {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let qi = (state % queries.len() as u64) as usize;
                    let reply = client.query(queries[qi]).unwrap();
                    match reply {
                        Reply::Ok(_) => ok += 1,
                        // Queries racing ahead of the writer
                        // legitimately get ERR replies (they name
                        // instances a later write creates — the point
                        // of the existence-transition mix).
                        Reply::Err { .. } => err += 1,
                        Reply::Busy(_) => {
                            panic!("reader was admitted; BUSY is a protocol failure here")
                        }
                    }
                    let matches_a_prefix = expected.iter().any(|row| row[qi] == reply);
                    assert!(
                        matches_a_prefix,
                        "reply to {:?} matches no serial prefix:\n{reply:?}",
                        queries[qi]
                    );
                }
                client.quit().unwrap();
                (ok, err)
            }));
        }
        for h in readers.into_iter().chain(std::iter::once(writer)) {
            let (ok, err) = h.join().unwrap();
            total_ok += ok;
            total_err += err;
        }
    });

    // All writes landed: the final state answers exactly like the full
    // serial replay (all successes in the final serial state, so they
    // tally as OK replies).
    let mut client = Client::connect(addr).unwrap();
    for (qi, q) in queries.iter().enumerate() {
        let reply = client.query(q).unwrap();
        assert_eq!(reply, expected[writes.len()][qi]);
        match reply {
            Reply::Ok(_) => total_ok += 1,
            Reply::Err { .. } => total_err += 1,
            Reply::Busy(_) => unreachable!("checked equal to a serial reply"),
        }
    }
    client.quit().unwrap();
    // Per-kind exactness: the server classified every request the way
    // the clients observed it, and nothing else happened.
    let stat = |name| count(&handle, name);
    assert_eq!(stat("server.query"), total_ok, "OK replies");
    assert_eq!(errors(&handle), total_err, "ERR replies");
    assert_eq!(
        total_ok + total_err,
        (CLIENTS * QUERIES_PER_CLIENT + writes.len() + queries.len()) as u64,
        "every request accounted for"
    );
    assert_eq!(stat("server.timeout"), 0, "no timeouts");
    assert_eq!(stat("server.protocol_error"), 0, "no protocol errors");
    assert_eq!(stat("server.busy"), 0, "no admission BUSY");
    assert_eq!(stat("server.backpressure.shed"), 0, "no backpressure shed");
    handle.shutdown();

    // Durability: recovery rebuilds the full serial state from the WAL.
    let recovered = hrdm_persist::recover(&dir).unwrap();
    assert!(
        recovered.report.next_lsn() > 0,
        "the soak journaled mutations: {}",
        recovered.report.render_stable()
    );
    let reopened = Engine::new();
    reopened
        .execute(&format!("OPEN {:?};", dir.display().to_string()))
        .unwrap();
    for (qi, q) in queries.iter().enumerate() {
        assert_eq!(
            serial_reply(&reopened, q),
            expected[writes.len()][qi],
            "recovered store diverges on {q:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn soak_the_real_binary_over_its_shutdown_verb() {
    let queries = serving_queries();
    let writes = serving_writes();
    let expected = serial_prefix_replies(&queries, &writes);

    let script_path =
        std::env::temp_dir().join(format!("hrdm_soak_bootstrap_{}.hql", std::process::id()));
    std::fs::write(&script_path, serving_bootstrap()).unwrap();

    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_hrdm-serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--bootstrap",
            script_path.to_str().unwrap(),
            "--max-conn",
            "16",
            "--timeout-ms",
            "10000",
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn hrdm-serve");
    let stdout = child.stdout.take().unwrap();
    let mut lines = std::io::BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("hrdm-serve exited before listening")
            .unwrap();
        if let Some(rest) = line.strip_prefix("listening on ") {
            break rest.to_string();
        }
    };

    std::thread::scope(|s| {
        let addr = addr.as_str();
        let queries = &queries;
        let writes = &writes;
        let expected = &expected;
        s.spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            for w in writes {
                assert!(client.query(w).unwrap().is_ok());
                std::thread::sleep(Duration::from_millis(1));
            }
            client.quit().unwrap();
        });
        for reader in 0..CLIENTS as u64 {
            s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut state = 0xdead_beef_cafe_f00du64 ^ (reader + 1);
                for _ in 0..50 {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let qi = (state % queries.len() as u64) as usize;
                    let reply = client.query(queries[qi]).unwrap();
                    assert!(
                        expected.iter().any(|row| row[qi] == reply),
                        "reply to {:?} matches no serial prefix:\n{reply:?}",
                        queries[qi]
                    );
                }
                client.quit().unwrap();
            });
        }
    });

    let mut client = Client::connect(addr.as_str()).unwrap();
    assert!(client.shutdown_server().unwrap().is_ok());
    drop(client);
    let status = child.wait().expect("hrdm-serve exits");
    assert!(status.success(), "clean exit, got {status:?}");
    let rest: Vec<String> = lines.map(Result::unwrap).collect();
    assert!(
        rest.iter().any(|l| l == "shut down cleanly"),
        "stdout tail: {rest:?}"
    );
    let _ = std::fs::remove_file(&script_path);
}
