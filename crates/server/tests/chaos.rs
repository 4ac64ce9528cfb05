//! Chaos suite: hostile and degenerate clients against the
//! event-driven server. Slow-loris writers must hit the idle deadline
//! (trickled bytes must NOT reset it), mid-frame disconnects and RST
//! storms must never leak a connection slot or wedge a worker, the
//! loop must hold thousands of idle sockets, and write backpressure
//! must shed mutating scripts — never reads — while the writer queue
//! is saturated, and a connection that keeps the loop's own fast path
//! full must not starve its neighbours. After every storm the server
//! still answers a fresh client and `active_connections` returns to
//! zero.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

mod common;

use common::{count, serving_bootstrap};
use hrdm::prelude::Engine;
use hrdm_server::proto::read_frame;
use hrdm_server::sys::raise_nofile_limit;
use hrdm_server::{Client, FrameReader, Reply, Request, Server, ServerConfig, ServerHandle};

fn start_server(config: ServerConfig) -> (ServerHandle, Engine) {
    let engine = Engine::new();
    engine.execute(serving_bootstrap()).unwrap();
    let handle = Server::start(engine.clone(), config).unwrap();
    (handle, engine)
}

/// Poll until the server's admitted-connection count reaches `want`
/// (the loop processes closures asynchronously).
fn wait_active(handle: &ServerHandle, want: usize, deadline: Duration) {
    let started = Instant::now();
    while handle.active_connections() != want {
        assert!(
            started.elapsed() < deadline,
            "active_connections stuck at {} (wanted {want})",
            handle.active_connections()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The server still serves: a fresh client completes a full round-trip.
fn assert_alive(handle: &ServerHandle) {
    let mut client = Client::connect(handle.addr()).unwrap();
    let reply = client.query("COUNT Flies;").unwrap();
    assert!(reply.is_ok(), "server wedged after chaos: {reply:?}");
    client.quit().unwrap();
}

#[test]
fn slow_loris_clients_time_out_and_free_their_slots() {
    const LORIS: usize = 4;
    let (handle, _engine) = start_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        read_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    std::thread::scope(|s| {
        for _ in 0..LORIS {
            s.spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                // A header promising a 64-byte frame, then one byte at
                // a time — far slower than the frame completes, far
                // longer than the idle deadline.
                let _ = stream.write_all(&64u32.to_be_bytes());
                for _ in 0..16 {
                    if stream.write_all(b"x").is_err() {
                        break; // server already closed on us: the point
                    }
                    std::thread::sleep(Duration::from_millis(40));
                }
                // The server's last words must be ERR timeout (the
                // trickle never reset the idle clock), then EOF.
                stream
                    .set_read_timeout(Some(Duration::from_secs(5)))
                    .unwrap();
                let mut replies = Vec::new();
                while let Ok(Some(frame)) = read_frame(&mut stream) {
                    replies.push(frame);
                }
                assert!(
                    replies
                        .iter()
                        .any(|r| matches!(Reply::parse(r), Ok(Reply::Err { ref kind, .. }) if kind == "timeout")),
                    "no timeout reply; got {replies:?}"
                );
            });
        }
    });

    wait_active(&handle, 0, Duration::from_secs(5));
    let timeouts = count(&handle, "server.timeout");
    assert!(
        timeouts >= LORIS as u64,
        "expected >= {LORIS} timeouts, saw {timeouts}"
    );
    assert_alive(&handle);
    wait_active(&handle, 0, Duration::from_secs(5));
    handle.shutdown();
}

#[test]
fn mid_frame_disconnects_never_leak_connection_state() {
    let (handle, _engine) = start_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        read_timeout: Duration::from_secs(10),
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    for round in 0..40 {
        let mut stream = TcpStream::connect(addr).unwrap();
        match round % 3 {
            // Drop with nothing sent.
            0 => {}
            // Drop mid-header.
            1 => {
                let _ = stream.write_all(&[0x00, 0x00]);
            }
            // Drop mid-payload: full header, half the promised bytes.
            _ => {
                let _ = stream.write_all(&32u32.to_be_bytes());
                let _ = stream.write_all(&[b'Q'; 16]);
            }
        }
        drop(stream);
    }

    wait_active(&handle, 0, Duration::from_secs(5));
    assert_alive(&handle);
    wait_active(&handle, 0, Duration::from_secs(5));
    assert_eq!(count(&handle, "server.timeout"), 0);
    handle.shutdown();
}

#[test]
fn rst_storms_leave_no_stuck_slots() {
    let (handle, _engine) = start_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        read_timeout: Duration::from_secs(10),
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    for round in 0..40 {
        let mut stream = TcpStream::connect(addr).unwrap();
        // A full pipelined burst the server will answer...
        let mut burst = Vec::new();
        for request in [
            Request::Hello,
            Request::Query("SHOW Flies;".into()),
            Request::Query("COUNT Flies;".into()),
        ] {
            hrdm_server::proto::encode_frame(&request.render(), &mut burst);
        }
        let _ = stream.write_all(&burst);
        if round % 2 == 0 {
            // ...with replies left unread in the receive buffer, so
            // closing aborts the connection (RST) instead of FIN.
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(stream);
    }

    wait_active(&handle, 0, Duration::from_secs(10));
    assert_alive(&handle);
    wait_active(&handle, 0, Duration::from_secs(5));
    handle.shutdown();
}

#[test]
fn thousands_of_idle_connections_hold_and_release() {
    const IDLE: usize = 2048;
    let ceiling = raise_nofile_limit((IDLE as u64) * 2 + 512);
    if ceiling < (IDLE as u64) + 256 {
        eprintln!("skipping: fd ceiling {ceiling} too low for {IDLE} idle sockets");
        return;
    }
    let (handle, _engine) = start_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        max_connections: IDLE + 8,
        read_timeout: Duration::from_secs(60),
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    let mut idle = Vec::with_capacity(IDLE);
    for k in 0..IDLE {
        match TcpStream::connect(addr) {
            Ok(s) => idle.push(s),
            Err(e) => panic!("connect {k} failed: {e}"),
        }
    }
    wait_active(&handle, IDLE, Duration::from_secs(20));

    // The loop still serves new work promptly while holding them all.
    let started = Instant::now();
    assert_alive(&handle);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "round-trip starved by idle sockets: {:?}",
        started.elapsed()
    );

    drop(idle);
    wait_active(&handle, 0, Duration::from_secs(30));
    assert_alive(&handle);
    wait_active(&handle, 0, Duration::from_secs(5));
    handle.shutdown();
}

#[test]
fn write_backpressure_sheds_writes_but_never_reads() {
    let (handle, engine) = start_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        read_timeout: Duration::from_secs(10),
        backpressure_depth: 1,
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        // Saturate the writer queue from embedded handles: with
        // depth >= 1 whenever a direct writer holds (or waits on) the
        // writer lock, served mutations should shed.
        for writer in 0..3 {
            let engine = engine.clone();
            let stop = &stop;
            s.spawn(move || {
                let mut k = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    engine
                        .execute(&format!("CREATE INSTANCE Storm{writer}x{k} OF Canary;"))
                        .unwrap();
                    k += 1;
                }
            });
        }

        let mut client = Client::connect(addr).unwrap();
        // Reads are NEVER shed, storm or not.
        for _ in 0..50 {
            let reply = client.query("COUNT Flies;").unwrap();
            assert!(
                !matches!(reply, Reply::Busy(_)),
                "a read was shed under write backpressure"
            );
        }
        // Served writes shed with BUSY while the queue is deep.
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut saw_busy = false;
        while Instant::now() < deadline {
            let reply = client.query("ASSERT Flies (Peter);").unwrap();
            if matches!(reply, Reply::Busy(_)) {
                saw_busy = true;
                break;
            }
        }
        stop.store(true, Ordering::Relaxed);
        assert!(saw_busy, "no mutating script was ever shed at depth 1");

        // Once the storm quiets, the same write goes through.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let reply = client.query("ASSERT Flies (Peter);").unwrap();
            if reply.is_ok() {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "write still shed after the storm: {reply:?}"
            );
        }
        client.quit().unwrap();
    });

    assert!(count(&handle, "server.backpressure.shed") >= 1);
    wait_active(&handle, 0, Duration::from_secs(5));
    handle.shutdown();
}

/// Point reads run on the loop thread, so a connection that never
/// stops sending them is the one client that could hold the loop. It
/// gets a fixed number of requests per tick (DESIGN.md 14.2): beside a
/// firehose pipelining `HOLDS` as fast as the socket takes them — with
/// a pipeline cap far above that budget — a second connection's point
/// read (the loop's) and `COUNT` (a worker's) keep completing promptly.
#[test]
fn a_point_read_firehose_does_not_starve_its_neighbours() {
    const BOUND: Duration = Duration::from_millis(250);
    const BURST: usize = 512;
    let (handle, _engine) = start_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        read_timeout: Duration::from_secs(10),
        max_pipeline: 4096,
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    let mut burst = Vec::new();
    for _ in 0..BURST {
        let holds = Request::Query("HOLDS Flies (Tweety);".into());
        hrdm_server::proto::encode_frame(&holds.render(), &mut burst);
    }
    let mut hello = Vec::new();
    hrdm_server::proto::encode_frame(&Request::Hello.render(), &mut hello);

    let stop = AtomicBool::new(false);
    let answered = AtomicU64::new(0);
    std::thread::scope(|s| {
        let mut writer = TcpStream::connect(addr).unwrap();
        let mut reader = writer.try_clone().unwrap();
        writer.write_all(&hello).unwrap();
        assert!(read_frame(&mut reader).unwrap().is_some(), "greeted");
        // The firehose's two halves: one thread only writes bursts, the
        // other only drains replies, so requests are always waiting.
        let (stop, answered, burst) = (&stop, &answered, &burst);
        s.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                writer.write_all(burst).unwrap();
            }
            writer.shutdown(Shutdown::Write).unwrap();
        });
        s.spawn(move || {
            let mut frames = FrameReader::new();
            let mut chunk = vec![0u8; 64 * 1024];
            loop {
                let n = reader.read(&mut chunk).unwrap();
                if n == 0 {
                    break;
                }
                frames.push(&chunk[..n]);
                while let Some(frame) = frames.next_frame().unwrap() {
                    assert!(frame.starts_with("OK\n"), "firehose reply {frame:?}");
                    answered.fetch_add(1, Ordering::Relaxed);
                }
            }
        });

        let mut client = Client::connect(addr).unwrap();
        let mut slowest = Duration::ZERO;
        for round in 0..40 {
            // Only rounds that ran against a flowing firehose count:
            // wait for it to be answered some more since the last one.
            let before = answered.load(Ordering::Relaxed);
            let deadline = Instant::now() + Duration::from_secs(10);
            while answered.load(Ordering::Relaxed) < before + BURST as u64 {
                assert!(Instant::now() < deadline, "the firehose itself stalled");
                std::thread::yield_now();
            }
            for script in ["HOLDS Flies (Tweety);", "COUNT Flies;"] {
                let started = Instant::now();
                let reply = client.query(script).unwrap();
                let took = started.elapsed();
                assert!(reply.is_ok(), "{script}: {reply:?}");
                assert!(took < BOUND, "round {round}: {script} took {took:?}");
                slowest = slowest.max(took);
            }
        }
        stop.store(true, Ordering::Relaxed);
        client.quit().unwrap();
        eprintln!("slowest neighbour round trip beside the firehose: {slowest:?}");
    });

    assert_eq!(
        count(&handle, "server.read.inline"),
        answered.load(Ordering::Relaxed) + 40,
        "every firehose request and the neighbour's point reads ran on the loop"
    );
    assert_eq!(count(&handle, "server.read.dispatched"), 40, "the COUNTs");
    wait_active(&handle, 0, Duration::from_secs(5));
    handle.shutdown();
}
