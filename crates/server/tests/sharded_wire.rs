//! Location transparency over a real socket: the same program runs
//! unchanged against an embedded [`Engine`], a [`Client`] speaking
//! `HRDM/1` to a server, and the one coordinator over in-process
//! engines ([`ShardedEngine`]) and over N shard servers
//! ([`WireRouter`]) — all through [`ExecutorHandle`] — and every
//! rendered byte agrees.

use std::time::Duration;

use hrdm::hql::{default_shard, ExecutorHandle, ShardedEngine};
use hrdm::prelude::Engine;
use hrdm_server::{Client, Server, ServerConfig, ServerHandle, WireRouter};

fn start() -> ServerHandle {
    Server::start(
        Engine::new(),
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            read_timeout: Duration::from_secs(5),
            ..ServerConfig::default()
        },
    )
    .expect("bind 127.0.0.1:0")
}

const BOOTSTRAP: &str = "
    CREATE DOMAIN Animal;
    CREATE CLASS Bird UNDER Animal;
    CREATE CLASS Penguin UNDER Bird;
    CREATE INSTANCE Tweety OF Bird;
    CREATE INSTANCE Paul OF Penguin;
    CREATE DOMAIN Color;
    CREATE CLASS Dark UNDER Color;
    CREATE INSTANCE Black OF Dark;
    CREATE RELATION Flies (Creature: Animal);
    ASSERT Flies (ALL Bird);
    ASSERT NOT Flies (ALL Penguin);
    CREATE RELATION Colors (Creature: Animal, Hue: Color);
    ASSERT Colors (ALL Penguin, Black);
";

const READS: &str = "
    HOLDS Flies (Tweety);
    HOLDS Flies (Paul);
    SHOW Flies;
    COUNT Flies;
    CHECK Flies;
    WHY Flies (Paul);
    SHOW Colors;
    COUNT Colors BY Creature;
    SHOW DOMAIN Animal;
";

/// The shard counts the two routers below run with.
const ENGINE_SHARDS: usize = 4;
const WIRE_SHARDS: usize = 3;

/// The first `<stem><i>` that, under both router shard counts, lands on
/// a different shard than every name in `apart_from`.
fn name_apart(stem: &str, apart_from: &[&str]) -> String {
    (0..)
        .map(|i| format!("{stem}{i}"))
        .find(|c| {
            [ENGINE_SHARDS, WIRE_SHARDS].iter().all(|&n| {
                apart_from
                    .iter()
                    .all(|other| default_shard(c, n) != default_shard(other, n))
            })
        })
        .expect("unbounded candidate stream")
}

/// Drive one backend through the trait alone and return every rendered
/// response and every expected error, in order. `sharded` backends
/// also refuse the two things a partitioned catalog cannot do; what
/// they refuse leaves no trace, so the reads that follow agree with
/// the backends that were never asked.
fn drive(handle: &dyn ExecutorHandle, sharded: bool) -> Vec<String> {
    let mut out = handle.execute(BOOTSTRAP).unwrap();

    // A rename whose new name hashes elsewhere: a migration through a
    // router, a plain rename on one partition.
    let moved = name_apart("Moved", &["Flies", "Colors"]);
    out.extend(
        handle
            .execute(&format!("RENAME RELATION Flies TO {moved};"))
            .unwrap(),
    );

    // A view lands with its source; neither it nor a derivation over
    // relations on two shards can cross.
    out.extend(
        handle
            .execute(&format!("LET Minimal = CONSOLIDATE {moved};"))
            .unwrap(),
    );
    if sharded {
        let elsewhere = name_apart("Elsewhere", &[&moved]);
        for refused in [
            format!("RENAME RELATION Minimal TO {elsewhere};"),
            format!("LET Wide = JOIN {moved} Colors;"),
        ] {
            let e = handle.execute(&refused).unwrap_err();
            assert_eq!(e.kind(), "unsupported", "{refused} {e}");
        }
    }
    out.extend(handle.execute("DROP RELATION Minimal;").unwrap());

    // DROP DOMAIN is guarded while a relation references the domain.
    let e = handle.execute("DROP DOMAIN Color;").unwrap_err();
    assert_eq!(e.kind(), "in-use");
    out.push(e.to_string());
    let epoch = handle.last_epoch().unwrap();
    let reads = READS.replace("Flies", &moved) + "SHOW RELATIONS; SHOW RELATIONS OVER Color;";
    out.extend(handle.execute_read(&reads, epoch).unwrap());

    // And goes through, everywhere, once nothing does.
    out.extend(
        handle
            .execute("DROP RELATION Colors; DROP DOMAIN Color;")
            .unwrap(),
    );
    for gone in ["DROP DOMAIN Color;", "SHOW DOMAIN Color;", "SHOW Flies;"] {
        let e = handle.execute(gone).unwrap_err();
        assert_eq!(e.kind(), "unknown", "{gone} {e}");
        out.push(e.to_string());
    }
    let epoch = handle.last_epoch().unwrap();
    let reads = format!("SHOW RELATIONS; SHOW {moved}; CHECK {moved};");
    out.extend(handle.execute_read(&reads, epoch).unwrap());
    // Every backend leads its probe with the epoch line.
    let probe = handle.probe().unwrap();
    assert!(probe.starts_with("epoch: "), "{probe:?}");
    out
}

fn wire_router(shard_servers: &[ServerHandle]) -> WireRouter {
    WireRouter::over(
        shard_servers
            .iter()
            .map(|s| Client::connect(s.addr()).unwrap())
            .collect(),
    )
}

#[test]
fn every_backend_renders_byte_identically_through_the_trait() {
    let embedded = Engine::new();

    let server = start();
    let wire = Client::connect(server.addr()).unwrap();

    let sharded = ShardedEngine::new(ENGINE_SHARDS);

    let shard_servers: Vec<ServerHandle> = (0..WIRE_SHARDS).map(|_| start()).collect();
    let router = wire_router(&shard_servers);

    let reference = drive(&embedded, false);
    assert_eq!(reference, drive(&wire, false), "wire client diverged");
    assert_eq!(
        reference,
        drive(&sharded, true),
        "in-process coordinator diverged"
    );
    assert_eq!(reference, drive(&router, true), "wire router diverged");

    server.shutdown();
    for s in shard_servers {
        s.shutdown();
    }
}

#[test]
fn wire_client_enforces_the_read_contract() {
    let server = start();
    let client = Client::connect(server.addr()).unwrap();
    client.execute("CREATE DOMAIN D;").unwrap();

    // A mutating statement through the read path is refused before it
    // ever reaches the socket.
    let e = client.execute_read("CREATE DOMAIN E;", 0).unwrap_err();
    assert_eq!(e.kind(), "unsupported");
    // An unreachable epoch floor reports stale rather than hanging.
    let e = client.execute_read("SHOW DOMAIN D;", u64::MAX).unwrap_err();
    assert_eq!(e.kind(), "stale");
    // Server-side error kinds pass through unchanged.
    let e = client.execute("SHOW Nothing;").unwrap_err();
    assert_eq!(e.kind(), "unknown");
    // A satisfied floor serves the read.
    let epoch = client.last_epoch().unwrap();
    client.execute_read("SHOW DOMAIN D;", epoch).unwrap();

    server.shutdown();
}

#[test]
fn wire_router_renames_follow_the_hash_and_update_placement() {
    let shard_servers: Vec<ServerHandle> = (0..4).map(|_| start()).collect();
    let router = wire_router(&shard_servers);
    router.execute(BOOTSTRAP).unwrap();
    let home = default_shard("Flies", 4);
    let holds = |name: &str| {
        let out = router
            .execute_read(&format!("HOLDS {name} (Tweety);"), 0)
            .unwrap();
        assert!(out[0].ends_with("true"), "{:?}", out[0]);
    };

    // Same-shard renames route through and update placement.
    let same = (0..)
        .map(|i| format!("Renamed{i}"))
        .find(|c| default_shard(c, 4) == home)
        .unwrap();
    router
        .execute(&format!("RENAME RELATION Flies TO {same};"))
        .unwrap();
    assert_eq!(router.route_of(&same), Some(home));
    holds(&same);

    // Cross-shard renames migrate the rows over the wire.
    let away = (0..)
        .map(|i| format!("Migrated{i}"))
        .find(|c| default_shard(c, 4) != home)
        .unwrap();
    router
        .execute(&format!("RENAME RELATION {same} TO {away};"))
        .unwrap();
    assert_eq!(router.route_of(&away), Some(default_shard(&away, 4)));
    assert_eq!(router.route_of(&same), None);
    holds(&away);
    // Only the new owner holds it.
    for (k, s) in shard_servers.iter().enumerate() {
        let direct = Client::connect(s.addr()).unwrap();
        let found = direct.execute_read(&format!("COUNT {away};"), 0).is_ok();
        assert_eq!(found, k == default_shard(&away, 4), "shard {k}");
    }

    for s in shard_servers {
        s.shutdown();
    }
}

/// The guard asks the shards, not the router's memory: a relation
/// created on a shard server behind the router's back (or recovered by
/// `OPEN`ing a shard) still blocks the drop, on every shard. At the
/// parent commit shard 0 dropped the domain and shard 2 then refused.
#[test]
fn drop_domain_guard_sees_relations_the_router_never_placed() {
    let shard_servers: Vec<ServerHandle> = (0..3).map(|_| start()).collect();
    let router = wire_router(&shard_servers);
    router
        .execute("CREATE DOMAIN Color; CREATE CLASS Dark UNDER Color;")
        .unwrap();
    let behind = Client::connect(shard_servers[2].addr()).unwrap();
    behind
        .execute("CREATE RELATION Hidden (Hue: Color);")
        .unwrap();

    let e = router.execute("DROP DOMAIN Color;").unwrap_err();
    assert_eq!(e.kind(), "in-use", "{e}");
    assert!(e.message().contains("Hidden"), "{e}");
    for s in &shard_servers {
        let direct = Client::connect(s.addr()).unwrap();
        direct.execute_read("SHOW DOMAIN Color;", 0).unwrap();
    }
    // The listing the guard reads is there for people too.
    assert_eq!(
        router
            .execute_read("SHOW RELATIONS OVER Color;", 0)
            .unwrap(),
        vec!["Hidden".to_string()]
    );

    behind.execute("DROP RELATION Hidden;").unwrap();
    router.execute("DROP DOMAIN Color;").unwrap();
    for s in shard_servers {
        s.shutdown();
    }
}
