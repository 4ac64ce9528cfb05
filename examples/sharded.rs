//! Location transparency in one program.
//!
//! ```sh
//! cargo run --example sharded
//! ```
//!
//! The same function — `report`, written once against
//! [`ExecutorHandle`] — runs unchanged against three deployments:
//!
//! 1. an embedded [`Engine`] (one process, one partition),
//! 2. a [`ShardedEngine`] — the one coordinator, `Router<Engine>` —
//!    hash-partitioning the catalog across four in-process shards
//!    (domain DDL broadcast, every statement on a relation routed to
//!    the shard that owns it),
//! 3. a WAL-fed [`Replica`] tailing a primary's store directory and
//!    serving the same reads from its own snapshot.
//!
//! Which backend a program talks to is a wiring decision, not an API
//! one. The coordinator itself is written against the same trait, so
//! the serving tier extends it across processes by changing only the
//! shard type: `hrdm_server::WireRouter` is `Router<Client>` over N
//! `hrdm-serve` instances.

use hrdm::prelude::{Engine, ExecutorHandle, Replica, ShardedEngine};

const WORLD: &str = "
    CREATE DOMAIN Animal;
    CREATE CLASS Bird UNDER Animal;
    CREATE CLASS Penguin UNDER Bird;
    CREATE INSTANCE Tweety OF Bird;
    CREATE INSTANCE Paul OF Penguin;
    CREATE RELATION Flies (Creature: Animal);
    ASSERT Flies (ALL Bird);
    ASSERT NOT Flies (ALL Penguin);
";

const QUESTIONS: &str = "
    HOLDS Flies (Tweety);
    HOLDS Flies (Paul);
    COUNT Flies;
    CHECK Flies;
";

/// Everything below this line is backend-agnostic.
fn report(name: &str, handle: &dyn ExecutorHandle) {
    // Pin reads at the backend's current epoch: any snapshot at least
    // this fresh may serve them.
    let epoch = handle.last_epoch().expect("epoch");
    println!("── {name} ──");
    for line in handle.execute_read(QUESTIONS, epoch).expect("reads") {
        println!("  {line}");
    }
    let probe = handle.probe().expect("probe");
    println!("  [{}]", probe.lines().collect::<Vec<_>>().join(" | "));
}

fn main() {
    // 1. Embedded: the engine is the handle.
    let embedded = Engine::new();
    embedded.execute(WORLD).expect("bootstrap");
    report("embedded engine", &embedded);

    // 2. Sharded: same statements, now routed — domain DDL broadcast to
    //    all four shards, relations hashed to an owner, reads gathered.
    let sharded = ShardedEngine::new(4);
    ExecutorHandle::execute(&sharded, WORLD).expect("bootstrap");
    report("sharded engine (4 shards)", &sharded);

    // 3. Replicated: the primary journals into a store; a replica tails
    //    the WAL and serves the same reads, read-only.
    let dir = std::env::temp_dir().join(format!("hrdm_example_sharded_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let primary = Engine::new();
    primary
        .execute(&format!("OPEN \"{}\" SYNC EVERY 1;", dir.display()))
        .expect("open store");
    primary.execute(WORLD).expect("bootstrap");
    let replica = Replica::attach(&dir);
    let shipped = replica.sync().expect("sync");
    println!("(replica caught up at shipped lsn {shipped})");
    report("wal replica", &replica);
    assert!(
        replica.execute("ASSERT Flies (Paul);").is_err(),
        "replicas are read-only"
    );
    std::fs::remove_dir_all(&dir).ok();
}
