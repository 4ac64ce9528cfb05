//! Where a reachability closure gets built. A schema holds its domain
//! graphs, not their matrices, so what only rebuilds schemas — DDL under
//! a relation, `OPEN`, `LOAD`, a replica's rollover — builds none; the
//! first read that probes reachability builds the one it needs.
//!
//! Every count is a delta of this thread's `hrdm_obs::attrib` slots,
//! which other test threads cannot disturb, and every statement runs
//! on the calling thread.

use std::path::PathBuf;

use hrdm_hql::{Engine, ExecutorHandle, Replica};
use hrdm_obs::attrib::{self, AttribKey};
use hrdm_obs::metrics;

/// Closures built on this thread while `f` runs.
fn builds<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = attrib::snapshot();
    let out = f();
    (attrib::since(&before).get(AttribKey::ClosureMiss), out)
}

/// Closures built by one script.
fn script_builds(engine: &Engine, script: &str) -> u64 {
    builds(|| engine.execute(script).unwrap()).0
}

/// Closures built by [`PROBE`], and its reply.
fn probe(engine: &impl ExecutorHandle) -> (u64, Vec<String>) {
    builds(|| engine.execute_read(PROBE, 0).unwrap())
}

fn temp_path(tag: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("hrdm_closure_builds_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    let _ = std::fs::remove_file(&path);
    path
}

/// A domain with two classes and an instance, a one-tuple relation
/// over it.
const WORLD: &str = "CREATE DOMAIN D; CREATE CLASS A UNDER D; CREATE CLASS B UNDER D; \
     CREATE INSTANCE a OF A; CREATE RELATION R (x: D); ASSERT R (A);";

/// A point read the one-tuple relation answers by scanning its tuples,
/// which probes the product's reachability.
const PROBE: &str = "HOLDS R (a);";

#[test]
fn ddl_under_a_relation_builds_no_closure() {
    let engine = Engine::new();
    assert_eq!(script_builds(&engine, WORLD), 0);
    // Each DDL statement copies the graph and rebases `R` onto the
    // copy: a new graph version every time, none of them probed.
    for (i, ddl) in [
        "CREATE INSTANCE b OF B;",
        "CREATE CLASS C UNDER A, B;",
        "PREFER A OVER B IN D;",
        "CREATE INSTANCE c OF C;",
    ]
    .into_iter()
    .enumerate()
    {
        assert_eq!(script_builds(&engine, ddl), 0, "statement {i}: {ddl}");
        // The first read over the new version builds its one closure,
        // the next builds none.
        assert_eq!(probe(&engine).0, 1, "after {ddl}");
        assert_eq!(
            probe(&engine),
            (0, vec!["a: true".to_string()]),
            "after {ddl}"
        );
    }
}

#[test]
fn open_and_load_build_no_closure() {
    let dir = temp_path("store");
    let image = temp_path("image");
    let primary = Engine::new();
    primary
        .execute(&format!("OPEN \"{}\";", dir.display()))
        .unwrap();
    primary.execute(WORLD).unwrap();
    primary
        .execute("CHECKPOINT; CREATE INSTANCE b OF B;")
        .unwrap();
    primary
        .execute(&format!("SAVE \"{}\";", image.display()))
        .unwrap();
    let expected = primary.execute_read(PROBE, 0).unwrap();
    drop(primary);

    // OPEN decodes the checkpoint image and replays the log after it.
    let restarted = Engine::new();
    let open = format!("OPEN \"{}\";", dir.display());
    assert_eq!(script_builds(&restarted, &open), 0, "OPEN");
    assert_eq!(probe(&restarted), (1, expected.clone()));

    let loaded = Engine::new();
    let load = format!("LOAD \"{}\";", image.display());
    assert_eq!(script_builds(&loaded, &load), 0, "LOAD");
    assert_eq!(probe(&loaded), (1, expected));

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&image);
}

#[test]
fn a_replica_rollover_builds_no_closure() {
    let dir = temp_path("replica");
    let rollovers = metrics::counter("ship.rollovers");
    let primary = Engine::new();
    primary
        .execute(&format!("OPEN \"{}\";", dir.display()))
        .unwrap();
    primary.execute(WORLD).unwrap();
    let replica = Replica::attach(&dir);
    for round in 0..2 {
        let taken = rollovers.get();
        let (built, synced) = builds(|| replica.sync());
        synced.unwrap();
        assert!(rollovers.get() > taken, "round {round}: no rollover taken");
        assert_eq!(built, 0, "round {round}: the sync built a closure");
        assert_eq!(
            probe(&replica),
            (1, primary.execute_read(PROBE, 0).unwrap())
        );
        // The next generation: a checkpoint, then more DDL on top.
        primary
            .execute(&format!("CHECKPOINT; CREATE INSTANCE b{round} OF B;"))
            .unwrap();
    }
    drop(primary);
    let _ = std::fs::remove_dir_all(&dir);
}
