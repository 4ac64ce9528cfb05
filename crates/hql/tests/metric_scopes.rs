//! Each engine records its writes once, into a metrics scope of its
//! own that also adds into the process registry: a write's stage split,
//! the epoch it published and its replica feed are the engine's own
//! figures, whatever other engines in the process do.

use std::time::{Duration, Instant};

use hrdm_hql::engine::WRITE_STAGES as STAGES;
use hrdm_hql::parser::parse;
use hrdm_hql::{Engine, ExecutorHandle, Replica, ShardedEngine};

/// `(observations, total ns)` of every stage histogram of `engine`, in
/// order.
fn stages(engine: &Engine) -> Vec<(u64, u64)> {
    STAGES
        .iter()
        .map(|name| {
            let h = engine.metrics().histogram(name);
            (h.count(), h.sum_ns())
        })
        .collect()
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hrdm_scopes_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The six `engine.write.*` stages are what a write does under the
/// writer lock, so over a run of writes their sums must account for the
/// time the caller sees around `execute_statement`, short only of what
/// happens outside the lock-to-publish window (dispatch, queueing on the
/// uncontended lock, recording the observations themselves). Stated
/// tolerance: the stages never exceed the enclosing total (they are
/// nested inside it on one monotonic clock) and cover at least 75 % of
/// it (measured: 96–99 %).
#[test]
fn the_stages_account_for_the_enclosing_write() {
    let dir = temp_dir("stages");
    let engine = Engine::new();
    let mut setup = format!(
        "OPEN \"{}\" SYNC EVERY 32; CREATE DOMAIN Animal; CREATE CLASS Bird UNDER Animal;",
        dir.display()
    );
    for i in 0..200 {
        setup += &format!("CREATE INSTANCE b{i} OF Bird;");
    }
    setup += "CREATE RELATION Flies (Creature: Animal); ASSERT Flies (Bird);";
    for i in 0..200 {
        setup += &format!("ASSERT Flies (b{i});");
    }
    engine.execute(&setup).unwrap();

    // Writes of every kind the stages distinguish: journaled row edits,
    // an identical re-ASSERT, DDL, and — for the last rounds — row edits
    // under a live view, whose maintenance checkpoints.
    let mut script = String::new();
    for round in 0..320 {
        let b = round % 200;
        if round == 300 {
            script += "LET Seen = CONSOLIDATE Flies;";
        }
        script += &format!(
            "RETRACT Flies (b{b}); ASSERT NOT Flies (b{b}); RETRACT Flies (b{b}); \
             ASSERT Flies (b{b}); ASSERT Flies (Bird);"
        );
        if round % 10 == 0 {
            script += &format!("CREATE INSTANCE extra{round} OF Bird;");
        }
    }
    let statements = parse(&script).unwrap();
    let writes = statements.len() as u64;

    let before = stages(&engine);
    let mut enclosing = Duration::ZERO;
    for statement in statements {
        let started = Instant::now();
        engine.execute_statement(statement).unwrap();
        enclosing += started.elapsed();
    }
    let after = stages(&engine);

    let mut accounted = Duration::ZERO;
    for ((name, before), after) in STAGES.iter().zip(&before).zip(&after) {
        assert_eq!(
            after.0 - before.0,
            writes,
            "{name}: one observation per write"
        );
        let spent = after.1 - before.1;
        assert!(spent > 0, "{name} took no time over {writes} writes");
        accounted += Duration::from_nanos(spent);
    }
    assert!(
        accounted <= enclosing,
        "stages {accounted:?} exceed the enclosing {enclosing:?}"
    );
    assert!(
        accounted.as_secs_f64() >= 0.75 * enclosing.as_secs_f64(),
        "stages {accounted:?} leave more than 25 % of {enclosing:?} unaccounted"
    );

    // A refused write observes nothing.
    let before = stages(&engine);
    assert!(engine.execute("RETRACT Flies (Animal);").is_err());
    assert_eq!(stages(&engine), before);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two engines in one process: each one's `engine.epoch` gauge is its
/// own epoch, not whichever engine published last.
#[test]
fn two_engines_each_gauge_their_own_epoch() {
    let (a, b) = (Engine::new(), Engine::new());
    a.execute("CREATE DOMAIN D; CREATE CLASS C UNDER D; CREATE INSTANCE i OF C;")
        .unwrap();
    b.execute("CREATE DOMAIN E;").unwrap();
    assert_eq!((a.epoch(), b.epoch()), (3, 1));
    for engine in [&a, &b] {
        assert_eq!(engine.metrics().gauge("engine.epoch").get(), engine.epoch());
        assert_eq!(
            engine.metrics().histogram("engine.write.apply").count(),
            engine.epoch(),
            "one observation per published write"
        );
    }
}

/// A 2-shard coordinator: a write to a relation is observed by the
/// shard that owns it and by no other.
#[test]
fn a_sharded_write_is_observed_only_by_its_owning_shard() {
    let router = ShardedEngine::new(2);
    router
        .execute("CREATE DOMAIN D; CREATE CLASS C UNDER D;")
        .unwrap();
    let name_on = |shard: usize| {
        (0..)
            .map(|k| format!("R{k}"))
            .find(|name| router.owner_of(name) == shard)
            .unwrap()
    };
    let relations = [name_on(0), name_on(1)];
    for name in &relations {
        router
            .execute(&format!("CREATE RELATION {name} (x: D);"))
            .unwrap();
    }
    let applies = |shard: usize| {
        router.shards()[shard]
            .metrics()
            .histogram("engine.write.apply")
            .count()
    };
    for (owner, name) in relations.iter().enumerate() {
        assert_eq!(router.owner_of(name), owner);
        let before = [applies(0), applies(1)];
        for _ in 0..10 {
            router
                .execute(&format!("ASSERT {name} (C); RETRACT {name} (C);"))
                .unwrap();
        }
        let other = 1 - owner;
        assert_eq!(
            applies(owner) - before[owner],
            20,
            "{name} on shard {owner}"
        );
        assert_eq!(applies(other), before[other], "shard {other} saw no write");
    }
    for shard in router.shards() {
        assert_eq!(shard.metrics().gauge("engine.epoch").get(), shard.epoch());
    }
}

/// Two replicas of two primaries: each replica's `replica.applied_lsn`
/// is the LSN it serves, in its own engine's scope.
#[test]
fn replicas_gauge_their_own_applied_lsn() {
    let dirs = [temp_dir("replica_a"), temp_dir("replica_b")];
    let mut replicas = Vec::new();
    for (k, dir) in dirs.iter().enumerate() {
        let primary = Engine::new();
        let mut script = format!("OPEN \"{}\"; CREATE DOMAIN D;", dir.display());
        for i in 0..=k * 3 {
            script += &format!("CREATE CLASS C{i} UNDER D;");
        }
        primary.execute(&script).unwrap();
        let replica = Replica::attach(dir);
        assert_eq!(replica.sync().unwrap(), primary.journal_lsn().unwrap());
        replicas.push(replica);
    }
    let lsns: Vec<u64> = replicas.iter().map(Replica::shipped_lsn).collect();
    assert_ne!(lsns[0], lsns[1]);
    for (replica, lsn) in replicas.iter().zip(lsns) {
        let metrics = replica.engine().metrics();
        assert_eq!(metrics.gauge("replica.applied_lsn").get(), lsn);
        assert_eq!(metrics.histogram("replica.sync_records").count(), 1);
    }
    for dir in dirs {
        std::fs::remove_dir_all(dir).unwrap();
    }
}
