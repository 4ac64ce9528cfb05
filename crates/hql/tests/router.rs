//! The coordinator over shards that are not plain engines: a fake
//! shard that fails its k-th call pins what the caller sees and what
//! state remains when a broadcast or a cross-shard rename breaks
//! part-way (DESIGN.md §15.2 states the contract), and a racing writer
//! checks that one `probe` reads each shard's epoch once.

use std::sync::atomic::{AtomicUsize, Ordering};

use hrdm_hql::{default_shard, Engine, ExecResult, ExecutorHandle, Router, ShardedEngine};

const BOOTSTRAP: &str = "
    CREATE DOMAIN Animal;
    CREATE CLASS Bird UNDER Animal;
    CREATE CLASS Penguin UNDER Bird;
    CREATE INSTANCE Tweety OF Bird;
    CREATE INSTANCE Paul OF Penguin;
    CREATE RELATION Flies (Creature: Animal);
    SET PREEMPTION Flies ON-PATH;
    ASSERT Flies (ALL Bird);
    ASSERT NOT Flies (ALL Penguin);
    ASSERT Flies (Paul);
";
/// `Flies` dumps as CREATE, SET PREEMPTION and this many ASSERTs.
const FLIES_TUPLES: usize = 3;

/// An engine shard whose `fail_at`-th statement call (1-based, counted
/// from the last [`Flaky::arm`]) fails with kind `"io"` instead of
/// reaching the engine. It implements only the required methods, so
/// every statement arrives through the trait's default
/// `execute_statement`: rendered, then parsed again by the engine.
struct Flaky {
    engine: Engine,
    calls: AtomicUsize,
    fail_at: AtomicUsize,
}

impl Flaky {
    fn new() -> Flaky {
        Flaky {
            engine: Engine::new(),
            calls: AtomicUsize::new(0),
            fail_at: AtomicUsize::new(0),
        }
    }

    fn arm(&self, fail_at: usize) {
        self.calls.store(0, Ordering::SeqCst);
        self.fail_at.store(fail_at, Ordering::SeqCst);
    }

    /// The shard's state as the engine sees it, without counting a call.
    fn read(&self, script: &str) -> ExecResult<Vec<String>> {
        self.engine.execute_read(script, 0)
    }
}

impl ExecutorHandle for Flaky {
    fn execute(&self, script: &str) -> ExecResult<Vec<String>> {
        let call = self.calls.fetch_add(1, Ordering::SeqCst) + 1;
        if call == self.fail_at.load(Ordering::SeqCst) {
            return Err(hrdm_hql::ExecError::new("io", "injected failure"));
        }
        ExecutorHandle::execute(&self.engine, script)
    }

    fn execute_read(&self, script: &str, min_epoch: u64) -> ExecResult<Vec<String>> {
        self.engine.execute_read(script, min_epoch)
    }

    fn last_epoch(&self) -> ExecResult<u64> {
        self.engine.last_epoch()
    }

    fn probe(&self) -> ExecResult<String> {
        self.engine.probe()
    }
}

fn flaky_router(shards: usize) -> Router<Flaky> {
    let router = Router::over((0..shards).map(|_| Flaky::new()).collect());
    router.execute(BOOTSTRAP).unwrap();
    router
}

#[test]
fn a_broadcast_failing_on_shard_k_leaves_shards_before_k_mutated() {
    const SHARDS: usize = 3;
    for k in 0..SHARDS {
        let router = flaky_router(SHARDS);
        let routed_before = router.probe().unwrap();
        router.shards()[k].arm(1);
        let e = router
            .execute("CREATE CLASS Canary UNDER Bird;")
            .unwrap_err();
        if k == 0 {
            // Shard 0's verdict is the statement's verdict, unchanged.
            assert_eq!((e.kind(), e.message()), ("io", "injected failure"));
        } else {
            assert_eq!(e.kind(), "execution", "{e}");
            assert!(e.message().contains(&format!("shard {k} diverged")), "{e}");
            assert!(e.message().contains("injected failure"), "{e}");
        }
        for (j, shard) in router.shards().iter().enumerate() {
            let has_class = shard.read("SHOW DOMAIN Animal;").unwrap()[0].contains("Canary");
            assert_eq!(has_class, j < k, "shard {j} after a failure on shard {k}");
        }
        // Broadcasts never touch the routing table; only the epochs of
        // the shards that took the write moved.
        let routes = |probe: &str| probe.lines().last().map(String::from);
        assert_eq!(routes(&router.probe().unwrap()), routes(&routed_before));
    }
}

#[test]
fn drop_domain_probes_every_shard_before_dropping_anywhere() {
    // A probe that fails on the last shard stops the drop before any
    // shard has lost the domain.
    let router = flaky_router(3);
    router.execute("CREATE DOMAIN Spare;").unwrap();
    router.shards()[2].arm(1);
    let e = router.execute("DROP DOMAIN Spare;").unwrap_err();
    assert_eq!(e.kind(), "execution", "{e}");
    assert!(e.message().contains("shard 2 diverged"), "{e}");
    for shard in router.shards() {
        shard.read("SHOW DOMAIN Spare;").unwrap();
    }
    router.execute("DROP DOMAIN Spare;").unwrap();
}

#[test]
fn a_cross_shard_rename_failing_at_any_step_keeps_the_source_intact() {
    const SHARDS: usize = 2;
    let src = default_shard("Flies", SHARDS);
    let dst = 1 - src;
    let to = (0..)
        .map(|i| format!("Moved{i}"))
        .find(|c| default_shard(c, SHARDS) == dst)
        .unwrap();
    let rename = format!("RENAME RELATION Flies TO {to};");
    let reads = "SHOW Flies; COUNT Flies; CHECK Flies; HOLDS Flies (Paul);";
    let untouched = flaky_router(SHARDS).execute_read(reads, 0).unwrap();

    // Every call the destination takes: CREATE, SET PREEMPTION, one
    // ASSERT per tuple.
    for step in 1..=2 + FLIES_TUPLES {
        let router = flaky_router(SHARDS);
        router.shards()[dst].arm(step);
        let e = router.execute(&rename).unwrap_err();
        if step == 1 {
            // CREATE decides the verdict (`duplicate` when the new
            // name exists), so its error crosses unchanged.
            assert_eq!(e.kind(), "io", "{e}");
        } else {
            assert_eq!(e.kind(), "execution", "step {step}: {e}");
            assert!(
                e.message().contains(&format!("shard {dst} diverged")),
                "{e}"
            );
        }
        // Destination rolled back, source and routes as they were.
        let gone = router.shards()[dst]
            .read(&format!("SHOW {to};"))
            .unwrap_err();
        assert_eq!(gone.kind(), "unknown", "step {step}");
        assert_eq!(router.execute_read(reads, 0).unwrap(), untouched);
        assert_eq!(router.route_of("Flies"), Some(src));
        assert_eq!(router.route_of(&to), None);
        // And the rename goes through once the shard behaves.
        router.execute(&rename).unwrap();
        assert_eq!(router.route_of(&to), Some(dst));
    }

    // The source's calls: DUMP (its error is the verdict), then DROP.
    let router = flaky_router(SHARDS);
    router.shards()[src].arm(1);
    let e = router.execute(&rename).unwrap_err();
    assert_eq!(e.kind(), "io", "{e}");
    assert_eq!(router.execute_read(reads, 0).unwrap(), untouched);
    assert!(router.shards()[dst].read(&format!("SHOW {to};")).is_err());

    // A failed source drop never destroys a copy: both remain, and the
    // old name stays the routed one.
    let router = flaky_router(SHARDS);
    router.shards()[src].arm(2);
    let e = router.execute(&rename).unwrap_err();
    assert_eq!(e.kind(), "execution", "{e}");
    assert!(
        e.message().contains(&format!("shard {src} diverged")),
        "{e}"
    );
    assert_eq!(router.execute_read(reads, 0).unwrap(), untouched);
    assert_eq!(router.route_of("Flies"), Some(src));
    assert_eq!(router.route_of(&to), None);
    // The unrouted copy is reachable by its hash, so it can be dropped
    // through the router before trying again.
    let copy = reads.replace("Flies", &to);
    let renamed = untouched
        .iter()
        .map(|r| r.replace("Flies", &to))
        .collect::<Vec<_>>();
    assert_eq!(router.execute_read(&copy, 0).unwrap(), renamed);
    router
        .execute(&format!("DROP RELATION {to}; {rename}"))
        .unwrap();
    assert_eq!(router.execute_read(&copy, 0).unwrap(), renamed);
}

/// A view lands with its sources, which need not be where its own name
/// hashes; later DDL on that name must go where the name is, not where
/// it hashes. (At the parent both statements below succeeded on the
/// hash shard and left two relations of one name.)
#[test]
fn a_name_placed_off_its_hash_is_still_one_name() {
    const SHARDS: usize = 3;
    let sharded = ShardedEngine::new(SHARDS);
    sharded.execute(BOOTSTRAP).unwrap();
    let home = sharded.owner_of("Flies");
    let view = (0..)
        .map(|i| format!("View{i}"))
        .find(|c| default_shard(c, SHARDS) != home)
        .unwrap();
    sharded
        .execute(&format!("LET {view} = CONSOLIDATE Flies;"))
        .unwrap();
    assert_eq!(sharded.route_of(&view), Some(home));
    for script in [
        format!("CREATE RELATION {view} (Creature: Animal);"),
        format!("CREATE RELATION Other (Creature: Animal); RENAME RELATION Other TO {view};"),
    ] {
        let e = sharded.execute(&script).unwrap_err();
        assert_eq!(e.kind(), "duplicate", "{script} {e}");
    }
    assert_eq!(sharded.route_of(&view), Some(home));
    assert_eq!(
        sharded.execute_read("SHOW RELATIONS;", 0).unwrap(),
        vec![format!("Flies, Other, {view}")]
    );
}

/// `LET x = …` runs where its sources are, so `x` may already be held
/// by another shard. The router refuses it as one engine does, with
/// kind `duplicate`, and leaves every shard and route as it was.
/// (Unchecked, the sources' shard would hold a second `N1` and the
/// original on its hash shard would be orphaned.)
#[test]
fn a_let_naming_a_relation_on_another_shard_is_refused() {
    assert_eq!((default_shard("N1", 2), default_shard("N0", 2)), (0, 1));
    let setup = "CREATE DOMAIN D; CREATE CLASS C UNDER D; CREATE INSTANCE a OF C; \
                 CREATE RELATION N1 (v: D); ASSERT N1 (a); \
                 CREATE RELATION N0 (v: D); ASSERT N0 (ALL C);";
    let shadow = "LET N1 = CONSOLIDATE N0;";
    let single = Engine::new();
    single.execute(setup).unwrap();
    let refused = ExecutorHandle::execute(&single, shadow).unwrap_err();
    assert_eq!(refused.kind(), "duplicate");

    let sharded = ShardedEngine::new(2);
    sharded.execute(setup).unwrap();
    let state = |sharded: &ShardedEngine| {
        let listings = sharded
            .shards()
            .iter()
            .map(|shard| shard.execute_read("SHOW RELATIONS; SHOW N1; SHOW N0;", 0));
        let reads = sharded.execute_read("SHOW N1; SHOW N0;", 0).unwrap();
        (
            listings
                .map(|l| l.map_err(|e| e.kind().to_string()))
                .collect::<Vec<_>>(),
            reads,
        )
    };
    let before = state(&sharded);
    let epoch = sharded.last_epoch().unwrap();
    let e = sharded.execute(shadow).unwrap_err();
    assert_eq!(e.kind(), refused.kind(), "{e}");
    assert_eq!(e.message(), refused.message());
    assert_eq!(state(&sharded), before);
    assert_eq!(
        sharded.last_epoch().unwrap(),
        epoch,
        "no shard took a write"
    );
    assert_eq!(
        (sharded.route_of("N1"), sharded.route_of("N0")),
        (Some(0), Some(1))
    );
    // A fresh name with the same sources is still placed with them.
    sharded.execute("LET N2 = CONSOLIDATE N0;").unwrap();
    assert_eq!(sharded.route_of("N2"), Some(1));
}

/// `probe` reads each shard's epoch once: its `epoch:` line is the sum
/// of the `shard-k-epoch:` lines under it even while a writer moves
/// them. (Two reads per shard, as before, tear within a few rounds.)
#[test]
fn probe_total_equals_the_sum_of_its_shard_lines_under_a_racing_writer() {
    let sharded = ShardedEngine::new(4);
    sharded.execute(BOOTSTRAP).unwrap();
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0..400 {
                // A broadcast and a routed write per turn: every shard's
                // epoch moves.
                let script = format!("CREATE INSTANCE Racer{i} OF Bird; ASSERT Flies (Racer{i});");
                sharded.execute(&script).unwrap();
            }
            done.store(true, Ordering::SeqCst);
        });
        let mut probes = 0;
        while !done.load(Ordering::SeqCst) || probes == 0 {
            let probe = sharded.probe().unwrap();
            let number = |line: &str| -> u64 {
                let (_, n) = line.split_once(": ").expect("key: value");
                n.parse().expect("an epoch")
            };
            let total = number(probe.lines().next().unwrap());
            let sum: u64 = probe
                .lines()
                .filter(|l| l.starts_with("shard-"))
                .map(number)
                .sum();
            assert_eq!(total, sum, "{probe}");
            probes += 1;
        }
    });
}

/// A name is any UTF-8 text between quotes. The router reads a shard's
/// `SHOW RELATIONS` reply back to list the catalog and to guard
/// `DROP DOMAIN`, so it must lex that reply as one engine lexes a
/// script. (At the parent the lexer turned each byte of `Ü` into a
/// `char`: one engine answered `relation Ã\u{9c}nits created`, the
/// router listed that name mangled a second time, and its `DROP DOMAIN`
/// error named a relation that existed nowhere.)
#[test]
fn non_ascii_names_cross_the_router_as_one_engine_reads_them() {
    let script = r#"CREATE DOMAIN D; CREATE INSTANCE A OF D;
        CREATE RELATION "Ünits" (x: D); CREATE RELATION "Café au lait" (x: D);
        CREATE RELATION "東京" (x: D); ASSERT "Ünits" (A);"#;
    let single = Engine::new();
    let sharded = ShardedEngine::new(2);
    let created = ExecutorHandle::execute(&single, script).unwrap();
    assert_eq!(sharded.execute(script).unwrap(), created);
    assert_eq!(created[2], "relation Ünits created");
    let shards: Vec<usize> = ["Ünits", "Café au lait", "東京"]
        .iter()
        .map(|name| sharded.owner_of(name))
        .collect();
    assert!(shards.contains(&0) && shards.contains(&1), "{shards:?}");
    for read in [
        "SHOW RELATIONS;",
        "SHOW RELATIONS OVER D;",
        "HOLDS \"Ünits\" (A);",
    ] {
        assert_eq!(
            sharded.execute_read(read, 0).unwrap(),
            single.execute_read(read, 0).unwrap(),
            "{read}"
        );
    }
    assert_eq!(
        single.execute_read("SHOW RELATIONS;", 0).unwrap(),
        ["\"Café au lait\", \"Ünits\", \"東京\""]
    );
    let refused = |handle: &dyn ExecutorHandle| handle.execute("DROP DOMAIN D;").unwrap_err();
    let (one, routed) = (refused(&single), refused(&sharded));
    assert_eq!(routed, one);
    assert!(one.message().contains("Café au lait"), "{one}");
}
