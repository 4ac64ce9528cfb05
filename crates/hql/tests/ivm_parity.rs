//! Incremental view maintenance versus full recomputation, end to end
//! through the public engine API, on thousands of random mutation
//! scripts.
//!
//! Every script builds a taxonomy, binds a family of `LET` views
//! (consolidate, union, select, explicate, and a view over views),
//! then runs a random mutation sequence: asserts, retracts, domain
//! edits (`CREATE CLASS`/`CREATE INSTANCE`/`PREFER` — the fallback
//! triggers), preemption switches, and in-place operators. After
//! **every** committed statement, each live view must be
//! `render_table`-byte-identical to the oracle: a fresh engine that
//! replays the committed mutation history and only then derives the
//! same `LET` bindings from scratch. A divergence anywhere — one epoch,
//! one view, one byte — fails the sweep with the script seed.
//!
//! The sweep also proves the engine exercised both maintenance paths
//! (differential and fallback) by checking the `ivm.*` counters moved.

use hrdm_core::prelude::Truth;
use hrdm_core::render::render_table;
use hrdm_hql::Engine;
use hrdm_obs::metrics;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const VIEWS: [&str; 5] = ["VC", "VU", "VS", "VE", "VV"];

/// The `LET` family under test; `VV` cascades over two other views.
fn view_script() -> String {
    "LET VC = CONSOLIDATE R0;\
     LET VU = UNION R0 R1;\
     LET VS = SELECT R1 WHERE V IS ALL A;\
     LET VE = EXPLICATE R0;\
     LET VV = INTERSECT VU VC;"
        .to_string()
}

/// One random mutation statement over the growing name pool.
fn random_statement(seed: u64, pool: &mut Vec<String>, fresh: &mut u32) -> String {
    let pick = |s: u64, pool: &[String]| pool[(s as usize >> 16) % pool.len()].clone();
    match seed % 10 {
        0 | 1 => {
            let truth = if seed & 0x100 == 0 { "" } else { "NOT " };
            format!("ASSERT {truth}R{} (ALL {});", seed % 2, pick(seed, pool))
        }
        2 | 3 => format!("ASSERT R{} ({});", seed % 2, pick(seed, pool)),
        4 => format!("RETRACT R{} ({});", seed % 2, pick(seed, pool)),
        5 => {
            *fresh += 1;
            let name = format!("K{fresh}");
            let parent = pick(seed, pool);
            pool.push(name.clone());
            format!("CREATE CLASS {name} UNDER {parent};")
        }
        6 => {
            *fresh += 1;
            let name = format!("k{fresh}");
            let parent = pick(seed, pool);
            pool.push(name.clone());
            format!("CREATE INSTANCE {name} OF {parent};")
        }
        7 => format!(
            "PREFER {} OVER {} IN D;",
            pick(seed, pool),
            pick(seed >> 7, pool)
        ),
        8 => {
            let mode = ["OFF-PATH", "ON-PATH", "NONE"][(seed as usize >> 9) % 3];
            format!("SET PREEMPTION R{} {mode};", seed % 2)
        }
        _ => format!("CONSOLIDATE R{};", seed % 2),
    }
}

/// Maintained views must match a fresh re-derivation over the replayed
/// mutation history, byte for byte.
fn check_views(live: &Engine, history: &[String], context: &str) {
    let oracle = Engine::new();
    for stmt in history {
        oracle
            .execute(stmt)
            .unwrap_or_else(|e| panic!("{context}: oracle replay of {stmt:?} failed: {e}"));
    }
    oracle.execute(&view_script()).unwrap_or_else(|e| {
        panic!(
            "{context}: oracle LET failed: {e}\nhistory:\n{}",
            history.join("\n")
        )
    });
    let live_snap = live.snapshot();
    let oracle_snap = oracle.snapshot();
    for view in VIEWS {
        let l = render_table(live_snap.relation(view).expect("live view exists"));
        let o = render_table(oracle_snap.relation(view).expect("oracle view exists"));
        assert_eq!(
            l.into_bytes(),
            o.into_bytes(),
            "{context}: view {view} diverged from full recomputation\nhistory:\n{}",
            history.join("\n")
        );
    }
}

fn run_script(seed: u64, steps: usize) -> u64 {
    let mut rng = seed;
    let engine = Engine::new();
    let mut history: Vec<String> = vec![
        "CREATE DOMAIN D;".into(),
        "CREATE CLASS A UNDER D;".into(),
        "CREATE CLASS B UNDER D;".into(),
        "CREATE CLASS C UNDER A;".into(),
        "CREATE INSTANCE x OF A;".into(),
        "CREATE INSTANCE y OF B;".into(),
        "CREATE INSTANCE z OF C;".into(),
        "CREATE RELATION R0 (V: D);".into(),
        "CREATE RELATION R1 (V: D);".into(),
        format!(
            "ASSERT R0 (ALL {});",
            ["A", "B", "C"][(seed as usize >> 4) % 3]
        ),
        format!(
            "ASSERT {}R1 (ALL {});",
            if seed & 1 == 0 { "" } else { "NOT " },
            ["A", "B", "C"][(seed as usize >> 6) % 3]
        ),
    ];
    for stmt in &history {
        engine.execute(stmt).expect("setup statements are valid");
    }
    engine.execute(&view_script()).expect("LET family binds");

    let mut pool: Vec<String> = ["A", "B", "C", "x", "y", "z"]
        .into_iter()
        .map(String::from)
        .collect();
    let mut fresh = 0u32;
    let mut committed = 0u64;
    for step in 0..steps {
        let sseed = splitmix(&mut rng);
        let stmt = random_statement(sseed, &mut pool, &mut fresh);
        match engine.execute(&stmt) {
            Ok(_) => {
                history.push(stmt);
                committed += 1;
                check_views(
                    &engine,
                    &history,
                    &format!(
                        "script {seed:#x} step {step} ({:?})",
                        history.last().unwrap()
                    ),
                );
            }
            Err(_) => {
                // Rejected atomically (bad statement, integrity
                // violation, or a view that would lose derivability):
                // nothing published, views must still match the
                // *previous* history.
                check_views(
                    &engine,
                    &history,
                    &format!("script {seed:#x} step {step} (after rejected {stmt:?})"),
                );
            }
        }
    }
    committed
}

/// The headline sweep: random mutation scripts with per-epoch byte
/// identity between maintained views and full recomputation. Sized so
/// the suite crosses the 2k-script mark with both maintenance paths
/// exercised.
#[test]
fn maintained_views_match_recomputation_on_random_scripts() {
    let maintained0 = metrics::counter("ivm.maintained").get();
    let fallback0 = metrics::counter("ivm.fallback").get();

    const SCRIPTS: u64 = 2_048;
    const STEPS: usize = 6;
    let mut rng = 0x11af_00d5_0000_0001u64;
    let mut committed = 0u64;
    for _ in 0..SCRIPTS {
        committed += run_script(splitmix(&mut rng), STEPS);
    }
    assert!(
        committed > 4_000,
        "only {committed} committed mutation steps across the sweep"
    );
    assert!(
        metrics::counter("ivm.maintained").get() > maintained0,
        "differential path never ran"
    );
    assert!(
        metrics::counter("ivm.fallback").get() > fallback0,
        "fallback path never ran (domain edits must trigger it)"
    );
}

/// Directly writing into a view's relation detaches it: the relation
/// keeps the user's rows and stops tracking its derivation.
#[test]
fn direct_write_detaches_the_view() {
    let engine = Engine::new();
    engine
        .execute(
            "CREATE DOMAIN D; CREATE CLASS A UNDER D; CREATE CLASS B UNDER D;\
             CREATE CLASS E UNDER D;\
             CREATE RELATION R (V: D); ASSERT R (ALL A);\
             LET V = CONSOLIDATE R;",
        )
        .unwrap();
    assert!(engine.snapshot().is_view("V"));
    // Maintained: a new base row shows up in the view.
    engine.execute("ASSERT R (ALL B);").unwrap();
    assert_eq!(engine.snapshot().relation("V").unwrap().len(), 2);
    // Direct write into V detaches it…
    engine.execute("ASSERT NOT V (ALL E);").unwrap();
    assert!(!engine.snapshot().is_view("V"));
    let frozen = render_table(engine.snapshot().relation("V").unwrap());
    // …so later base writes no longer touch it.
    engine.execute("RETRACT R (ALL A);").unwrap();
    assert_eq!(
        render_table(engine.snapshot().relation("V").unwrap()),
        frozen,
        "detached view must stop tracking its base"
    );
}

/// A committed write publishes one epoch whose world holds the rows
/// view maintenance cascaded into the views; a domain edit under a
/// view rebuilds it.
#[test]
fn writes_publish_their_epoch_with_the_views_maintained() {
    let engine = Engine::new();
    engine
        .execute(
            "CREATE DOMAIN D; CREATE CLASS A UNDER D;\
             CREATE RELATION R (V: D); LET V = CONSOLIDATE R;",
        )
        .unwrap();
    let epoch = engine.epoch();
    engine.execute("ASSERT R (ALL A);").unwrap();
    let snapshot = engine.snapshot();
    assert_eq!((snapshot.epoch(), engine.epoch()), (epoch + 1, epoch + 1));
    let rows = |name: &str| {
        let relation = snapshot.relation(name).unwrap();
        let a = relation.item(&["A"]).unwrap();
        (relation.len(), relation.stored(&a))
    };
    assert_eq!(rows("R"), (1, Some(Truth::Positive)));
    assert_eq!(rows("V"), (1, Some(Truth::Positive)), "view rows cascaded");
    // Domain edits rebuild the views over the domain.
    let fallback = engine.metrics().counter("ivm.fallback");
    let before = fallback.get();
    engine.execute("CREATE CLASS B UNDER D;").unwrap();
    assert_eq!(fallback.get(), before + 1);
}

/// A mutation that would leave a view under-derivable fails atomically:
/// the base write is rejected too, and nothing publishes.
#[test]
fn maintenance_failure_rejects_the_statement() {
    let engine = Engine::new();
    engine
        .execute(
            "CREATE DOMAIN D; CREATE CLASS A UNDER D; CREATE CLASS B UNDER D;\
             CREATE INSTANCE x OF A, B;\
             CREATE RELATION R (V: D); CREATE RELATION S (V: D);\
             ASSERT R (ALL A); LET V = UNION R S;",
        )
        .unwrap();
    let epoch = engine.epoch();
    // ¬B makes x (under both A and B) ambiguous in R; the union view's
    // re-derivation rejects the conflicted input, so the *assert* must
    // fail and publish nothing — live views enforce derivability.
    let err = engine.execute("ASSERT NOT R (ALL B);").unwrap_err();
    let _ = format!("{err}");
    assert_eq!(
        engine.epoch(),
        epoch,
        "failed maintenance published nothing"
    );
    assert_eq!(
        engine.snapshot().relation("R").unwrap().len(),
        1,
        "base write rolled back with the failed maintenance"
    );
}
