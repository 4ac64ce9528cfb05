//! The per-write stage split, in a test binary of its own.
//!
//! The assertions are deltas of process-global `hrdm-obs` histograms,
//! so they hold only when nothing else in the process writes while the
//! test runs. Cargo runs each file under `tests/` as its own process;
//! this one holds a single test.

use std::time::{Duration, Instant};

use hrdm_hql::parser::parse;
use hrdm_hql::Engine;
use hrdm_obs::metrics;

const STAGES: [&str; 6] = [
    "engine.write.clone",
    "engine.write.apply",
    "engine.write.journal",
    "engine.write.net_delta",
    "engine.write.maintain",
    "engine.write.publish",
];

/// `(observations, total ns)` of every stage histogram, in order.
fn stages() -> Vec<(u64, u64)> {
    STAGES
        .iter()
        .map(|name| {
            let h = metrics::histogram(name);
            (h.count(), h.sum_ns())
        })
        .collect()
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
    let dir = std::env::temp_dir().join(format!("hrdm_write_stages_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
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

    let before = stages();
    let mut enclosing = Duration::ZERO;
    for statement in statements {
        let started = Instant::now();
        engine.execute_statement(statement).unwrap();
        enclosing += started.elapsed();
    }
    let after = stages();

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
    let before = stages();
    assert!(engine.execute("RETRACT Flies (Animal);").is_err());
    assert_eq!(stages(), before);
    let _ = std::fs::remove_dir_all(&dir);
}
