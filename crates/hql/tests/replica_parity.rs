//! Replica-parity harness (the acceptance gate for WAL shipping and
//! for restart).
//!
//! `hrdm-testkit`'s seeded model feeds a primary engine ≥ 1k randomized
//! mutation statements (every kind the model emits as HQL — `LET`,
//! `RENAME` and in-place `CONSOLIDATE` among them — plus rollover-forcing
//! `CHECKPOINT`s; `CONSOLIDATE`s and `CHECKPOINT`s are counted),
//! journaling through an `OPEN`ed store.
//! A [`Replica`] tails the same directory and, at randomized sync
//! points, a fresh engine `OPEN`s a *copy* of the directory (a restart
//! at that instant). Every read over the catalog (`SHOW` / `COUNT` /
//! `CHECK` per relation, `SHOW DOMAIN` per domain) and the whole
//! catalog with its view definitions (`render_stable`) must render
//! **byte-identically** on the primary, on the replica and on the
//! restart at the shipped LSN — live writes, shipped mutations and
//! recovery all run one interpreter, and this pins that they agree. The
//! shipped and recovered LSNs must equal the primary's journal LSN, and
//! statements the primary refuses (duplicate names, unknown parents or
//! domains, a retract of an absent tuple) must advance none of the
//! three.

use hrdm_hql::{Engine, ExecutorHandle, Replica};
use hrdm_testkit::Model;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SEEDS: [u64; 4] = [0xA11CE, 0xB0B, 0x5EED_CAFE, 0xD15C0];
const SCRIPT_LEN: usize = 300;
const SYNC_STRIDE: usize = 7;
/// The share of statements that are `CHECKPOINT`s, which start a new log
/// generation; the rest are the model's mutations.
const ROLLOVER_SHARE: f64 = 0.06;

fn temp_store(tag: u64) -> (std::path::PathBuf, String) {
    let dir = std::env::temp_dir().join(format!(
        "hrdm_replica_parity_{tag:x}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let quoted = dir.to_str().unwrap().to_string();
    (dir, quoted)
}

/// A restart at this instant: `OPEN` a copy of the primary's store
/// directory in a fresh engine.
fn restart_from_copy(dir: &std::path::Path) -> Engine {
    let copy = dir.with_extension("restart");
    let _ = std::fs::remove_dir_all(&copy);
    std::fs::create_dir_all(&copy).unwrap();
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), copy.join(entry.file_name())).unwrap();
    }
    let restarted = Engine::new();
    restarted
        .execute(&format!("OPEN \"{}\";", copy.to_str().unwrap()))
        .unwrap();
    restarted
}

/// Sync the replica, restart from a copy of the store, and pin byte
/// parity of all three right now.
fn assert_parity(
    primary: &Engine,
    replica: &Replica,
    model: &Model,
    dir: &std::path::Path,
    at: &str,
) {
    let shipped = replica.sync().unwrap();
    assert_eq!(
        Some(shipped),
        primary.journal_lsn(),
        "replica drained to a different LSN than the primary journaled ({at})"
    );

    // Refused statements journal nothing and publish nothing, anywhere.
    let epochs = (primary.epoch(), replica.engine().epoch());
    for stmt in model.refused_statements() {
        assert!(
            primary.execute(&stmt).is_err(),
            "primary accepted {stmt} ({at})"
        );
    }
    assert_eq!(primary.journal_lsn(), Some(shipped), "{at}");
    assert_eq!(replica.sync().unwrap(), shipped, "{at}");
    assert_eq!((primary.epoch(), replica.engine().epoch()), epochs, "{at}");
    let restarted = restart_from_copy(dir);
    assert_eq!(
        restarted.journal_lsn(),
        Some(shipped),
        "restart recovered a different LSN than the primary journaled ({at})"
    );
    let catalog = primary.snapshot().render_stable();
    assert_eq!(
        catalog,
        replica.engine().snapshot().render_stable(),
        "replica's catalog diverged from the primary's at {at} (lsn {shipped})"
    );
    assert_eq!(
        catalog,
        restarted.snapshot().render_stable(),
        "restart's catalog diverged from the primary's at {at} (lsn {shipped})"
    );

    let suite = model.read_suite();
    if suite.is_empty() {
        return;
    }
    let expected = primary.execute_read(&suite, 0).unwrap();
    assert_eq!(
        expected,
        replica.execute_read(&suite, 0).unwrap(),
        "replica diverged from the primary at {at} (lsn {shipped})"
    );
    assert_eq!(
        expected,
        restarted.execute_read(&suite, 0).unwrap(),
        "restart diverged from the primary at {at} (lsn {shipped})"
    );
    assert!(replica.execute("CREATE DOMAIN Nope;").is_err());
}

#[test]
fn replica_reads_are_byte_identical_across_randomized_histories() {
    let mut statements_total = 0usize;
    let (mut consolidates, mut checkpoints) = (0usize, 0usize);
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut model = Model::default();
        let (dir, dir_str) = temp_store(seed);

        let primary = Engine::new();
        primary
            .execute(&format!("OPEN \"{dir_str}\" SYNC EVERY 1;"))
            .unwrap();
        let replica = Replica::attach(&dir);

        for applied in 1..=SCRIPT_LEN {
            let stmt = if rng.gen_bool(ROLLOVER_SHARE) {
                "CHECKPOINT;".to_string()
            } else {
                let m = model.mutation(&mut rng);
                model.hql(&m)
            };
            if let Err(e) = primary.execute(&stmt) {
                panic!("seed {seed:#x} statement {applied}: {stmt} refused: {e}");
            }
            consolidates += usize::from(stmt.starts_with("CONSOLIDATE "));
            checkpoints += usize::from(stmt == "CHECKPOINT;");
            if applied.is_multiple_of(SYNC_STRIDE) {
                let at = format!("seed {seed:#x} statement {applied}");
                assert_parity(&primary, &replica, &model, &dir, &at);
            }
        }
        let at = format!("seed {seed:#x} statement {SCRIPT_LEN}");
        assert_parity(&primary, &replica, &model, &dir, &at);
        statements_total += SCRIPT_LEN;

        // A replica attached late sees the same state via a catch-up
        // rollover plus tail replay.
        let late = Replica::attach(&dir);
        assert_eq!(
            late.sync().unwrap(),
            replica.shipped_lsn(),
            "seed {seed:#x}"
        );
        let suite = model.read_suite();
        assert_eq!(
            replica.execute_read(&suite, 0).unwrap(),
            late.execute_read(&suite, 0).unwrap(),
            "late-attach replica diverged (seed {seed:#x})"
        );

        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(dir.with_extension("restart")).ok();
    }
    assert!(
        statements_total >= 1000,
        "harness must cover ≥ 1k mutation statements, got {statements_total}"
    );
    assert!(
        consolidates > 0 && checkpoints > 0,
        "rollovers: {consolidates} CONSOLIDATE, {checkpoints} CHECKPOINT"
    );
}
