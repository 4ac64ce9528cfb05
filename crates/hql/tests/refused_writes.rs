//! A refused write reaches neither readers nor the log.
//!
//! A write stages its WAL records while it runs and appends them only
//! once view maintenance has accepted it, so a write that maintenance
//! refuses — `DROP RELATION Flies` under a live `LET V = CONSOLIDATE
//! Flies` — leaves the log as it found it. The live engine, a restart
//! from a copy of the store and a WAL-fed replica must then all still
//! render `Flies`, byte for byte.

use hrdm_core::mutation::CatalogMutation;
use hrdm_hql::{Engine, ExecutorHandle, Replica};

/// A fresh store directory for one test.
fn temp_store(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hrdm_refused_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A restart at this instant: `OPEN` a copy of the store in a fresh
/// engine.
fn restart_from_copy(dir: &std::path::Path) -> (Engine, String) {
    let copy = dir.with_extension("restart");
    let _ = std::fs::remove_dir_all(&copy);
    std::fs::create_dir_all(&copy).unwrap();
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), copy.join(entry.file_name())).unwrap();
    }
    let restarted = Engine::new();
    let opened = restarted
        .execute(&format!("OPEN \"{}\";", copy.display()))
        .unwrap()[0]
        .to_string();
    (restarted, opened)
}

/// The live engine, a restart and a replica agree on `Flies` and on the
/// LSN.
fn assert_three_agree(primary: &Engine, dir: &std::path::Path, read: &str) {
    primary.sync().unwrap();
    let live = primary.execute_read(read, 0).unwrap();
    let (restarted, opened) = restart_from_copy(dir);
    assert_eq!(restarted.execute_read(read, 0).unwrap(), live, "{opened}");
    assert_eq!(restarted.journal_lsn(), primary.journal_lsn(), "{opened}");
    let replica = Replica::attach(dir);
    assert_eq!(Some(replica.sync().unwrap()), primary.journal_lsn());
    assert_eq!(replica.execute_read(read, 0).unwrap(), live);
    let _ = std::fs::remove_dir_all(dir.with_extension("restart"));
}

#[test]
fn a_drop_that_view_maintenance_refuses_stays_out_of_the_log() {
    for n in [1, 32] {
        let dir = temp_store(&format!("drop_{n}"));
        let primary = Engine::new();
        primary
            .execute(&format!(
                "OPEN \"{}\" SYNC EVERY {n}; CREATE DOMAIN Animal; \
                 CREATE CLASS Bird UNDER Animal; \
                 CREATE RELATION Flies (Creature: Animal); ASSERT Flies (Bird);",
                dir.display()
            ))
            .unwrap();
        primary.execute("LET V = CONSOLIDATE Flies;").unwrap();
        let (epoch, lsn) = (primary.epoch(), primary.journal_lsn());
        assert!(
            primary.execute("DROP RELATION Flies;").is_err(),
            "V's maintenance refuses the drop (SYNC EVERY {n})"
        );
        assert_eq!((primary.epoch(), primary.journal_lsn()), (epoch, lsn));
        assert_three_agree(&primary, &dir, "SHOW Flies; SHOW RELATIONS;");

        // The log still takes the writes that come after.
        primary.execute("ASSERT NOT Flies (Animal);").unwrap();
        assert_eq!(primary.journal_lsn(), lsn.map(|l| l + 1));
        assert_three_agree(&primary, &dir, "SHOW Flies; SHOW RELATIONS;");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn a_refused_batch_journals_none_of_its_mutations() {
    let dir = temp_store("batch");
    let primary = Engine::new();
    primary
        .execute(&format!(
            "OPEN \"{}\" SYNC EVERY 4; CREATE DOMAIN Animal; \
             CREATE CLASS Bird UNDER Animal; CREATE RELATION Flies (Creature: Animal);",
            dir.display()
        ))
        .unwrap();
    let lsn = primary.journal_lsn();
    let batch = [
        CatalogMutation::Assert {
            relation: "Flies".into(),
            values: vec!["Bird".into()],
            truth: hrdm_core::prelude::Truth::Positive,
        },
        // Refused: no such class.
        CatalogMutation::Retract {
            relation: "Flies".into(),
            values: vec!["Penguin".into()],
        },
    ];
    assert!(primary
        .apply_mutations(None, |apply| batch.iter().try_for_each(apply))
        .is_err());
    assert_eq!(
        primary.journal_lsn(),
        lsn,
        "the accepted first half is not logged"
    );
    assert_three_agree(&primary, &dir, "SHOW Flies;");
    std::fs::remove_dir_all(&dir).unwrap();
}
