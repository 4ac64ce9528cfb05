//! What a replica promises when the log is long, wrong or unfinished
//! (the module docs of `hrdm_hql::replica` state it; this pins it).
//!
//! Every test hand-writes the store directory a primary would have
//! left — a checkpoint image and the exact WAL byte stream — so it can
//! put into the log what no live primary would: a record the replica
//! must refuse, a flipped bit with intact records after it, a frame
//! that stops half way.

use std::path::PathBuf;

use hrdm_core::mutation::CatalogMutation;
use hrdm_core::prelude::{Catalog, Truth};
use hrdm_hql::replica::SYNC_BATCH;
use hrdm_hql::{Engine, ExecutorHandle, Replica};
use hrdm_persist::store::{wal_path, write_checkpoint};
use hrdm_persist::wal::{write_header, write_record};
use hrdm_persist::{Image, WalRecord};

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hrdm_replica_contract_{tag}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The WAL byte stream of the generation at `lsn`, and where each
/// mutation frame ends.
fn wal_stream(lsn: u64, script: &[CatalogMutation]) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = Vec::new();
    write_header(&mut bytes).unwrap();
    write_record(&mut bytes, &WalRecord::Checkpoint { lsn }).unwrap();
    let mut ends = Vec::new();
    for m in script {
        write_record(&mut bytes, &WalRecord::Mutation(m.clone())).unwrap();
        ends.push(bytes.len());
    }
    (bytes, ends)
}

fn assert_r(value: &str) -> CatalogMutation {
    CatalogMutation::Assert {
        relation: "R".into(),
        values: vec![value.into()],
        truth: Truth::Positive,
    }
}

/// A domain with two classes, a relation over it, three rows.
fn script() -> Vec<CatalogMutation> {
    let class = |name: &str| CatalogMutation::AddClass {
        domain: "D".into(),
        name: name.into(),
        parents: vec!["D".into()],
    };
    vec![
        CatalogMutation::CreateDomain { name: "D".into() },
        class("A"),
        class("B"),
        CatalogMutation::CreateRelation {
            name: "R".into(),
            attributes: vec![("V".into(), "D".into())],
        },
        assert_r("A"),
        assert_r("B"),
        assert_r("D"),
    ]
}

const READS: &str = "SHOW DOMAIN D; SHOW R; COUNT R;";

/// What the primary rendered after the first `lsn` mutations.
fn primary_at(script: &[CatalogMutation], lsn: u64) -> Vec<String> {
    let primary = Engine::new();
    primary
        .apply_mutations(None, |apply| {
            script[..lsn as usize].iter().try_for_each(apply)
        })
        .unwrap();
    primary.execute_read(READS, 0).unwrap()
}

fn assert_serves(replica: &Replica, script: &[CatalogMutation], lsn: u64) {
    assert_eq!(replica.shipped_lsn(), lsn);
    assert_eq!(
        replica.execute_read(READS, 0).unwrap(),
        primary_at(script, lsn),
        "the replica does not serve the primary's state at lsn {lsn}"
    );
}

/// One epoch per batch, however many records: a sync publishes once
/// per `SYNC_BATCH` records (the rollover rides with the first), and a
/// replica attached late to a long log never applies more than that in
/// one transaction.
#[test]
fn a_sync_publishes_one_epoch_per_batch() {
    let dir = temp_store("batch");
    let mut script = vec![CatalogMutation::CreateDomain { name: "D".into() }];
    script.extend((1..SYNC_BATCH + 10).map(|k| CatalogMutation::AddInstance {
        domain: "D".into(),
        name: format!("i{k}"),
        parents: vec!["D".into()],
    }));
    let (bytes, ends) = wal_stream(0, &script);
    write_checkpoint(&dir, 0, &Image::new()).unwrap();

    std::fs::write(wal_path(&dir, 0), &bytes[..ends[99]]).unwrap();
    let replica = Replica::attach(&dir);
    assert_eq!(replica.sync().unwrap(), 100);
    assert_eq!(
        replica.engine().epoch(),
        1,
        "image and 100 records: one epoch"
    );
    assert_eq!(replica.sync().unwrap(), 100);
    assert_eq!(
        replica.engine().epoch(),
        1,
        "nothing new, nothing published"
    );
    let probe = replica.probe().unwrap();
    assert!(
        probe.contains("shipped-lsn: 100\nlast-sync-records: 0\n"),
        "{probe}"
    );

    std::fs::write(wal_path(&dir, 0), &bytes).unwrap();
    assert_eq!(replica.sync().unwrap(), script.len() as u64);
    assert_eq!(replica.engine().epoch(), 2);
    let records = script.len() - 100;
    assert!(replica
        .probe()
        .unwrap()
        .contains(&format!("last-sync-records: {records}\n")));

    // Attached late, the same log is two transactions: a full batch
    // (with the image), then the rest.
    let late = Replica::attach(&dir);
    assert_eq!(late.sync().unwrap(), script.len() as u64);
    assert_eq!(late.engine().epoch(), 2);
    for r in [&replica, &late] {
        assert_eq!(
            r.engine().snapshot().domain("D").unwrap().len(),
            script.len(),
            "the root and one node per record after it"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A record the replica cannot apply fails the sync, publishes nothing
/// of its batch — not the good records before it either — and is not
/// skipped: the next sync fails on the same record in the same words.
/// Only a checkpoint gets the replica past it.
#[test]
fn an_inapplicable_record_fails_every_sync_and_loses_nothing() {
    let dir = temp_store("inapplicable");
    let mut script = script();
    let good = script.len() as u64;
    // What no primary would have journaled: a retract of a row that is
    // not there, between two records that are fine.
    script.extend([
        CatalogMutation::AddClass {
            domain: "D".into(),
            name: "C".into(),
            parents: vec!["A".into()],
        },
        CatalogMutation::Retract {
            relation: "R".into(),
            values: vec!["C".into()],
        },
        assert_r("C"),
    ]);
    let (bytes, ends) = wal_stream(0, &script);
    write_checkpoint(&dir, 0, &Image::new()).unwrap();
    std::fs::write(wal_path(&dir, 0), &bytes[..ends[good as usize - 1]]).unwrap();

    let replica = Replica::attach(&dir);
    assert_eq!(replica.sync().unwrap(), good);
    let epoch = replica.engine().epoch();
    assert_serves(&replica, &script, good);

    std::fs::write(wal_path(&dir, 0), &bytes).unwrap();
    let first = replica.sync().unwrap_err();
    assert_eq!(first.kind(), "unknown", "{first}");
    assert_eq!(
        replica.engine().epoch(),
        epoch,
        "a failed batch publishes nothing"
    );
    assert_serves(&replica, &script, good);
    let again = replica.sync().unwrap_err();
    assert_eq!(
        (again.kind(), again.to_string()),
        (first.kind(), first.to_string()),
        "the same record fails the same way: no LSN was skipped"
    );
    assert_serves(&replica, &script, good);

    // The primary's next checkpoint supersedes the generation.
    let mut catalog = Catalog::new();
    for m in &script[..good as usize + 1] {
        catalog.apply_mutation(m).unwrap();
    }
    write_checkpoint(&dir, good + 1, &Image::from_catalog(&catalog)).unwrap();
    assert_eq!(replica.sync().unwrap(), good + 1);
    assert_serves(&replica, &script, good + 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A record refused in the first transaction, the one that carries the
/// checkpoint image, takes the image down with it: the replica stays
/// where it attached — epoch 0, shipped LSN 0, no relation — and the
/// next sync brings the image and fails at the same record again.
#[test]
fn a_refused_first_batch_keeps_its_rollover() {
    let dir = temp_store("first");
    let script = script();
    let base = 4; // the domain, its two classes and `R`
    let mut catalog = Catalog::new();
    for m in &script[..base] {
        catalog.apply_mutation(m).unwrap();
    }
    write_checkpoint(&dir, base as u64, &Image::from_catalog(&catalog)).unwrap();
    let absent = CatalogMutation::Retract {
        relation: "R".into(),
        values: vec!["D".into()],
    };
    let records = [assert_r("A"), assert_r("B"), absent];
    let (bytes, _) = wal_stream(base as u64, &records);
    std::fs::write(wal_path(&dir, base as u64), &bytes).unwrap();

    let replica = Replica::attach(&dir);
    let first = replica.sync().unwrap_err();
    assert_eq!(first.kind(), "unknown", "{first}");
    let relations = replica.execute_read("SHOW RELATIONS;", 0).unwrap();
    assert_eq!(
        relations,
        Engine::new().execute_read("SHOW RELATIONS;", 0).unwrap()
    );
    let again = replica.sync().unwrap_err();
    assert_eq!(
        (again.kind(), again.to_string()),
        (first.kind(), first.to_string())
    );
    assert_eq!(replica.engine().epoch(), 0);
    assert_eq!(replica.shipped_lsn(), 0);
    assert_eq!(
        replica
            .engine()
            .metrics()
            .counter("replica.apply_errors")
            .get(),
        2
    );

    // A checkpoint past the two good records supersedes the generation.
    for m in &records[..2] {
        catalog.apply_mutation(m).unwrap();
    }
    write_checkpoint(&dir, base as u64 + 2, &Image::from_catalog(&catalog)).unwrap();
    assert_eq!(replica.sync().unwrap(), base as u64 + 2);
    assert_serves(&replica, &script, base as u64 + 2);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A flipped bit mid-log is `corrupt` on every sync — with the intact
/// records before it applied and served — and never a quiet stall; a
/// log that merely stops mid-frame is not an error, and the replica
/// carries on when the rest of the frame arrives.
#[test]
fn mid_log_damage_is_corrupt_and_a_short_tail_is_not() {
    let dir = temp_store("damage");
    let script = script();
    let total = script.len() as u64;
    let (bytes, ends) = wal_stream(0, &script);
    write_checkpoint(&dir, 0, &Image::new()).unwrap();

    // Record 5 (of 7) takes a flipped payload bit.
    let mut damaged = bytes.clone();
    damaged[ends[4] - 1] ^= 0x04;
    std::fs::write(wal_path(&dir, 0), &damaged).unwrap();
    let replica = Replica::attach(&dir);
    // Damage counts in `ship.corrupt_records`, not as a refused record.
    let apply_errors = replica.engine().metrics().counter("replica.apply_errors");
    let mut epoch = None;
    for _ in 0..3 {
        let e = replica.sync().unwrap_err();
        assert_eq!(e.kind(), "corrupt", "{e}");
        assert!(
            e.to_string().contains(&format!("at byte {}:", ends[3])),
            "{e}"
        );
        assert_serves(&replica, &script, 4);
        let now = replica.engine().epoch();
        assert_eq!(
            *epoch.get_or_insert(now),
            now,
            "damage again publishes nothing"
        );
        assert_eq!(apply_errors.get(), 0);
    }

    // The same file, repaired but stopping inside record 6.
    std::fs::write(wal_path(&dir, 0), &bytes[..ends[5] - 2]).unwrap();
    assert_eq!(replica.sync().unwrap(), 5);
    let epoch = replica.engine().epoch();
    assert_eq!(replica.sync().unwrap(), 5, "a short tail waits, quietly");
    assert_eq!(replica.engine().epoch(), epoch, "and publishes nothing");
    assert_serves(&replica, &script, 5);
    std::fs::write(wal_path(&dir, 0), &bytes).unwrap();
    assert_eq!(replica.sync().unwrap(), total);
    assert_serves(&replica, &script, total);
    assert_eq!(apply_errors.get(), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}
