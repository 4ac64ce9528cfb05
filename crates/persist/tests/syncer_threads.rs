//! Every `WalFile` runs a syncer thread and a checkpoint replaces the
//! file: a thousand `CHECKPOINT`s and two hundred `OPEN`s of a long log —
//! some stopped early by a refused record or a torn tail — must leave
//! the process's thread count where it was, so dropping a file joins its
//! thread however the replay before it ended.
//!
//! `/proc/self/task` counts every thread of the process, so this binary
//! holds a single test: no other test's threads come and go beside it.

use std::path::Path;

use hrdm_core::mutation::CatalogMutation;
use hrdm_core::prelude::{Catalog, Truth};
use hrdm_persist::store::{checkpoint_path, wal_path, write_checkpoint};
use hrdm_persist::{DurableCatalog, Image, WalFile};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// The thread count once it is back to `expected`, or after two
/// seconds. A joined thread can stay listed for a moment after the join
/// returns: the join wakes when the thread's exit clears its id, and the
/// kernel reaps it a little later. A thread that never ends keeps the
/// count up.
fn threads_back_to(expected: usize) -> usize {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    loop {
        let n = threads();
        if n == expected || std::time::Instant::now() > deadline {
            return n;
        }
        std::thread::yield_now();
    }
}

/// Records in each store's log.
const RECORDS: usize = 1_024;

/// A store whose log holds `RECORDS` tuple records — with a refused one
/// in the middle if `refused`, or cut inside its last frame if `torn` —
/// and how many of them recovery replays.
fn long_store(dir: &Path, refused: bool, torn: bool) -> u64 {
    use CatalogMutation::*;
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    let mut catalog = Catalog::new();
    let setup = [
        CreateDomain { name: "D".into() },
        AddInstance {
            domain: "D".into(),
            name: "x".into(),
            parents: vec!["D".into()],
        },
        CreateRelation {
            name: "R".into(),
            attributes: vec![("V".into(), "D".into())],
        },
    ];
    for m in &setup {
        catalog.apply_mutation(m).unwrap();
    }
    write_checkpoint(dir, 0, &Image::from_catalog(&catalog)).unwrap();
    let values = vec!["x".to_string()];
    let mut wal = WalFile::create(wal_path(dir, 0), 0, usize::MAX).unwrap();
    for k in 0..RECORDS {
        let relation = "R".to_string();
        let values = values.clone();
        wal.append(&match (k % 2, refused && k == RECORDS / 2) {
            (_, true) | (1, _) => Retract { relation, values },
            _ => Assert {
                relation,
                values,
                truth: Truth::Positive,
            },
        })
        .unwrap();
    }
    wal.sync().unwrap();
    drop(wal);
    let log = wal_path(dir, 0);
    let len = std::fs::metadata(&log).unwrap().len();
    if torn {
        let file = std::fs::OpenOptions::new().write(true).open(&log).unwrap();
        file.set_len(len - 2).unwrap();
    }
    match (refused, torn) {
        (true, _) => RECORDS as u64 / 2,
        (false, true) => RECORDS as u64 - 1,
        (false, false) => RECORDS as u64,
    }
}

#[test]
fn checkpoints_and_long_opens_leave_the_thread_count_unchanged() {
    let dir = std::env::temp_dir().join(format!("hrdm_syncer_threads_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let stores = [(false, false), (true, false), (false, true)].map(|(refused, torn)| {
        let store = dir.join(format!("long_{refused}_{torn}"));
        let replayed = long_store(&store, refused, torn);
        (store, replayed)
    });
    let base = dir.join("base");
    let mut store = DurableCatalog::open_with_group(&base, 32).unwrap();
    let before = threads();
    for i in 0..1_000 {
        let name = "D".to_string();
        store
            .mutate(match i % 2 {
                0 => CatalogMutation::CreateDomain { name },
                _ => CatalogMutation::DropDomain { name },
            })
            .unwrap();
        store.checkpoint().unwrap();
    }
    assert_eq!(threads(), before, "a checkpoint leaked its syncer thread");
    drop(store);
    assert_eq!(threads(), before - 1, "dropping the store joins its syncer");

    // Each OPEN starts a new generation, so each opens a fresh copy.
    let copy = dir.join("copy");
    for i in 0..200 {
        let (long, replayed) = &stores[i % stores.len()];
        let _ = std::fs::remove_dir_all(&copy);
        std::fs::create_dir_all(&copy).unwrap();
        for path in [checkpoint_path(long, 0), wal_path(long, 0)] {
            std::fs::copy(&path, copy.join(path.file_name().unwrap())).unwrap();
        }
        let opened = DurableCatalog::open_with_group(&copy, 32).unwrap();
        assert_eq!(opened.recovery_report().records_replayed, *replayed);
        drop(opened);
        let after = threads_back_to(before - 1);
        assert_eq!(after, before - 1, "OPEN {i} left a thread behind");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
