//! Every `WalFile` runs a syncer thread, and a checkpoint replaces the
//! file: a thousand `CHECKPOINT`s must leave the process's thread count
//! where it was, so dropping a file joins its thread.
//!
//! `/proc/self/task` counts every thread of the process, so this binary
//! holds a single test: no other test's threads come and go beside it.

use hrdm_core::mutation::CatalogMutation;
use hrdm_persist::DurableCatalog;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

#[test]
fn a_thousand_checkpoints_leave_the_thread_count_unchanged() {
    let dir = std::env::temp_dir().join(format!("hrdm_syncer_threads_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = DurableCatalog::open_with_group(&dir, 32).unwrap();
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
    std::fs::remove_dir_all(&dir).unwrap();
}
