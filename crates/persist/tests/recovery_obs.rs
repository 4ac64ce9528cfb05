//! Recovery and journaling telemetry, in a test binary of its own.
//!
//! The assertions are exact deltas of process-global `hrdm-obs`
//! counters, so they hold only when nothing else in the process
//! recovers or journals while the test runs. Cargo runs each file
//! under `tests/` as its own process; this one holds a single test.

use std::path::PathBuf;

use hrdm_core::mutation::CatalogMutation;
use hrdm_obs::{metrics, trace};
use hrdm_persist::store::wal_path;
use hrdm_persist::wal::{write_header, write_record};
use hrdm_persist::{recover, DurableCatalog, WalRecord};

/// A script that applies cleanly: one domain, then a chain of classes.
fn script(n: usize) -> Vec<CatalogMutation> {
    let mut script = vec![CatalogMutation::CreateDomain { name: "D".into() }];
    for k in 1..n {
        let parent = if k == 1 {
            "D".to_string()
        } else {
            format!("C{}", k - 1)
        };
        script.push(CatalogMutation::AddClass {
            domain: "D".into(),
            name: format!("C{k}"),
            parents: vec![parent],
        });
    }
    script
}

/// The exact WAL byte stream a journal writes for `script`.
fn wal_stream(script: &[CatalogMutation]) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_header(&mut bytes);
    write_record(&mut bytes, &WalRecord::Checkpoint { lsn: 0 });
    for m in script {
        write_record(&mut bytes, &WalRecord::Mutation(m.clone()));
    }
    bytes
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hrdm_crash_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn recovery_emits_spans_and_counters() {
    let script = script(40);
    let bytes = wal_stream(&script);
    let dir = temp_dir("obs");
    // Torn tail: cut the last record in half so truncation is nonzero.
    let cut = bytes.len() - 5;
    std::fs::write(wal_path(&dir, 0), &bytes[..cut]).unwrap();

    let replayed_before = metrics::counter("recover.records_replayed").get();
    let truncated_before = metrics::counter("recover.truncated_bytes").get();
    let (rec, captured) = trace::capture("recovery-test", || recover(&dir).unwrap());

    let span = captured
        .find("recover.replay")
        .expect("recover.replay span must appear in the trace");
    assert_eq!(span.field("dir"), Some(dir.display().to_string().as_str()));
    // The image load is its own stage of a restart, inside the replay.
    assert!(
        span.children
            .iter()
            .any(|child| child.name == "recover.load_checkpoint"),
        "recover.load_checkpoint must be a child of recover.replay"
    );
    assert_eq!(rec.report.records_replayed, script.len() as u64 - 1);
    assert!(rec.report.truncated_bytes > 0);
    assert_eq!(
        metrics::counter("recover.records_replayed").get() - replayed_before,
        rec.report.records_replayed
    );
    assert_eq!(
        metrics::counter("recover.truncated_bytes").get() - truncated_before,
        rec.report.truncated_bytes
    );

    // The journaling side: appends and fsyncs are counted and spanned.
    let appends_before = metrics::counter("wal.appends").get();
    let fsyncs_before = metrics::counter("wal.fsyncs").get();
    let checkpoints_before = metrics::counter("persist.checkpoints").get();
    let (_, captured) = trace::capture("journal-test", || {
        let mut store = DurableCatalog::open(&dir).unwrap();
        store
            .mutate(CatalogMutation::CreateDomain {
                name: "ObsDomain".into(),
            })
            .unwrap();
        store.checkpoint().unwrap();
    });
    assert!(captured.find("wal.append").is_some());
    assert!(captured.find("wal.fsync").is_some());
    assert!(captured.find("persist.checkpoint").is_some());
    assert_eq!(metrics::counter("wal.appends").get() - appends_before, 1);
    assert!(metrics::counter("wal.fsyncs").get() > fsyncs_before);
    assert!(metrics::counter("persist.checkpoints").get() >= checkpoints_before + 2);

    std::fs::remove_dir_all(&dir).unwrap();
}
