//! WAL-shipping telemetry, in a test binary of its own.
//!
//! The assertions are exact deltas of process-global `hrdm-obs`
//! counters, so they hold only when nothing else in the process tails
//! a store while the test runs. Cargo runs each file under `tests/` as
//! its own process; this one holds a single test.

use std::path::PathBuf;

use hrdm_core::mutation::CatalogMutation;
use hrdm_core::prelude::Catalog;
use hrdm_obs::metrics;
use hrdm_persist::store::{wal_path, write_checkpoint};
use hrdm_persist::wal::{write_header, write_record};
use hrdm_persist::{Image, PersistError, WalRecord, WalTailer};

const RECORDS: usize = 200;
const STEPS: usize = 10;

/// One domain, then a flat run of classes under it.
fn script() -> Vec<CatalogMutation> {
    let mut script = vec![CatalogMutation::CreateDomain { name: "D".into() }];
    for k in 1..RECORDS {
        script.push(CatalogMutation::AddClass {
            domain: "D".into(),
            name: format!("C{k}"),
            parents: vec!["D".into()],
        });
    }
    script
}

/// The WAL byte stream of a generation at `lsn`, and where each
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

/// The tailer's counters, read as one row.
fn counters() -> [u64; 6] {
    [
        "ship.poll_bytes",
        "ship.checkpoint_loads",
        "ship.rollovers",
        "ship.mutations",
        "ship.corrupt_records",
        "ship.resets",
    ]
    .map(|name| metrics::counter(name).get())
}

fn since(before: [u64; 6]) -> [u64; 6] {
    let now = counters();
    std::array::from_fn(|k| now[k] - before[k])
}

/// Polling costs what is new: a log polled in k steps is read once
/// (plus at most one partial frame per step), and a generation's
/// checkpoint image is opened once however often it is polled. Damage
/// and a recreated directory each move their own counter.
#[test]
fn polling_reads_each_byte_once_and_counts_what_goes_wrong() {
    let dir: PathBuf = std::env::temp_dir().join(format!("hrdm_ship_obs_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let script = script();
    let (bytes, ends) = wal_stream(0, &script);
    let wal_len = bytes.len() as u64;
    let longest_frame = ends.windows(2).map(|w| w[1] - w[0]).max().unwrap() as u64;
    write_checkpoint(&dir, 0, &Image::new()).unwrap();
    let wal = wal_path(&dir, 0);

    // k steps, each ending on a frame boundary: exactly the file, once.
    let before = counters();
    let mut tailer = WalTailer::attach(&dir);
    for step in 1..=STEPS {
        std::fs::write(&wal, &bytes[..ends[step * RECORDS / STEPS - 1]]).unwrap();
        assert_eq!(
            tailer.poll().unwrap().len(),
            RECORDS / STEPS + usize::from(step == 1),
            "step {step}: its records, and the rollover with the first"
        );
    }
    assert!(tailer.poll().unwrap().is_empty());
    assert!(tailer.poll().unwrap().is_empty());
    assert_eq!(
        since(before),
        [wal_len, 1, 1, RECORDS as u64, 0, 0],
        "bytes read, images loaded, rollovers, mutations, corrupt, resets"
    );

    // k steps, each ending three bytes into a frame: the partial frame
    // is read again by the next step, and nothing else is.
    let before = counters();
    let mut tailer = WalTailer::attach(&dir);
    for step in 1..STEPS {
        std::fs::write(&wal, &bytes[..ends[step * RECORDS / STEPS - 1] + 3]).unwrap();
        tailer.poll().unwrap();
    }
    std::fs::write(&wal, &bytes).unwrap();
    tailer.poll().unwrap();
    let [read, loads, rollovers, shipped, ..] = since(before);
    assert!(
        (wal_len..=wal_len + STEPS as u64 * longest_frame).contains(&read),
        "read {read} bytes of a {wal_len}-byte log in {STEPS} steps"
    );
    assert_eq!([loads, rollovers, shipped], [1, 1, RECORDS as u64]);

    // A complete frame that fails its checksum: the poll that finds it
    // first in line fails and is counted, every time.
    let mut damaged = bytes.clone();
    damaged[ends[99] + 6] ^= 0x10;
    std::fs::write(&wal, &damaged).unwrap();
    let before = counters();
    let mut tailer = WalTailer::attach(&dir);
    assert_eq!(tailer.poll().unwrap().len(), 1 + 100);
    for _ in 0..2 {
        let expected = format!("at byte {}:", ends[99]);
        assert!(matches!(
            tailer.poll(),
            Err(PersistError::Corrupt(msg)) if msg.contains(&expected)
        ));
    }
    assert_eq!(tailer.shipped_lsn(), 100);
    let [_, loads, rollovers, shipped, corrupt, resets] = since(before);
    assert_eq!(
        [loads, rollovers, shipped, corrupt, resets],
        [1, 1, 100, 2, 0]
    );

    // A checkpoint supersedes the damage: one more image, no re-read.
    let mut all = Catalog::new();
    for m in &script {
        all.apply_mutation(m).unwrap();
    }
    write_checkpoint(&dir, RECORDS as u64, &Image::from_catalog(&all)).unwrap();
    let before = counters();
    assert_eq!(tailer.poll().unwrap().len(), 1);
    assert!(tailer.poll().unwrap().is_empty());
    assert_eq!(tailer.shipped_lsn(), RECORDS as u64);
    assert_eq!(since(before), [0, 1, 1, 0, 0, 0]);

    // The directory recreated under the tailer: the WAL it points into
    // is now shorter than its cursor, so it starts over from the
    // checkpoint instead of seeking past the end.
    let generation = RECORDS as u64;
    let (longer, _) = wal_stream(generation, &script[..2]);
    let (shorter, _) = wal_stream(generation, &[]);
    std::fs::write(wal_path(&dir, generation), &longer).unwrap();
    assert_eq!(tailer.poll().unwrap().len(), 2);
    std::fs::write(wal_path(&dir, generation), &shorter).unwrap();
    let before = counters();
    assert_eq!(tailer.poll().unwrap().len(), 1, "the rollover again");
    assert_eq!(tailer.shipped_lsn(), generation);
    assert_eq!(since(before), [shorter.len() as u64, 1, 1, 0, 0, 1]);

    std::fs::remove_dir_all(&dir).unwrap();
}
