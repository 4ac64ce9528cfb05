//! Decoding ahead changes where a replay's work runs, not what it does:
//! [`WalReader::replay_ahead`] (a helper thread decodes batches of
//! [`REPLAY_BATCH`] records while the caller applies) must take the same
//! records, stop at the same offset for the same reason, and leave the
//! same catalog as the sequential [`WalReader::replay`].
//!
//! The history is `hrdm-testkit`'s seeded model, longer than four
//! batches, so every batch boundary the pipeline hands over at is
//! reached. Around each boundary, and in the last two frames, the log is
//! cut at every byte; every bit of the two frames that meet at each
//! boundary is flipped; a refused record (a `Retract` of a tuple that is
//! not stored) sits first, last and on either side of the first
//! boundary; and a checkpoint record names another generation, or sits
//! at a batch boundary. Each damaged log is replayed both ways from the
//! same base catalog.
//!
//! A replay of this history costs ~10 ms in release builds and ~85 ms in
//! debug builds, so debug builds take every 16th cut and flip of the
//! release sweeps (CI runs this binary in release).

use hrdm_core::mutation::CatalogMutation;
use hrdm_core::prelude::Catalog;
use hrdm_persist::wal::{write_header, write_record, Replayed, REPLAY_BATCH};
use hrdm_persist::{WalReader, WalRecord};

const SEED: u64 = 0xA11E_AD00;
const B: usize = REPLAY_BATCH;
/// Four batches and part of a fifth.
const HISTORY: usize = 4 * B + 100;
/// Every `STRIDE`-th cut and bit flip is replayed.
const STRIDE: usize = if cfg!(debug_assertions) { 16 } else { 1 };

/// The catalog every replay starts from: a relation the model's history
/// never touches, which stores nothing.
fn base() -> Catalog {
    let mut catalog = Catalog::new();
    for m in [
        CatalogMutation::CreateDomain {
            name: "Zone".into(),
        },
        CatalogMutation::AddInstance {
            domain: "Zone".into(),
            name: "z".into(),
            parents: vec!["Zone".into()],
        },
        CatalogMutation::CreateRelation {
            name: "Absent".into(),
            attributes: vec![("v".into(), "Zone".into())],
        },
    ] {
        catalog.apply_mutation(&m).unwrap();
    }
    catalog
}

/// A record the catalog refuses: its tuple is not stored.
fn refused() -> CatalogMutation {
    CatalogMutation::Retract {
        relation: "Absent".into(),
        values: vec!["z".into()],
    }
}

/// The log of `records` extending checkpoint `lsn`, and the byte offset
/// each record's frame starts at (then the log's length).
fn log(lsn: u64, records: &[WalRecord]) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = Vec::new();
    write_header(&mut bytes).unwrap();
    write_record(&mut bytes, &WalRecord::Checkpoint { lsn }).unwrap();
    let mut starts = vec![bytes.len()];
    for r in records {
        write_record(&mut bytes, r).unwrap();
        starts.push(bytes.len());
    }
    (bytes, starts)
}

fn mutations(script: &[CatalogMutation]) -> Vec<WalRecord> {
    script.iter().cloned().map(WalRecord::Mutation).collect()
}

/// What a replay did, comparable: taken, offset, why, and the catalog.
type Outcome = (u64, u64, String, String);

fn outcome<E: std::fmt::Debug>(replayed: Replayed<E>, catalog: Catalog) -> Outcome {
    let Replayed { taken, at, stop } = replayed;
    (taken, at, format!("{stop:?}"), catalog.render_stable())
}

/// Replay `bytes` as generation 0 from [`base`], on this thread alone.
fn sequential(bytes: &[u8]) -> Outcome {
    let mut catalog = base();
    let replayed =
        WalReader::new(bytes)
            .unwrap()
            .replay(0, &mut CatalogMutation::default(), u64::MAX, |m| {
                catalog.apply_mutation(m).map(drop)
            });
    outcome(replayed, catalog)
}

/// Replay `bytes` as generation 0 from [`base`], decoding ahead.
fn ahead(bytes: &[u8]) -> Outcome {
    let mut catalog = base();
    let replayed = WalReader::new(bytes)
        .unwrap()
        .replay_ahead(0, |m| catalog.apply_mutation(m).map(drop));
    outcome(replayed, catalog)
}

/// Replay `bytes` both ways, hold them equal, and return what they did.
fn both_ways(bytes: &[u8], case: &str) -> Outcome {
    let expected = sequential(bytes);
    assert_eq!(ahead(bytes), expected, "{case}");
    expected
}

fn script() -> Vec<CatalogMutation> {
    let script = hrdm_testkit::script(SEED, HISTORY);
    let mut catalog = base();
    for m in &script {
        catalog
            .apply_mutation(m)
            .expect("the model's mutations apply");
    }
    script
}

#[test]
fn an_intact_log_replays_alike_and_whole() {
    let script = script();
    let (bytes, _) = log(0, &mutations(&script));
    let (taken, at, stop, _) = both_ways(&bytes, "intact");
    assert_eq!(
        (taken, at, stop.as_str()),
        (HISTORY as u64, bytes.len() as u64, "End")
    );
}

/// Every cut from the start of the frame before each batch boundary to
/// the end of the frame after it, and every cut in the last two frames.
#[test]
fn every_cut_near_a_batch_boundary_stops_alike() {
    let script = script();
    let (bytes, starts) = log(0, &mutations(&script));
    let mut windows: Vec<_> = (1..=HISTORY / B)
        .map(|k| starts[k * B - 1]..starts[k * B + 1])
        .collect();
    windows.push(starts[HISTORY - 2]..bytes.len());
    let mut stops = Vec::new();
    for window in windows {
        for cut in (window.start..=window.end).step_by(STRIDE) {
            let (taken, ..) = both_ways(&bytes[..cut], &format!("cut at byte {cut}"));
            stops.push(taken);
        }
    }
    // The full sweep reaches both sides of every boundary.
    for k in (1..=HISTORY / B).filter(|_| STRIDE == 1) {
        for taken in [k * B - 1, k * B, k * B + 1] {
            assert!(stops.contains(&(taken as u64)), "no cut stopped at {taken}");
        }
    }
}

/// Every single-bit flip in the two frames that meet at each batch
/// boundary. A flipped frame never verifies, so the sequential walk
/// takes the records before it whatever it hands them to: it runs
/// without applying, and the catalog decoding ahead leaves is held to
/// the reference state after that many records.
#[test]
fn every_bit_flip_at_a_batch_boundary_stops_alike() {
    let script = script();
    let (bytes, starts) = log(0, &mutations(&script));
    let frames: Vec<usize> = (1..=HISTORY / B).flat_map(|k| [k * B - 1, k * B]).collect();
    let mut reference = base();
    let mut states = std::collections::BTreeMap::new();
    for (index, m) in script.iter().enumerate() {
        if frames.contains(&index) {
            states.insert(index as u64, reference.render_stable());
        }
        reference.apply_mutation(m).unwrap();
    }
    let flips = frames
        .iter()
        .flat_map(|&frame| (starts[frame]..starts[frame + 1]).map(move |byte| (frame, byte)))
        .flat_map(|(frame, byte)| (0..8).map(move |bit| (frame, byte, bit)));
    for (frame, byte, bit) in flips.step_by(STRIDE) {
        let case = format!("bit {bit} of byte {byte} (frame {frame}) flipped");
        let mut flipped = bytes.clone();
        flipped[byte] ^= 1 << bit;
        let replayed = WalReader::new(&flipped[..]).unwrap().replay(
            0,
            &mut CatalogMutation::default(),
            u64::MAX,
            |_| Ok::<_, hrdm_core::error::CoreError>(()),
        );
        assert_eq!(replayed.taken, frame as u64, "{case}");
        let (taken, at, stop, catalog) = ahead(&flipped);
        let (expected_at, expected_stop) = (replayed.at, format!("{:?}", replayed.stop));
        assert_eq!(
            (taken, at, stop),
            (replayed.taken, expected_at, expected_stop),
            "{case}"
        );
        assert_eq!(catalog, states[&taken], "{case}");
    }
}

/// A record the catalog refuses, first, on either side of the first
/// batch boundary, and last: apply stops at that record's offset.
#[test]
fn a_refused_record_stops_both_at_its_offset() {
    let script = script();
    for index in [0, B - 1, B, B + 1, HISTORY] {
        let mut records = mutations(&script);
        records.insert(index, WalRecord::Mutation(refused()));
        let (bytes, starts) = log(0, &records);
        let (taken, at, stop, _) = both_ways(&bytes, &format!("refused record at {index}"));
        assert_eq!((taken, at), (index as u64, starts[index] as u64));
        assert!(stop.starts_with("Refused"), "{stop}");
    }
}

/// A log whose checkpoint record names another generation stops at
/// that record, and so does a checkpoint record at a batch boundary.
#[test]
fn a_foreign_or_misplaced_checkpoint_record_stops_alike() {
    let script = script();
    let (foreign, _) = log(7, &mutations(&script));
    let (taken, at, stop, _) = both_ways(&foreign, "foreign generation");
    assert_eq!((taken, at, stop.as_str()), (0, 12, "Foreign(7)"));

    let mut records = mutations(&script);
    records.insert(B, WalRecord::Checkpoint { lsn: 0 });
    let (misplaced, starts) = log(0, &records);
    let (taken, at, stop, _) = both_ways(&misplaced, "checkpoint record mid-log");
    assert_eq!((taken, at), (B as u64, starts[B] as u64));
    assert!(stop.contains("duplicate checkpoint"), "{stop}");
}
