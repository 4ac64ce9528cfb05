//! Recovery replays a log on the calling thread through
//! [`WalReader::replay`], whose reader takes its source 64 KiB at a time
//! and cuts each frame out of that buffer. The frames a refill lands in
//! — one that straddles two reads, or whose head starts within the last
//! few bytes of one — are the walk's seams. Wherever the log ends or
//! goes wrong, the walk must stop at the right frame for the right
//! reason and leave the catalog that the history's prefix builds.
//!
//! The history is `hrdm-testkit`'s seeded model, long enough for its log
//! to span two reads, so the reader refills mid-log. Around each refill,
//! and in the last two frames, the log is cut at every byte; every bit of
//! the frame each refill lands in and of the frame before it is flipped;
//! a refused record (a `Retract` of a tuple that is not stored) sits
//! first, last and on either side of the first refill; and a checkpoint
//! record names another generation, or sits at the first refill. Each
//! damaged log is replayed from the same base catalog and held to the
//! reference: that base with the history's prefix applied, as many
//! records as the walk took.
//!
//! A whole replay of this history costs ~40 ms in release builds and
//! ~230 ms in debug builds, so debug builds take every 16th cut and flip
//! of the release sweeps (CI runs this binary in release, ~16 s).

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Read;

use hrdm_core::mutation::CatalogMutation;
use hrdm_core::prelude::Catalog;
use hrdm_persist::wal::{write_header, write_record, Replayed};
use hrdm_persist::{WalReader, WalRecord};

const SEED: u64 = 0xA11E_AD00;
/// Enough records for a log longer than one 64 KiB read (~69 KB).
const HISTORY: usize = 3_500;
/// Every `STRIDE`-th cut and bit flip is replayed.
const STRIDE: usize = if cfg!(debug_assertions) { 16 } else { 1 };
/// Bytes a reader asks its source for at a time.
const READ_CHUNK: usize = 64 << 10;
/// Most bytes a frame takes before its payload.
const FRAME_HEAD_MAX: usize = 10 + 4;

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
    write_header(&mut bytes);
    write_record(&mut bytes, &WalRecord::Checkpoint { lsn });
    let mut starts = vec![bytes.len()];
    for r in records {
        write_record(&mut bytes, r);
        starts.push(bytes.len());
    }
    (bytes, starts)
}

fn mutations(script: &[CatalogMutation]) -> Vec<WalRecord> {
    script.iter().cloned().map(WalRecord::Mutation).collect()
}

fn script() -> Vec<CatalogMutation> {
    hrdm_testkit::script(SEED, HISTORY)
}

/// The reference: [`base`] with the first `k` records of `script`
/// applied, rendered, for each `k` in `prefixes`.
fn states(
    script: &[CatalogMutation],
    prefixes: impl IntoIterator<Item = usize>,
) -> BTreeMap<u64, String> {
    let mut wanted: Vec<usize> = prefixes.into_iter().collect();
    wanted.sort_unstable();
    let mut catalog = base();
    let mut states = BTreeMap::new();
    for (k, m) in script.iter().enumerate() {
        if wanted.binary_search(&k).is_ok() {
            states.insert(k as u64, catalog.render_stable());
        }
        catalog
            .apply_mutation(m)
            .expect("the model's mutations apply");
    }
    if wanted.binary_search(&script.len()).is_ok() {
        states.insert(script.len() as u64, catalog.render_stable());
    }
    states
}

/// What a replay did: taken, offset, why, and the catalog.
type Outcome = (u64, u64, String, String);

/// Replay `bytes` as generation 0 from [`base`].
fn replay(bytes: &[u8]) -> Outcome {
    let mut catalog = base();
    let Replayed { taken, at, stop } =
        WalReader::new(bytes)
            .unwrap()
            .replay(0, &mut CatalogMutation::default(), u64::MAX, |m| {
                catalog.apply_mutation(m).map(drop)
            });
    (taken, at, format!("{stop:?}"), catalog.render_stable())
}

/// A source that notes, at each read, its offset and how many records
/// the walk had taken by then.
struct Noting<'a> {
    rest: &'a [u8],
    offset: usize,
    taken: &'a Cell<usize>,
    reads: Vec<(usize, usize)>,
}

impl Read for Noting<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.reads.push((self.offset, self.taken.get()));
        let n = self.rest.read(buf)?;
        self.offset += n;
        Ok(n)
    }
}

/// The frames of the intact log `bytes` that a refill lands in: the
/// index of each record the reader was cutting when its buffer ran out
/// mid-log.
fn seams(bytes: &[u8], starts: &[usize]) -> Vec<usize> {
    let taken = Cell::new(0);
    let mut source = Noting {
        rest: bytes,
        offset: 0,
        taken: &taken,
        reads: Vec::new(),
    };
    let replayed = WalReader::new(&mut source).unwrap().replay(
        0,
        &mut CatalogMutation::default(),
        u64::MAX,
        |_| {
            taken.set(taken.get() + 1);
            Ok::<_, ()>(())
        },
    );
    assert_eq!(replayed.taken as usize, HISTORY);
    let seams: Vec<usize> = source
        .reads
        .iter()
        .filter(|&&(offset, _)| 0 < offset && offset < bytes.len())
        .map(|&(offset, frame)| {
            // The buffer ended inside this frame, or too close to its
            // start to hold its head.
            let (start, end) = (starts[frame], starts[frame + 1]);
            assert!(
                start <= offset && (offset < end || offset - start < FRAME_HEAD_MAX),
                "a refill at byte {offset} landed in frame {start}..{end}"
            );
            frame
        })
        .collect();
    assert!(
        bytes.len() > READ_CHUNK && !seams.is_empty(),
        "a {}-byte log refilled at {seams:?}",
        bytes.len()
    );
    seams
}

#[test]
fn an_intact_log_replays_whole() {
    let script = script();
    let (bytes, starts) = log(0, &mutations(&script));
    seams(&bytes, &starts);
    let reference = states(&script, [HISTORY]);
    assert_eq!(
        replay(&bytes),
        (
            HISTORY as u64,
            bytes.len() as u64,
            "End".into(),
            reference[&(HISTORY as u64)].clone()
        )
    );
}

/// Every cut from the start of the frame before each refill's frame to
/// the end of the frame after it, and every cut in the last two frames:
/// the walk takes the frames the cut leaves whole and stops at the next,
/// on its boundary as the end of the log and inside it as a torn frame.
#[test]
fn every_cut_near_a_refill_stops_at_the_last_whole_frame() {
    let script = script();
    let (bytes, starts) = log(0, &mutations(&script));
    let seams = seams(&bytes, &starts);
    let mut windows: Vec<_> = seams
        .iter()
        .map(|&f| (f - 1)..(f + 2).min(HISTORY))
        .collect();
    windows.push(HISTORY - 2..HISTORY);
    let reference = states(&script, windows.iter().flat_map(|w| w.start..=w.end));
    let mut stops = Vec::new();
    for window in &windows {
        for cut in (starts[window.start]..=starts[window.end]).step_by(STRIDE) {
            let case = format!("cut at byte {cut}");
            let whole = starts.partition_point(|&s| s <= cut) - 1;
            let (taken, at, stop, catalog) = replay(&bytes[..cut]);
            assert_eq!((taken, at), (whole as u64, starts[whole] as u64), "{case}");
            if cut == starts[whole] {
                assert_eq!(stop, "End", "{case}");
            } else {
                assert!(stop.starts_with("Frame(Short("), "{case}: {stop}");
            }
            assert_eq!(catalog, reference[&taken], "{case}");
            stops.push(taken);
        }
    }
    // The full sweep reaches both sides of every refill.
    for &f in seams.iter().filter(|_| STRIDE == 1) {
        for taken in [f - 1, f, f + 1] {
            assert!(stops.contains(&(taken as u64)), "no cut stopped at {taken}");
        }
    }
}

/// Every single-bit flip in the frame each refill lands in and in the
/// frame before it. A flipped frame never verifies: the walk takes the
/// records before it and stops there on the frame.
#[test]
fn every_bit_flip_at_a_refill_stops_at_its_frame() {
    let script = script();
    let (bytes, starts) = log(0, &mutations(&script));
    let frames: Vec<usize> = seams(&bytes, &starts)
        .into_iter()
        .flat_map(|f| [f - 1, f])
        .collect();
    let reference = states(&script, frames.iter().copied());
    let flips = frames
        .iter()
        .flat_map(|&frame| (starts[frame]..starts[frame + 1]).map(move |byte| (frame, byte)))
        .flat_map(|(frame, byte)| (0..8).map(move |bit| (frame, byte, bit)));
    for (frame, byte, bit) in flips.step_by(STRIDE) {
        let case = format!("bit {bit} of byte {byte} (frame {frame}) flipped");
        let mut flipped = bytes.clone();
        flipped[byte] ^= 1 << bit;
        let (taken, at, stop, catalog) = replay(&flipped);
        assert_eq!((taken, at), (frame as u64, starts[frame] as u64), "{case}");
        assert!(stop.starts_with("Frame("), "{case}: {stop}");
        assert_eq!(catalog, reference[&taken], "{case}");
    }
}

/// A record the catalog refuses, first, on either side of the first
/// refill, and last: apply stops at that record's offset.
#[test]
fn a_refused_record_stops_at_its_offset() {
    let script = script();
    let (bytes, starts) = log(0, &mutations(&script));
    let f = seams(&bytes, &starts)[0];
    let cases = [0, f - 1, f, f + 1, HISTORY];
    let reference = states(&script, cases);
    for index in cases {
        let mut records = mutations(&script);
        records.insert(index, WalRecord::Mutation(refused()));
        let (bytes, starts) = log(0, &records);
        let case = format!("refused record at {index}");
        let (taken, at, stop, catalog) = replay(&bytes);
        assert_eq!((taken, at), (index as u64, starts[index] as u64), "{case}");
        assert!(stop.starts_with("Refused"), "{case}: {stop}");
        assert_eq!(catalog, reference[&taken], "{case}");
    }
}

/// A log whose checkpoint record names another generation stops at
/// that record, and so does a checkpoint record at the first refill.
#[test]
fn a_foreign_or_misplaced_checkpoint_record_stops_there() {
    let script = script();
    let (foreign, _) = log(7, &mutations(&script));
    let reference = base().render_stable();
    assert_eq!(replay(&foreign), (0, 12, "Foreign(7)".into(), reference));

    let (bytes, starts) = log(0, &mutations(&script));
    let f = seams(&bytes, &starts)[0];
    let mut records = mutations(&script);
    records.insert(f, WalRecord::Checkpoint { lsn: 0 });
    let (misplaced, starts) = log(0, &records);
    let (taken, at, stop, catalog) = replay(&misplaced);
    assert_eq!((taken, at), (f as u64, starts[f] as u64));
    assert!(stop.contains("duplicate checkpoint"), "{stop}");
    assert_eq!(catalog, states(&script, [f])[&(f as u64)]);
}
