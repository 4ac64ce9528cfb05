//! Deterministic fault-injection crash-recovery harness.
//!
//! `hrdm-testkit`'s seeded model produces a mutation script (220
//! operations, the thirteen mutation kinds the model emits — live views
//! among them — asserted) that is guaranteed to apply cleanly. The harness then:
//!
//! 1. applies the script to a live catalog, snapshotting
//!    `render_stable()` after every prefix — the reference states;
//! 2. builds the exact WAL byte stream the journal would write;
//! 3. kills the stream at every possible offset (every byte in
//!    release builds, record boundaries ± a few bytes in debug
//!    builds, where the full sweep is too slow), recovers from the
//!    truncated log, and asserts the recovered catalog is
//!    **byte-identical** to the reference prefix the report claims —
//!    with the exact `records_replayed` / `truncated_bytes`
//!    accounting the cut point implies;
//! 4. repeats the sweep with single-bit flips and with `FaultFs`
//!    dropping/tearing/corrupting the Nth write call.
//!
//! The invariant throughout: **recovery always yields a prefix** of
//! the mutation history — never an error, never a panic, never a
//! state that mixes records from both sides of the kill point.
//!
//! The same streams, kill points and bit flips are then put under a
//! [`WalTailer`] (what a replica reads the log with), whose cursor
//! resumes mid-file: split the stream anywhere, across a rollover, and
//! every record is still delivered exactly once and every state a
//! follower reaches is a reference prefix; damage is an error or a
//! prefix, never a wrong record and never a quiet stall. Last, the
//! tailer's own counters: what a poll reads, loads and reports, exactly.

use std::collections::BTreeSet;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use hrdm_core::mutation::CatalogMutation;
use hrdm_core::prelude::Catalog;
use hrdm_persist::store::{checkpoint_path, wal_path, write_checkpoint};
use hrdm_persist::wal::{write_header, write_record};
use hrdm_persist::{
    recover, DurableCatalog, Fault, FaultFs, Image, PersistError, ShipEvent, WalRecord, WalTailer,
};

const SCRIPT_LEN: usize = 220;
const SEED: u64 = 0x5EED_CAFE;

/// The model's script for `seed`, held to this suite's coverage floor.
fn gen_script(seed: u64) -> Vec<CatalogMutation> {
    let script = hrdm_testkit::script(seed, SCRIPT_LEN);
    let kinds: BTreeSet<&str> = script.iter().map(CatalogMutation::kind).collect();
    assert_eq!(kinds.len(), 13, "seed {seed:#x}: only {kinds:?}");
    script
}

/// `render_stable()` after each prefix of the script: `refs[k]` is the
/// state with exactly the first `k` mutations applied.
fn reference_prefixes(script: &[CatalogMutation]) -> Vec<String> {
    let mut catalog = Catalog::new();
    let mut refs = vec![catalog.render_stable()];
    for m in script {
        catalog
            .apply_mutation(m)
            .unwrap_or_else(|e| panic!("seed {SEED:#x}: generated mutation must apply: {m}: {e}"));
        refs.push(catalog.render_stable());
    }
    refs
}

/// The WAL byte stream for the script, plus the frame boundaries:
/// `boundaries[0]` = end of header, `boundaries[1]` = end of the
/// checkpoint record, `boundaries[k + 2]` = end of mutation `k`.
fn wal_stream(script: &[CatalogMutation]) -> (Vec<u8>, Vec<u64>) {
    wal_stream_at(0, script)
}

/// [`wal_stream`] for a generation that extends the checkpoint at `lsn`.
fn wal_stream_at(lsn: u64, script: &[CatalogMutation]) -> (Vec<u8>, Vec<u64>) {
    let mut bytes = Vec::new();
    write_header(&mut bytes).unwrap();
    let mut boundaries = vec![bytes.len() as u64];
    write_record(&mut bytes, &WalRecord::Checkpoint { lsn }).unwrap();
    boundaries.push(bytes.len() as u64);
    for m in script {
        write_record(&mut bytes, &WalRecord::Mutation(m.clone())).unwrap();
        boundaries.push(bytes.len() as u64);
    }
    (bytes, boundaries)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hrdm_crash_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Write `stream` as the (lone) WAL of an empty store and recover.
fn recover_stream(dir: &Path, stream: &[u8]) -> hrdm_persist::Recovered {
    std::fs::write(wal_path(dir, 0), stream).unwrap();
    recover(dir).unwrap_or_else(|e| panic!("recovery must not fail: {e}"))
}

/// The kill points to sweep: every byte offset in release builds; in
/// debug builds (10–20× slower per replay) the interesting offsets —
/// every frame boundary and its neighborhood.
fn kill_points(total: usize, boundaries: &[u64]) -> Vec<usize> {
    if !cfg!(debug_assertions) {
        return (0..=total).collect();
    }
    let mut cuts: Vec<usize> = Vec::new();
    for &b in boundaries {
        for d in -2i64..=2 {
            let c = b as i64 + d;
            if (0..=total as i64).contains(&c) {
                cuts.push(c as usize);
            }
        }
    }
    cuts.push(total);
    cuts.sort_unstable();
    cuts.dedup();
    cuts
}

#[test]
fn every_kill_point_recovers_a_prefix() {
    let script = gen_script(SEED);
    let refs = reference_prefixes(&script);
    let (bytes, boundaries) = wal_stream(&script);
    let dir = temp_dir("killpoints");

    for cut in kill_points(bytes.len(), &boundaries) {
        let rec = recover_stream(&dir, &bytes[..cut]);
        // Exact accounting implied by the cut point: the last frame
        // boundary at or before the cut is where replay stops, and
        // everything after it is discarded tail.
        let (last_idx, last_good) = boundaries
            .iter()
            .enumerate()
            .take_while(|&(_, &b)| b <= cut as u64)
            .last()
            .map(|(i, &b)| (i as i64, b))
            .unwrap_or((-1, 0));
        let expect_replayed = (last_idx - 1).max(0) as u64;
        let expect_truncated = cut as u64 - last_good;
        assert_eq!(
            rec.report.records_replayed, expect_replayed,
            "seed {SEED:#x} cut at byte {cut}: wrong replay count"
        );
        assert_eq!(
            rec.report.truncated_bytes, expect_truncated,
            "seed {SEED:#x} cut at byte {cut}: wrong truncation accounting"
        );
        assert_eq!(
            rec.catalog.render_stable(),
            refs[expect_replayed as usize],
            "seed {SEED:#x} cut at byte {cut}: recovered state is not the claimed prefix"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn every_bit_flip_recovers_a_prefix() {
    let script = gen_script(SEED);
    let refs = reference_prefixes(&script);
    let (bytes, _) = wal_stream(&script);
    let dir = temp_dir("bitflips");

    let step = if cfg!(debug_assertions) { 17 } else { 1 };
    let mut flipped = bytes.clone();
    for at in (0..bytes.len()).step_by(step) {
        let bit = 1u8 << (at % 8);
        flipped[at] ^= bit;
        std::fs::write(wal_path(&dir, 0), &flipped).unwrap();
        match recover(&dir) {
            Ok(rec) => {
                let claimed = rec.report.records_replayed as usize;
                assert_eq!(
                    rec.catalog.render_stable(),
                    refs[claimed],
                    "seed {SEED:#x} flip at byte {at}: recovered state is not the claimed prefix"
                );
                assert!(claimed <= script.len());
            }
            // A flip inside the 4 version bytes is a format-level
            // incompatibility, reported as such rather than replayed.
            Err(hrdm_persist::PersistError::UnsupportedVersion(_)) => {
                assert!(
                    (8..12).contains(&at),
                    "seed {SEED:#x} flip at byte {at}: bad version error"
                );
            }
            Err(e) => panic!("seed {SEED:#x} flip at byte {at}: recovery failed: {e}"),
        }
        flipped[at] ^= bit; // restore
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Replay the WAL-writing workload through `w`, a [`FaultFs`]; its
/// inner buffer is the bytes that "reached disk".
fn stream_through(script: &[CatalogMutation], mut w: FaultFs<Vec<u8>>) -> FaultFs<Vec<u8>> {
    write_header(&mut w).unwrap();
    write_record(&mut w, &WalRecord::Checkpoint { lsn: 0 }).unwrap();
    for m in script {
        write_record(&mut w, &WalRecord::Mutation(m.clone())).unwrap();
    }
    w.flush().unwrap();
    w
}

#[test]
fn faultfs_drop_truncate_bitflip_all_recover_prefixes() {
    let script = gen_script(SEED);
    let refs = reference_prefixes(&script);
    let dir = temp_dir("faultfs");

    // Counting pass: how many write calls does the workload make?
    let total_writes = stream_through(&script, FaultFs::counting(Vec::new())).writes();
    assert!(total_writes > script.len() as u64, "multiple writes/record");

    let step = if cfg!(debug_assertions) { 13 } else { 1 };
    for trigger in (0..total_writes).step_by(step) {
        for fault in [Fault::Drop, Fault::Truncate(1), Fault::BitFlip(5)] {
            let stream = stream_through(&script, FaultFs::with_fault(Vec::new(), trigger, fault))
                .into_inner();
            std::fs::write(wal_path(&dir, 0), &stream).unwrap();
            match recover(&dir) {
                Ok(rec) => {
                    let claimed = rec.report.records_replayed as usize;
                    assert_eq!(
                        rec.catalog.render_stable(),
                        refs[claimed],
                        "seed {SEED:#x} fault {fault:?} at write {trigger}: not the claimed prefix"
                    );
                }
                Err(hrdm_persist::PersistError::UnsupportedVersion(_)) => {
                    // BitFlip landing in the header's version word.
                    assert!(matches!(fault, Fault::BitFlip(_)) && trigger <= 1);
                }
                Err(e) => panic!("seed {SEED:#x} fault {fault:?} at write {trigger}: {e}"),
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn durable_catalog_end_to_end_with_crash_snapshots() {
    let script = gen_script(SEED ^ 0xF00D);
    let refs = reference_prefixes(&script);
    let dir = temp_dir("endtoend");

    // Group commit: fsync every 8 mutations. Snapshot the directory
    // mid-flight (a crash at that instant) and verify the durability
    // floor: everything up to the last sync must recover.
    let mut store = DurableCatalog::open_with_group(&dir, 8).unwrap();
    let synced_at = 150usize;
    for (i, m) in script.iter().enumerate() {
        store.mutate(m.clone()).unwrap();
        if i + 1 == synced_at {
            store.sync().unwrap();
            // "Crash": copy the store directory as it is on disk.
            let snap = temp_dir("endtoend_snap");
            for entry in std::fs::read_dir(&dir).unwrap() {
                let entry = entry.unwrap();
                std::fs::copy(entry.path(), snap.join(entry.file_name())).unwrap();
            }
            let rec = recover(&snap).unwrap();
            let got = rec.report.next_lsn() as usize;
            assert!(
                got >= synced_at,
                "durability floor violated: synced {synced_at}, recovered {got}"
            );
            assert_eq!(rec.catalog.render_stable(), refs[got]);
            std::fs::remove_dir_all(&snap).unwrap();
        }
    }
    assert_eq!(store.lsn(), script.len() as u64);
    assert_eq!(store.catalog().render_stable(), refs[script.len()]);

    // Checkpoint, keep mutating, reopen: state must match the final
    // reference exactly (checkpoint image + WAL tail).
    drop(store);
    let mut store = DurableCatalog::open(&dir).unwrap();
    assert_eq!(
        store.recovery_report().records_replayed,
        script.len() as u64
    );
    assert_eq!(store.catalog().render_stable(), refs[script.len()]);
    store.checkpoint().unwrap();
    drop(store);
    let store = DurableCatalog::open(&dir).unwrap();
    assert_eq!(store.recovery_report().checkpoint_lsn, script.len() as u64);
    assert_eq!(store.recovery_report().records_replayed, 0);
    assert_eq!(store.catalog().render_stable(), refs[script.len()]);

    std::fs::remove_dir_all(&dir).unwrap();
}

/// What a replica is, one layer down: a tailer whose events are folded
/// into a catalog — a rollover replaces it, a mutation applies to it.
struct Follower {
    tailer: WalTailer,
    catalog: Catalog,
    /// LSNs of the events delivered so far, rollovers and mutations
    /// apart, in delivery order.
    rollovers: Vec<u64>,
    mutations: Vec<u64>,
}

impl Follower {
    fn attach(dir: &Path) -> Follower {
        Follower {
            tailer: WalTailer::attach(dir),
            catalog: Catalog::new(),
            rollovers: Vec::new(),
            mutations: Vec::new(),
        }
    }

    fn poll(&mut self) -> Result<(), PersistError> {
        for event in self.tailer.poll()? {
            match event {
                ShipEvent::Rollover { lsn, image } => {
                    self.catalog = image.into_catalog();
                    self.rollovers.push(lsn);
                }
                ShipEvent::Mutation { lsn, mutation } => {
                    self.catalog
                        .apply_mutation(&mutation)
                        .unwrap_or_else(|e| panic!("shipped lsn {lsn} must apply: {e}"));
                    self.mutations.push(lsn);
                }
            }
        }
        Ok(())
    }

    /// The follower's state is the reference prefix its LSN names, and
    /// every mutation up to it arrived once, in order.
    fn assert_on_a_prefix(&self, refs: &[String], first_lsn: u64, context: &str) {
        let lsn = self.tailer.shipped_lsn();
        assert_eq!(
            self.catalog.render_stable(),
            refs[lsn as usize],
            "{context}: follower at lsn {lsn} is not that prefix"
        );
        assert!(
            self.mutations.iter().copied().eq(first_lsn + 1..=lsn),
            "{context}: delivered {:?}, expected {}..={lsn}",
            self.mutations,
            first_lsn + 1
        );
    }
}

/// Mutation records that end at or before `cut` in a stream with these
/// frame boundaries.
fn records_within(cut: usize, boundaries: &[u64]) -> u64 {
    (boundaries.iter().filter(|&&b| b <= cut as u64).count() as u64).saturating_sub(2)
}

/// The tailer's cursor, swept: a follower that first sees only the
/// first `L` bytes of a generation's WAL and then the whole file — for
/// every `L`, in the generation it attached to and in the one a
/// rollover brings — is on a reference prefix after each poll (exactly
/// the records complete within `L`, a tail cut short being no error)
/// and has seen every record exactly once, in LSN order, at the end.
#[test]
fn a_tailer_split_at_every_offset_delivers_every_record_exactly_once() {
    let script = gen_script(SEED);
    let refs = reference_prefixes(&script);
    let mid = script.len() / 2;
    let (first, first_bounds) = wal_stream_at(0, &script[..mid]);
    let (second, second_bounds) = wal_stream_at(mid as u64, &script[mid..]);
    let dir = temp_dir("tailsplit");
    let total = script.len() as u64;

    // Generation 0 starts from an empty image; the rollover's image is
    // the state after `mid` mutations, written once and copied into
    // place whenever the "primary" checkpoints.
    write_checkpoint(&dir, 0, &Image::new()).unwrap();
    let mut at_mid = Catalog::new();
    for m in &script[..mid] {
        at_mid.apply_mutation(m).unwrap();
    }
    let side = temp_dir("tailsplit_side");
    let mid_checkpoint =
        write_checkpoint(&side, mid as u64, &Image::from_catalog(&at_mid)).unwrap();
    let roll_over = |wal: &[u8]| {
        std::fs::write(wal_path(&dir, mid as u64), wal).unwrap();
        std::fs::copy(&mid_checkpoint, checkpoint_path(&dir, mid as u64)).unwrap();
    };
    let undo_roll_over = || {
        let _ = std::fs::remove_file(checkpoint_path(&dir, mid as u64));
        let _ = std::fs::remove_file(wal_path(&dir, mid as u64));
    };

    // Split inside the generation the follower attached to.
    for cut in kill_points(first.len(), &first_bounds) {
        let context = format!("seed {SEED:#x} generation 0 cut at byte {cut}");
        undo_roll_over();
        std::fs::write(wal_path(&dir, 0), &first[..cut]).unwrap();
        let mut follower = Follower::attach(&dir);
        follower.poll().unwrap();
        assert_eq!(
            follower.tailer.shipped_lsn(),
            records_within(cut, &first_bounds),
            "{context}"
        );
        follower.assert_on_a_prefix(&refs, 0, &context);
        std::fs::write(wal_path(&dir, 0), &first).unwrap();
        follower.poll().unwrap();
        assert_eq!(follower.tailer.shipped_lsn(), mid as u64, "{context}");
        follower.assert_on_a_prefix(&refs, 0, &context);
        roll_over(&second);
        follower.poll().unwrap();
        assert_eq!(follower.tailer.shipped_lsn(), total, "{context}");
        follower.assert_on_a_prefix(&refs, 0, &context);
        assert_eq!(follower.rollovers, [0, mid as u64], "{context}");
    }

    // Split inside the generation the rollover brings.
    std::fs::write(wal_path(&dir, 0), &first).unwrap();
    for cut in kill_points(second.len(), &second_bounds) {
        let context = format!("seed {SEED:#x} generation {mid} cut at byte {cut}");
        undo_roll_over();
        let mut follower = Follower::attach(&dir);
        follower.poll().unwrap();
        roll_over(&second[..cut]);
        follower.poll().unwrap();
        assert_eq!(
            follower.tailer.shipped_lsn(),
            mid as u64 + records_within(cut, &second_bounds),
            "{context}"
        );
        follower.assert_on_a_prefix(&refs, 0, &context);
        std::fs::write(wal_path(&dir, mid as u64), &second).unwrap();
        follower.poll().unwrap();
        assert_eq!(follower.tailer.shipped_lsn(), total, "{context}");
        follower.assert_on_a_prefix(&refs, 0, &context);
        assert_eq!(follower.rollovers, [0, mid as u64], "{context}");

        // And a follower that attaches only now, to the cut file.
        std::fs::write(wal_path(&dir, mid as u64), &second[..cut]).unwrap();
        let mut late = Follower::attach(&dir);
        late.poll().unwrap();
        late.assert_on_a_prefix(&refs, mid as u64, &context);
    }
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&side).unwrap();
}

/// Damage under a tailer is loud. Whatever bit of the log is flipped,
/// a follower ends on a reference prefix having seen no record twice
/// and none out of order — and if the flip is in a frame's checksum or
/// payload (the frame is complete, and wrong), polling reports
/// `Corrupt` naming where the frame starts, again on every later poll,
/// having first delivered the intact records before it.
#[test]
fn every_bit_flip_under_a_tailer_is_an_error_or_a_prefix() {
    let script = gen_script(SEED);
    let refs = reference_prefixes(&script);
    let (bytes, boundaries) = wal_stream(&script);
    let dir = temp_dir("tailflips");
    write_checkpoint(&dir, 0, &Image::new()).unwrap();

    // Frame j spans boundaries[j]..boundaries[j + 1] (frame 0 is the
    // checkpoint record, frame j the mutation with LSN j); its length
    // prefix is the bytes with the continuation bit, plus one. Gives
    // the frame a byte is in, where the frame starts, and whether the
    // byte is past the length prefix.
    let frame_of = |at: usize| -> Option<(u64, u64, bool)> {
        let j = boundaries.iter().filter(|&&b| b <= at as u64).count();
        let start = *boundaries.get(j.checked_sub(1)?)?;
        let mut prefix = 1;
        while bytes[start as usize + prefix - 1] & 0x80 != 0 {
            prefix += 1;
        }
        Some((j as u64 - 1, start, at >= start as usize + prefix))
    };

    let step = if cfg!(debug_assertions) { 17 } else { 1 };
    let mut flipped = bytes.clone();
    let mut loud = 0usize;
    for at in (0..bytes.len()).step_by(step) {
        let bit = 1u8 << (at % 8);
        flipped[at] ^= bit;
        std::fs::write(wal_path(&dir, 0), &flipped).unwrap();
        let mut follower = Follower::attach(&dir);
        // Intact records first, then the damage, then the damage again.
        let outcomes = [follower.poll(), follower.poll(), follower.poll()];
        follower.assert_on_a_prefix(&refs, 0, &format!("seed {SEED:#x} flip at byte {at}"));
        assert_eq!(
            outcomes[1], outcomes[2],
            "seed {SEED:#x} flip at byte {at}: not stable"
        );
        match frame_of(at) {
            // In a mutation frame's checksum or payload.
            Some((lsn, start, true)) if lsn >= 1 => {
                let expected = format!("at byte {start}:");
                assert!(
                    matches!(&outcomes[2], Err(PersistError::Corrupt(msg)) if msg.contains(&expected)),
                    "seed {SEED:#x} flip at byte {at}: expected corrupt {expected}, got {:?}",
                    outcomes[2]
                );
                assert_eq!(
                    follower.tailer.shipped_lsn(),
                    lsn - 1,
                    "seed {SEED:#x} flip at byte {at}: the records before the damaged frame are delivered"
                );
                loud += 1;
            }
            // In the header, the checkpoint record or a length prefix:
            // an error, or a frame that now reads as cut short.
            _ => assert!(
                !matches!(outcomes[2], Err(PersistError::Io(_))),
                "seed {SEED:#x} flip at byte {at}: {:?}",
                outcomes[2]
            ),
        }
        flipped[at] ^= bit; // restore
    }
    assert!(loud > 0);

    // A checkpoint supersedes the damaged generation, and the follower
    // with it.
    let at = boundaries[5] as usize - 1;
    flipped[at] ^= 1;
    std::fs::write(wal_path(&dir, 0), &flipped).unwrap();
    let mut follower = Follower::attach(&dir);
    follower.poll().unwrap();
    assert!(matches!(follower.poll(), Err(PersistError::Corrupt(_))));
    let mut all = Catalog::new();
    for m in &script {
        all.apply_mutation(m).unwrap();
    }
    let total = script.len() as u64;
    write_checkpoint(&dir, total, &Image::from_catalog(&all)).unwrap();
    follower.poll().unwrap();
    assert_eq!(follower.tailer.shipped_lsn(), total);
    assert_eq!(follower.catalog.render_stable(), refs[script.len()]);
    std::fs::remove_dir_all(&dir).unwrap();
}

// The tailer's telemetry, exact: each tailer counts into a scope of its
// own, so the other tests of this binary, tailing stores beside it, do
// not move its counters.

/// Records of the telemetry test's log, polled in `STEPS` steps.
const RECORDS: usize = 200;
const STEPS: usize = 10;

/// A flat script that applies cleanly: one domain, then `n - 1`
/// classes under it.
fn flat_classes(n: usize) -> Vec<CatalogMutation> {
    let mut script = vec![CatalogMutation::CreateDomain { name: "D".into() }];
    for k in 1..n {
        script.push(CatalogMutation::AddClass {
            domain: "D".into(),
            name: format!("C{k}"),
            parents: vec!["D".into()],
        });
    }
    script
}

/// A tailer's own `ship.*` counters, read as one row.
fn counters(tailer: &WalTailer) -> [u64; 6] {
    [
        "ship.poll_bytes",
        "ship.checkpoint_loads",
        "ship.rollovers",
        "ship.mutations",
        "ship.corrupt_records",
        "ship.resets",
    ]
    .map(|name| tailer.metrics().counter(name).get())
}

fn since(tailer: &WalTailer, before: [u64; 6]) -> [u64; 6] {
    let now = counters(tailer);
    std::array::from_fn(|k| now[k] - before[k])
}

/// Polling costs what is new: a log polled in k steps is read once
/// (plus at most one partial frame per step), and a generation's
/// checkpoint image is opened once however often it is polled. Damage
/// and a recreated directory each move their own counter.
#[test]
fn polling_reads_each_byte_once_and_counts_what_goes_wrong() {
    let dir = temp_dir("ship_obs");
    let script = flat_classes(RECORDS);
    let (bytes, bounds) = wal_stream_at(0, &script);
    let ends: Vec<usize> = bounds[2..].iter().map(|&b| b as usize).collect();
    let wal_len = bytes.len() as u64;
    let longest_frame = ends.windows(2).map(|w| w[1] - w[0]).max().unwrap() as u64;
    write_checkpoint(&dir, 0, &Image::new()).unwrap();
    let wal = wal_path(&dir, 0);

    // k steps, each ending on a frame boundary: exactly the file, once.
    let mut tailer = WalTailer::attach(&dir);
    let before = counters(&tailer);
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
        since(&tailer, before),
        [wal_len, 1, 1, RECORDS as u64, 0, 0],
        "bytes read, images loaded, rollovers, mutations, corrupt, resets"
    );

    // k steps, each ending three bytes into a frame: the partial frame
    // is read again by the next step, and nothing else is.
    let mut tailer = WalTailer::attach(&dir);
    let before = counters(&tailer);
    for step in 1..STEPS {
        std::fs::write(&wal, &bytes[..ends[step * RECORDS / STEPS - 1] + 3]).unwrap();
        tailer.poll().unwrap();
    }
    std::fs::write(&wal, &bytes).unwrap();
    tailer.poll().unwrap();
    let [read, loads, rollovers, shipped, ..] = since(&tailer, before);
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
    let mut tailer = WalTailer::attach(&dir);
    let before = counters(&tailer);
    assert_eq!(tailer.poll().unwrap().len(), 1 + 100);
    for _ in 0..2 {
        let expected = format!("at byte {}:", ends[99]);
        assert!(matches!(
            tailer.poll(),
            Err(PersistError::Corrupt(msg)) if msg.contains(&expected)
        ));
    }
    assert_eq!(tailer.shipped_lsn(), 100);
    let [_, loads, rollovers, shipped, corrupt, resets] = since(&tailer, before);
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
    let before = counters(&tailer);
    assert_eq!(tailer.poll().unwrap().len(), 1);
    assert!(tailer.poll().unwrap().is_empty());
    assert_eq!(tailer.shipped_lsn(), RECORDS as u64);
    assert_eq!(since(&tailer, before), [0, 1, 1, 0, 0, 0]);

    // The directory recreated under the tailer: the WAL it points into
    // is now shorter than its cursor, so it starts over from the
    // checkpoint instead of seeking past the end.
    let generation = RECORDS as u64;
    let (longer, _) = wal_stream_at(generation, &script[..2]);
    let (shorter, _) = wal_stream_at(generation, &[]);
    std::fs::write(wal_path(&dir, generation), &longer).unwrap();
    assert_eq!(tailer.poll().unwrap().len(), 2);
    std::fs::write(wal_path(&dir, generation), &shorter).unwrap();
    let before = counters(&tailer);
    assert_eq!(tailer.poll().unwrap().len(), 1, "the rollover again");
    assert_eq!(tailer.shipped_lsn(), generation);
    assert_eq!(
        since(&tailer, before),
        [shorter.len() as u64, 1, 1, 0, 0, 1]
    );

    std::fs::remove_dir_all(&dir).unwrap();
}
