//! The durable store: checkpoints + write-ahead log + recovery.
//!
//! A store directory holds at most one *live* generation:
//!
//! ```text
//! checkpoint-<lsn:016x>.ckpt   HRDM1 image as of LSN <lsn>
//! wal-<lsn:016x>.log           mutations <lsn>+1, <lsn>+2, …
//! ```
//!
//! The LSN is the count of mutations applied since the store was born,
//! so `state(lsn) = replay(first lsn mutations)` and a checkpoint file
//! *names* the prefix it captures. [`recover`] loads the newest intact
//! checkpoint, replays its WAL tail, and stops cleanly at the first
//! torn or corrupt record — yielding exactly a prefix of the committed
//! history. Taking a checkpoint writes the new image tmp-file-then-
//! rename, starts a fresh WAL bound to it, fsyncs the directory so both
//! names are durable, and only then deletes the older generation, so a
//! crash at *any* point leaves at least one recoverable generation on
//! disk.
//!
//! Recovery invariants (tested by `crash_recovery.rs`):
//!
//! 1. **Prefix** — the recovered catalog equals (byte-for-byte under
//!    [`Catalog::render_stable`]) the live catalog after some prefix of
//!    the mutation history.
//! 2. **Durability floor** — every mutation whose fsync was
//!    acknowledged is in the recovered prefix.
//! 3. **Idempotence** — recovery is read-only: recovering twice from
//!    the same directory yields identical catalogs and reports.

use std::fs::{self, File};
use std::io::{BufReader, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use hrdm_core::mutation::CatalogMutation;
use hrdm_core::prelude::Catalog;
use hrdm_obs::metrics::Registry;

use crate::codec::{crc32, read_u32, read_u64, read_varint, write_u32, write_u64, write_varint};
use crate::error::{PersistError, Result};
use crate::image::Image;
use crate::wal::{FrameError, JournalObs, LsnMarks, Stop, WalFile, WalReader};

/// Checkpoint file magic.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"HRDMCKP1";

/// Checkpoint image payloads larger than this are a corrupt length
/// prefix (matches the image format's own sanity caps).
const CHECKPOINT_CAP: u64 = 1 << 30;

/// Path of the checkpoint image capturing the first `lsn` mutations.
pub fn checkpoint_path(dir: &Path, lsn: u64) -> PathBuf {
    dir.join(format!("checkpoint-{lsn:016x}.ckpt"))
}

/// Path of the WAL extending the checkpoint at `lsn`.
pub fn wal_path(dir: &Path, lsn: u64) -> PathBuf {
    dir.join(format!("wal-{lsn:016x}.log"))
}

/// Write a checkpoint image for LSN `lsn`: magic, LSN, varint length,
/// CRC-32, `HRDM1` payload — built in a `.tmp` file, fsynced, then
/// atomically renamed into place.
pub fn write_checkpoint(dir: &Path, lsn: u64, image: &Image) -> Result<PathBuf> {
    let _g = hrdm_obs::span!("persist.checkpoint", lsn = lsn);
    write_checkpoint_payload(dir, lsn, &image.to_bytes()?)
}

/// [`write_checkpoint`] of an already encoded image.
fn write_checkpoint_payload(dir: &Path, lsn: u64, payload: &[u8]) -> Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let final_path = checkpoint_path(dir, lsn);
    let tmp_path = final_path.with_extension("ckpt.tmp");
    {
        let mut f = File::create(&tmp_path)?;
        f.write_all(CHECKPOINT_MAGIC)?;
        write_u64(&mut f, lsn)?;
        write_varint(&mut f, payload.len() as u64)?;
        write_u32(&mut f, crc32(payload))?;
        f.write_all(payload)?;
        f.sync_all()?;
    }
    fs::rename(&tmp_path, &final_path)?;
    Ok(final_path)
}

/// Load and verify one checkpoint file, returning its LSN and image.
pub fn load_checkpoint(path: &Path) -> Result<(u64, Image)> {
    let (lsn, payload) = read_checkpoint(path)?;
    Ok((lsn, Image::from_bytes(&payload)?))
}

/// Read and verify one checkpoint file, returning its LSN and its
/// image's bytes, not yet decoded. The payload length in the header is
/// believed only as far as the file bears it out: a claim longer than
/// the bytes left is [`PersistError::Corrupt`] before anything is
/// allocated.
fn read_checkpoint(path: &Path) -> Result<(u64, Vec<u8>)> {
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut r = BufReader::new(file);
    let mut magic = [0u8; 8];
    std::io::Read::read_exact(&mut r, &mut magic).map_err(|_| PersistError::BadMagic)?;
    if &magic != CHECKPOINT_MAGIC {
        return Err(PersistError::BadMagic);
    }
    let lsn = read_u64(&mut r)?;
    let len = read_varint(&mut r)?;
    if len > CHECKPOINT_CAP {
        return Err(PersistError::Corrupt(format!(
            "checkpoint image length {len} exceeds cap"
        )));
    }
    let expected_crc = read_u32(&mut r)?;
    let left = file_len.saturating_sub(r.stream_position()?);
    if len > left {
        return Err(PersistError::Corrupt(format!(
            "checkpoint image length {len} exceeds the {left} byte(s) left in the file"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    std::io::Read::read_exact(&mut r, &mut payload)
        .map_err(|_| PersistError::Corrupt("torn checkpoint payload".into()))?;
    if crc32(&payload) != expected_crc {
        return Err(PersistError::Corrupt("checkpoint checksum mismatch".into()));
    }
    Ok((lsn, payload))
}

/// What recovery found and did — the stable part is golden-tested.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// LSN of the checkpoint image the recovered state starts from.
    pub checkpoint_lsn: u64,
    /// WAL mutation records replayed on top of the checkpoint.
    pub records_replayed: u64,
    /// Bytes of torn/corrupt WAL tail discarded.
    pub truncated_bytes: u64,
    /// Checkpoint files skipped because they failed verification.
    pub checkpoints_skipped: u64,
}

impl RecoveryReport {
    /// LSN of the recovered state (count of mutations it contains).
    pub fn next_lsn(&self) -> u64 {
        self.checkpoint_lsn + self.records_replayed
    }

    /// Deterministic rendering of the stable fields.
    pub fn render_stable(&self) -> String {
        format!(
            "checkpoint lsn      {}\nrecords replayed    {}\nbytes truncated     {}\ncheckpoints skipped {}\nrecovered lsn       {}\n",
            self.checkpoint_lsn,
            self.records_replayed,
            self.truncated_bytes,
            self.checkpoints_skipped,
            self.next_lsn()
        )
    }
}

/// A recovered catalog plus the report describing how it was rebuilt.
pub struct Recovered {
    /// The rebuilt catalog (no journal attached yet).
    pub catalog: Catalog,
    /// What recovery found on disk.
    pub report: RecoveryReport,
}

/// LSNs of the checkpoint files *named* in `dir`, newest first (no
/// file is opened).
pub(crate) fn checkpoint_lsns(dir: &Path) -> Result<Vec<u64>> {
    let mut lsns = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(hex) = name
            .strip_prefix("checkpoint-")
            .and_then(|s| s.strip_suffix(".ckpt"))
        {
            if let Ok(lsn) = u64::from_str_radix(hex, 16) {
                lsns.push(lsn);
            }
        }
    }
    lsns.sort_unstable();
    lsns.reverse();
    Ok(lsns)
}

/// The newest of `lsns` (newest first) whose checkpoint file verifies,
/// decoded, and how many newer ones were skipped because theirs did
/// not.
///
/// Only damage is skipped: a file that is missing, torn, fails its
/// checksum or names another LSN. A checkpoint that verifies holds the
/// bytes its writer wrote, so an image in it that this build cannot
/// decode — another format version, or a view whose definition does
/// not rebuild — is an error: falling back to an older generation would
/// recover an older state in silence, and the next generation started
/// on it would overwrite this one.
pub(crate) fn newest_intact_checkpoint(
    dir: &Path,
    lsns: &[u64],
) -> Result<(Option<(u64, Image)>, u64)> {
    let mut skipped = 0;
    for &lsn in lsns {
        match read_checkpoint(&checkpoint_path(dir, lsn)) {
            Ok((file_lsn, payload)) if file_lsn == lsn => {
                return Ok((Some((lsn, Image::from_bytes(&payload)?)), skipped))
            }
            Ok(_) | Err(_) => skipped += 1,
        }
    }
    Ok((None, skipped))
}

/// Rebuild a catalog from a store directory: newest intact checkpoint,
/// plus as much of its WAL as is intact.
///
/// Read-only and idempotent — it never writes to `dir`, so recovering
/// after a failed recovery sees the identical state. A missing
/// directory is an empty store (LSN 0), not an error.
///
/// Replay runs on the calling thread through [`WalReader::replay`], the
/// frame loop a replica's tailer also drives: each frame is read,
/// verified, decoded into the one record replay keeps and applied
/// before the next is read, so memory does not grow with the log.
pub fn recover(dir: &Path) -> Result<Recovered> {
    let _g = hrdm_obs::span!("recover.replay", dir = dir.display());

    // 1. Newest checkpoint that verifies; damaged ones are skipped so a
    //    crash mid-rename (or a damaged newest image) falls back to the
    //    previous generation, while an intact image that does not
    //    decode stops recovery.
    let (base, checkpoints_skipped) = if dir.is_dir() {
        let _g = hrdm_obs::span!("recover.load_checkpoint");
        newest_intact_checkpoint(dir, &checkpoint_lsns(dir)?)?
    } else {
        (None, 0)
    };
    let (checkpoint_lsn, mut catalog) = match base {
        Some((lsn, image)) => (lsn, image.into_catalog()),
        None => (0, Catalog::new()),
    };

    // 2. Replay the WAL bound to that checkpoint, stopping cleanly at
    //    the first record that is torn, corrupt, or inapplicable.
    let mut records_replayed = 0u64;
    let mut truncated_bytes = 0u64;
    let path = wal_path(dir, checkpoint_lsn);
    if path.is_file() {
        let file_len = fs::metadata(&path)?.len();
        match WalReader::new(File::open(&path)?) {
            Err(PersistError::Io(e)) => return Err(PersistError::Io(e)),
            Err(PersistError::UnsupportedVersion(v)) => {
                return Err(PersistError::UnsupportedVersion(v))
            }
            Err(_) => {
                // Torn header: the whole file is discarded tail.
                truncated_bytes = file_len;
            }
            Ok(mut reader) => {
                let record = &mut CatalogMutation::default();
                let replayed = reader.replay(checkpoint_lsn, record, u64::MAX, |m| {
                    catalog.apply_mutation(m).map(drop)
                });
                records_replayed = replayed.taken;
                match replayed.stop {
                    Stop::End | Stop::Max => {}
                    Stop::Frame(FrameError::Io(e)) => return Err(PersistError::Io(e)),
                    // Torn, corrupt, or an intact frame whose content does
                    // not apply: a clean stop, and the frame it stopped at
                    // starts the discarded tail.
                    Stop::Frame(_) | Stop::Refused(_) => truncated_bytes = file_len - replayed.at,
                    Stop::Foreign(lsn) => {
                        return Err(PersistError::Corrupt(format!(
                            "wal names checkpoint {lsn}, expected {checkpoint_lsn}"
                        )))
                    }
                }
            }
        }
    }

    hrdm_obs::metrics::counter("recover.records_replayed").add(records_replayed);
    hrdm_obs::metrics::counter("recover.truncated_bytes").add(truncated_bytes);
    hrdm_obs::metrics::counter("recover.runs").incr();

    Ok(Recovered {
        catalog,
        report: RecoveryReport {
            checkpoint_lsn,
            records_replayed,
            truncated_bytes,
            checkpoints_skipped,
        },
    })
}

/// An open journal: the current WAL generation plus the machinery to
/// roll it over at a checkpoint.
pub struct Journal {
    dir: PathBuf,
    wal: WalFile,
    checkpoint_lsn: u64,
    group: usize,
    obs: Arc<JournalObs>,
}

impl Journal {
    /// Start a fresh generation at `lsn`: write the checkpoint image,
    /// open a new WAL bound to it, fsync the directory, then
    /// garbage-collect older generations. `group` is `SYNC EVERY n`'s
    /// `n`: fewer than `group` committed records may be non-durable
    /// at any acknowledgement (1 = every record is durable before its
    /// commit returns).
    ///
    /// The image and the log each fsync their own data, but their names
    /// — the checkpoint's rename, the log's creation — are entries of
    /// the directory, and only its fsync makes them durable. Without it
    /// a crash after the old generation's deletion could leave neither.
    ///
    /// Every generation counts `wal.*` and `persist.*` into `metrics`.
    pub fn begin(
        dir: &Path,
        lsn: u64,
        image: &Image,
        group: usize,
        metrics: &Registry,
    ) -> Result<Journal> {
        let obs = JournalObs::new(metrics);
        Journal::start(dir, lsn, image, group, Arc::default(), obs)
    }

    /// [`begin`](Self::begin), publishing into `marks` and counting into
    /// `obs` (which a checkpoint carries over to the next generation).
    fn start(
        dir: &Path,
        lsn: u64,
        image: &Image,
        group: usize,
        marks: Arc<LsnMarks>,
        obs: Arc<JournalObs>,
    ) -> Result<Journal> {
        write_checkpoint(dir, lsn, image)?;
        obs.checkpoints.incr();
        let wal = WalFile::create_marked(wal_path(dir, lsn), lsn, group, marks, obs.clone())?;
        File::open(dir)?.sync_all()?;
        let journal = Journal {
            dir: dir.to_path_buf(),
            wal,
            checkpoint_lsn: lsn,
            group,
            obs,
        };
        journal.collect_garbage()?;
        Ok(journal)
    }

    /// Delete generations older than the current one (and stray tmp
    /// files). Only called after the new generation is durable.
    fn collect_garbage(&self) -> Result<()> {
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let stale = name.ends_with(".tmp")
                || name
                    .strip_prefix("checkpoint-")
                    .and_then(|s| s.strip_suffix(".ckpt"))
                    .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                    .is_some_and(|lsn| lsn < self.checkpoint_lsn)
                || name
                    .strip_prefix("wal-")
                    .and_then(|s| s.strip_suffix(".log"))
                    .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                    .is_some_and(|lsn| lsn < self.checkpoint_lsn);
            if stale {
                fs::remove_file(entry.path())?;
            }
        }
        Ok(())
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// LSN of the current checkpoint.
    pub fn checkpoint_lsn(&self) -> u64 {
        self.checkpoint_lsn
    }

    /// LSN the next recorded mutation will get (= mutations recorded so
    /// far, across all generations).
    pub fn next_lsn(&self) -> u64 {
        self.checkpoint_lsn + self.wal.appended()
    }

    /// Mutations a completed `fdatasync` (or checkpoint) covers, across
    /// all generations: `next_lsn() − durable_lsn() < group` whenever a
    /// record or commit returns.
    pub fn durable_lsn(&self) -> u64 {
        self.wal.marks().durable()
    }

    /// The journal's LSNs, readable without it; the same marks across
    /// every checkpoint.
    pub fn marks(&self) -> &Arc<LsnMarks> {
        self.wal.marks()
    }

    /// Append one mutation to the WAL (stage and commit it).
    pub fn record(&mut self, m: &CatalogMutation) -> Result<()> {
        self.wal.append(m)
    }

    /// Stage one mutation of the write in progress; it reaches the log
    /// with [`commit`](Self::commit), or never after
    /// [`discard`](Self::discard).
    pub fn stage(&mut self, m: &CatalogMutation) -> Result<()> {
        self.wal.stage(m)
    }

    /// Append the staged mutations: their write was accepted.
    pub fn commit(&mut self) -> Result<()> {
        self.wal.commit()
    }

    /// Drop the staged mutations: their write was refused.
    pub fn discard(&mut self) {
        self.wal.discard()
    }

    /// Return once every recorded mutation is durable.
    pub fn sync(&mut self) -> Result<()> {
        self.wal.sync()
    }

    /// Take a checkpoint of `image` (which must reflect every recorded
    /// and staged mutation): commits the staged ones, makes the log
    /// durable, rolls the journal over to a fresh generation and
    /// truncates the old log. Returns the new checkpoint LSN.
    pub fn checkpoint(&mut self, image: &Image) -> Result<u64> {
        self.wal.commit()?;
        self.wal.sync()?;
        let lsn = self.next_lsn();
        let marks = Arc::clone(self.wal.marks());
        let obs = Arc::clone(&self.obs);
        *self = Journal::start(&self.dir, lsn, image, self.group, marks, obs)?;
        Ok(lsn)
    }
}

/// A [`Catalog`] whose every mutation is journaled to a store
/// directory — open it again after a crash and [`recover`] rebuilds
/// the same state.
pub struct DurableCatalog {
    catalog: Catalog,
    journal: Journal,
    report: RecoveryReport,
}

impl DurableCatalog {
    /// Open (or create) a store with synchronous durability
    /// (fsync per mutation).
    pub fn open(dir: &Path) -> Result<DurableCatalog> {
        DurableCatalog::open_with_group(dir, 1)
    }

    /// Open (or create) a store with group-commit width `group`.
    ///
    /// Recovery runs first; the recovered state is then immediately
    /// checkpointed so the store always restarts on a fresh generation
    /// (the torn tail of the previous one is garbage-collected, not
    /// edited in place). The journal counts into a scope of its own.
    pub fn open_with_group(dir: &Path, group: usize) -> Result<DurableCatalog> {
        let Recovered { catalog, report } = recover(dir)?;
        let journal = Journal::begin(
            dir,
            report.next_lsn(),
            &Image::from_catalog(&catalog),
            group,
            &Registry::scope(),
        )?;
        Ok(DurableCatalog {
            catalog,
            journal,
            report,
        })
    }

    /// The recovery report from opening this store.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.report
    }

    /// Read access to the underlying catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// LSN of the next mutation (= mutations applied over the store's
    /// lifetime).
    pub fn lsn(&self) -> u64 {
        self.journal.next_lsn()
    }

    /// Apply a mutation, then journal it — only mutations the catalog
    /// accepted reach the log. An error from the journal (disk full, …)
    /// is surfaced here even though the in-memory change already
    /// happened — the caller must treat the store as poisoned beyond
    /// that point.
    pub fn mutate(&mut self, m: CatalogMutation) -> Result<()> {
        self.catalog
            .apply_mutation(&m)
            .map_err(|e| PersistError::Rebuild(e.to_string()))?;
        self.journal.record(&m)
    }

    /// Return once every journaled mutation is durable.
    pub fn sync(&mut self) -> Result<()> {
        self.journal.sync()
    }

    /// Checkpoint the current state and truncate the WAL. Returns the
    /// new checkpoint LSN.
    pub fn checkpoint(&mut self) -> Result<u64> {
        self.journal.checkpoint(&Image::from_catalog(&self.catalog))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrdm_core::prelude::Truth;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hrdm_store_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn script() -> Vec<CatalogMutation> {
        use CatalogMutation::*;
        vec![
            CreateDomain {
                name: "Animal".into(),
            },
            AddClass {
                domain: "Animal".into(),
                name: "Bird".into(),
                parents: vec!["Animal".into()],
            },
            AddInstance {
                domain: "Animal".into(),
                name: "Tweety".into(),
                parents: vec!["Bird".into()],
            },
            CreateRelation {
                name: "Flies".into(),
                attributes: vec![("Creature".into(), "Animal".into())],
            },
            Assert {
                relation: "Flies".into(),
                values: vec!["Bird".into()],
                truth: Truth::Positive,
            },
        ]
    }

    #[test]
    fn empty_directory_recovers_to_empty_catalog() {
        let dir = temp_dir("empty");
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.report.checkpoint_lsn, 0);
        assert_eq!(rec.report.next_lsn(), 0);
        assert_eq!(rec.catalog.render_stable(), "");
        // A directory that doesn't exist at all behaves the same.
        let rec = recover(&dir.join("missing")).unwrap();
        assert_eq!(rec.report.next_lsn(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mutations_survive_reopen() {
        let dir = temp_dir("reopen");
        let mut live = Catalog::new();
        {
            let mut store = DurableCatalog::open(&dir).unwrap();
            for m in script() {
                store.mutate(m.clone()).unwrap();
                live.apply_mutation(&m).unwrap();
            }
            assert_eq!(store.lsn(), script().len() as u64);
        } // dropped without checkpoint: WAL replay carries everything
        let store = DurableCatalog::open(&dir).unwrap();
        assert_eq!(
            store.catalog().render_stable(),
            live.render_stable(),
            "recovered state must equal the live catalog"
        );
        assert_eq!(
            store.recovery_report().records_replayed,
            script().len() as u64
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_truncates_the_log_and_survives() {
        let dir = temp_dir("ckpt");
        let mut store = DurableCatalog::open(&dir).unwrap();
        for m in script() {
            store.mutate(m).unwrap();
        }
        let lsn = store.checkpoint().unwrap();
        assert_eq!(lsn, script().len() as u64);
        // Old generation is gone, exactly one checkpoint + wal remain.
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names.len(), 2, "one checkpoint + one wal: {names:?}");
        let expected = store.catalog().render_stable();
        drop(store);
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.report.checkpoint_lsn, lsn);
        assert_eq!(rec.report.records_replayed, 0);
        assert_eq!(rec.catalog.render_stable(), expected);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_is_idempotent_and_read_only() {
        let dir = temp_dir("idem");
        {
            let mut store = DurableCatalog::open(&dir).unwrap();
            for m in script() {
                store.mutate(m).unwrap();
            }
        }
        let a = recover(&dir).unwrap();
        let b = recover(&dir).unwrap();
        assert_eq!(a.report, b.report);
        assert_eq!(a.catalog.render_stable(), b.catalog.render_stable());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_newest_checkpoint_falls_back_to_previous() {
        let dir = temp_dir("fallback");
        let mut store = DurableCatalog::open(&dir).unwrap();
        for m in script() {
            store.mutate(m).unwrap();
        }
        let good = store.checkpoint().unwrap();
        let expected = store.catalog().render_stable();
        drop(store);
        // Forge a newer checkpoint that fails verification.
        fs::write(checkpoint_path(&dir, good + 7), b"HRDMCKP1 garbage").unwrap();
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.report.checkpoint_lsn, good);
        assert_eq!(rec.report.checkpoints_skipped, 1);
        assert_eq!(rec.catalog.render_stable(), expected);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The files of `dir` by name, with their bytes.
    fn files(dir: &Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
        let mut files: Vec<_> = fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (e.file_name(), fs::read(e.path()).unwrap())
            })
            .collect();
        files.sort();
        files
    }

    /// A newest checkpoint that verifies but does not decode — an image
    /// of an earlier format version, or one whose view no longer
    /// derives — stops recovery and a tailer with that error. Neither
    /// falls back to the older generation as if the newest were
    /// damaged, and the directory is left as it was.
    #[test]
    fn an_intact_checkpoint_that_does_not_decode_is_an_error() {
        use hrdm_core::derivation::{Derivation, Source};
        let dir = temp_dir("undecodable");
        let mut store = DurableCatalog::open(&dir).unwrap();
        for m in script() {
            store.mutate(m).unwrap();
        }
        store
            .mutate(CatalogMutation::DefineView {
                name: "Fliers".into(),
                derivation: Derivation::Consolidated(Source::named("Flies")),
            })
            .unwrap();
        let good = store.checkpoint().unwrap();
        let image = Image::from_catalog(store.catalog()).to_bytes().unwrap();
        drop(store);
        let older = |version: u32| {
            let mut older = image.clone();
            older[6..10].copy_from_slice(&version.to_le_bytes());
            older
        };
        let (version_one, version_two) = (older(1), older(2));
        let mut underivable = image;
        let at = underivable.windows(5).rposition(|w| w == b"Flies").unwrap();
        underivable[at..at + 5].copy_from_slice(b"Fliez");
        for (payload, kind) in [
            (version_one, "unsupported-version"),
            (version_two, "unsupported-version"),
            (underivable, "rebuild"),
        ] {
            let newer = write_checkpoint_payload(&dir, good + 3, &payload).unwrap();
            let before = files(&dir);
            assert_eq!(recover(&dir).err().map(|e| e.kind()), Some(kind));
            let polled = crate::WalTailer::attach(&dir).poll();
            assert_eq!(polled.err().map(|e| e.kind()), Some(kind));
            assert_eq!(files(&dir), before, "{kind}: the store was touched");
            fs::remove_file(newer).unwrap();
        }
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.report.checkpoint_lsn, good);
        assert!(rec.catalog.is_view("Fliers"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_mutations_are_not_journaled() {
        let dir = temp_dir("failed");
        let mut store = DurableCatalog::open(&dir).unwrap();
        for m in script() {
            store.mutate(m).unwrap();
        }
        let before = store.lsn();
        assert!(store
            .mutate(CatalogMutation::CreateDomain {
                name: "Animal".into(), // duplicate
            })
            .is_err());
        assert_eq!(store.lsn(), before, "failed mutation must not advance LSN");
        drop(store);
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.report.next_lsn(), before);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn acknowledged_records_stay_within_the_loss_bound() {
        use CatalogMutation::{Assert, Retract};
        let dir = temp_dir("bound");
        for n in [1usize, 2, 32] {
            let mut store = DurableCatalog::open_with_group(&dir, n).unwrap();
            let marks = Arc::clone(store.journal.marks());
            for m in script() {
                store.mutate(m).unwrap();
            }
            for i in 0..100 {
                let values = vec!["Tweety".to_string()];
                store
                    .mutate(match i % 2 {
                        0 => Assert {
                            relation: "Flies".into(),
                            values,
                            truth: Truth::Negative,
                        },
                        _ => Retract {
                            relation: "Flies".into(),
                            values,
                        },
                    })
                    .unwrap();
                assert!(
                    store.lsn() - store.journal.durable_lsn() < n as u64,
                    "SYNC EVERY {n}"
                );
            }
            store.sync().unwrap();
            assert_eq!(
                store.journal.durable_lsn(),
                store.lsn(),
                "sync makes every record durable"
            );
            store.mutate(script()[0].clone()).unwrap_err();
            let lsn = store.checkpoint().unwrap();
            assert_eq!((store.journal.durable_lsn(), store.lsn()), (lsn, lsn));
            assert!(
                Arc::ptr_eq(&marks, store.journal.marks()),
                "a checkpoint keeps the journal's marks"
            );
            assert_eq!((marks.next(), marks.durable()), (lsn, lsn));
            drop(store);
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn report_renders_stably() {
        let report = RecoveryReport {
            checkpoint_lsn: 3,
            records_replayed: 2,
            truncated_bytes: 17,
            checkpoints_skipped: 1,
        };
        let rendered = report.render_stable();
        assert!(rendered.contains("checkpoint lsn      3"));
        assert!(rendered.contains("records replayed    2"));
        assert!(rendered.contains("bytes truncated     17"));
        assert!(rendered.contains("recovered lsn       5"));
        assert_eq!(report.next_lsn(), 5);
    }
}
