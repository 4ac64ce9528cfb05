//! WAL shipping: tail a live store directory and stream its history
//! to a read replica.
//!
//! A [`WalTailer`] attaches to the same directory a primary journals
//! into (see [`crate::store`]). Each [`deliver`](WalTailer::deliver)
//! hands a consumer what is new: a **rollover** if a new generation
//! appeared (first attach, or the primary took a checkpoint) — the
//! checkpoint [`Image`] the consumer replaces its state with — then the
//! **mutation records** past what was already delivered, numbered by
//! LSN (mutations applied since the store was born). These are the
//! records the primary's `WalFile` has *flushed*, not only those an
//! `fdatasync` made durable, so a replica may run ahead of what a crash
//! of the primary would keep; shipping only up to the durable LSN is
//! part (2) of ROADMAP's item "Durability is one published LSN".
//!
//! A delivery costs what is *new*. The tailer keeps a cursor —
//! generation, records delivered, and the byte offset of the frame
//! boundary it verified up to — decides "same generation" from the
//! newest checkpoint's file name (an image is loaded and checksummed
//! only when that name changed), seeks to the offset and reads from
//! there through recovery's frame loop (`WalReader::replay`), decoding
//! each frame once into the one record it lends the consumer. The
//! cursor moves past what was delivered only when the consumer accepts
//! it; one that refuses is handed the same records again next time.
//!
//! The tailer is strictly **read-only**, and every delivered record
//! was CRC-verified. What it does at a frame it cannot deliver depends
//! on why ([`FrameError`]):
//!
//! * a frame cut **short** by end-of-file is a tail still being written
//!   (or torn by a crash): delivery stops quietly at the last intact
//!   record and the next one resumes there;
//! * a **complete but invalid** frame is damage no retry repairs: the
//!   delivery that finds it first in line fails with
//!   [`PersistError::Corrupt`] naming the byte offset (and bumps
//!   `ship.corrupt_records`), and so does every later one until a
//!   checkpoint supersedes the generation. Intact records before it
//!   are delivered first;
//! * a WAL now *shorter* than the cursor, or gone (the directory was
//!   recreated, or the generation was checkpointed away mid-read), is
//!   re-read from the newest checkpoint as a rollover.
//!
//! Delivery therefore always yields a *prefix* of the primary's flushed
//! history, each record accepted exactly once.

use std::fs::File;
use std::io::{BufReader, ErrorKind, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use hrdm_core::mutation::CatalogMutation;
use hrdm_obs::metrics::{Counter, Registry};

use crate::error::{PersistError, Result};
use crate::image::Image;
use crate::store::{checkpoint_lsns, newest_intact_checkpoint, wal_path};
use crate::wal::{FrameError, Stop, WalReader, WAL_HEADER_LEN};

/// One unit of shipped history, owned: what [`WalTailer::poll`] returns.
pub enum ShipEvent {
    /// A new generation: the replica must replace its state with this
    /// checkpoint image (which captures the first `lsn` mutations).
    Rollover {
        /// LSN of the checkpoint the new generation starts from.
        lsn: u64,
        /// The checkpoint image.
        image: Image,
    },
    /// One committed mutation, the `lsn`-th applied since the store was
    /// born (1-based; follows the generation's checkpoint LSN).
    Mutation {
        /// This mutation's LSN.
        lsn: u64,
        /// The mutation itself.
        mutation: CatalogMutation,
    },
}

/// The records of one [`deliver`](WalTailer::deliver): called with the
/// function applying one record, it lends that function each record in
/// LSN order as it is read and passes on the first error (once; a
/// second call hands over nothing).
pub type Records<'a, E> = dyn FnMut(
        &mut dyn FnMut(&CatalogMutation) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E>
    + 'a;

/// A tailer's own metrics scope and its handles.
struct ShipObs {
    metrics: Registry,
    rollovers: Counter,
    mutations: Counter,
    /// WAL bytes consumed by deliveries, a partly read tail frame
    /// included.
    poll_bytes: Counter,
    /// Checkpoint images opened and verified.
    checkpoint_loads: Counter,
    /// Deliveries that failed on a complete but invalid frame.
    corrupt_records: Counter,
    /// Cursors dropped because the WAL under them had shrunk.
    resets: Counter,
}

impl ShipObs {
    fn new() -> ShipObs {
        let metrics = Registry::scope();
        ShipObs {
            rollovers: metrics.counter("ship.rollovers"),
            mutations: metrics.counter("ship.mutations"),
            poll_bytes: metrics.counter("ship.poll_bytes"),
            checkpoint_loads: metrics.counter("ship.checkpoint_loads"),
            corrupt_records: metrics.counter("ship.corrupt_records"),
            resets: metrics.counter("ship.resets"),
            metrics,
        }
    }
}

/// Where a [`WalTailer`] stands in the primary's history.
#[derive(Clone, Copy, Default)]
struct Cursor {
    /// Checkpoint LSN of the generation being tailed; `None` until the
    /// first generation is observed.
    generation: Option<u64>,
    /// Newest checkpoint LSN *named* in the directory when the
    /// generation was last resolved (it may name a file that did not
    /// verify); a delivery opens checkpoint files only when this
    /// changes.
    newest_named: Option<u64>,
    /// Mutation records delivered from the generation's WAL.
    delivered: u64,
    /// Byte offset in that WAL just past the last verified frame; the
    /// WAL is read from its start again while this is not past the
    /// checkpoint record.
    offset: u64,
}

/// A read-only tailer over a store directory's live generation.
pub struct WalTailer {
    dir: PathBuf,
    cursor: Cursor,
    obs: ShipObs,
}

impl WalTailer {
    /// Attach to a store directory. The directory need not exist yet —
    /// the first delivery after the primary `OPEN`s it carries the
    /// initial generation as a rollover.
    pub fn attach(dir: impl Into<PathBuf>) -> WalTailer {
        WalTailer {
            dir: dir.into(),
            cursor: Cursor::default(),
            obs: ShipObs::new(),
        }
    }

    /// This tailer's own metrics scope (`ship.*`).
    pub fn metrics(&self) -> &Registry {
        &self.obs.metrics
    }

    /// The store directory being tailed.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// LSN of the last event delivered (checkpoint LSN + mutations
    /// delivered on top); 0 before the first generation is observed.
    pub fn shipped_lsn(&self) -> u64 {
        self.cursor.generation.unwrap_or(0) + self.cursor.delivered
    }

    /// Everything newly flushed since the last delivery, each record
    /// cloned into an owned [`ShipEvent`]: a [`deliver`](Self::deliver)
    /// without bound whose consumer keeps what it is lent. Empty when
    /// nothing changed; errors as `deliver`'s.
    pub fn poll(&mut self) -> Result<Vec<ShipEvent>> {
        let mut events = Vec::new();
        let mut lsn = self.shipped_lsn();
        self.deliver::<PersistError>(usize::MAX, |rollover, records| {
            if let Some((at, image)) = rollover {
                lsn = at;
                events.push(ShipEvent::Rollover { lsn, image });
            }
            records(&mut |mutation| {
                lsn += 1;
                let mutation = mutation.clone();
                events.push(ShipEvent::Mutation { lsn, mutation });
                Ok(())
            })
        })??;
        Ok(events)
    }

    /// Hand what is new to `consume`: the rollover, if the generation
    /// changed (its checkpoint LSN and image), and the [`Records`] that
    /// yield at most `max` (≥ 1) mutation records past the cursor. The
    /// tailer reads one frame ahead and calls `consume` only if there is
    /// a rollover or at least one intact record.
    ///
    /// `Ok(Ok(None))`: nothing to hand over. `Ok(Ok(Some(n)))`: `consume`
    /// accepted the rollover (if any) and `n` records, and the cursor
    /// moves past them. `Ok(Err(e))`: `consume` refused; the tailer stays
    /// where it was, so the same rollover and records come again next
    /// time. `Err`: the log could not be read (nothing is delivered,
    /// whatever `consume` returned), or damage is first in line.
    pub fn deliver<E: From<PersistError>>(
        &mut self,
        max: usize,
        consume: impl FnOnce(Option<(u64, Image)>, &mut Records<'_, E>) -> std::result::Result<(), E>,
    ) -> Result<std::result::Result<Option<u64>, E>> {
        let _g = hrdm_obs::span!("ship.poll", dir = self.dir.display());
        let mut cursor = self.cursor;
        let rollover = self.resolve(&mut cursor)?;
        let Some(generation) = cursor.generation else {
            self.cursor = cursor;
            return Ok(Ok(None)); // no generation yet
        };
        let path = wal_path(&self.dir, generation);
        let corrupt = |at: u64, msg: String| {
            PersistError::Corrupt(format!("{} at byte {at}: {msg}", path.display()))
        };

        // Read one frame ahead, refusing it so that it stays decoded in
        // `record` and the walk stops at its offset.
        let mut record = CatalogMutation::default();
        let mut damage = None;
        let mut waiting = false;
        let mut reader = match open_wal(&path, &mut cursor) {
            Ok(reader) => reader,
            Err(PersistError::Io(e)) => return Err(PersistError::Io(e)),
            Err(e) => {
                damage = Some(e);
                None
            }
        };
        let read_from = cursor.offset;
        if let Some(reader) = &mut reader {
            let ahead = reader.replay(generation, &mut record, 1, |_| Err(()));
            cursor.offset = ahead.at;
            match ahead.stop {
                Stop::Refused(()) => waiting = true,
                Stop::End | Stop::Max | Stop::Frame(FrameError::Short(_)) => {}
                Stop::Frame(FrameError::Invalid(msg)) => damage = Some(corrupt(ahead.at, msg)),
                Stop::Foreign(lsn) => {
                    let msg = format!("wal names checkpoint {lsn}, expected {generation}");
                    damage = Some(corrupt(ahead.at, msg));
                }
                Stop::Frame(FrameError::Io(e)) => return Err(PersistError::Io(e)),
            }
        }

        let rolled = rollover.is_some();
        let (mut taken, mut failed) = (0, None);
        let outcome = (rolled || waiting).then(|| {
            consume(rollover, &mut |apply| {
                if !std::mem::take(&mut waiting) {
                    return Ok(());
                }
                let reader = reader.as_mut().expect("a record waits in an open log");
                apply(&record)?;
                let rest = reader.replay(generation, &mut record, max.max(1) as u64 - 1, apply);
                taken = 1 + rest.taken;
                cursor.offset = rest.at;
                match rest.stop {
                    Stop::Refused(e) => Err(e),
                    Stop::Frame(FrameError::Io(e)) => {
                        let err = std::io::Error::new(e.kind(), e.to_string());
                        failed = Some(e);
                        Err(PersistError::Io(err).into())
                    }
                    // Damage ends the delivery quietly too: the next one
                    // finds it first in line and reports it.
                    _ => Ok(()),
                }
            })
        });
        let obs = &self.obs;
        obs.poll_bytes
            .add(reader.as_ref().map_or(read_from, WalReader::pos) - read_from);
        if let Some(e) = failed {
            return Err(PersistError::Io(e));
        }
        let delivered = match (outcome, damage) {
            (Some(Err(e)), _) => return Ok(Err(e)),
            (Some(Ok(())), _) => Some(taken),
            (None, Some(e)) => {
                obs.corrupt_records.incr();
                return Err(e);
            }
            (None, None) => None,
        };
        cursor.delivered += taken;
        self.cursor = cursor;
        obs.mutations.add(taken);
        obs.rollovers.add(u64::from(rolled));
        Ok(Ok(delivered))
    }

    /// Bring `cursor` to the newest generation whose checkpoint
    /// verifies, and return the rollover if that changed it.
    fn resolve(&self, cursor: &mut Cursor) -> Result<Option<(u64, Image)>> {
        let obs = &self.obs;
        // A WAL shorter than what was already verified, or gone, is not
        // the file the cursor points into: start over from the newest
        // checkpoint instead of seeking into garbage.
        if cursor.offset > 0 {
            let generation = cursor.generation.expect("an offset is into a generation");
            match std::fs::metadata(wal_path(&self.dir, generation)) {
                Ok(meta) if meta.len() >= cursor.offset => {}
                Ok(_) => {
                    obs.resets.incr();
                    *cursor = Cursor::default();
                }
                Err(e) if e.kind() == ErrorKind::NotFound => *cursor = Cursor::default(),
                Err(e) => return Err(e.into()),
            }
        }

        // Generation check, by file name: first attach, or the primary
        // rolled over.
        let lsns = match checkpoint_lsns(&self.dir) {
            Ok(lsns) => lsns,
            Err(PersistError::Io(e)) if e.kind() == ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let Some(&newest_named) = lsns.first() else {
            return Ok(None); // store not born yet
        };
        if cursor.newest_named == Some(newest_named) {
            return Ok(None);
        }
        // Damaged ones are skipped, exactly like recovery does.
        let (intact, skipped) = newest_intact_checkpoint(&self.dir, &lsns)?;
        obs.checkpoint_loads
            .add(skipped + u64::from(intact.is_some()));
        let Some((lsn, image)) = intact else {
            return Ok(None); // nothing verifies (yet)
        };
        cursor.newest_named = Some(newest_named);
        if cursor.generation == Some(lsn) {
            return Ok(None);
        }
        *cursor = Cursor {
            generation: Some(lsn),
            newest_named: Some(newest_named),
            delivered: 0,
            offset: 0,
        };
        Ok(Some((lsn, image)))
    }
}

/// Open the WAL at `path` where `cursor` stands: resumed at its offset
/// once that is past the checkpoint record, else from the start (the
/// offset then drops to 0). `None` when the file does not exist yet or
/// holds less than a header: nothing to ship.
fn open_wal(path: &Path, cursor: &mut Cursor) -> Result<Option<WalReader<BufReader<File>>>> {
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    if cursor.offset > WAL_HEADER_LEN {
        file.seek(SeekFrom::Start(cursor.offset))?;
        return Ok(Some(WalReader::resume(BufReader::new(file), cursor.offset)));
    }
    cursor.offset = 0;
    if file.metadata()?.len() < WAL_HEADER_LEN {
        return Ok(None);
    }
    WalReader::new(BufReader::new(file)).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::DurableCatalog;
    use hrdm_core::prelude::Truth;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hrdm_ship_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn mutations() -> Vec<CatalogMutation> {
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
    fn ships_a_live_store_in_order() {
        let dir = temp_dir("order");
        let mut tailer = WalTailer::attach(&dir);
        assert!(tailer.poll().unwrap().is_empty(), "store not born yet");

        let mut store = DurableCatalog::open(&dir).unwrap();
        let events = tailer.poll().unwrap();
        assert!(
            matches!(events.as_slice(), [ShipEvent::Rollover { lsn: 0, .. }]),
            "first generation arrives as a rollover"
        );

        for (i, m) in mutations().into_iter().enumerate() {
            store.mutate(m.clone()).unwrap();
            let events = tailer.poll().unwrap();
            match events.as_slice() {
                [ShipEvent::Mutation { lsn, mutation }] => {
                    assert_eq!(*lsn, i as u64 + 1);
                    assert_eq!(*mutation, m);
                }
                other => panic!("expected one mutation, got {} events", other.len()),
            }
        }
        assert_eq!(tailer.shipped_lsn(), mutations().len() as u64);
        assert!(tailer.poll().unwrap().is_empty(), "exactly-once delivery");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_arrives_as_rollover_without_replay() {
        let dir = temp_dir("rollover");
        let mut store = DurableCatalog::open(&dir).unwrap();
        let mut tailer = WalTailer::attach(&dir);
        for m in mutations() {
            store.mutate(m).unwrap();
        }
        let _ = tailer.poll().unwrap(); // drain: rollover(0) + 4 mutations
        let lsn = store.checkpoint().unwrap();
        let mut events = tailer.poll().unwrap();
        assert_eq!(events.len(), 1);
        match events.pop().unwrap() {
            ShipEvent::Rollover { lsn: got, image } => {
                assert_eq!(got, lsn);
                assert_eq!(
                    image.into_catalog().render_stable(),
                    store.catalog().render_stable(),
                    "rollover image equals the primary state"
                );
            }
            ShipEvent::Mutation { .. } => panic!("expected a rollover"),
        }
        assert!(tailer.poll().unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn late_attach_catches_up_from_the_checkpoint() {
        let dir = temp_dir("late");
        let mut store = DurableCatalog::open(&dir).unwrap();
        for m in mutations() {
            store.mutate(m).unwrap();
        }
        let lsn = store.checkpoint().unwrap();
        store
            .mutate(CatalogMutation::CreateDomain {
                name: "Tool".into(),
            })
            .unwrap();

        let mut tailer = WalTailer::attach(&dir);
        let events = tailer.poll().unwrap();
        assert_eq!(events.len(), 2, "rollover + one post-checkpoint mutation");
        assert!(matches!(&events[0], ShipEvent::Rollover { lsn: got, .. } if *got == lsn));
        assert!(matches!(
            &events[1],
            ShipEvent::Mutation { lsn: got, mutation: CatalogMutation::CreateDomain { name } }
                if *got == lsn + 1 && name == "Tool"
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn lsns(events: &[ShipEvent]) -> Vec<u64> {
        events
            .iter()
            .map(|e| match e {
                ShipEvent::Rollover { lsn, .. } | ShipEvent::Mutation { lsn, .. } => *lsn,
            })
            .collect()
    }

    /// Deliver at most `max` records to a consumer that takes them all,
    /// then accepts or refuses; the LSNs it was handed, the rollover's
    /// first, and the mutations.
    fn deliver_lsns(
        tailer: &mut WalTailer,
        max: usize,
        accept: bool,
    ) -> (Vec<u64>, Vec<CatalogMutation>) {
        let (mut lsns, mut mutations) = (Vec::new(), Vec::new());
        let mut lsn = tailer.shipped_lsn();
        let outcome = tailer.deliver(max, |rollover, records| {
            if let Some((at, _)) = rollover {
                (lsn, lsns) = (at, vec![at]);
            }
            records(&mut |m| {
                lsn += 1;
                lsns.push(lsn);
                mutations.push(m.clone());
                Ok(())
            })?;
            accept
                .then_some(())
                .ok_or(PersistError::Corrupt("refused".into()))
        });
        assert_eq!(outcome.unwrap().is_ok(), accept);
        (lsns, mutations)
    }

    #[test]
    fn bounded_deliveries_stop_on_frame_boundaries_and_a_refused_delivery_leaves_the_tailer_where_it_was(
    ) {
        let dir = temp_dir("bounded");
        let mut store = DurableCatalog::open(&dir).unwrap();
        let all = mutations();
        for m in &all {
            store.mutate(m.clone()).unwrap();
        }
        let mut tailer = WalTailer::attach(&dir);
        // The rollover does not count against the bound, and a refused
        // delivery comes again, rollover and all.
        for (max, lsns, range) in [(1, vec![0, 1], 0..1), (2, vec![2, 3], 1..3)] {
            for accept in [false, true] {
                let expected = (lsns.clone(), all[range.clone()].to_vec());
                assert_eq!(deliver_lsns(&mut tailer, max, accept), expected);
            }
        }
        // Accepted without taking the records: they come next time.
        let taken = tailer.deliver::<PersistError>(2, |_, _| Ok(()));
        assert_eq!(taken.unwrap().unwrap(), Some(0));
        assert_eq!(
            deliver_lsns(&mut tailer, 2, true),
            (vec![4], all[3..].to_vec())
        );
        // Nothing new: the consumer is not called.
        let nothing = tailer.deliver::<PersistError>(2, |_, _| panic!("nothing to deliver"));
        assert_eq!(nothing.unwrap().unwrap(), None);
        assert_eq!(tailer.shipped_lsn(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A WAL shorter than the cursor is a different file under the same
    /// name (the directory was recreated): start over from its
    /// checkpoint rather than seek past its end.
    #[test]
    fn a_wal_shorter_than_the_cursor_restarts_from_the_checkpoint() {
        let dir = temp_dir("shrunk");
        let mut store = DurableCatalog::open(&dir).unwrap();
        for m in mutations() {
            store.mutate(m).unwrap();
        }
        let mut tailer = WalTailer::attach(&dir);
        assert_eq!(tailer.poll().unwrap().len(), 5);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
        let mut store = DurableCatalog::open(&dir).unwrap();
        store.mutate(mutations().remove(0)).unwrap();
        let events = tailer.poll().unwrap();
        assert_eq!(lsns(&events), [0, 1], "rollover, then the new store's log");
        assert!(matches!(&events[0], ShipEvent::Rollover { .. }));
        assert!(tailer.poll().unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
