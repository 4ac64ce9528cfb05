//! WAL shipping: tail a live store directory and stream its committed
//! history to a read replica.
//!
//! A [`WalTailer`] attaches to the same directory a primary journals
//! into (see [`crate::store`]) and, on every [`poll`](WalTailer::poll),
//! reports what is newly durable as [`ShipEvent`]s:
//!
//! * [`ShipEvent::Rollover`] — a new generation appeared (first attach,
//!   or the primary took a checkpoint). Carries the checkpoint
//!   [`Image`]; the replica replaces its state with it wholesale. Only
//!   ever the first event of a poll.
//! * [`ShipEvent::Mutation`] — one committed WAL record past what was
//!   already delivered, numbered by its LSN (mutations applied since
//!   the store was born).
//!
//! A poll costs what is *new*. The tailer keeps a [`ShipCursor`] —
//! generation, records delivered, and the byte offset of the frame
//! boundary it verified up to — decides "same generation" from the
//! newest checkpoint's file name (an image is loaded and checksummed
//! only when that name changed), seeks to the offset and decodes from
//! there. The offset only ever moves past intact frames. A consumer
//! that polls over and over ([`poll_into`](WalTailer::poll_into)) hands
//! back the same [`ShipBatch`] each time, and the poll refills the
//! buffers it already holds.
//!
//! The tailer is strictly **read-only**, and every delivered record
//! was CRC-verified. What it does at a frame it cannot deliver depends
//! on why ([`FrameError`]):
//!
//! * a frame cut **short** by end-of-file is a tail still being written
//!   (or torn by a crash): delivery stops quietly at the last intact
//!   record and the next poll resumes there;
//! * a **complete but invalid** frame is damage no retry repairs: the
//!   poll that finds it first in line fails with
//!   [`PersistError::Corrupt`] naming the byte offset (and bumps
//!   `ship.corrupt_records`), and so does every later poll until a
//!   checkpoint supersedes the generation. Intact records before it
//!   are delivered first;
//! * a WAL now *shorter* than the cursor, or gone (the directory was
//!   recreated, or the generation was checkpointed away mid-poll), is
//!   re-read from the newest checkpoint as a rollover.
//!
//! Polling therefore always yields a *prefix* of the primary's
//! committed history, delivered exactly once across the tailer's
//! lifetime — unless the consumer [`rewind`](WalTailer::rewind)s to
//! re-read what it failed to apply. A poll that returns `Err` leaves
//! the cursor where it was.

use std::fs::File;
use std::io::{BufReader, ErrorKind, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use hrdm_core::mutation::CatalogMutation;
use hrdm_obs::metrics::{Counter, Registry};

use crate::error::{PersistError, Result};
use crate::image::Image;
use crate::store::{checkpoint_lsns, newest_intact_checkpoint, wal_path};
use crate::wal::{decode_into, Frame, FrameError, WalReader, WAL_HEADER_LEN};

/// One unit of shipped history.
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

/// What one poll delivered — at most one rollover, then mutation records
/// in LSN order — held in a batch the consumer keeps and hands back to
/// every [`poll_into`](WalTailer::poll_into).
///
/// The batch keeps each delivered record as its verified payload, back
/// to back in one buffer, and one [`CatalogMutation`] that every payload
/// is decoded into ([`crate::wal::decode_into`]): by the poll, which
/// must decode a frame to know it is valid, and again by
/// [`try_for_each`](ShipBatch::try_for_each) when the consumer applies
/// it. Once its buffers have grown to a poll's size, a poll and its
/// application allocate nothing, and what the batch keeps between polls
/// is the log's own bytes, not a record per frame.
///
/// A batch keeps the capacity of the largest poll it received (at most
/// `max` payloads of at most [`crate::wal::RECORD_CAP`] bytes, and one
/// `usize` each) and one record; drop it when polls are far apart.
#[derive(Default)]
pub struct ShipBatch {
    rollover: Option<(u64, Image)>,
    /// The delivered records' payloads, back to back.
    payloads: Vec<u8>,
    /// Where each delivered record's payload ends in `payloads`.
    ends: Vec<usize>,
    /// The record each payload is decoded into.
    record: CatalogMutation,
}

impl ShipBatch {
    /// An empty batch.
    pub fn new() -> ShipBatch {
        ShipBatch::default()
    }

    /// Nothing was delivered: no rollover, no mutation.
    pub fn is_empty(&self) -> bool {
        self.rollover.is_none() && self.ends.is_empty()
    }

    /// Mutation records the last poll delivered.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// The rollover the last poll delivered, if any: the checkpoint LSN
    /// of the new generation and its image, taken out of the batch.
    pub fn take_rollover(&mut self) -> Option<(u64, Image)> {
        self.rollover.take()
    }

    /// Hand each delivered mutation to `f`, in LSN order, each decoded
    /// into the one record the batch keeps; stops at the first `Err`.
    pub fn try_for_each<E>(
        &mut self,
        mut f: impl FnMut(&CatalogMutation) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        let mut start = 0;
        for &end in &self.ends {
            decode_into(&self.payloads[start..end], &mut self.record)
                .expect("a delivered payload decoded when it was polled");
            f(&self.record)?;
            start = end;
        }
        Ok(())
    }

    fn clear(&mut self) {
        self.rollover = None;
        self.payloads.clear();
        self.ends.clear();
    }
}

/// A tailer's own metrics scope and its handles.
struct ShipObs {
    metrics: Registry,
    rollovers: Counter,
    mutations: Counter,
    /// WAL bytes consumed by polls, a partly read tail frame included.
    poll_bytes: Counter,
    /// Checkpoint images opened and verified.
    checkpoint_loads: Counter,
    /// Polls that failed on a complete but invalid frame.
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

/// Where a [`WalTailer`] stands in the primary's history. Opaque: take
/// it with [`WalTailer::cursor`] before a poll, hand it back to
/// [`WalTailer::rewind`] to have that poll's events delivered again.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShipCursor {
    /// Checkpoint LSN of the generation being tailed; `None` until the
    /// first generation is observed.
    generation: Option<u64>,
    /// Newest checkpoint LSN *named* in the directory when the
    /// generation was last resolved (it may name a file that did not
    /// verify); a poll opens checkpoint files only when this changes.
    newest_named: Option<u64>,
    /// Mutation records delivered from the generation's WAL.
    delivered: u64,
    /// Byte offset in that WAL just past the last verified frame; 0
    /// until its header and checkpoint record have been read.
    offset: u64,
}

/// A read-only tailer over a store directory's live generation.
pub struct WalTailer {
    dir: PathBuf,
    cursor: ShipCursor,
    obs: ShipObs,
}

impl WalTailer {
    /// Attach to a store directory. The directory need not exist yet —
    /// the first [`poll`](WalTailer::poll) after the primary `OPEN`s it
    /// reports the initial generation as a rollover.
    pub fn attach(dir: impl Into<PathBuf>) -> WalTailer {
        WalTailer {
            dir: dir.into(),
            cursor: ShipCursor::default(),
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

    /// Where the tailer stands: everything up to here was delivered.
    pub fn cursor(&self) -> ShipCursor {
        self.cursor
    }

    /// Go back to a cursor taken earlier, so the events delivered since
    /// are delivered again — what a consumer does when it could not
    /// apply them, so that nothing is skipped.
    pub fn rewind(&mut self, cursor: ShipCursor) {
        self.cursor = cursor;
    }

    /// Collect everything newly committed since the last poll.
    ///
    /// Returns an empty vector when nothing changed. A WAL tail cut
    /// short is not an error — delivery stops at the last intact record
    /// and the next poll continues from there. A complete but invalid
    /// frame is [`PersistError::Corrupt`] once every intact record
    /// before it has been delivered. IO failures (other than files
    /// legitimately missing mid-rollover) propagate.
    pub fn poll(&mut self) -> Result<Vec<ShipEvent>> {
        let mut batch = ShipBatch::new();
        self.poll_into(&mut batch, usize::MAX)?;
        let mut events = Vec::with_capacity(1 + batch.len());
        if let Some((lsn, image)) = batch.take_rollover() {
            events.push(ShipEvent::Rollover { lsn, image });
        }
        let mut lsn = self.shipped_lsn() - batch.len() as u64;
        let Ok(()) = batch.try_for_each(|mutation| {
            lsn += 1;
            events.push(ShipEvent::Mutation {
                lsn,
                mutation: mutation.clone(),
            });
            Ok::<_, std::convert::Infallible>(())
        });
        Ok(events)
    }

    /// [`poll`](WalTailer::poll) into a batch the caller keeps, stopping
    /// after `max` mutation records: the cursor stays on the frame
    /// boundary and the next poll carries on from it, so a long log can
    /// be drained in bounded pieces. Whatever `batch` held is replaced;
    /// on `Err` it holds nothing.
    pub fn poll_into(&mut self, batch: &mut ShipBatch, max: usize) -> Result<()> {
        let _g = hrdm_obs::span!("ship.poll", dir = self.dir.display());
        batch.clear();
        let mut cursor = self.cursor;
        match self.advance(&mut cursor, batch, max) {
            // A failed read says nothing about the log: deliver nothing
            // and leave the cursor where it was.
            Err(PersistError::Io(e)) => {
                batch.clear();
                Err(PersistError::Io(e))
            }
            // Damage, with nothing intact before it.
            Err(e) if batch.is_empty() => {
                self.obs.corrupt_records.incr();
                Err(e)
            }
            // Deliver what is intact; the next poll meets the damage
            // first in line and reports it.
            Err(_) | Ok(()) => {
                self.cursor = cursor;
                Ok(())
            }
        }
    }

    /// Move `cursor` forward over what is new, delivering what it passes
    /// into `batch`. On `Err` the cursor stands on the last frame
    /// boundary before the failure.
    fn advance(&self, cursor: &mut ShipCursor, batch: &mut ShipBatch, max: usize) -> Result<()> {
        let obs = &self.obs;

        // 0. A WAL shorter than what was already verified, or gone, is
        //    not the file the cursor points into: start over from the
        //    newest checkpoint instead of seeking into garbage.
        if cursor.offset > 0 {
            let generation = cursor.generation.expect("an offset is into a generation");
            match std::fs::metadata(wal_path(&self.dir, generation)) {
                Ok(meta) if meta.len() >= cursor.offset => {}
                Ok(_) => {
                    obs.resets.incr();
                    *cursor = ShipCursor::default();
                }
                Err(e) if e.kind() == ErrorKind::NotFound => *cursor = ShipCursor::default(),
                Err(e) => return Err(e.into()),
            }
        }

        // 1. Generation check, by file name: first attach, or the
        //    primary rolled over.
        let lsns = match checkpoint_lsns(&self.dir) {
            Ok(lsns) => lsns,
            Err(PersistError::Io(e)) if e.kind() == ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let Some(&newest_named) = lsns.first() else {
            return Ok(()); // store not born yet
        };
        if cursor.newest_named != Some(newest_named) {
            // Corrupt ones are skipped, exactly like recovery does.
            let (intact, skipped) = newest_intact_checkpoint(&self.dir, &lsns);
            obs.checkpoint_loads
                .add(skipped + u64::from(intact.is_some()));
            let Some((lsn, image)) = intact else {
                return Ok(()); // nothing verifies (yet)
            };
            cursor.newest_named = Some(newest_named);
            if cursor.generation != Some(lsn) {
                *cursor = ShipCursor {
                    generation: Some(lsn),
                    newest_named: Some(newest_named),
                    delivered: 0,
                    offset: 0,
                };
                batch.rollover = Some((lsn, image));
                obs.rollovers.incr();
            }
        }
        let generation = cursor.generation.expect("resolved above");

        // 2. Tail the generation's WAL from the cursor. The file may not
        //    exist yet (checkpoint written, WAL not), or hold less than a
        //    header: that's just "nothing to ship".
        let path = wal_path(&self.dir, generation);
        let mut file = match File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e.into()),
        };
        let mut reader = if cursor.offset == 0 {
            if file.metadata()?.len() < WAL_HEADER_LEN {
                return Ok(());
            }
            WalReader::new(BufReader::new(file))?
        } else {
            file.seek(SeekFrom::Start(cursor.offset))?;
            WalReader::resume(BufReader::new(file), cursor.offset)
        };
        let corrupt = |at: u64, msg: String| {
            PersistError::Corrupt(format!("{} at byte {at}: {msg}", path.display()))
        };
        let started_at = cursor.offset;
        let delivered_before = cursor.delivered;
        let mut outcome = Ok(());
        while ((cursor.delivered - delivered_before) as usize) < max {
            match reader.next_into(&mut batch.record) {
                // A clean end, or a tail still being written.
                Ok(None) | Err(FrameError::Short(_)) => break,
                Ok(Some(Frame::Checkpoint { lsn })) if lsn == generation => {}
                Ok(Some(Frame::Checkpoint { lsn })) => {
                    outcome = Err(corrupt(
                        cursor.offset,
                        format!("wal names checkpoint {lsn}, expected {generation}"),
                    ));
                    break;
                }
                Ok(Some(Frame::Mutation)) => {
                    cursor.delivered += 1;
                    batch.payloads.extend_from_slice(reader.payload());
                    batch.ends.push(batch.payloads.len());
                }
                Err(FrameError::Io(e)) => {
                    outcome = Err(e.into());
                    break;
                }
                Err(FrameError::Invalid(msg)) => {
                    outcome = Err(corrupt(reader.good_pos(), msg));
                    break;
                }
            }
            cursor.offset = reader.good_pos();
        }
        obs.poll_bytes.add(reader.pos() - started_at);
        obs.mutations.add(cursor.delivered - delivered_before);
        outcome
    }
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

    /// Poll at most `max` records into the kept `batch`; the LSNs it
    /// then holds, the rollover's first, and its mutations.
    fn poll_lsns(
        tailer: &mut WalTailer,
        batch: &mut ShipBatch,
        max: usize,
    ) -> (Vec<u64>, Vec<CatalogMutation>) {
        tailer.poll_into(batch, max).unwrap();
        let last = tailer.shipped_lsn();
        let rollover = batch.take_rollover().map(|(lsn, _)| lsn);
        let lsns = rollover
            .into_iter()
            .chain(last + 1 - batch.len() as u64..=last)
            .collect();
        let mut mutations = Vec::new();
        batch
            .try_for_each(|m| {
                mutations.push(m.clone());
                Ok::<_, ()>(())
            })
            .unwrap();
        (lsns, mutations)
    }

    #[test]
    fn bounded_polls_stop_on_frame_boundaries_and_a_rewind_redelivers() {
        let dir = temp_dir("bounded");
        let mut store = DurableCatalog::open(&dir).unwrap();
        for m in mutations() {
            store.mutate(m).unwrap();
        }
        let mut tailer = WalTailer::attach(&dir);
        let mut batch = ShipBatch::new();
        let attached = tailer.cursor();
        // The rollover does not count against the bound.
        let all = mutations();
        assert_eq!(
            poll_lsns(&mut tailer, &mut batch, 1),
            (vec![0, 1], all[..1].to_vec())
        );
        let after_one = tailer.cursor();
        assert_eq!(
            poll_lsns(&mut tailer, &mut batch, 2),
            (vec![2, 3], all[1..3].to_vec())
        );
        assert_eq!(
            poll_lsns(&mut tailer, &mut batch, 2),
            (vec![4], all[3..].to_vec())
        );
        tailer.poll_into(&mut batch, 2).unwrap();
        assert!(batch.is_empty());

        tailer.rewind(after_one);
        assert_eq!(tailer.shipped_lsn(), 1);
        assert_eq!(lsns(&tailer.poll().unwrap()), [2, 3, 4]);
        // Back before the generation was seen: the rollover comes again.
        tailer.rewind(attached);
        assert_eq!(lsns(&tailer.poll().unwrap()), [0, 1, 2, 3, 4]);
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
