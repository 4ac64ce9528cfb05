//! The write-ahead log: an append-only stream of logical catalog
//! mutations, length-prefixed and CRC-32 framed.
//!
//! # On-disk format
//!
//! ```text
//! magic    "HRDMWAL1"
//! version  u32 (= 3; a log of version 1 or 2 is refused as unsupported,
//!          and there is no second decoder)
//! records  …, each framed as:
//!   len    varint (payload bytes, capped at 1 MiB)
//!   crc    u32 little-endian, CRC-32 (IEEE) of the payload
//!   payload len bytes: tag u8, then the record's fields
//! ```
//!
//! Every field is spelled by [`crate::codec`], as the image's are: a
//! name is a varint byte length and its UTF-8, a name list or an
//! attribute list a varint count and its entries, a truth or a
//! preemption mode a u8 tag, a view's definition a tagged tree; the
//! checkpoint record's LSN is a u64. Every varint is in its shortest
//! spelling, so a payload decodes only if it is the encoding of the
//! record it decodes to.
//!
//! The **first** record of every log is a [`WalRecord::Checkpoint`]
//! naming the LSN of the checkpoint image the log extends; mutation
//! records follow, one per applied [`CatalogMutation`], implicitly
//! numbered `lsn + 1, lsn + 2, …`. A second checkpoint record in the
//! same stream is [`PersistError::Corrupt`] — checkpoints truncate the
//! log and start a new file, they never appear mid-stream.
//!
//! # Torn tails
//!
//! [`WalReader::next`] is *strict*: a truncated frame, a CRC mismatch,
//! an oversized length prefix, an unknown tag, or trailing payload
//! bytes all surface as [`PersistError::Corrupt`], never a panic and
//! never a partially decoded record. The recovery layer
//! ([`crate::store::recover`]) is what converts a corrupt *tail* into a
//! clean stop — every record before it was CRC-verified, so replay
//! yields exactly a prefix of the history.
//!
//! A reader of a *live* log ([`crate::ship::WalTailer`]) cannot treat
//! the two alike, so [`WalReader::next_into`] keeps them apart as a
//! [`FrameError`]: end-of-file inside a frame is a tail still being
//! written ([`FrameError::Short`] — come back later), a complete frame
//! that fails verification is damage ([`FrameError::Invalid`] — no
//! amount of waiting repairs it).
//! Both read a log through one frame loop, [`WalReader::replay`], on the
//! calling thread, and each maps where and why it [`Stop`]ped to its own
//! policy.
//!
//! # Decoding in place
//!
//! Replay decodes thousands of small records in a row, so the reader
//! streams: it refills one buffer of its own 64 KiB at a time and cuts
//! each frame out of it as a slice, and
//! [`WalReader::next_into`] decodes each mutation into a record the
//! caller keeps ([`decode_into`]), whose strings and name list are
//! overwritten rather than built anew. A reader therefore holds one
//! chunk (or one frame, if a frame is longer) plus one record, however
//! long the log; an `Assert` or `Retract` no longer than the record
//! before it allocates nothing.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use hrdm_core::mutation::CatalogMutation;
use hrdm_obs::metrics::{Counter, Gauge, Histogram, Registry};

use crate::codec::{
    crc32, frame_head, truth_tag, write_derivation, write_frame_head, write_names,
    write_preemption, write_str, write_u32, write_u64, write_varint, Reader,
};
use crate::error::{PersistError, Result};

/// WAL file magic.
pub const WAL_MAGIC: &[u8; 8] = b"HRDMWAL1";
/// WAL format version.
pub const WAL_VERSION: u32 = 3;
/// Bytes of file header (magic + version) before the first frame.
pub const WAL_HEADER_LEN: u64 = WAL_MAGIC.len() as u64 + 4;
/// Upper bound on one record's payload. Catalog mutations are names
/// and small lists; anything larger is a corrupt length prefix.
pub const RECORD_CAP: usize = 1 << 20;

/// The journal's metrics, resolved once from its owner's registry
/// rather than looked up (under the registry's lock) on every append.
pub(crate) struct JournalObs {
    /// `wal.appends`: mutation records appended.
    appends: Counter,
    /// `wal.fsyncs`: WAL data fsyncs (a store directory's fsync is not
    /// one, so `persist.fsyncs_per_write` counts the log alone).
    fsyncs: Counter,
    /// `wal.sync_wait`: ns a writer was held up by the loss bound or a
    /// `sync` — blocked on the syncer's sync, or running one itself when
    /// none was in flight (one observation per wait; a commit that did
    /// not wait observes nothing).
    sync_wait: Histogram,
    /// `persist.durable_lsn`: the LSN the last completed sync made
    /// durable.
    durable_lsn: Gauge,
    /// `persist.checkpoints`: checkpoint images written.
    pub(crate) checkpoints: Counter,
}

impl JournalObs {
    pub(crate) fn new(metrics: &Registry) -> Arc<JournalObs> {
        Arc::new(JournalObs {
            appends: metrics.counter("wal.appends"),
            fsyncs: metrics.counter("wal.fsyncs"),
            sync_wait: metrics.histogram("wal.sync_wait"),
            durable_lsn: metrics.gauge("persist.durable_lsn"),
            checkpoints: metrics.counter("persist.checkpoints"),
        })
    }
}

/// One record in the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// Log header record: this log extends the checkpoint at `lsn`.
    Checkpoint {
        /// LSN of the checkpoint image this log follows.
        lsn: u64,
    },
    /// One applied catalog mutation.
    Mutation(CatalogMutation),
}

/// Encode a record's payload (tag + fields, no framing).
pub fn encode_payload(record: &WalRecord) -> Vec<u8> {
    let mut buf = Vec::new();
    match record {
        WalRecord::Checkpoint { lsn } => {
            buf.push(0);
            write_u64(&mut buf, *lsn);
        }
        WalRecord::Mutation(m) => encode_mutation(&mut buf, m),
    }
    buf
}

/// Append a mutation record's payload to `out` — what
/// [`encode_payload`] yields for `WalRecord::Mutation(m.clone())`,
/// without the clone.
fn encode_mutation(out: &mut Vec<u8>, m: &CatalogMutation) {
    match m {
        CatalogMutation::CreateDomain { name } => {
            out.push(1);
            write_str(out, name);
        }
        CatalogMutation::DropDomain { name } => {
            out.push(2);
            write_str(out, name);
        }
        CatalogMutation::AddClass {
            domain,
            name,
            parents,
        } => {
            out.push(3);
            write_str(out, domain);
            write_str(out, name);
            write_names(out, parents);
        }
        CatalogMutation::AddInstance {
            domain,
            name,
            parents,
        } => {
            out.push(4);
            write_str(out, domain);
            write_str(out, name);
            write_names(out, parents);
        }
        CatalogMutation::Prefer {
            domain,
            stronger,
            weaker,
        } => {
            out.push(5);
            write_str(out, domain);
            write_str(out, stronger);
            write_str(out, weaker);
        }
        CatalogMutation::CreateRelation { name, attributes } => {
            out.push(6);
            write_str(out, name);
            write_varint(out, attributes.len() as u64);
            for (attr, dom) in attributes {
                write_str(out, attr);
                write_str(out, dom);
            }
        }
        CatalogMutation::DropRelation { name } => {
            out.push(7);
            write_str(out, name);
        }
        CatalogMutation::Assert {
            relation,
            values,
            truth,
        } => {
            out.push(8);
            write_str(out, relation);
            out.push(truth_tag(*truth));
            write_names(out, values);
        }
        CatalogMutation::Retract { relation, values } => {
            out.push(9);
            write_str(out, relation);
            write_names(out, values);
        }
        CatalogMutation::SetPreemption { relation, mode } => {
            out.push(10);
            write_str(out, relation);
            write_preemption(out, *mode);
        }
        CatalogMutation::DefineView { name, derivation } => {
            out.push(11);
            write_str(out, name);
            write_derivation(out, derivation);
        }
        CatalogMutation::RenameRelation { from, to } => {
            out.push(12);
            write_str(out, from);
            write_str(out, to);
        }
        CatalogMutation::Consolidate { relation } => {
            out.push(13);
            write_str(out, relation);
        }
        CatalogMutation::Explicate { relation, attrs } => {
            out.push(14);
            write_str(out, relation);
            write_names(out, attrs);
        }
    }
}

/// What a frame held, once [`decode_into`] has put its mutation (if it
/// was one) into the record the caller keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frame {
    /// The log's header record: the log extends the checkpoint at `lsn`.
    /// The caller's record is left as it was.
    Checkpoint {
        /// LSN of the checkpoint image this log follows.
        lsn: u64,
    },
    /// A mutation record, now in the caller's record.
    Mutation,
}

impl Frame {
    /// The owned [`WalRecord`] this frame is, given the record it was
    /// decoded into.
    fn into_record(self, decoded: CatalogMutation) -> WalRecord {
        match self {
            Frame::Checkpoint { lsn } => WalRecord::Checkpoint { lsn },
            Frame::Mutation => WalRecord::Mutation(decoded),
        }
    }
}

/// Decode a record payload into a fresh record. Trailing bytes after
/// the decoded fields are [`PersistError::Corrupt`]: a frame carries
/// exactly one record.
pub fn decode_payload(payload: &[u8]) -> Result<WalRecord> {
    let mut record = CatalogMutation::default();
    Ok(decode_into(payload, &mut record)?.into_record(record))
}

/// Decode a record payload into `record`, a record the caller keeps
/// from frame to frame: its strings and name list are overwritten in
/// place (cleared, then refilled) and move to the new record when the
/// kind changes, so an `Assert` or `Retract` no longer than the one
/// before allocates nothing. Checks are those of [`decode_payload`],
/// which is this on a fresh record. `record` is the decoded mutation
/// only after `Ok(Frame::Mutation)`: a checkpoint frame leaves it as it
/// was, and after an `Err` it may hold the previous record, a blank one,
/// or the fields of a payload that had trailing bytes.
pub fn decode_into(payload: &[u8], record: &mut CatalogMutation) -> Result<Frame> {
    let mut r = Reader::new(payload);
    let frame = match r.u8("a record tag")? {
        0 => Frame::Checkpoint {
            lsn: r.u64("a checkpoint LSN")?,
        },
        tag => {
            decode_mutation(tag, &mut r, record)?;
            Frame::Mutation
        }
    };
    if !r.rest().is_empty() {
        return Err(PersistError::Corrupt(format!(
            "{} trailing byte(s) in record payload",
            r.rest().len()
        )));
    }
    Ok(frame)
}

/// Decode the fields of a mutation record with tag `tag` into `m`,
/// reusing the first string and the name list `m` held.
fn decode_mutation(tag: u8, r: &mut Reader<'_>, m: &mut CatalogMutation) -> Result<()> {
    use CatalogMutation::*;
    let (s, names) = match std::mem::take(m) {
        Assert {
            relation, values, ..
        }
        | Retract { relation, values } => (relation, values),
        AddClass { name, parents, .. } | AddInstance { name, parents, .. } => (name, parents),
        Explicate { relation, attrs } => (relation, attrs),
        CreateDomain { name }
        | DropDomain { name }
        | DropRelation { name }
        | CreateRelation { name, .. }
        | Prefer { domain: name, .. }
        | SetPreemption { relation: name, .. }
        | DefineView { name, .. }
        | RenameRelation { from: name, .. }
        | Consolidate { relation: name } => (name, Vec::new()),
    };
    // Struct fields are evaluated in the order written: the wire order.
    *m = match tag {
        1 => CreateDomain {
            name: r.str_into(s)?,
        },
        2 => DropDomain {
            name: r.str_into(s)?,
        },
        3 => AddClass {
            domain: r.str_into(s)?,
            name: r.str_into(String::new())?,
            parents: r.names_into(names)?,
        },
        4 => AddInstance {
            domain: r.str_into(s)?,
            name: r.str_into(String::new())?,
            parents: r.names_into(names)?,
        },
        5 => Prefer {
            domain: r.str_into(s)?,
            stronger: r.str_into(String::new())?,
            weaker: r.str_into(String::new())?,
        },
        6 => {
            let name = r.str_into(s)?;
            // An attribute is two names, each at least a length byte.
            let n = r.count("attribute count", 2)?;
            let attributes = (0..n)
                .map(|_| Ok((r.str_into(String::new())?, r.str_into(String::new())?)))
                .collect::<Result<Vec<_>>>()?;
            CreateRelation { name, attributes }
        }
        7 => DropRelation {
            name: r.str_into(s)?,
        },
        8 => Assert {
            relation: r.str_into(s)?,
            truth: r.truth()?,
            values: r.names_into(names)?,
        },
        9 => Retract {
            relation: r.str_into(s)?,
            values: r.names_into(names)?,
        },
        10 => SetPreemption {
            relation: r.str_into(s)?,
            mode: r.preemption()?,
        },
        11 => DefineView {
            name: r.str_into(s)?,
            derivation: r.derivation()?,
        },
        12 => RenameRelation {
            from: r.str_into(s)?,
            to: r.str_into(String::new())?,
        },
        13 => Consolidate {
            relation: r.str_into(s)?,
        },
        14 => Explicate {
            relation: r.str_into(s)?,
            attrs: r.names_into(names)?,
        },
        other => {
            return Err(PersistError::Corrupt(format!(
                "unknown WAL record tag {other}"
            )))
        }
    };
    Ok(())
}

/// Append the WAL file header (magic + version).
pub fn write_header(out: &mut Vec<u8>) {
    out.extend_from_slice(WAL_MAGIC);
    write_u32(out, WAL_VERSION);
}

/// Validate the WAL file header at the front of `bytes`.
fn read_header(bytes: &[u8]) -> Result<()> {
    let mut r = Reader::new(bytes);
    if r.take(WAL_MAGIC.len(), "the magic").ok() != Some(WAL_MAGIC) {
        return Err(PersistError::BadMagic);
    }
    match r.u32("the version")? {
        WAL_VERSION => Ok(()),
        version => Err(PersistError::UnsupportedVersion(version)),
    }
}

/// Append one framed record: varint length, CRC-32, payload.
pub fn write_record(out: &mut Vec<u8>, record: &WalRecord) {
    write_frame(out, &encode_payload(record));
}

/// Append one encoded payload with its frame.
fn write_frame(out: &mut Vec<u8>, payload: &[u8]) {
    write_frame_head(out, payload);
    out.extend_from_slice(payload);
}

/// Why [`WalReader::next_into`] produced no record.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying read failed (with anything but end-of-file).
    Io(std::io::Error),
    /// End-of-file inside the frame's length prefix, checksum or
    /// payload: the frame is still being written, or a crash tore it.
    Short(&'static str),
    /// A complete frame that fails verification — checksum mismatch,
    /// over-cap length, unknown tag, trailing payload bytes, a
    /// checkpoint record out of place.
    Invalid(String),
}

impl From<FrameError> for PersistError {
    fn from(e: FrameError) -> PersistError {
        match e {
            FrameError::Io(e) => PersistError::Io(e),
            FrameError::Short(what) => PersistError::Corrupt(what.into()),
            FrameError::Invalid(msg) => PersistError::Corrupt(msg),
        }
    }
}

/// A decode error as a complete frame that fails verification.
fn invalid(e: PersistError) -> FrameError {
    FrameError::Invalid(match e {
        PersistError::Corrupt(msg) => msg,
        other => other.to_string(),
    })
}

/// Bytes a [`WalReader`] asks its source for at a time.
const READ_CHUNK: usize = 64 << 10;

/// Most bytes a frame takes before its payload: a 10-byte varint length
/// and the 4-byte checksum.
const FRAME_HEAD_MAX: usize = 10 + 4;

/// Why [`WalReader::replay`] stopped.
#[derive(Debug)]
pub enum Stop<E> {
    /// End-of-file on a frame boundary: the end of the log, for now.
    End,
    /// `max` mutations were taken.
    Max,
    /// The next frame is cut short, wrong, or could not be read.
    Frame(FrameError),
    /// The log's checkpoint record names another checkpoint (this LSN)
    /// than the generation it was read as.
    Foreign(u64),
    /// The closure refused the mutation.
    Refused(E),
}

/// What one [`WalReader::replay`] did.
#[derive(Debug)]
pub struct Replayed<E> {
    /// Mutations the closure took.
    pub taken: u64,
    /// Byte offset of the frame the walk stopped at.
    pub at: u64,
    /// Why it stopped.
    pub stop: Stop<E>,
}

/// Strict streaming reader over a WAL byte stream.
///
/// `next()` returns `Ok(Some(record))` per intact record, `Ok(None)`
/// at a clean end-of-log (EOF exactly on a frame boundary), and
/// [`PersistError::Corrupt`] for anything else — including a
/// duplicate checkpoint record or a log whose first record is not a
/// checkpoint.
///
/// The reader buffers its source itself: it reads 64 KiB at a time and
/// cuts frames out of that buffer, so a plain `File` is the
/// source to give it. Offsets ([`pos`](WalReader::pos),
/// [`good_pos`](WalReader::good_pos)) count the bytes frames consumed,
/// never what was read ahead.
pub struct WalReader<R> {
    inner: R,
    /// Bytes read from `inner`; `buf[head..tail]` are not consumed yet.
    /// A chunk long, or one frame if a frame is longer (≤
    /// [`RECORD_CAP`] plus its head).
    buf: Vec<u8>,
    head: usize,
    tail: usize,
    /// Byte offset of `buf[head]` in the stream.
    pos: u64,
    /// Byte offset just past the last successfully decoded record.
    good_pos: u64,
    seen_checkpoint: bool,
    poisoned: bool,
}

impl<R: Read> WalReader<R> {
    /// Wrap a reader positioned at the start of a WAL stream; reads
    /// and validates the header immediately.
    pub fn new(inner: R) -> Result<WalReader<R>> {
        let mut reader = WalReader::resume(inner, 0);
        reader.seen_checkpoint = false;
        let header = WAL_HEADER_LEN as usize;
        reader.fill(header)?;
        read_header(&reader.buf[..reader.tail.min(header)])?;
        reader.consume(header);
        reader.good_pos = reader.pos;
        Ok(reader)
    }

    /// Continue a log whose header and checkpoint record were verified
    /// by an earlier reader: `inner` is positioned at byte `offset` of
    /// the stream, a frame boundary that reader reported as its
    /// [`good_pos`](WalReader::good_pos) past the checkpoint record.
    /// Offsets stay absolute.
    pub fn resume(inner: R, offset: u64) -> WalReader<R> {
        WalReader {
            inner,
            buf: Vec::new(),
            head: 0,
            tail: 0,
            pos: offset,
            good_pos: offset,
            seen_checkpoint: true,
            poisoned: false,
        }
    }

    /// Byte offset just past the last intact record (or the header).
    pub fn good_pos(&self) -> u64 {
        self.good_pos
    }

    /// Byte offset just past the last byte consumed, a partly read
    /// frame included.
    pub fn pos(&self) -> u64 {
        self.pos
    }

    /// Make `need` unconsumed bytes available, fewer only at the end of
    /// the source: move what is left to the front, grow the buffer if a
    /// frame needs it, and read a chunk at a time.
    fn fill(&mut self, need: usize) -> std::io::Result<()> {
        if self.tail - self.head >= need {
            return Ok(());
        }
        self.buf.copy_within(self.head..self.tail, 0);
        self.tail -= self.head;
        self.head = 0;
        if self.buf.len() < need.max(READ_CHUNK) {
            self.buf.resize(need.max(READ_CHUNK), 0);
        }
        while self.tail < need {
            match self.inner.read(&mut self.buf[self.tail..]) {
                Ok(0) => break,
                Ok(n) => self.tail += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Mark the next `n` buffered bytes consumed.
    fn consume(&mut self, n: usize) {
        self.head += n;
        self.pos += n as u64;
    }

    /// Read the next record into a fresh owned value. After the first
    /// error the reader is poisoned: further calls return `Ok(None)` (a
    /// torn tail has no decodable continuation).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<WalRecord>> {
        let mut record = CatalogMutation::default();
        Ok(self
            .next_into(&mut record)?
            .map(|frame| frame.into_record(record)))
    }

    /// Read the next frame, decoding a mutation into `record` — a record
    /// the caller keeps across frames, overwritten in place (see
    /// [`decode_into`]) — with the failure classified: a frame cut
    /// short by end-of-file versus a complete frame that is wrong.
    /// `record` is this frame's mutation only after
    /// `Ok(Some(Frame::Mutation))`; after anything else it may still
    /// hold the previous frame's record, or a blank one, and must not be
    /// applied.
    pub fn next_into(
        &mut self,
        record: &mut CatalogMutation,
    ) -> std::result::Result<Option<Frame>, FrameError> {
        if self.poisoned {
            return Ok(None);
        }
        match self.read_one(record) {
            Ok(Some(frame)) => {
                self.good_pos = self.pos;
                Ok(Some(frame))
            }
            Ok(None) => Ok(None),
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }

    /// Walk the log's intact frames from here: check its checkpoint
    /// record against `generation`, decode each mutation into `record`
    /// (see [`next_into`](WalReader::next_into)) and hand it to `f`, until
    /// `max` mutations were taken or something [`Stop`]s the walk.
    pub fn replay<E>(
        &mut self,
        generation: u64,
        record: &mut CatalogMutation,
        max: u64,
        mut f: impl FnMut(&CatalogMutation) -> std::result::Result<(), E>,
    ) -> Replayed<E> {
        let mut taken = 0;
        loop {
            let at = self.good_pos;
            let stop = if taken == max {
                Stop::Max
            } else {
                match self.next_into(record) {
                    Ok(Some(Frame::Checkpoint { lsn })) if lsn == generation => continue,
                    Ok(Some(Frame::Mutation)) => match f(record) {
                        Ok(()) => {
                            taken += 1;
                            continue;
                        }
                        Err(e) => Stop::Refused(e),
                    },
                    Ok(Some(Frame::Checkpoint { lsn })) => Stop::Foreign(lsn),
                    Ok(None) => Stop::End,
                    Err(e) => Stop::Frame(e),
                }
            };
            return Replayed { taken, at, stop };
        }
    }

    fn read_one(
        &mut self,
        record: &mut CatalogMutation,
    ) -> std::result::Result<Option<Frame>, FrameError> {
        self.fill(FRAME_HEAD_MAX).map_err(FrameError::Io)?;
        let held = self.tail - self.head;
        if held == 0 {
            return Ok(None);
        }
        let head = frame_head(&self.buf[self.head..self.tail], RECORD_CAP as u64);
        let Some((payload, crc)) = head.map_err(invalid)? else {
            self.consume(held);
            return Err(FrameError::Short("torn frame head"));
        };
        self.fill(payload.end).map_err(FrameError::Io)?;
        let held = self.tail - self.head;
        if held < payload.end {
            self.consume(held);
            return Err(FrameError::Short("torn record payload"));
        }
        let frame_len = payload.end;
        let payload = &self.buf[self.head + payload.start..self.head + payload.end];
        let decoded = if crc32(payload) != crc {
            Err(FrameError::Invalid("record checksum mismatch".into()))
        } else {
            decode_into(payload, record).map_err(invalid)
        };
        self.consume(frame_len);
        let frame = decoded?;
        match (frame, self.seen_checkpoint) {
            (Frame::Checkpoint { .. }, true) => {
                return Err(FrameError::Invalid(
                    "duplicate checkpoint record mid-log".into(),
                ))
            }
            (Frame::Checkpoint { .. }, false) => self.seen_checkpoint = true,
            (Frame::Mutation, false) => {
                return Err(FrameError::Invalid(
                    "log does not start with a checkpoint record".into(),
                ))
            }
            (Frame::Mutation, true) => {}
        }
        Ok(Some(frame))
    }
}

/// A journal's two LSNs, readable without its writer: `next`, the LSN
/// the next committed record gets (= records committed since the
/// store's birth), and `durable`, the records a completed `fdatasync`
/// covers. A `Journal` keeps one across its generations, so a reader
/// that holds it (an engine's `STATS`) follows every checkpoint.
#[derive(Debug, Default)]
pub struct LsnMarks {
    next: AtomicU64,
    durable: AtomicU64,
}

impl LsnMarks {
    /// LSN the next committed record will get.
    pub fn next(&self) -> u64 {
        self.next.load(Ordering::Acquire)
    }

    /// Records covered by a completed `fdatasync`: every LSN below it
    /// survives a crash.
    pub fn durable(&self) -> u64 {
        self.durable.load(Ordering::Acquire)
    }
}

/// What the writer and the syncer thread share.
struct Syncer {
    state: Mutex<SyncState>,
    /// Signalled when the writer hands over records and when a sync
    /// completes or fails — each only if the other side is waiting, and
    /// at most one side waits at a time.
    changed: Condvar,
    /// Set with [`SyncState::failed`]; read by every commit, so a
    /// poisoned file refuses the next one without taking the lock.
    poisoned: AtomicBool,
    /// The handle every `fdatasync` of this log goes through (a
    /// `try_clone` of the writer's).
    file: File,
    /// LSN of the checkpoint this log extends: record `k` is LSN
    /// `base_lsn + k`.
    base_lsn: u64,
    marks: Arc<LsnMarks>,
    obs: Arc<JournalObs>,
    /// Moving average of how long a sync takes, in ns (updated by the
    /// one sync in flight; the writer's hand-off rule reads it, and it
    /// publishes nothing else).
    sync_ns: AtomicU64,
}

/// A moving average over about the last eight samples (the first
/// sample starts it). A sync's latency on one disk spreads widely (the
/// median and the 90th percentile of one `fdatasync` can be 90 and
/// 230 µs); deciding on the last sample alone flipped the hand-off rule
/// with every slow sync.
fn smooth(avg: u64, sample: u64) -> u64 {
    match avg {
        0 => sample,
        _ => avg - avg / 8 + sample / 8,
    }
}

#[derive(Default)]
struct SyncState {
    /// Records flushed to the file and handed to the syncer.
    flushed: u64,
    /// Records covered by a completed `fdatasync`.
    durable: u64,
    /// An `fdatasync` is in flight (on either thread).
    syncing: bool,
    /// The error of the `fdatasync` (or write) that poisoned the file.
    failed: Option<(std::io::ErrorKind, String)>,
    /// Set by `Drop`: the syncer exits once its sync in flight ends.
    stop: bool,
    /// The syncer is waiting for records (the writer must wake it).
    syncer_idle: bool,
    /// The writer is waiting for a sync (the syncer must wake it).
    writer_blocked: bool,
}

impl Syncer {
    fn lock(&self) -> MutexGuard<'_, SyncState> {
        self.state.lock().expect("wal syncer lock poisoned")
    }

    /// Record `e` as the file's failure: this and every later commit or
    /// sync returns it.
    fn poison(&self, state: &mut SyncState, e: &std::io::Error) {
        state
            .failed
            .get_or_insert_with(|| (e.kind(), e.to_string()));
        self.poisoned.store(true, Ordering::Release);
        self.changed.notify_all();
    }

    fn failure(state: &SyncState) -> Option<PersistError> {
        state.failed.as_ref().map(|(kind, msg)| {
            PersistError::Io(std::io::Error::new(
                *kind,
                format!("write-ahead log poisoned: {msg}"),
            ))
        })
    }

    /// Sync everything flushed so far, on the calling thread: the one
    /// place an `fdatasync` of the log runs once it exists. Takes the
    /// lock with no sync in flight and `flushed > durable`, and returns
    /// it with `durable` advanced (or the file poisoned).
    fn sync_flushed<'a>(
        &'a self,
        mut state: MutexGuard<'a, SyncState>,
    ) -> MutexGuard<'a, SyncState> {
        let target = state.flushed;
        let records = target - state.durable;
        state.syncing = true;
        drop(state);
        let started = Instant::now();
        let synced = {
            let _g = hrdm_obs::span!("wal.fsync", records = records);
            self.file.sync_data()
        };
        let took = started.elapsed().as_nanos() as u64;
        let avg = self.sync_ns.load(Ordering::Relaxed);
        self.sync_ns.store(smooth(avg, took), Ordering::Relaxed);
        let mut state = self.lock();
        state.syncing = false;
        match synced {
            Ok(()) => {
                state.durable = target;
                let lsn = self.base_lsn + target;
                self.marks.durable.store(lsn, Ordering::Release);
                self.obs.fsyncs.incr();
                self.obs.durable_lsn.set(lsn);
                if state.writer_blocked {
                    self.changed.notify_one();
                }
            }
            Err(e) => self.poison(&mut state, &e),
        }
        state
    }

    /// The syncer thread: sync everything flushed by the time each sync
    /// starts, and stop at the first failure.
    fn run(&self) {
        let mut state = self.lock();
        while !state.stop && state.failed.is_none() {
            if state.syncing || state.flushed == state.durable {
                state.syncer_idle = true;
                state = self.changed.wait(state).expect("wal syncer lock poisoned");
                state.syncer_idle = false;
            } else {
                state = self.sync_flushed(state);
            }
        }
    }
}

/// An open, appendable WAL file whose `fdatasync`s run behind the
/// writer, on a syncer thread of its own.
///
/// `group` is `SYNC EVERY n`'s `n`. The writer encodes and buffers each
/// record, and every ⌈n/2⌉ records flushes the buffer and wakes the
/// syncer, which syncs everything flushed by the time it starts and
/// publishes the result as `durable` — as long as a sync takes less
/// time than the writer needs for a whole group (moving averages of
/// both are kept), so that the sync of one half group overlaps the
/// writing of the next. On a disk slower than that, overlapping would
/// cost two syncs a group and save no wait, so the writer hands over
/// nothing at the half group and syncs the whole group when the bound
/// makes it wait. A commit returns — the write is
/// acknowledged — only while `appended − durable < n`, waiting when it
/// would not be: at most `n − 1` acknowledged records can be lost to a
/// crash, and `n = 1` acknowledges only durable ones. A writer that
/// must wait while no sync is in flight runs that sync itself rather
/// than wake the syncer and sleep, so `SYNC EVERY 1` pays no hand-off
/// between threads. A failed `fdatasync` poisons the file:
/// no retry, and every later commit or sync returns the error. Dropping
/// the file flushes its buffer into the file without syncing it, and
/// joins the syncer after the sync it has in flight.
///
/// An engine write stages its records while it runs (through
/// [`Journal::stage`](crate::Journal::stage)) and appends them once it
/// can no longer be refused, or drops them: only writes the engine
/// published reach the log.
pub struct WalFile {
    w: BufWriter<File>,
    path: PathBuf,
    /// `n`: fewer than this many appended records may be non-durable
    /// when a commit returns.
    group: u64,
    /// ⌈n/2⌉: the writer hands records to the syncer this often, so a
    /// sync of the first half of a group overlaps the writing of the
    /// second.
    wake_every: u64,
    /// `appended` at the next half-group boundary.
    next_half: u64,
    /// When the writer began its current half group (reset after every
    /// wait, so it times writing alone).
    half_started: Instant,
    /// Moving average of how long the writer takes to write a half
    /// group, in ns.
    half_ns: u64,
    appended: u64,
    /// Records handed to the syncer (the writer's copy).
    flushed: u64,
    /// The writer's last reading of the durable count (a lower bound).
    durable: u64,
    /// The record being staged, encoded (reused across records, so
    /// one no larger than an earlier one allocates nothing).
    payload: Vec<u8>,
    /// Framed records of the write in progress, not yet appended.
    staged: Vec<u8>,
    staged_records: u64,
    syncer: Arc<Syncer>,
    thread: Option<JoinHandle<()>>,
}

impl WalFile {
    /// Create (truncate) a WAL at `path`, writing the header and the
    /// binding checkpoint record, then fsyncing, and start its syncer.
    /// It counts into the process registry.
    pub fn create(path: impl Into<PathBuf>, checkpoint_lsn: u64, group: usize) -> Result<WalFile> {
        let obs = JournalObs::new(Registry::global());
        WalFile::create_marked(path.into(), checkpoint_lsn, group, Arc::default(), obs)
    }

    /// [`create`](Self::create), publishing into `marks`, counting into `obs`.
    pub(crate) fn create_marked(
        path: PathBuf,
        checkpoint_lsn: u64,
        group: usize,
        marks: Arc<LsnMarks>,
        obs: Arc<JournalObs>,
    ) -> Result<WalFile> {
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        let mut head = Vec::new();
        write_header(&mut head);
        let lsn = checkpoint_lsn;
        write_record(&mut head, &WalRecord::Checkpoint { lsn });
        let mut w = BufWriter::new(file);
        w.write_all(&head)?;
        w.flush()?;
        {
            let _g = hrdm_obs::span!("wal.fsync", records = 0);
            w.get_ref().sync_data()?;
        }
        obs.fsyncs.incr();
        obs.durable_lsn.set(checkpoint_lsn);
        marks.next.store(checkpoint_lsn, Ordering::Release);
        marks.durable.store(checkpoint_lsn, Ordering::Release);
        let sync_handle = w.get_ref().try_clone()?;
        WalFile::start(w, sync_handle, path, checkpoint_lsn, group, marks, obs)
    }

    /// Wrap an open log whose header is durable, with a syncer thread;
    /// every sync of the log goes through `sync_handle`.
    fn start(
        w: BufWriter<File>,
        sync_handle: File,
        path: PathBuf,
        base_lsn: u64,
        group: usize,
        marks: Arc<LsnMarks>,
        obs: Arc<JournalObs>,
    ) -> Result<WalFile> {
        let group = group.max(1) as u64;
        let syncer = Arc::new(Syncer {
            state: Mutex::new(SyncState::default()),
            changed: Condvar::new(),
            poisoned: AtomicBool::new(false),
            file: sync_handle,
            base_lsn,
            marks,
            obs,
            sync_ns: AtomicU64::new(0),
        });
        let thread = {
            let syncer = Arc::clone(&syncer);
            std::thread::Builder::new()
                .name("wal-syncer".into())
                .spawn(move || syncer.run())?
        };
        Ok(WalFile {
            w,
            path,
            group,
            wake_every: group.div_ceil(2),
            next_half: group.div_ceil(2),
            half_started: Instant::now(),
            half_ns: 0,
            appended: 0,
            flushed: 0,
            durable: 0,
            payload: Vec::new(),
            staged: Vec::new(),
            staged_records: 0,
            syncer,
            thread: Some(thread),
        })
    }

    /// The file this WAL writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Mutation records appended so far (excludes the checkpoint
    /// record and anything still staged).
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Mutation records a completed `fdatasync` covers.
    pub fn durable(&self) -> u64 {
        self.syncer.lock().durable
    }

    /// The LSNs this file publishes.
    pub(crate) fn marks(&self) -> &Arc<LsnMarks> {
        &self.syncer.marks
    }

    /// Append one mutation record: stage it, then commit it.
    pub fn append(&mut self, m: &CatalogMutation) -> Result<()> {
        self.stage(m)?;
        self.commit()
    }

    /// Encode one mutation record onto the staged tail. The record is
    /// encoded straight from `m` into buffers this file keeps, so
    /// staging allocates only to outgrow them.
    pub(crate) fn stage(&mut self, m: &CatalogMutation) -> Result<()> {
        let _g = hrdm_obs::span!("wal.append", kind = m.kind());
        self.payload.clear();
        encode_mutation(&mut self.payload, m);
        write_frame(&mut self.staged, &self.payload);
        self.staged_records += 1;
        Ok(())
    }

    /// Drop the staged tail: its write was refused.
    pub(crate) fn discard(&mut self) {
        self.staged.clear();
        self.staged_records = 0;
    }

    /// Append the staged tail, hand records to the syncer every ⌈n/2⌉,
    /// and return once acknowledging them keeps `appended − durable <
    /// n`.
    pub(crate) fn commit(&mut self) -> Result<()> {
        let records = std::mem::take(&mut self.staged_records);
        if records == 0 {
            return Ok(());
        }
        self.check_poisoned()?;
        let written = self.w.write_all(&self.staged);
        self.staged.clear();
        self.io(written)?;
        self.appended += records;
        self.syncer.obs.appends.add(records);
        self.syncer
            .marks
            .next
            .store(self.syncer.base_lsn + self.appended, Ordering::Release);
        let mut hand_off = false;
        if self.appended >= self.next_half {
            // Overlap pays while a sync ends before the writer has
            // written a whole group (two half groups).
            let now = Instant::now();
            let half = now.duration_since(self.half_started).as_nanos() as u64;
            self.half_ns = smooth(self.half_ns, half);
            self.half_started = now;
            self.next_half = self.appended + self.wake_every;
            hand_off = self.syncer.sync_ns.load(Ordering::Relaxed) < self.half_ns.saturating_mul(2);
        }
        if hand_off || self.appended - self.durable >= self.group {
            self.wait_durable(self.appended.saturating_sub(self.group - 1), hand_off)?;
        }
        Ok(())
    }

    /// Return once every appended record is durable.
    pub fn sync(&mut self) -> Result<()> {
        self.check_poisoned()?;
        if self.durable < self.appended {
            self.wait_durable(self.appended, true)?;
        }
        Ok(())
    }

    fn check_poisoned(&self) -> Result<()> {
        if self.syncer.poisoned.load(Ordering::Acquire) {
            if let Some(e) = Syncer::failure(&self.syncer.lock()) {
                return Err(e);
            }
        }
        Ok(())
    }

    /// Pass a write or flush result through, poisoning the file on an
    /// error: the log's tail is unknown after one.
    fn io(&self, result: std::io::Result<()>) -> Result<()> {
        result.map_err(|e| {
            self.syncer.poison(&mut self.syncer.lock(), &e);
            PersistError::Io(e)
        })
    }

    /// Hand every appended record to the syncer first (flushing the
    /// buffer) if `hand_off`, or if the records waited for are not
    /// flushed yet; then return once at least `target` records are
    /// durable. While it must wait, the writer syncs on its
    /// own thread if no sync is in flight, and otherwise blocks; either
    /// way the time is observed in `wal.sync_wait`.
    fn wait_durable(&mut self, target: u64, hand_off: bool) -> Result<()> {
        if hand_off || self.flushed < target {
            let flushed = self.w.flush();
            self.io(flushed)?;
            self.flushed = self.appended;
        }
        let mut state = self.syncer.lock();
        state.flushed = self.flushed;
        let mut waited = None;
        loop {
            if let Some(e) = Syncer::failure(&state) {
                return Err(e);
            }
            if state.durable >= target {
                break;
            }
            waited.get_or_insert_with(Instant::now);
            if !state.syncing {
                state = self.syncer.sync_flushed(state);
                continue;
            }
            state.writer_blocked = true;
            state = self
                .syncer
                .changed
                .wait(state)
                .expect("wal syncer lock poisoned");
            state.writer_blocked = false;
        }
        self.durable = state.durable;
        let wake = state.syncer_idle && state.flushed > state.durable;
        drop(state);
        if wake {
            self.syncer.changed.notify_one();
        }
        if let Some(started) = waited {
            let now = Instant::now();
            self.syncer
                .obs
                .sync_wait
                .observe_ns(now.duration_since(started).as_nanos() as u64);
            self.half_started = now;
        }
        Ok(())
    }
}

impl Drop for WalFile {
    fn drop(&mut self) {
        // Setting a flag leaves the state valid whatever a panicking
        // holder left half done, and a drop must not panic.
        let mut state = self
            .syncer
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        state.stop = true;
        drop(state);
        self.syncer.changed.notify_all();
        if let Some(thread) = self.thread.take() {
            // The syncer panics only on a lock a panicking writer
            // poisoned, and that panic is already propagating.
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrdm_core::derivation::{Derivation, Source, ValueRef};
    use hrdm_core::preemption::Preemption;
    use hrdm_core::truth::Truth;

    fn sample_mutations() -> Vec<CatalogMutation> {
        vec![
            CatalogMutation::CreateDomain {
                name: "Animal".into(),
            },
            CatalogMutation::AddClass {
                domain: "Animal".into(),
                name: "Bird".into(),
                parents: vec!["Animal".into()],
            },
            CatalogMutation::AddInstance {
                domain: "Animal".into(),
                name: "Tweety".into(),
                parents: vec!["Bird".into()],
            },
            CatalogMutation::Prefer {
                domain: "Animal".into(),
                stronger: "Bird".into(),
                weaker: "Animal".into(),
            },
            CatalogMutation::CreateRelation {
                name: "Flies".into(),
                attributes: vec![("Creature".into(), "Animal".into())],
            },
            CatalogMutation::Assert {
                relation: "Flies".into(),
                values: vec!["Bird".into()],
                truth: Truth::Positive,
            },
            CatalogMutation::Assert {
                relation: "Flies".into(),
                values: vec!["Tweety".into()],
                truth: Truth::Negative,
            },
            CatalogMutation::Retract {
                relation: "Flies".into(),
                values: vec!["Tweety".into()],
            },
            CatalogMutation::SetPreemption {
                relation: "Flies".into(),
                mode: Preemption::NoPreemption,
            },
            CatalogMutation::DefineView {
                name: "Birds".into(),
                derivation: Derivation::Select(
                    Source::Derived(Box::new(Derivation::Explicated(
                        Source::named("Flies"),
                        vec!["Creature".into()],
                    ))),
                    vec![(
                        "Creature".into(),
                        ValueRef {
                            name: "Bird".into(),
                            all: true,
                        },
                    )],
                ),
            },
            CatalogMutation::Explicate {
                relation: "Flies".into(),
                attrs: vec!["Creature".into()],
            },
            CatalogMutation::Consolidate {
                relation: "Flies".into(),
            },
            CatalogMutation::RenameRelation {
                from: "Birds".into(),
                to: "Fliers".into(),
            },
            CatalogMutation::DropRelation {
                name: "Fliers".into(),
            },
            CatalogMutation::DropRelation {
                name: "Flies".into(),
            },
            CatalogMutation::DropDomain {
                name: "Animal".into(),
            },
        ]
    }

    fn sample_log() -> Vec<u8> {
        let mut buf = Vec::new();
        write_header(&mut buf);
        write_record(&mut buf, &WalRecord::Checkpoint { lsn: 7 });
        for m in sample_mutations() {
            write_record(&mut buf, &WalRecord::Mutation(m));
        }
        buf
    }

    #[test]
    fn every_mutation_kind_round_trips() {
        for m in sample_mutations() {
            let payload = encode_payload(&WalRecord::Mutation(m.clone()));
            assert_eq!(
                decode_payload(&payload).unwrap(),
                WalRecord::Mutation(m.clone()),
                "{m} must round-trip"
            );
        }
        let payload = encode_payload(&WalRecord::Checkpoint { lsn: u64::MAX });
        assert_eq!(
            decode_payload(&payload).unwrap(),
            WalRecord::Checkpoint { lsn: u64::MAX }
        );
    }

    /// A record the reader keeps decodes every kind exactly as a fresh
    /// one does, whichever of the fourteen kinds it held before — and an
    /// `Assert`/`Retract` into one that held an `Assert`/`Retract`
    /// keeps its storage.
    #[test]
    fn decoding_into_a_kept_record_equals_a_fresh_decode() {
        let samples = sample_mutations();
        let mut kinds: Vec<&str> = samples.iter().map(CatalogMutation::kind).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), 14, "the samples cover every kind");
        // More values than any sample: a kept list must shrink to fit.
        let wide = CatalogMutation::Retract {
            relation: "Flies".into(),
            values: vec!["Tweety".into(), "Sky".into(), "Noon".into()],
        };
        for next in &samples {
            let payload = encode_payload(&WalRecord::Mutation(next.clone()));
            let fresh = decode_payload(&payload).unwrap();
            for before in samples.iter().chain([&wide]) {
                let mut kept = before.clone();
                assert_eq!(decode_into(&payload, &mut kept).unwrap(), Frame::Mutation);
                assert_eq!(
                    WalRecord::Mutation(kept),
                    fresh,
                    "{next} decoded into a record holding {before}"
                );
            }
            // A checkpoint leaves the kept record as it was.
            let mut kept = next.clone();
            let checkpoint = encode_payload(&WalRecord::Checkpoint { lsn: 9 });
            assert_eq!(
                decode_into(&checkpoint, &mut kept).unwrap(),
                Frame::Checkpoint { lsn: 9 }
            );
            assert_eq!(&kept, next);
        }

        let retract = &samples[7];
        let mut kept = samples[6].clone();
        let CatalogMutation::Assert { relation, .. } = &kept else {
            unreachable!("sample 6 is an assert")
        };
        let at = relation.as_ptr();
        let payload = encode_payload(&WalRecord::Mutation(retract.clone()));
        decode_into(&payload, &mut kept).unwrap();
        let CatalogMutation::Retract { relation, .. } = &kept else {
            panic!("decoded {kept}")
        };
        assert_eq!(relation.as_ptr(), at, "the relation name kept its storage");
    }

    #[test]
    fn log_reads_back_in_order() {
        let bytes = sample_log();
        let mut reader = WalReader::new(&bytes[..]).unwrap();
        assert_eq!(
            reader.next().unwrap(),
            Some(WalRecord::Checkpoint { lsn: 7 })
        );
        let mut got = Vec::new();
        while let Some(WalRecord::Mutation(m)) = reader.next().unwrap() {
            got.push(m);
        }
        assert_eq!(got, sample_mutations());
        assert_eq!(reader.good_pos(), bytes.len() as u64);
        // Clean EOF is repeatable.
        assert_eq!(reader.next().unwrap(), None);
    }

    #[test]
    fn truncated_tail_is_corrupt_then_poisoned() {
        let bytes = sample_log();
        let cut = bytes.len() - 3;
        let mut reader = WalReader::new(&bytes[..cut]).unwrap();
        let mut intact = 0usize;
        let err = loop {
            match reader.next() {
                Ok(Some(_)) => intact += 1,
                Ok(None) => panic!("a torn final record must error, not EOF"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, PersistError::Corrupt(_)));
        assert_eq!(intact, 1 + sample_mutations().len() - 1);
        // Poisoned: the tail has no decodable continuation.
        assert_eq!(reader.next().unwrap(), None);
        assert!(reader.good_pos() < cut as u64);
    }

    /// The classified read tells a frame cut short (any cut inside it)
    /// from a complete frame that is wrong, and a resumed reader picks
    /// up at a reported boundary with absolute offsets.
    #[test]
    fn frames_cut_short_are_told_from_invalid_ones_and_readers_resume() {
        let bytes = sample_log();
        let mut reader = WalReader::new(&bytes[..]).unwrap();
        let mut boundaries = Vec::new();
        while reader.next().unwrap().is_some() {
            boundaries.push(reader.good_pos() as usize);
        }
        let (start, end) = (boundaries[3], boundaries[4]);
        let mut record = CatalogMutation::default();
        for cut in start + 1..end {
            let mut reader = WalReader::resume(&bytes[start..cut], start as u64);
            assert!(
                matches!(reader.next_into(&mut record), Err(FrameError::Short(_))),
                "cut at byte {cut}"
            );
            assert_eq!(reader.good_pos(), start as u64);
            assert_eq!(reader.pos(), cut as u64);
        }
        let mut flipped = bytes.clone();
        flipped[end - 1] ^= 1;
        let mut reader = WalReader::resume(&flipped[start..], start as u64);
        assert!(matches!(
            reader.next_into(&mut record),
            Err(FrameError::Invalid(msg)) if msg.contains("checksum")
        ));

        let mut reader = WalReader::resume(&bytes[start..], start as u64);
        let mut got = Vec::new();
        while let Some(WalRecord::Mutation(m)) = reader.next().unwrap() {
            got.push(m);
        }
        assert_eq!(got, sample_mutations()[3..]);
        assert_eq!(reader.good_pos(), bytes.len() as u64);
    }

    #[test]
    fn flipped_crc_is_corrupt() {
        let mut bytes = sample_log();
        // The checkpoint record's CRC sits right after the header +
        // 1-byte varint length.
        let crc_at = WAL_MAGIC.len() + 4 + 1;
        bytes[crc_at] ^= 0x40;
        let mut reader = WalReader::new(&bytes[..]).unwrap();
        assert!(matches!(
            reader.next(),
            Err(PersistError::Corrupt(msg)) if msg.contains("checksum")
        ));
    }

    #[test]
    fn oversized_length_prefix_is_corrupt() {
        let mut bytes = Vec::new();
        write_header(&mut bytes);
        write_varint(&mut bytes, RECORD_CAP as u64 + 1);
        write_u32(&mut bytes, 0);
        let mut reader = WalReader::new(&bytes[..]).unwrap();
        assert!(matches!(
            reader.next(),
            Err(PersistError::Corrupt(msg)) if msg.contains("cap")
        ));
    }

    #[test]
    fn duplicate_checkpoint_record_is_corrupt() {
        let mut bytes = Vec::new();
        write_header(&mut bytes);
        write_record(&mut bytes, &WalRecord::Checkpoint { lsn: 0 });
        write_record(&mut bytes, &WalRecord::Checkpoint { lsn: 1 });
        let mut reader = WalReader::new(&bytes[..]).unwrap();
        assert!(reader.next().unwrap().is_some());
        assert!(matches!(
            reader.next(),
            Err(PersistError::Corrupt(msg)) if msg.contains("duplicate checkpoint")
        ));
    }

    #[test]
    fn missing_leading_checkpoint_is_corrupt() {
        let mut bytes = Vec::new();
        write_header(&mut bytes);
        write_record(
            &mut bytes,
            &WalRecord::Mutation(CatalogMutation::CreateDomain { name: "D".into() }),
        );
        let mut reader = WalReader::new(&bytes[..]).unwrap();
        assert!(matches!(
            reader.next(),
            Err(PersistError::Corrupt(msg)) if msg.contains("start with a checkpoint")
        ));
    }

    #[test]
    fn bad_header_rejected() {
        assert!(matches!(
            WalReader::new(&b"NOTAWAL!"[..]),
            Err(PersistError::BadMagic)
        ));
        let mut bytes = WAL_MAGIC.to_vec();
        write_u32(&mut bytes, 9);
        assert!(matches!(
            WalReader::new(&bytes[..]),
            Err(PersistError::UnsupportedVersion(9))
        ));
        // Earlier versions' logs are refused, not misread: version 1 had
        // no view or in-place records, version 2 wrote u32 lengths and
        // counts. A header cut inside its version is corrupt.
        for version in [1, 2] {
            let mut bytes = WAL_MAGIC.to_vec();
            write_u32(&mut bytes, version);
            assert_eq!(
                WalReader::new(&bytes[..]).err(),
                Some(PersistError::UnsupportedVersion(version))
            );
            bytes.pop();
            assert!(matches!(
                WalReader::new(&bytes[..]),
                Err(PersistError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn trailing_payload_bytes_rejected() {
        let mut payload = encode_payload(&WalRecord::Checkpoint { lsn: 3 });
        payload.push(0xAB);
        assert!(matches!(
            decode_payload(&payload),
            Err(PersistError::Corrupt(msg)) if msg.contains("trailing")
        ));
    }

    /// A fresh directory for one test.
    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hrdm_wal_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Every record in the log at `path`, checkpoint record first.
    fn read_log(path: &Path) -> Vec<WalRecord> {
        let file = std::fs::File::open(path).unwrap();
        let mut reader = WalReader::new(std::io::BufReader::new(file)).unwrap();
        std::iter::from_fn(|| reader.next().unwrap()).collect()
    }

    #[test]
    fn wal_file_appends_and_group_commits() {
        let dir = temp_dir("group");
        let path = dir.join("wal-test.log");
        let mut wal = WalFile::create(&path, 0, 4).unwrap();
        for m in &sample_mutations()[..4] {
            wal.append(m).unwrap();
            assert!(
                wal.appended() - wal.durable() < 4,
                "an acknowledged append keeps fewer than 4 records non-durable"
            );
        }
        assert_eq!(wal.appended(), 4);
        wal.sync().unwrap();
        assert_eq!(wal.durable(), 4, "sync leaves every record durable");
        drop(wal);
        assert_eq!(read_log(&path).len(), 1 + 4, "checkpoint + four mutations");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_acknowledged_append_keeps_the_loss_bound() {
        let dir = temp_dir("bound");
        let m = &sample_mutations()[5];
        for n in [1usize, 2, 32] {
            let path = dir.join(format!("wal-{n}.log"));
            let mut wal = WalFile::create(&path, 7, n).unwrap();
            for _ in 0..200 {
                wal.append(m).unwrap();
                let marks = wal.marks();
                assert!(wal.appended() - wal.durable() < n as u64, "SYNC EVERY {n}");
                assert!(marks.next() - marks.durable() < n as u64, "SYNC EVERY {n}");
                assert_eq!(marks.next(), 7 + wal.appended());
            }
            wal.sync().unwrap();
            assert_eq!(wal.durable(), 200);
            assert_eq!(wal.marks().durable(), 7 + 200);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_discarded_tail_never_reaches_the_log() {
        let dir = temp_dir("staged");
        let path = dir.join("wal-test.log");
        let mutations = sample_mutations();
        let mut wal = WalFile::create(&path, 0, 1).unwrap();
        wal.stage(&mutations[0]).unwrap();
        wal.stage(&mutations[1]).unwrap();
        assert_eq!(wal.appended(), 0, "staged records are not appended");
        wal.discard();
        wal.stage(&mutations[2]).unwrap();
        wal.commit().unwrap();
        assert_eq!((wal.appended(), wal.durable()), (1, 1));
        drop(wal);
        assert_eq!(
            read_log(&path),
            [
                WalRecord::Checkpoint { lsn: 0 },
                WalRecord::Mutation(mutations[2].clone())
            ]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_sync_poisons_the_file() {
        let dir = temp_dir("poison");
        let file = std::fs::File::create(dir.join("wal-test.log")).unwrap();
        // `fdatasync` of /dev/null fails with EINVAL.
        let null = std::fs::File::open("/dev/null").unwrap();
        let mut wal = WalFile::start(
            BufWriter::new(file),
            null,
            dir.join("wal-test.log"),
            0,
            1,
            Arc::default(),
            JournalObs::new(Registry::global()),
        )
        .unwrap();
        let m = &sample_mutations()[0];
        let first = wal.append(m).unwrap_err();
        assert!(
            matches!(&first, PersistError::Io(e) if e.kind() == std::io::ErrorKind::InvalidInput),
            "{first}"
        );
        assert_eq!(
            wal.appended(),
            1,
            "the record was written, never acknowledged"
        );
        assert_eq!(wal.durable(), 0);
        // No retry: every later append or sync returns the same error.
        for _ in 0..3 {
            assert_eq!(wal.append(m).unwrap_err().to_string(), first.to_string());
            assert_eq!(wal.sync().unwrap_err().to_string(), first.to_string());
        }
        assert_eq!(wal.appended(), 1, "a poisoned file appends nothing");
        drop(wal);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dropping_the_file_joins_its_syncer() {
        let dir = temp_dir("join");
        let mut wal = WalFile::create(dir.join("wal-test.log"), 0, 32).unwrap();
        for m in &sample_mutations() {
            wal.append(m).unwrap();
        }
        let syncer = Arc::downgrade(&wal.syncer);
        drop(wal);
        // The thread held the other handle until it returned.
        assert!(syncer.upgrade().is_none(), "the syncer outlived its file");
        // Dropping flushes, so a reader sees every appended record.
        assert_eq!(
            read_log(&dir.join("wal-test.log")).len(),
            1 + sample_mutations().len()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
