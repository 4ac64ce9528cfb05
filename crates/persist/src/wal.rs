//! The write-ahead log: an append-only stream of logical catalog
//! mutations, length-prefixed and CRC-32 framed.
//!
//! # On-disk format
//!
//! ```text
//! magic    "HRDMWAL1"
//! version  u32 (= 2; version 1 had no record tags past 10, and a
//!          version-1 reader refuses a version-2 log as unsupported
//!          rather than cut it at the first new record as a torn tail)
//! records  …, each framed as:
//!   len    varint (payload bytes, capped at 1 MiB)
//!   crc    u32 little-endian, CRC-32 (IEEE) of the payload
//!   payload len bytes, tag u8 + codec-primitive fields
//! ```
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
//! Both read a log through one frame loop — the tailer through
//! [`WalReader::replay`], recovery of a long log through
//! [`WalReader::replay_ahead`] — and each maps where and why it
//! [`Stop`]ped to its own policy.
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
//!
//! # Decoding ahead
//!
//! [`WalReader::replay_ahead`] is the frame loop's second driver: a
//! helper thread reads, verifies and decodes frames into batches of
//! [`REPLAY_BATCH`] records while the calling thread applies the batch
//! before, so a long replay costs its apply alone. Both drivers classify
//! frames in one place and stop where and why the other would.

use std::convert::Infallible;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use hrdm_core::mutation::CatalogMutation;
use hrdm_core::preemption::Preemption;
use hrdm_core::truth::Truth;
use hrdm_obs::metrics::{Counter, Gauge, Histogram, Registry};

use crate::codec::{
    crc32, read_derivation, read_str_into, read_u32, read_u64, read_u8, write_derivation,
    write_names, write_str, write_u32, write_u64, write_u8, write_varint,
};
use crate::error::{PersistError, Result};

/// WAL file magic.
pub const WAL_MAGIC: &[u8; 8] = b"HRDMWAL1";
/// WAL format version.
pub const WAL_VERSION: u32 = 2;
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

fn truth_tag(t: Truth) -> u8 {
    match t {
        Truth::Negative => 0,
        Truth::Positive => 1,
    }
}

fn truth_from(tag: u8) -> Result<Truth> {
    match tag {
        0 => Ok(Truth::Negative),
        1 => Ok(Truth::Positive),
        other => Err(PersistError::Corrupt(format!("unknown truth tag {other}"))),
    }
}

fn preemption_tag(p: Preemption) -> u8 {
    match p {
        Preemption::OffPath => 0,
        Preemption::OnPath => 1,
        Preemption::NoPreemption => 2,
    }
}

fn preemption_from(tag: u8) -> Result<Preemption> {
    match tag {
        0 => Ok(Preemption::OffPath),
        1 => Ok(Preemption::OnPath),
        2 => Ok(Preemption::NoPreemption),
        other => Err(PersistError::Corrupt(format!(
            "unknown preemption tag {other}"
        ))),
    }
}

/// A count of items that each take at least `min_bytes` of what is left
/// of the payload: one claiming more than fits is corrupt before any
/// item is read or allocated.
fn read_count(r: &mut &[u8], min_bytes: usize, what: &str) -> Result<usize> {
    let n = read_u32(r)? as usize;
    if n > r.len() / min_bytes {
        return Err(PersistError::Corrupt(format!(
            "{what} count {n} exceeds the {} byte(s) left",
            r.len()
        )));
    }
    Ok(n)
}

/// Read a name list into `names`' storage, reusing the strings it
/// already holds, and hand it back.
fn read_names_into(r: &mut &[u8], mut names: Vec<String>) -> Result<Vec<String>> {
    let n = read_count(r, 4, "name")?;
    names.truncate(n);
    for name in names.iter_mut() {
        *name = read_str_into(r, std::mem::take(name))?;
    }
    for _ in names.len()..n {
        names.push(read_str_into(r, String::new())?);
    }
    Ok(names)
}

/// Encode a record's payload (tag + fields, no framing).
pub fn encode_payload(record: &WalRecord) -> Result<Vec<u8>> {
    let mut buf = Vec::new();
    match record {
        WalRecord::Checkpoint { lsn } => {
            write_u8(&mut buf, 0)?;
            write_u64(&mut buf, *lsn)?;
        }
        WalRecord::Mutation(m) => encode_mutation(&mut buf, m)?,
    }
    Ok(buf)
}

/// Encode a mutation record's payload onto `w` — what
/// [`encode_payload`] yields for `WalRecord::Mutation(m.clone())`,
/// without the clone.
fn encode_mutation(w: &mut impl Write, m: &CatalogMutation) -> Result<()> {
    match m {
        CatalogMutation::CreateDomain { name } => {
            write_u8(w, 1)?;
            write_str(w, name)?;
        }
        CatalogMutation::DropDomain { name } => {
            write_u8(w, 2)?;
            write_str(w, name)?;
        }
        CatalogMutation::AddClass {
            domain,
            name,
            parents,
        } => {
            write_u8(w, 3)?;
            write_str(w, domain)?;
            write_str(w, name)?;
            write_names(w, parents)?;
        }
        CatalogMutation::AddInstance {
            domain,
            name,
            parents,
        } => {
            write_u8(w, 4)?;
            write_str(w, domain)?;
            write_str(w, name)?;
            write_names(w, parents)?;
        }
        CatalogMutation::Prefer {
            domain,
            stronger,
            weaker,
        } => {
            write_u8(w, 5)?;
            write_str(w, domain)?;
            write_str(w, stronger)?;
            write_str(w, weaker)?;
        }
        CatalogMutation::CreateRelation { name, attributes } => {
            write_u8(w, 6)?;
            write_str(w, name)?;
            write_u32(w, attributes.len() as u32)?;
            for (attr, dom) in attributes {
                write_str(w, attr)?;
                write_str(w, dom)?;
            }
        }
        CatalogMutation::DropRelation { name } => {
            write_u8(w, 7)?;
            write_str(w, name)?;
        }
        CatalogMutation::Assert {
            relation,
            values,
            truth,
        } => {
            write_u8(w, 8)?;
            write_str(w, relation)?;
            write_u8(w, truth_tag(*truth))?;
            write_names(w, values)?;
        }
        CatalogMutation::Retract { relation, values } => {
            write_u8(w, 9)?;
            write_str(w, relation)?;
            write_names(w, values)?;
        }
        CatalogMutation::SetPreemption { relation, mode } => {
            write_u8(w, 10)?;
            write_str(w, relation)?;
            write_u8(w, preemption_tag(*mode))?;
        }
        CatalogMutation::DefineView { name, derivation } => {
            write_u8(w, 11)?;
            write_str(w, name)?;
            write_derivation(w, derivation)?;
        }
        CatalogMutation::RenameRelation { from, to } => {
            write_u8(w, 12)?;
            write_str(w, from)?;
            write_str(w, to)?;
        }
        CatalogMutation::Consolidate { relation } => {
            write_u8(w, 13)?;
            write_str(w, relation)?;
        }
        CatalogMutation::Explicate { relation, attrs } => {
            write_u8(w, 14)?;
            write_str(w, relation)?;
            write_names(w, attrs)?;
        }
    }
    Ok(())
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
    let mut r = payload;
    let frame = match read_u8(&mut r)? {
        0 => Frame::Checkpoint {
            lsn: read_u64(&mut r)?,
        },
        tag => {
            decode_mutation(tag, &mut r, record)?;
            Frame::Mutation
        }
    };
    if !r.is_empty() {
        return Err(PersistError::Corrupt(format!(
            "{} trailing byte(s) in record payload",
            r.len()
        )));
    }
    Ok(frame)
}

/// Decode the fields of a mutation record with tag `tag` into `m`,
/// reusing the first string and the name list `m` held.
fn decode_mutation(tag: u8, r: &mut &[u8], m: &mut CatalogMutation) -> Result<()> {
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
            name: read_str_into(r, s)?,
        },
        2 => DropDomain {
            name: read_str_into(r, s)?,
        },
        3 => AddClass {
            domain: read_str_into(r, s)?,
            name: read_str_into(r, String::new())?,
            parents: read_names_into(r, names)?,
        },
        4 => AddInstance {
            domain: read_str_into(r, s)?,
            name: read_str_into(r, String::new())?,
            parents: read_names_into(r, names)?,
        },
        5 => Prefer {
            domain: read_str_into(r, s)?,
            stronger: read_str_into(r, String::new())?,
            weaker: read_str_into(r, String::new())?,
        },
        6 => {
            let name = read_str_into(r, s)?;
            // An attribute is two strings, each at least a length prefix.
            let n = read_count(r, 8, "attribute")?;
            let attributes = (0..n)
                .map(|_| {
                    Ok((
                        read_str_into(r, String::new())?,
                        read_str_into(r, String::new())?,
                    ))
                })
                .collect::<Result<Vec<_>>>()?;
            CreateRelation { name, attributes }
        }
        7 => DropRelation {
            name: read_str_into(r, s)?,
        },
        8 => Assert {
            relation: read_str_into(r, s)?,
            truth: truth_from(read_u8(r)?)?,
            values: read_names_into(r, names)?,
        },
        9 => Retract {
            relation: read_str_into(r, s)?,
            values: read_names_into(r, names)?,
        },
        10 => SetPreemption {
            relation: read_str_into(r, s)?,
            mode: preemption_from(read_u8(r)?)?,
        },
        11 => DefineView {
            name: read_str_into(r, s)?,
            derivation: read_derivation(r)?,
        },
        12 => RenameRelation {
            from: read_str_into(r, s)?,
            to: read_str_into(r, String::new())?,
        },
        13 => Consolidate {
            relation: read_str_into(r, s)?,
        },
        14 => Explicate {
            relation: read_str_into(r, s)?,
            attrs: read_names_into(r, names)?,
        },
        other => {
            return Err(PersistError::Corrupt(format!(
                "unknown WAL record tag {other}"
            )))
        }
    };
    Ok(())
}

/// Write the WAL file header (magic + version).
pub fn write_header(w: &mut impl Write) -> Result<()> {
    w.write_all(WAL_MAGIC)?;
    write_u32(w, WAL_VERSION)?;
    Ok(())
}

/// Read and validate the WAL file header.
pub fn read_header(r: &mut impl Read) -> Result<()> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)
        .map_err(|_| PersistError::BadMagic)?;
    if &magic != WAL_MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = read_u32(r)?;
    if version != WAL_VERSION {
        return Err(PersistError::UnsupportedVersion(version));
    }
    Ok(())
}

/// Frame and write one record: varint length, CRC-32, payload.
pub fn write_record(w: &mut impl Write, record: &WalRecord) -> Result<()> {
    write_frame(w, &encode_payload(record)?)
}

/// Write one encoded payload with its frame.
fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<()> {
    write_varint(w, payload.len() as u64)?;
    write_u32(w, crc32(payload))?;
    w.write_all(payload)?;
    Ok(())
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

/// Bytes a [`WalReader`] asks its source for at a time.
const READ_CHUNK: usize = 64 << 10;

/// Most bytes a frame takes before its payload: a 10-byte varint length
/// and the 4-byte checksum.
const FRAME_HEAD_MAX: usize = 10 + 4;

/// Fewest bytes a mutation frame takes: a 1-byte length, the checksum,
/// and a tag with one empty string.
const MIN_FRAME: u64 = 1 + 4 + 1 + 4;

/// Records [`WalReader::replay_ahead`] decodes into one batch.
pub const REPLAY_BATCH: usize = 256;

/// Batches [`WalReader::replay_ahead`] keeps: one being applied and at
/// most two decoded ahead of it. The second gives the helper a whole
/// batch's apply to wake up in; with one, the applying thread waited on
/// it (measured on 2 vCPUs: a 20 000-record replay 1–6 % slower).
const BATCHES: usize = 3;

/// Whether a log of `len` bytes may hold more than one batch of frames
/// — what makes decoding ahead worth a thread. Read off the length
/// alone, so it assumes the smallest frames.
pub fn may_hold_more_than_a_batch(len: u64) -> bool {
    len.saturating_sub(WAL_HEADER_LEN) > REPLAY_BATCH as u64 * MIN_FRAME
}

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

impl Stop<Infallible> {
    /// The same stop, as a walk whose closure may refuse reports it.
    fn widen<E>(self) -> Stop<E> {
        match self {
            Stop::End => Stop::End,
            Stop::Max => Stop::Max,
            Stop::Frame(e) => Stop::Frame(e),
            Stop::Foreign(lsn) => Stop::Foreign(lsn),
            Stop::Refused(never) => match never {},
        }
    }
}

/// What one [`WalReader::replay`] or [`WalReader::replay_ahead`] did.
#[derive(Debug)]
pub struct Replayed<E> {
    /// Mutations the closure took.
    pub taken: u64,
    /// Byte offset of the frame the walk stopped at.
    pub at: u64,
    /// Why it stopped.
    pub stop: Stop<E>,
}

/// Up to [`REPLAY_BATCH`] decoded mutations, each with its frame's
/// offset, on their way from the decoding thread to the applying one;
/// the last batch of a walk also carries where and why it stopped.
struct Batch {
    /// The first `len` are this batch's; the rest keep their storage for
    /// the next time round.
    records: Vec<(u64, CatalogMutation)>,
    len: usize,
    stop: Option<(u64, Stop<Infallible>)>,
}

impl Batch {
    fn new() -> Batch {
        Batch {
            records: (0..REPLAY_BATCH)
                .map(|_| (0, CatalogMutation::default()))
                .collect(),
            len: 0,
            stop: None,
        }
    }
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
        read_header(&mut &reader.buf[..reader.tail.min(header)])?;
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

    /// Read up to the next mutation of the log extending checkpoint
    /// `generation`, decoded into `record`: its frame's offset, or that
    /// of the frame the walk stops at and why. The one classification of
    /// frames both [`replay`](WalReader::replay) and
    /// [`replay_ahead`](WalReader::replay_ahead) drive.
    fn step<E>(
        &mut self,
        generation: u64,
        record: &mut CatalogMutation,
    ) -> std::result::Result<u64, (u64, Stop<E>)> {
        loop {
            let at = self.good_pos;
            let stop = match self.next_into(record) {
                Ok(Some(Frame::Checkpoint { lsn })) if lsn == generation => continue,
                Ok(Some(Frame::Mutation)) => return Ok(at),
                Ok(Some(Frame::Checkpoint { lsn })) => Stop::Foreign(lsn),
                Ok(None) => Stop::End,
                Err(e) => Stop::Frame(e),
            };
            return Err((at, stop));
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
        while taken < max {
            let (at, stop) = match self.step(generation, record) {
                Ok(at) => match f(record) {
                    Ok(()) => {
                        taken += 1;
                        continue;
                    }
                    Err(e) => (at, Stop::Refused(e)),
                },
                Err(stopped) => stopped,
            };
            return Replayed { taken, at, stop };
        }
        let (at, stop) = (self.good_pos, Stop::Max);
        Replayed { taken, at, stop }
    }

    /// [`replay`](WalReader::replay) to the end of the log with the
    /// reading, checking and decoding moved to a helper thread: it
    /// decodes batches of [`REPLAY_BATCH`] records ahead while this
    /// thread hands the batch before to `f`. At most three batches exist —
    /// one being applied, at most two decoded ahead — each reused, so
    /// memory does not grow with the log. The result is
    /// `replay`'s with `max` unbounded: the same records taken, and the
    /// same offset and reason at the stop. When `f` refuses a record the
    /// helper is told to stop, and it has ended by the time this
    /// returns. If the helper cannot be started, nothing is taken and the
    /// walk stops with that error as a [`FrameError::Io`].
    pub fn replay_ahead<E>(
        self,
        generation: u64,
        f: impl FnMut(&CatalogMutation) -> std::result::Result<(), E>,
    ) -> Replayed<E>
    where
        R: Send,
    {
        let start = self.good_pos;
        let (full_tx, full_rx) = sync_channel(BATCHES);
        let (free_tx, free_rx) = sync_channel(BATCHES);
        for _ in 0..BATCHES {
            free_tx
                .send(Batch::new())
                .expect("the channel holds every batch");
        }
        std::thread::scope(move |s| {
            let mut reader = self;
            let helper = std::thread::Builder::new()
                .name("wal-decode".into())
                .spawn_scoped(s, move || {
                    reader.decode_ahead(generation, &full_tx, &free_rx)
                });
            let helper = match helper {
                Ok(helper) => helper,
                Err(e) => {
                    let stop = Stop::Frame(FrameError::Io(e));
                    return Replayed {
                        taken: 0,
                        at: start,
                        stop,
                    };
                }
            };
            // Applying takes both channel ends this thread uses and drops
            // them on return, which releases a helper blocked on either;
            // the join then waits for its thread to exit.
            let replayed = apply_batches(full_rx, free_tx, f);
            if let Err(panic) = helper.join() {
                std::panic::resume_unwind(panic);
            }
            replayed
        })
    }

    /// The helper of [`replay_ahead`](WalReader::replay_ahead): fill each
    /// batch handed back on `free` and send it on `full`, until a batch
    /// ends the walk or the applying side hangs up.
    fn decode_ahead(&mut self, generation: u64, full: &SyncSender<Batch>, free: &Receiver<Batch>) {
        for mut batch in free {
            batch.len = 0;
            while batch.len < REPLAY_BATCH && batch.stop.is_none() {
                let (at, record) = &mut batch.records[batch.len];
                match self.step(generation, record) {
                    Ok(offset) => {
                        *at = offset;
                        batch.len += 1;
                    }
                    Err(stopped) => batch.stop = Some(stopped),
                }
            }
            let last = batch.stop.is_some();
            if full.send(batch).is_err() || last {
                return;
            }
        }
    }

    fn read_one(
        &mut self,
        record: &mut CatalogMutation,
    ) -> std::result::Result<Option<Frame>, FrameError> {
        self.fill(FRAME_HEAD_MAX).map_err(FrameError::Io)?;
        let head = &self.buf[self.head..self.tail];
        if head.is_empty() {
            return Ok(None);
        }
        // The varint length prefix, a byte at a time.
        let (mut len, mut shift, mut prefix) = (0u64, 0u32, 0usize);
        loop {
            let Some(&byte) = head.get(prefix) else {
                let torn = head.len();
                self.consume(torn);
                return Err(FrameError::Short("torn varint length prefix"));
            };
            prefix += 1;
            if shift >= 63 && byte > 1 {
                self.consume(prefix);
                return Err(FrameError::Invalid("varint overflows 64 bits".into()));
            }
            len |= ((byte & 0x7F) as u64) << shift;
            if byte & 0x80 == 0 {
                break;
            }
            shift += 7;
            if shift > 63 {
                self.consume(prefix);
                return Err(FrameError::Invalid("varint longer than 10 bytes".into()));
            }
        }
        if len > RECORD_CAP as u64 {
            self.consume(prefix);
            return Err(FrameError::Invalid(format!(
                "record length {len} exceeds cap {RECORD_CAP}"
            )));
        }
        let frame_len = prefix + 4 + len as usize;
        self.fill(frame_len).map_err(FrameError::Io)?;
        let held = self.tail - self.head;
        if held < frame_len {
            self.consume(held);
            return Err(FrameError::Short(if held < prefix + 4 {
                "torn record checksum"
            } else {
                "torn record payload"
            }));
        }
        let frame = &self.buf[self.head + prefix..self.head + frame_len];
        let (crc, payload) = frame.split_at(4);
        let decoded = if crc32(payload) != u32::from_le_bytes(crc.try_into().expect("4 bytes")) {
            Err(FrameError::Invalid("record checksum mismatch".into()))
        } else {
            decode_into(payload, record).map_err(|e| {
                FrameError::Invalid(match e {
                    PersistError::Corrupt(msg) => msg,
                    other => other.to_string(),
                })
            })
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

/// The applying side of [`WalReader::replay_ahead`]: hand each record of
/// each batch on `full` to `f` in order and send the batch back on `free`
/// for reuse, until `f` refuses a record or a batch carries the walk's
/// stop.
fn apply_batches<E>(
    full: Receiver<Batch>,
    free: SyncSender<Batch>,
    mut f: impl FnMut(&CatalogMutation) -> std::result::Result<(), E>,
) -> Replayed<E> {
    let mut taken = 0;
    loop {
        let mut batch = full
            .recv()
            .expect("the decoding thread ends on its last batch");
        for (at, record) in &batch.records[..batch.len] {
            if let Err(e) = f(record) {
                let stop = Stop::Refused(e);
                return Replayed {
                    taken,
                    at: *at,
                    stop,
                };
            }
            taken += 1;
        }
        if let Some((at, stop)) = batch.stop.take() {
            let stop = stop.widen();
            return Replayed { taken, at, stop };
        }
        // Fails only once the helper has ended, and then the last batch
        // is already on its way.
        let _ = free.send(batch);
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
        let mut w = BufWriter::new(file);
        write_header(&mut w)?;
        write_record(
            &mut w,
            &WalRecord::Checkpoint {
                lsn: checkpoint_lsn,
            },
        )?;
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
        encode_mutation(&mut self.payload, m)?;
        write_frame(&mut self.staged, &self.payload)?;
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
        write_header(&mut buf).unwrap();
        write_record(&mut buf, &WalRecord::Checkpoint { lsn: 7 }).unwrap();
        for m in sample_mutations() {
            write_record(&mut buf, &WalRecord::Mutation(m)).unwrap();
        }
        buf
    }

    #[test]
    fn every_mutation_kind_round_trips() {
        for m in sample_mutations() {
            let payload = encode_payload(&WalRecord::Mutation(m.clone())).unwrap();
            assert_eq!(
                decode_payload(&payload).unwrap(),
                WalRecord::Mutation(m.clone()),
                "{m} must round-trip"
            );
        }
        let payload = encode_payload(&WalRecord::Checkpoint { lsn: u64::MAX }).unwrap();
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
            let payload = encode_payload(&WalRecord::Mutation(next.clone())).unwrap();
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
            let checkpoint = encode_payload(&WalRecord::Checkpoint { lsn: 9 }).unwrap();
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
        let payload = encode_payload(&WalRecord::Mutation(retract.clone())).unwrap();
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
        write_header(&mut bytes).unwrap();
        write_varint(&mut bytes, RECORD_CAP as u64 + 1).unwrap();
        write_u32(&mut bytes, 0).unwrap();
        let mut reader = WalReader::new(&bytes[..]).unwrap();
        assert!(matches!(
            reader.next(),
            Err(PersistError::Corrupt(msg)) if msg.contains("cap")
        ));
    }

    #[test]
    fn duplicate_checkpoint_record_is_corrupt() {
        let mut bytes = Vec::new();
        write_header(&mut bytes).unwrap();
        write_record(&mut bytes, &WalRecord::Checkpoint { lsn: 0 }).unwrap();
        write_record(&mut bytes, &WalRecord::Checkpoint { lsn: 1 }).unwrap();
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
        write_header(&mut bytes).unwrap();
        write_record(
            &mut bytes,
            &WalRecord::Mutation(CatalogMutation::CreateDomain { name: "D".into() }),
        )
        .unwrap();
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
        write_u32(&mut bytes, 9).unwrap();
        assert!(matches!(
            WalReader::new(&bytes[..]),
            Err(PersistError::UnsupportedVersion(9))
        ));
        // The previous version's log, which had no view or in-place
        // records, is refused too.
        let mut bytes = WAL_MAGIC.to_vec();
        write_u32(&mut bytes, 1).unwrap();
        assert!(matches!(
            WalReader::new(&bytes[..]),
            Err(PersistError::UnsupportedVersion(1))
        ));
    }

    #[test]
    fn trailing_payload_bytes_rejected() {
        let mut payload = encode_payload(&WalRecord::Checkpoint { lsn: 3 }).unwrap();
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
