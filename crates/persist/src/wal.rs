//! The write-ahead log: an append-only stream of logical catalog
//! mutations, length-prefixed and CRC-32 framed.
//!
//! # On-disk format
//!
//! ```text
//! magic    "HRDMWAL1"
//! version  u32 (= 1)
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
//!
//! # Decoding in place
//!
//! Replay decodes thousands of small records in a row, so the reader
//! streams: one payload buffer (≤ [`RECORD_CAP`]) is reused for every
//! frame, and [`WalReader::next_into`] decodes each mutation into a
//! record the caller keeps ([`decode_into`]), whose strings and name
//! list are overwritten rather than built anew. A reader therefore holds
//! one payload plus one record, however long the log; an `Assert` or
//! `Retract` no longer than the record before it allocates nothing.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use hrdm_core::mutation::CatalogMutation;
use hrdm_core::preemption::Preemption;
use hrdm_core::truth::Truth;
use hrdm_obs::metrics::{self, Counter};

use crate::codec::{
    crc32, read_str_into, read_u32, read_u64, read_u8, write_str, write_u32, write_u64, write_u8,
    write_varint,
};
use crate::error::{PersistError, Result};

/// WAL file magic.
pub const WAL_MAGIC: &[u8; 8] = b"HRDMWAL1";
/// WAL format version.
pub const WAL_VERSION: u32 = 1;
/// Bytes of file header (magic + version) before the first frame.
pub const WAL_HEADER_LEN: u64 = WAL_MAGIC.len() as u64 + 4;
/// Upper bound on one record's payload. Catalog mutations are names
/// and small lists; anything larger is a corrupt length prefix.
pub const RECORD_CAP: usize = 1 << 20;

/// The journal's counters, registered once rather than looked up in
/// the registry (under its lock) on every append.
pub(crate) struct JournalObs {
    /// `wal.appends`: mutation records appended.
    appends: Counter,
    /// `wal.fsyncs`: WAL data fsyncs (a store directory's fsync is not
    /// one, so `persist.fsyncs_per_write` counts the log alone).
    fsyncs: Counter,
    /// `persist.checkpoints`: checkpoint images written.
    pub(crate) checkpoints: Counter,
}

pub(crate) fn journal_obs() -> &'static JournalObs {
    static M: OnceLock<JournalObs> = OnceLock::new();
    M.get_or_init(|| JournalObs {
        appends: metrics::counter("wal.appends"),
        fsyncs: metrics::counter("wal.fsyncs"),
        checkpoints: metrics::counter("persist.checkpoints"),
    })
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

fn write_names(w: &mut impl Write, names: &[String]) -> Result<()> {
    write_u32(w, names.len() as u32)?;
    for n in names {
        write_str(w, n)?;
    }
    Ok(())
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
        CreateDomain { name }
        | DropDomain { name }
        | DropRelation { name }
        | CreateRelation { name, .. }
        | Prefer { domain: name, .. }
        | SetPreemption { relation: name, .. } => (name, Vec::new()),
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

/// Fill `buf` from `r`; running out of bytes is a short frame.
fn read_frame_part(
    r: &mut impl Read,
    buf: &mut [u8],
    what: &'static str,
) -> std::result::Result<(), FrameError> {
    r.read_exact(buf).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => FrameError::Short(what),
        _ => FrameError::Io(e),
    })
}

/// A counting reader so the WAL reader can report exact byte offsets
/// (how much of a torn tail gets discarded, where a tailer resumes).
struct Counted<R> {
    inner: R,
    pos: u64,
}

impl<R: Read> Read for Counted<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.pos += n as u64;
        Ok(n)
    }
}

/// Strict streaming reader over a WAL byte stream.
///
/// `next()` returns `Ok(Some(record))` per intact record, `Ok(None)`
/// at a clean end-of-log (EOF exactly on a frame boundary), and
/// [`PersistError::Corrupt`] for anything else — including a
/// duplicate checkpoint record or a log whose first record is not a
/// checkpoint.
pub struct WalReader<R> {
    r: Counted<R>,
    /// Byte offset just past the last successfully decoded record.
    good_pos: u64,
    seen_checkpoint: bool,
    poisoned: bool,
    /// The current frame's payload (reused across frames).
    payload: Vec<u8>,
}

impl<R: Read> WalReader<R> {
    /// Wrap a reader positioned at the start of a WAL stream; reads
    /// and validates the header immediately.
    pub fn new(inner: R) -> Result<WalReader<R>> {
        let mut r = Counted { inner, pos: 0 };
        read_header(&mut r)?;
        let good_pos = r.pos;
        Ok(WalReader {
            r,
            good_pos,
            seen_checkpoint: false,
            poisoned: false,
            payload: Vec::new(),
        })
    }

    /// Continue a log whose header and checkpoint record were verified
    /// by an earlier reader: `inner` is positioned at byte `offset` of
    /// the stream, a frame boundary that reader reported as its
    /// [`good_pos`](WalReader::good_pos) past the checkpoint record.
    /// Offsets stay absolute.
    pub fn resume(inner: R, offset: u64) -> WalReader<R> {
        WalReader {
            r: Counted { inner, pos: offset },
            good_pos: offset,
            seen_checkpoint: true,
            poisoned: false,
            payload: Vec::new(),
        }
    }

    /// Byte offset just past the last intact record (or the header).
    pub fn good_pos(&self) -> u64 {
        self.good_pos
    }

    /// Byte offset just past the last byte consumed, a partly read
    /// frame included.
    pub fn pos(&self) -> u64 {
        self.r.pos
    }

    /// The payload of the last frame [`next_into`](WalReader::next_into)
    /// returned.
    pub(crate) fn payload(&self) -> &[u8] {
        &self.payload
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
                self.good_pos = self.r.pos;
                Ok(Some(frame))
            }
            Ok(None) => Ok(None),
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }

    fn read_one(
        &mut self,
        record: &mut CatalogMutation,
    ) -> std::result::Result<Option<Frame>, FrameError> {
        // Distinguish clean EOF (no bytes at all) from a torn frame.
        let mut first = [0u8; 1];
        match self.r.read(&mut first) {
            Ok(0) => return Ok(None),
            Ok(_) => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
        // Finish the varint whose first byte we just consumed.
        let len = if first[0] & 0x80 == 0 {
            first[0] as u64
        } else {
            let mut v = (first[0] & 0x7F) as u64;
            let mut shift = 7u32;
            loop {
                let mut byte = [0u8; 1];
                read_frame_part(&mut self.r, &mut byte, "torn varint length prefix")?;
                let byte = byte[0];
                if shift >= 63 && byte > 1 {
                    return Err(FrameError::Invalid("varint overflows 64 bits".into()));
                }
                v |= ((byte & 0x7F) as u64) << shift;
                if byte & 0x80 == 0 {
                    break;
                }
                shift += 7;
                if shift > 63 {
                    return Err(FrameError::Invalid("varint longer than 10 bytes".into()));
                }
            }
            v
        };
        if len > RECORD_CAP as u64 {
            return Err(FrameError::Invalid(format!(
                "record length {len} exceeds cap {RECORD_CAP}"
            )));
        }
        let mut crc = [0u8; 4];
        read_frame_part(&mut self.r, &mut crc, "torn record checksum")?;
        self.payload.resize(len as usize, 0);
        read_frame_part(&mut self.r, &mut self.payload, "torn record payload")?;
        if crc32(&self.payload) != u32::from_le_bytes(crc) {
            return Err(FrameError::Invalid("record checksum mismatch".into()));
        }
        let frame = decode_into(&self.payload, record).map_err(|e| {
            FrameError::Invalid(match e {
                PersistError::Corrupt(msg) => msg,
                other => other.to_string(),
            })
        })?;
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

/// An open, appendable WAL file with group-commit fsync batching.
///
/// `append` buffers the framed record and fsyncs once every `group`
/// appends (`group == 1` is synchronous durability; larger groups
/// amortize the fsync across a batch, the classic group-commit
/// trade: at most `group - 1` acknowledged records can be lost to a
/// crash).
pub struct WalFile {
    w: BufWriter<File>,
    path: PathBuf,
    group: usize,
    pending: usize,
    appended: u64,
    /// The record being appended, encoded (reused across appends, so
    /// one no larger than an earlier one allocates nothing).
    payload: Vec<u8>,
}

impl WalFile {
    /// Create (truncate) a WAL at `path`, writing the header and the
    /// binding checkpoint record, then fsyncing.
    pub fn create(path: impl Into<PathBuf>, checkpoint_lsn: u64, group: usize) -> Result<WalFile> {
        let path = path.into();
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        let mut wal = WalFile {
            w: BufWriter::new(file),
            path,
            group: group.max(1),
            pending: 0,
            appended: 0,
            payload: Vec::new(),
        };
        write_header(&mut wal.w)?;
        write_record(
            &mut wal.w,
            &WalRecord::Checkpoint {
                lsn: checkpoint_lsn,
            },
        )?;
        wal.sync()?;
        Ok(wal)
    }

    /// The file this WAL writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Mutation records appended so far (excludes the checkpoint
    /// record).
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Records buffered since the last fsync.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Append one mutation record; fsyncs when the group fills. The
    /// record is encoded straight from `m` into a buffer this file
    /// keeps, so an append allocates only to outgrow it.
    pub fn append(&mut self, m: &CatalogMutation) -> Result<()> {
        let _g = hrdm_obs::span!("wal.append", kind = m.kind());
        self.payload.clear();
        encode_mutation(&mut self.payload, m)?;
        write_frame(&mut self.w, &self.payload)?;
        journal_obs().appends.incr();
        self.appended += 1;
        self.pending += 1;
        if self.pending >= self.group {
            self.sync()?;
        }
        Ok(())
    }

    /// Flush buffered records and fsync the file.
    pub fn sync(&mut self) -> Result<()> {
        let _g = hrdm_obs::span!("wal.fsync", pending = self.pending);
        self.w.flush()?;
        self.w.get_ref().sync_data()?;
        journal_obs().fsyncs.incr();
        self.pending = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    /// one does, whichever of the ten kinds it held before — and an
    /// `Assert`/`Retract` into one that held an `Assert`/`Retract`
    /// keeps its storage.
    #[test]
    fn decoding_into_a_kept_record_equals_a_fresh_decode() {
        let samples = sample_mutations();
        let mut kinds: Vec<&str> = samples.iter().map(CatalogMutation::kind).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), 10, "the samples cover every kind");
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

    #[test]
    fn wal_file_appends_and_group_commits() {
        let dir = std::env::temp_dir().join(format!("hrdm_wal_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal-test.log");
        let mut wal = WalFile::create(&path, 0, 4).unwrap();
        for m in &sample_mutations()[..3] {
            wal.append(m).unwrap();
        }
        assert_eq!(wal.appended(), 3);
        assert_eq!(wal.pending(), 3, "group of 4 not yet full");
        wal.append(&sample_mutations()[3]).unwrap();
        assert_eq!(wal.pending(), 0, "group commit fired");
        wal.sync().unwrap();
        drop(wal);

        let file = std::fs::File::open(&path).unwrap();
        let mut reader = WalReader::new(std::io::BufReader::new(file)).unwrap();
        let mut n = 0;
        while reader.next().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 1 + 4, "checkpoint + four mutations");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
