//! The byte codec every `hrdm-persist` format is spelled in: the log's
//! records, the checkpoint file and the `HRDM1` image.
//!
//! Writers append to a `Vec<u8>` and cannot fail; [`Reader`] is the one
//! cursor that reads their bytes back out of a slice. Between them they
//! hold every byte-level decision the formats share:
//!
//! * fixed-width little-endian integers for tags (`u8`), versions and
//!   checksums (`u32`) and LSNs (`u64`), and `w`-byte ones for node ids
//!   ([`width`]);
//! * every count and every string's byte length as a LEB128 varint in
//!   its shortest spelling — a longer one is corrupt, so one value has
//!   one encoding;
//! * a name as its varint length and UTF-8, a name list as a varint
//!   count and its names;
//! * the truth and preemption tags, each one table;
//! * a view's [`Derivation`], as a tagged tree;
//! * the frame both the log's records and the checkpoint file use: a
//!   varint payload length, the payload's CRC-32, the payload.
//!
//! A count or a length is untrusted input: the reader checks it against
//! [`COUNT_CAP`] and against what the bytes left could hold before the
//! caller allocates anything for it.

use std::ops::Range;

use hrdm_core::derivation::{Derivation, Source, ValueRef};
use hrdm_core::preemption::Preemption;
use hrdm_core::truth::Truth;

use crate::error::{PersistError, Result};

/// Upper bound on any decoded count or string length (16 Mi): a larger
/// one is [`PersistError::Corrupt`], not an attempted allocation.
pub const COUNT_CAP: u64 = 16 << 20;

/// Each truth's tag is its index here.
const TRUTHS: [Truth; 2] = [Truth::Negative, Truth::Positive];

/// Each preemption mode's tag is its index here.
const PREEMPTIONS: [Preemption; 3] = [
    Preemption::OffPath,
    Preemption::OnPath,
    Preemption::NoPreemption,
];

fn corrupt(msg: String) -> PersistError {
    PersistError::Corrupt(msg)
}

/// The fewest little-endian bytes that hold every value below `bound`
/// (at least one).
pub fn width(bound: usize) -> usize {
    let max = bound.saturating_sub(1) as u64;
    ((64 - max.leading_zeros() as usize).div_ceil(8)).max(1)
}

/// Append a `u32` little-endian.
pub fn write_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` little-endian.
pub fn write_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append the low `w` bytes of `v`, little-endian.
pub fn write_uint(out: &mut Vec<u8>, v: usize, w: usize) {
    out.extend_from_slice(&(v as u64).to_le_bytes()[..w]);
}

/// Append a LEB128 varint (7 bits per byte, high bit = continuation) in
/// its shortest spelling: a value below 128 costs one byte.
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Append a name: its varint byte length, then its UTF-8.
pub fn write_str(out: &mut Vec<u8>, s: &str) {
    write_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Append a name list: a varint count, then each name.
pub fn write_names(out: &mut Vec<u8>, names: &[String]) {
    write_varint(out, names.len() as u64);
    for n in names {
        write_str(out, n);
    }
}

/// A truth's tag: 0 negative, 1 positive.
pub fn truth_tag(t: Truth) -> u8 {
    TRUTHS
        .iter()
        .position(|&x| x == t)
        .expect("every truth has a tag") as u8
}

/// The truth tagged `tag`.
#[inline]
pub fn truth_of(tag: u8) -> Result<Truth> {
    TRUTHS
        .get(usize::from(tag))
        .copied()
        .ok_or_else(|| corrupt(format!("unknown truth tag {tag}")))
}

/// Append a preemption mode's tag: 0 off-path, 1 on-path, 2 none.
pub fn write_preemption(out: &mut Vec<u8>, p: Preemption) {
    let tag = PREEMPTIONS.iter().position(|&x| x == p);
    out.push(tag.expect("every preemption mode has a tag") as u8);
}

/// Append a derivation tree, root first: per node a tag (0 `UNION`,
/// 1 `INTERSECT`, 2 `DIFFERENCE`, 3 `JOIN`, 4 `PROJECT`, 5 `SELECT`,
/// 6 `CONSOLIDATE`, 7 `EXPLICATE`), its operands — each a tag (0 a
/// relation name, 1 a nested derivation) and its body — then its
/// attribute names or `SELECT` conditions (a count, then per condition
/// attribute, value and `ALL` as a u8).
pub fn write_derivation(out: &mut Vec<u8>, d: &Derivation) {
    out.push(match d {
        Derivation::Union(..) => 0,
        Derivation::Intersect(..) => 1,
        Derivation::Difference(..) => 2,
        Derivation::Join(..) => 3,
        Derivation::Project(..) => 4,
        Derivation::Select(..) => 5,
        Derivation::Consolidated(_) => 6,
        Derivation::Explicated(..) => 7,
    });
    for source in d.sources() {
        match source {
            Source::Named(name) => {
                out.push(0);
                write_str(out, name);
            }
            Source::Derived(inner) => {
                out.push(1);
                write_derivation(out, inner);
            }
        }
    }
    match d {
        Derivation::Project(_, attrs) | Derivation::Explicated(_, attrs) => write_names(out, attrs),
        Derivation::Select(_, conds) => {
            write_varint(out, conds.len() as u64);
            for (attr, value) in conds {
                write_str(out, attr);
                write_str(out, &value.name);
                out.push(u8::from(value.all));
            }
        }
        _ => {}
    }
}

/// Append a frame's head for `payload`: its varint length, then its
/// CRC-32 (IEEE) as a `u32`. The payload follows it.
pub fn write_frame_head(out: &mut Vec<u8>, payload: &[u8]) {
    write_varint(out, payload.len() as u64);
    write_u32(out, crc32(payload));
}

/// A varint off the front of `bytes` and the bytes it took, or `None` if
/// `bytes` end inside it. At most ten bytes (`ceil(64/7)`), the tenth
/// holding one bit, and no longer than the value needs (a last byte of
/// zero after a continuation); anything else is corrupt.
#[inline]
fn varint_at(bytes: &[u8]) -> Result<Option<(u64, usize)>> {
    // Nearly every length and count in a log fits in one byte.
    if let Some(&byte @ 0..0x80) = bytes.first() {
        return Ok(Some((u64::from(byte), 1)));
    }
    let mut v = 0u64;
    for (k, &byte) in bytes.iter().enumerate().take(10) {
        let payload = u64::from(byte & 0x7F);
        if k == 9 && payload > 1 {
            return Err(corrupt("varint overflows 64 bits".into()));
        }
        v |= payload << (7 * k);
        if byte & 0x80 == 0 {
            if k > 0 && byte == 0 {
                return Err(corrupt(format!("varint {v} spelled in {} bytes", k + 1)));
            }
            return Ok(Some((v, k + 1)));
        }
    }
    if bytes.len() >= 10 {
        return Err(corrupt("varint longer than 10 bytes".into()));
    }
    Ok(None)
}

/// Parse a frame's head off the front of `bytes`: the range its payload
/// takes in `bytes` (which may run past their end) and the payload's
/// checksum. `Ok(None)` if `bytes` end inside the head; a length over
/// `cap` or a malformed varint is corrupt.
#[inline]
pub fn frame_head(bytes: &[u8], cap: u64) -> Result<Option<(Range<usize>, u32)>> {
    let Some((len, prefix)) = varint_at(bytes)? else {
        return Ok(None);
    };
    if len > cap {
        return Err(corrupt(format!("payload length {len} exceeds cap {cap}")));
    }
    let Some(crc) = bytes.get(prefix..prefix + 4) else {
        return Ok(None);
    };
    let start = prefix + 4;
    let crc = u32::from_le_bytes(crc.try_into().expect("4 bytes"));
    Ok(Some((start..start + len as usize, crc)))
}

/// A cursor over encoded bytes: each read takes its field off the
/// front, and a field the bytes left cannot hold is
/// [`PersistError::Corrupt`].
///
/// The reads a log record is made of are `#[inline]`: replay runs a
/// handful per record, thousands of records in a row, and without
/// inlining they made a replay's read and decode ~40 % slower.
pub struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes }
    }

    /// The bytes not read yet.
    pub fn rest(&self) -> &'a [u8] {
        self.bytes
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if n > self.bytes.len() {
            return Err(corrupt(format!("short read for {what}")));
        }
        let (head, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        Ok(head)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    /// A `u32`, little-endian.
    pub fn u32(&mut self, what: &str) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    /// A `u64`, little-endian.
    pub fn u64(&mut self, what: &str) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// A `w`-byte little-endian unsigned integer (`w` ≤ 8).
    #[inline]
    pub fn uint(&mut self, w: usize) -> Result<usize> {
        let mut le = [0u8; 8];
        le[..w].copy_from_slice(self.take(w, "a node id")?);
        Ok(u64::from_le_bytes(le) as usize)
    }

    /// A varint in its shortest spelling.
    #[inline]
    pub fn varint(&mut self) -> Result<u64> {
        let (v, used) =
            varint_at(self.bytes)?.ok_or_else(|| corrupt("short read for varint".into()))?;
        self.bytes = &self.bytes[used..];
        Ok(v)
    }

    /// A count of elements of at least `min_bytes` each: under the cap
    /// and no more than the bytes left could hold, checked before the
    /// caller allocates for them.
    #[inline]
    pub fn count(&mut self, what: &str, min_bytes: usize) -> Result<usize> {
        let n = self.varint()?;
        if n > COUNT_CAP {
            return Err(corrupt(format!("{what} {n} exceeds sanity cap")));
        }
        let n = n as usize;
        if n * min_bytes > self.bytes.len() {
            return Err(corrupt(format!(
                "{what} {n} exceeds the {} byte(s) left",
                self.bytes.len()
            )));
        }
        Ok(n)
    }

    /// A name, borrowed from the bytes.
    #[inline]
    pub fn str(&mut self) -> Result<&'a str> {
        let len = self.count("string length", 1)?;
        std::str::from_utf8(self.take(len, "a string")?)
            .map_err(|_| corrupt("invalid UTF-8".into()))
    }

    /// A name, copied into `into`'s storage (cleared first), which is
    /// handed back: a name no longer than what it held allocates nothing.
    #[inline]
    pub fn str_into(&mut self, mut into: String) -> Result<String> {
        let s = self.str()?;
        into.clear();
        into.push_str(s);
        Ok(into)
    }

    /// A name list, read into `names`' storage, reusing the strings it
    /// already holds, and handed back.
    #[inline]
    pub fn names_into(&mut self, mut names: Vec<String>) -> Result<Vec<String>> {
        let n = self.count("name count", 1)?;
        names.truncate(n);
        for name in names.iter_mut() {
            *name = self.str_into(std::mem::take(name))?;
        }
        for _ in names.len()..n {
            names.push(self.str_into(String::new())?);
        }
        Ok(names)
    }

    /// A truth tag.
    #[inline]
    pub fn truth(&mut self) -> Result<Truth> {
        truth_of(self.u8("a truth tag")?)
    }

    /// A preemption tag.
    pub fn preemption(&mut self) -> Result<Preemption> {
        let tag = self.u8("a preemption tag")?;
        PREEMPTIONS
            .get(usize::from(tag))
            .copied()
            .ok_or_else(|| corrupt(format!("unknown preemption tag {tag}")))
    }

    /// A derivation [`write_derivation`] wrote. Nesting deeper than
    /// [`Derivation::MAX_DEPTH`] — more than the parser accepts — is
    /// corrupt, so damaged bytes cannot recurse the decoder off the
    /// stack.
    pub fn derivation(&mut self) -> Result<Derivation> {
        self.derivation_at(1)
    }

    fn derivation_at(&mut self, depth: usize) -> Result<Derivation> {
        if depth > Derivation::MAX_DEPTH {
            return Err(corrupt(format!(
                "derivation nests deeper than {}",
                Derivation::MAX_DEPTH
            )));
        }
        let tag = self.u8("a derivation tag")?;
        let source = |r: &mut Self| -> Result<Source> {
            match r.u8("an operand tag")? {
                0 => Ok(Source::Named(r.str()?.to_string())),
                1 => Ok(Source::Derived(Box::new(r.derivation_at(depth + 1)?))),
                other => Err(corrupt(format!("unknown derivation operand tag {other}"))),
            }
        };
        Ok(match tag {
            0 => Derivation::Union(source(self)?, source(self)?),
            1 => Derivation::Intersect(source(self)?, source(self)?),
            2 => Derivation::Difference(source(self)?, source(self)?),
            3 => Derivation::Join(source(self)?, source(self)?),
            4 => Derivation::Project(source(self)?, self.names_into(Vec::new())?),
            5 => {
                let a = source(self)?;
                // A condition is two names and a flag.
                let conds = (0..self.count("condition count", 3)?)
                    .map(|_| {
                        let attr = self.str()?.to_string();
                        let name = self.str()?.to_string();
                        let all = match self.u8("an ALL flag")? {
                            0 => false,
                            1 => true,
                            other => return Err(corrupt(format!("unknown ALL flag {other}"))),
                        };
                        Ok((attr, ValueRef { name, all }))
                    })
                    .collect::<Result<Vec<_>>>()?;
                Derivation::Select(a, conds)
            }
            6 => Derivation::Consolidated(source(self)?),
            7 => Derivation::Explicated(source(self)?, self.names_into(Vec::new())?),
            other => return Err(corrupt(format!("unknown derivation tag {other}"))),
        })
    }
}

/// Slicing-by-8 tables for the reflected IEEE polynomial, built at
/// compile time: `CRC_TABLES[0]` is the classic byte-at-a-time table,
/// and `CRC_TABLES[k][b]` advances the CRC of byte `b` over `k` more
/// zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (ISO-HDLC / IEEE 802.3, the zlib polynomial) of `bytes` —
/// the frame checksum that detects torn and bit-flipped records and
/// images. Slicing-by-8: eight table lookups fold in eight bytes at a
/// time, and the tail of fewer than eight goes byte at a time. The
/// checksums are those of the byte-at-a-time loop.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A derivation as deep as the parser accepts round-trips; one level
    /// deeper is corrupt, not a stack overflow.
    #[test]
    fn derivations_round_trip_up_to_the_depth_bound() {
        let nest = |levels: usize| {
            let mut d = Derivation::Explicated(Source::named("R"), vec!["a".into()]);
            for _ in 1..levels {
                d = Derivation::Union(Source::Derived(Box::new(d)), Source::named("S"));
            }
            let mut bytes = Vec::new();
            write_derivation(&mut bytes, &d);
            (d, bytes)
        };
        let (deepest, bytes) = nest(Derivation::MAX_DEPTH);
        assert_eq!(Reader::new(&bytes).derivation().unwrap(), deepest);
        let (_, bytes) = nest(Derivation::MAX_DEPTH + 1);
        assert!(matches!(
            Reader::new(&bytes).derivation(),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn fixed_width_integers_round_trip() {
        let mut buf = Vec::new();
        write_u32(&mut buf, 0xDEAD_BEEF);
        write_u64(&mut buf, u64::MAX - 1);
        write_uint(&mut buf, 0x01_0203, 3);
        buf.push(7);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u32("a").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64("b").unwrap(), u64::MAX - 1);
        assert_eq!(r.uint(3).unwrap(), 0x01_0203);
        assert_eq!(r.u8("c").unwrap(), 7);
        assert!(r.rest().is_empty());
        assert!(matches!(
            Reader::new(&[1u8, 2, 3]).u64("an LSN"),
            Err(PersistError::Corrupt(msg)) if msg.contains("short read for an LSN")
        ));
    }

    #[test]
    fn strings_round_trip_and_keep_their_storage() {
        let mut buf = Vec::new();
        for s in ["", "Bird", "Amazing Flying Penguin ∀"] {
            write_str(&mut buf, s);
        }
        buf.push(0xAB);
        let mut r = Reader::new(&buf);
        assert_eq!(r.str().unwrap(), "");
        let kept = String::with_capacity(16);
        let at = kept.as_ptr();
        let s = r.str_into(kept).unwrap();
        assert_eq!((s.as_str(), s.as_ptr()), ("Bird", at));
        assert_eq!(r.str().unwrap(), "Amazing Flying Penguin ∀");
        assert_eq!(r.rest(), &[0xAB]);
    }

    #[test]
    fn name_lists_reuse_the_strings_they_held() {
        let mut buf = Vec::new();
        write_names(&mut buf, &["a".into(), "bc".into()]);
        let held = vec!["xyz".to_string(), "w".into(), "v".into()];
        let at = held[0].as_ptr();
        let names = Reader::new(&buf).names_into(held).unwrap();
        assert_eq!(names, ["a", "bc"]);
        assert_eq!(names[0].as_ptr(), at);
    }

    /// A string length is judged against the cap and the bytes left
    /// before anything is allocated; its body must be UTF-8.
    #[test]
    fn string_lengths_are_bounded_by_the_cap_and_what_is_left() {
        let mut buf = Vec::new();
        for claimed in [5, COUNT_CAP, COUNT_CAP + 1, u64::MAX] {
            buf.clear();
            write_varint(&mut buf, claimed);
            buf.extend_from_slice(b"abcd");
            let err = Reader::new(&buf).str().unwrap_err().to_string();
            let want = if claimed > COUNT_CAP {
                "sanity cap"
            } else {
                "4 byte(s) left"
            };
            assert!(err.contains(want), "{claimed}: {err}");
        }
        buf.clear();
        write_varint(&mut buf, 2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        assert!(matches!(
            Reader::new(&buf).str_into(String::new()),
            Err(PersistError::Corrupt(msg)) if msg.contains("UTF-8")
        ));
    }

    #[test]
    fn counts_are_bounded_by_what_the_bytes_left_could_hold() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 3);
        buf.extend_from_slice(&[0; 6]);
        assert_eq!(Reader::new(&buf).count("pairs", 2).unwrap(), 3);
        assert!(matches!(
            Reader::new(&buf).count("triples", 3),
            Err(PersistError::Corrupt(msg)) if msg.contains("triples 3 exceeds the 6 byte(s) left")
        ));
    }

    #[test]
    fn varints_round_trip_in_their_shortest_spelling() {
        let mut buf = Vec::new();
        // Every 7-bit boundary, plus the extremes.
        let mut cases = vec![0u64, 1, u64::MAX];
        for shift in 1..10 {
            let edge = 1u64 << (7 * shift);
            cases.extend([edge - 1, edge]);
        }
        for v in cases {
            buf.clear();
            write_varint(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint().unwrap(), v, "varint {v} must round-trip");
            assert!(r.rest().is_empty());
        }
        // u64::MAX is the 10-byte ceiling.
        buf.clear();
        write_varint(&mut buf, u64::MAX);
        assert_eq!(buf.len(), 10);
        // 5 spelled in two bytes is another spelling of it.
        assert!(matches!(
            Reader::new(&[0x85, 0x00]).varint(),
            Err(PersistError::Corrupt(msg)) if msg.contains("spelled in 2 bytes")
        ));
    }

    #[test]
    fn varint_overflow_and_truncation_rejected() {
        // Ten continuation bytes and an eleventh byte: too long.
        let long = [0x80u8; 11];
        assert!(matches!(
            Reader::new(&long).varint(),
            Err(PersistError::Corrupt(msg)) if msg.contains("longer than 10")
        ));
        // Tenth byte carrying bits beyond the 64th: overflow.
        let mut over = vec![0xFFu8; 9];
        over.push(0x02);
        assert!(matches!(
            Reader::new(&over).varint(),
            Err(PersistError::Corrupt(msg)) if msg.contains("overflows")
        ));
        // A dangling continuation bit with no next byte: short read.
        assert!(matches!(
            Reader::new(&[0x80u8]).varint(),
            Err(PersistError::Corrupt(msg)) if msg.contains("short read")
        ));
    }

    #[test]
    fn tags_round_trip_and_unknown_ones_are_corrupt() {
        let mut buf = Vec::new();
        for t in TRUTHS {
            buf.push(truth_tag(t));
        }
        for p in PREEMPTIONS {
            write_preemption(&mut buf, p);
        }
        assert_eq!(buf, [0, 1, 0, 1, 2]);
        let mut r = Reader::new(&buf);
        assert_eq!([r.truth().unwrap(), r.truth().unwrap()], TRUTHS);
        for p in PREEMPTIONS {
            assert_eq!(r.preemption().unwrap(), p);
        }
        assert!(Reader::new(&[2]).truth().is_err());
        assert!(Reader::new(&[3]).preemption().is_err());
    }

    /// A frame head tells bytes that end inside it from a length that is
    /// wrong, and places the payload after the length and checksum.
    #[test]
    fn frame_heads_parse_cut_short_or_invalid() {
        let mut buf = Vec::new();
        write_frame_head(&mut buf, &[9; 200]);
        assert_eq!(buf.len(), 2 + 4);
        assert_eq!(
            frame_head(&buf, 1 << 20).unwrap(),
            Some((6..206, crc32(&[9; 200])))
        );
        for cut in 0..buf.len() {
            assert_eq!(frame_head(&buf[..cut], 1 << 20).unwrap(), None, "{cut}");
        }
        assert!(matches!(
            frame_head(&buf, 199),
            Err(PersistError::Corrupt(msg)) if msg.contains("exceeds cap")
        ));
        assert!(frame_head(&[0x80, 0x00, 0, 0, 0, 0], 1 << 20).is_err());
    }

    #[test]
    fn widths_hold_every_value_below_the_bound() {
        let cases = [(0, 1), (1, 1), (256, 1), (257, 2), (65_536, 2), (65_537, 3)];
        for (bound, w) in cases {
            assert_eq!(width(bound), w, "width({bound})");
        }
        assert_eq!(width(1 << 32), 4);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The IEEE 802.3 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Any single-bit flip changes the checksum.
        let base = crc32(b"HRDM");
        let mut bytes = b"HRDM".to_vec();
        for i in 0..bytes.len() * 8 {
            bytes[i / 8] ^= 1 << (i % 8);
            assert_ne!(crc32(&bytes), base, "flip at bit {i} undetected");
            bytes[i / 8] ^= 1 << (i % 8);
        }
    }

    /// The byte-at-a-time loop `crc32` replaced, kept as its oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    /// Slicing-by-8 agrees with the bytewise loop on every length from
    /// 0 to 257 (every tail length, many whole words) and at every
    /// alignment of the first byte.
    #[test]
    fn crc32_agrees_with_the_bytewise_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x00C3_C320);
        let mut buf = vec![0u8; 257 + 8];
        for len in 0..=257 {
            for b in buf.iter_mut() {
                *b = rng.gen::<u32>() as u8;
            }
            for offset in 0..8 {
                let bytes = &buf[offset..offset + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "length {len} at offset {offset}"
                );
            }
        }
    }
}
