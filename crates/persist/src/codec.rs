//! Primitive encoders/decoders: little-endian integers, LEB128
//! varints, length-prefixed UTF-8 strings, and CRC-32 framing over
//! `std::io` streams.

use std::io::{Read, Write};

use crate::error::{PersistError, Result};

/// Maximum length accepted for any decoded string or varint-framed
/// payload (16 MiB). Lengths are untrusted input; anything above the
/// cap is [`PersistError::Corrupt`], not an attempted allocation.
pub const LEN_CAP: usize = 16 << 20;

/// Write a `u32` little-endian.
pub fn write_u32(w: &mut impl Write, v: u32) -> Result<()> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

/// Read a `u32` little-endian.
pub fn read_u32(r: &mut impl Read) -> Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)
        .map_err(|_| PersistError::Corrupt("short read for u32".into()))?;
    Ok(u32::from_le_bytes(buf))
}

/// Write a single byte.
pub fn write_u8(w: &mut impl Write, v: u8) -> Result<()> {
    w.write_all(&[v])?;
    Ok(())
}

/// Read a single byte.
pub fn read_u8(r: &mut impl Read) -> Result<u8> {
    let mut buf = [0u8; 1];
    r.read_exact(&mut buf)
        .map_err(|_| PersistError::Corrupt("short read for u8".into()))?;
    Ok(buf[0])
}

/// Write a `u64` little-endian.
pub fn write_u64(w: &mut impl Write, v: u64) -> Result<()> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

/// Read a `u64` little-endian.
pub fn read_u64(r: &mut impl Read) -> Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)
        .map_err(|_| PersistError::Corrupt("short read for u64".into()))?;
    Ok(u64::from_le_bytes(buf))
}

/// Write a `u64` as a LEB128 varint (7 bits per byte, high bit =
/// continuation). Small values — the common case for WAL record
/// lengths — cost one byte.
pub fn write_varint(w: &mut impl Write, mut v: u64) -> Result<()> {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            w.write_all(&[byte])?;
            return Ok(());
        }
        w.write_all(&[byte | 0x80])?;
    }
}

/// Read a LEB128 varint. At most ten bytes (`ceil(64/7)`); an
/// eleventh continuation byte, or a tenth byte with bits beyond the
/// 64th, is [`PersistError::Corrupt`].
pub fn read_varint(r: &mut impl Read) -> Result<u64> {
    let mut v = 0u64;
    for k in 0..10 {
        let byte = read_u8(r).map_err(|_| PersistError::Corrupt("short read for varint".into()))?;
        let payload = (byte & 0x7F) as u64;
        if k == 9 && payload > 1 {
            return Err(PersistError::Corrupt("varint overflows 64 bits".into()));
        }
        v |= payload << (7 * k);
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(PersistError::Corrupt("varint longer than 10 bytes".into()))
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
/// the frame checksum the WAL uses to detect torn and bit-flipped
/// records. Slicing-by-8: eight table lookups fold in eight bytes at a
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

/// Write a length-prefixed UTF-8 string.
pub fn write_str(w: &mut impl Write, s: &str) -> Result<()> {
    write_u32(w, s.len() as u32)?;
    w.write_all(s.as_bytes())?;
    Ok(())
}

/// Read a length-prefixed UTF-8 string (capped at [`LEN_CAP`] to keep
/// a corrupt length from allocating the moon).
pub fn read_str(r: &mut impl Read) -> Result<String> {
    let len = read_u32(r)? as usize;
    if len > LEN_CAP {
        return Err(PersistError::Corrupt(format!(
            "string length {len} exceeds sanity cap"
        )));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)
        .map_err(|_| PersistError::Corrupt("short read for string body".into()))?;
    String::from_utf8(buf).map_err(|_| PersistError::Corrupt("invalid UTF-8".into()))
}

/// Read a length-prefixed UTF-8 string off the front of a payload into
/// `into`'s storage (cleared first), and hand that storage back: a
/// string no longer than what it held allocates nothing. A length
/// longer than what is left of the payload is
/// [`PersistError::Corrupt`] before anything is allocated.
pub fn read_str_into(r: &mut &[u8], mut into: String) -> Result<String> {
    let len = read_u32(r)? as usize;
    if len > r.len() {
        return Err(PersistError::Corrupt(format!(
            "string length {len} exceeds the {} byte(s) left",
            r.len()
        )));
    }
    let (body, rest) = r.split_at(len);
    let body =
        std::str::from_utf8(body).map_err(|_| PersistError::Corrupt("invalid UTF-8".into()))?;
    into.clear();
    into.push_str(body);
    *r = rest;
    Ok(into)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Encode with `write_str` and decode back, asserting both halves
    /// on the `Result` rather than unwrapping blindly.
    fn round_trip_str(s: &str) -> String {
        let mut buf = Vec::new();
        assert!(
            matches!(write_str(&mut buf, s), Ok(())),
            "encode of {s:?} must succeed"
        );
        match read_str(&mut &buf[..]) {
            Ok(decoded) => decoded,
            Err(e) => panic!("decode of {s:?} failed: {e}"),
        }
    }

    #[test]
    fn u32_round_trip() {
        let mut buf = Vec::new();
        for v in [0u32, 1, 0xDEAD_BEEF, u32::MAX] {
            buf.clear();
            assert!(matches!(write_u32(&mut buf, v), Ok(())));
            assert!(matches!(read_u32(&mut &buf[..]), Ok(got) if got == v));
        }
    }

    #[test]
    fn u64_round_trip() {
        let mut buf = Vec::new();
        for v in [0u64, 1, u32::MAX as u64 + 1, u64::MAX] {
            buf.clear();
            assert!(matches!(write_u64(&mut buf, v), Ok(())));
            assert!(matches!(read_u64(&mut &buf[..]), Ok(got) if got == v));
        }
        assert!(matches!(
            read_u64(&mut &[1u8, 2, 3][..]),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn u8_round_trip() {
        let mut buf = Vec::new();
        assert!(matches!(write_u8(&mut buf, 7), Ok(())));
        assert!(matches!(read_u8(&mut &buf[..]), Ok(7)));
    }

    #[test]
    fn strings_round_trip() {
        assert_eq!(round_trip_str(""), "");
        assert_eq!(round_trip_str("Bird"), "Bird");
        assert_eq!(
            round_trip_str("Amazing Flying Penguin ∀"),
            "Amazing Flying Penguin ∀"
        );
    }

    #[test]
    fn max_length_string_boundary() {
        // A string exactly at LEN_CAP round-trips; one byte over the
        // cap is rejected at decode time as Corrupt, not allocated.
        let max = "x".repeat(LEN_CAP);
        assert_eq!(round_trip_str(&max).len(), LEN_CAP);
        let mut buf = Vec::new();
        assert!(matches!(write_u32(&mut buf, LEN_CAP as u32 + 1), Ok(())));
        buf.resize(buf.len() + 8, b'x'); // body irrelevant: length gate fires first
        assert!(matches!(
            read_str(&mut &buf[..]),
            Err(PersistError::Corrupt(msg)) if msg.contains("sanity cap")
        ));
    }

    #[test]
    fn varint_round_trip_and_boundaries() {
        let mut buf = Vec::new();
        // Every 7-bit boundary, plus the extremes.
        let mut cases = vec![0u64, 1, u64::MAX];
        for shift in 1..10 {
            let edge = 1u64 << (7 * shift);
            cases.extend([edge - 1, edge]);
        }
        for v in cases {
            buf.clear();
            assert!(matches!(write_varint(&mut buf, v), Ok(())));
            assert!(
                matches!(read_varint(&mut &buf[..]), Ok(got) if got == v),
                "varint {v} must round-trip"
            );
        }
        // u64::MAX is the 10-byte ceiling.
        buf.clear();
        assert!(matches!(write_varint(&mut buf, u64::MAX), Ok(())));
        assert_eq!(buf.len(), 10);
    }

    #[test]
    fn varint_overflow_and_truncation_rejected() {
        // Ten continuation bytes and an eleventh byte: too long.
        let long = [0x80u8; 10];
        assert!(matches!(
            read_varint(&mut &long[..]),
            Err(PersistError::Corrupt(_))
        ));
        // Tenth byte carrying bits beyond the 64th: overflow.
        let mut over = vec![0xFFu8; 9];
        over.push(0x02);
        assert!(matches!(
            read_varint(&mut &over[..]),
            Err(PersistError::Corrupt(msg)) if msg.contains("overflows")
        ));
        // A dangling continuation bit with no next byte: short read.
        assert!(matches!(
            read_varint(&mut &[0x80u8][..]),
            Err(PersistError::Corrupt(_))
        ));
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

    #[test]
    fn short_reads_are_corrupt_not_panics() {
        assert!(matches!(
            read_u32(&mut &[1u8, 2][..]),
            Err(PersistError::Corrupt(_))
        ));
        // Length says 10 but only 2 bytes follow.
        let mut buf = Vec::new();
        assert!(matches!(write_u32(&mut buf, 10), Ok(())));
        buf.extend_from_slice(b"ab");
        assert!(matches!(
            read_str(&mut &buf[..]),
            Err(PersistError::Corrupt(msg)) if msg.contains("string body")
        ));
    }

    #[test]
    fn absurd_length_rejected() {
        let mut buf = Vec::new();
        assert!(matches!(write_u32(&mut buf, u32::MAX), Ok(())));
        assert!(matches!(
            read_str(&mut &buf[..]),
            Err(PersistError::Corrupt(msg)) if msg.contains("sanity cap")
        ));
    }

    /// The payload reader keeps the storage it is handed, and judges a
    /// length against the bytes left, not against [`LEN_CAP`].
    #[test]
    fn payload_strings_reuse_storage_and_are_bounded_by_what_is_left() {
        let mut buf = Vec::new();
        assert!(matches!(write_str(&mut buf, "Bird"), Ok(())));
        buf.push(0xAB);
        let mut r = &buf[..];
        let kept = String::with_capacity(16);
        let at = kept.as_ptr();
        let s = read_str_into(&mut r, kept).unwrap();
        assert_eq!((s.as_str(), s.as_ptr(), r), ("Bird", at, &[0xABu8][..]));

        for claimed in [5u32, LEN_CAP as u32, u32::MAX] {
            buf.clear();
            assert!(matches!(write_u32(&mut buf, claimed), Ok(())));
            buf.extend_from_slice(b"abcd");
            assert!(matches!(
                read_str_into(&mut &buf[..], String::new()),
                Err(PersistError::Corrupt(msg)) if msg.contains("4 byte(s) left")
            ));
        }
        buf.clear();
        assert!(matches!(write_u32(&mut buf, 2), Ok(())));
        buf.extend_from_slice(&[0xFF, 0xFE]);
        assert!(matches!(
            read_str_into(&mut &buf[..], String::new()),
            Err(PersistError::Corrupt(msg)) if msg.contains("UTF-8")
        ));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut buf = Vec::new();
        assert!(matches!(write_u32(&mut buf, 2), Ok(())));
        buf.extend_from_slice(&[0xFF, 0xFE]);
        assert!(matches!(
            read_str(&mut &buf[..]),
            Err(PersistError::Corrupt(msg)) if msg.contains("UTF-8")
        ));
    }
}
