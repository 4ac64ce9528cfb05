//! Failure injection: decoding corrupted or truncated images and WAL
//! streams must return errors, never panic, and never fabricate a
//! world that the writer did not produce (when it does decode, the
//! result must be internally valid).

use std::sync::Arc;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use hrdm_core::derivation::{Derivation, Source, ValueRef};
use hrdm_core::mutation::CatalogMutation;
use hrdm_core::prelude::*;
use hrdm_hierarchy::HierarchyGraph;
use hrdm_persist::wal::{
    decode_into, decode_payload, encode_payload, write_header, write_record, RECORD_CAP,
};
use hrdm_persist::{Frame, Image, PersistError, WalReader, WalRecord};

fn sample_bytes() -> Vec<u8> {
    let mut g = HierarchyGraph::new("Animal");
    let bird = g.add_class("Bird", g.root()).unwrap();
    let penguin = g.add_class("Penguin", bird).unwrap();
    g.add_instance("Tweety", bird).unwrap();
    g.add_instance("Paul", penguin).unwrap();
    let dom = Arc::new(g);
    let schema = Arc::new(Schema::single("Creature", dom.clone()));
    let mut flies = HRelation::new(schema);
    flies.assert_fact(&["Bird"], Truth::Positive).unwrap();
    flies.assert_fact(&["Penguin"], Truth::Negative).unwrap();
    let mut image = Image::new();
    image.add_domain("Animal", dom);
    image.add_relation("Flies", flies);
    // A live view, so damage can land in the view table too.
    let mut catalog = image.into_catalog();
    catalog
        .apply_mutation(&CatalogMutation::DefineView {
            name: "Fliers".into(),
            derivation: Derivation::Consolidated(Source::named("Flies")),
        })
        .unwrap();
    Image::from_catalog(&catalog).to_bytes().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn truncation_never_panics(cut in 0usize..1000) {
        let bytes = sample_bytes();
        let cut = cut.min(bytes.len());
        let _ = Image::from_bytes(&bytes[..cut]); // must not panic
        if cut < bytes.len() {
            prop_assert!(Image::from_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn single_byte_flips_never_panic(pos in 0usize..1000, xor in 1u8..=255) {
        let mut bytes = sample_bytes();
        let pos = pos % bytes.len();
        bytes[pos] ^= xor;
        // Either a decode error, or a decodable image whose graphs are
        // still structurally valid (the flip hit a name byte or a truth
        // tag without breaking framing).
        if let Ok(image) = Image::from_bytes(&bytes) {
            for name in image.domain_names().map(String::from).collect::<Vec<_>>() {
                let g = image.domain(&name).unwrap();
                // Re-validate structural invariants.
                let violations = hrdm_hierarchy::validate::validate(g);
                prop_assert!(
                    violations
                        .iter()
                        .all(|v| !matches!(v, hrdm_hierarchy::validate::Violation::Cycle(_))),
                    "decoded graph has a cycle"
                );
            }
        }
    }

    #[test]
    fn random_garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = Image::from_bytes(&bytes); // must not panic
    }

    #[test]
    fn garbage_with_valid_magic_never_panics(
        tail in prop::collection::vec(any::<u8>(), 0..200)
    ) {
        let mut bytes = b"HRDM1\0\x04\x00\x00\x00".to_vec();
        bytes.extend(tail);
        let _ = Image::from_bytes(&bytes); // must not panic
    }
}

// ---------------------------------------------------------------------
// The exhaustive image sweep: every cut and every flip of one image
// that holds each kind of thing an image holds.

/// An image with a multi-parent instance, a preference edge, an
/// arity-2 relation, an empty relation, a non-ASCII name and a live
/// view.
fn sweep_sample() -> Vec<u8> {
    let mut g = HierarchyGraph::new("Animal");
    let bird = g.add_class("Bird", g.root()).unwrap();
    let penguin = g.add_class("Penguin", bird).unwrap();
    let emu = g.add_class("Émeu", bird).unwrap();
    g.add_instance("Tweety", bird).unwrap();
    g.add_instance_multi("Paul", &[penguin, emu]).unwrap();
    g.add_preference_edge(emu, penguin).unwrap();
    let animal = Arc::new(g);
    let mut c = HierarchyGraph::new("Color");
    c.add_instance("Grey", c.root()).unwrap();
    c.add_instance("White", c.root()).unwrap();
    let color = Arc::new(c);

    let mut flies = HRelation::new(Arc::new(Schema::single("Creature", animal.clone())));
    flies.assert_fact(&["Bird"], Truth::Positive).unwrap();
    flies.assert_fact(&["Penguin"], Truth::Negative).unwrap();
    flies.assert_fact(&["Paul"], Truth::Positive).unwrap();
    let mut colored = HRelation::new(Arc::new(Schema::new(vec![
        Attribute::new("Creature", animal.clone()),
        Attribute::new("Color", color.clone()),
    ])));
    colored
        .assert_fact(&["Bird", "Grey"], Truth::Positive)
        .unwrap();
    colored
        .assert_fact(&["Paul", "White"], Truth::Negative)
        .unwrap();
    let nests = HRelation::new(Arc::new(Schema::single("Creature", animal.clone())));

    let mut image = Image::new();
    image.add_domain("Animal", animal);
    image.add_domain("Color", color);
    image.add_relation("Flies", flies);
    image.add_relation("Colored", colored);
    image.add_relation("Nests", nests);
    let mut catalog = image.into_catalog();
    catalog
        .apply_mutation(&CatalogMutation::DefineView {
            name: "Fliers".into(),
            derivation: Derivation::Consolidated(Source::named("Flies")),
        })
        .unwrap();
    Image::from_catalog(&catalog).to_bytes().unwrap()
}

/// Decode `bytes` to a catalog and encode that catalog again.
fn reencoded(bytes: &[u8]) -> Result<Vec<u8>, PersistError> {
    let catalog = Image::from_bytes(bytes)?.into_catalog();
    Ok(Image::from_catalog(&catalog).to_bytes().unwrap())
}

/// Every proper prefix of an image is an error, and so is every single
/// byte flipped by 0x01, 0x80 or 0xFF — unless it decodes to a catalog
/// whose image is exactly the damaged bytes (a name's letter or a
/// tuple's truth changed into another valid one). An image has one
/// spelling, so nothing else can decode; nothing panics.
#[test]
fn every_cut_and_every_flip_of_an_image_is_refused_or_spells_its_catalog() {
    let bytes = sweep_sample();
    assert_eq!(reencoded(&bytes).unwrap(), bytes, "the sample round-trips");
    for cut in 0..bytes.len() {
        assert!(Image::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
    }
    let mut decoded = 0;
    for pos in 0..bytes.len() {
        for xor in [0x01u8, 0x80, 0xFF] {
            let mut damaged = bytes.clone();
            damaged[pos] ^= xor;
            if let Ok(again) = reencoded(&damaged) {
                assert_eq!(again, damaged, "flip {xor:#04x} at byte {pos}");
                decoded += 1;
            }
        }
    }
    assert!(decoded > 0, "some flips land on a name or a truth");
}

/// A count spelled as a full ten-byte varint is corrupt at once, before
/// the decoder allocates for it (`alloc_free` bounds the allocation).
#[test]
fn a_forged_ten_byte_count_is_corrupt() {
    let bytes = sweep_sample();
    for forged in [u64::MAX, 1 << 63, (1 << 63) | 5] {
        let mut varint = Vec::new();
        hrdm_persist::codec::write_varint(&mut varint, forged);
        assert_eq!(varint.len(), 10);
        // The domain count is the byte after magic and version.
        let mut image = bytes[..10].to_vec();
        image.extend_from_slice(&varint);
        image.extend_from_slice(&bytes[11..]);
        assert!(
            matches!(Image::from_bytes(&image), Err(PersistError::Corrupt(_))),
            "count {forged}"
        );
    }
}

// ---------------------------------------------------------------------
// WAL framing: the strict reader must answer every corruption with
// `PersistError::Corrupt` (or a header error), never a panic and never
// an `Io` error dressed up as data.

fn sample_wal_mutations() -> Vec<CatalogMutation> {
    vec![
        CatalogMutation::CreateDomain {
            name: "Animal".into(),
        },
        CatalogMutation::AddClass {
            domain: "Animal".into(),
            name: "Bird".into(),
            parents: vec!["Animal".into()],
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
        CatalogMutation::Retract {
            relation: "Flies".into(),
            values: vec!["Bird".into()],
        },
        CatalogMutation::DefineView {
            name: "Fliers".into(),
            derivation: Derivation::Project(
                Source::Derived(Box::new(Derivation::Select(
                    Source::named("Flies"),
                    vec![(
                        "Creature".into(),
                        ValueRef {
                            name: "Bird".into(),
                            all: true,
                        },
                    )],
                ))),
                vec!["Creature".into()],
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
            from: "Fliers".into(),
            to: "Birds".into(),
        },
    ]
}

/// A well-formed WAL stream plus the end offset of every frame.
fn sample_wal() -> (Vec<u8>, Vec<usize>) {
    let mut bytes = Vec::new();
    write_header(&mut bytes);
    let mut boundaries = vec![bytes.len()];
    write_record(&mut bytes, &WalRecord::Checkpoint { lsn: 5 });
    boundaries.push(bytes.len());
    for m in sample_wal_mutations() {
        write_record(&mut bytes, &WalRecord::Mutation(m));
        boundaries.push(bytes.len());
    }
    (bytes, boundaries)
}

/// Drain a WAL byte stream through the strict reader.
fn read_all(bytes: &[u8]) -> Result<Vec<WalRecord>, PersistError> {
    let mut reader = WalReader::new(bytes)?;
    let mut out = Vec::new();
    while let Some(record) = reader.next()? {
        out.push(record);
    }
    Ok(out)
}

/// What a kept record may hold before a decode: every kind the sample
/// log holds, one with more values than any of them, and the blank.
fn kept_seeds() -> Vec<CatalogMutation> {
    let mut seeds = sample_wal_mutations();
    seeds.push(CatalogMutation::Assert {
        relation: "Swims".into(),
        values: vec!["Fish".into(), "Sea".into()],
        truth: Truth::Negative,
    });
    seeds.push(CatalogMutation::default());
    seeds
}

/// A frame as an owned record, given the record it was decoded into.
fn owned(frame: Frame, decoded: &CatalogMutation) -> WalRecord {
    match frame {
        Frame::Checkpoint { lsn } => WalRecord::Checkpoint { lsn },
        Frame::Mutation => WalRecord::Mutation(decoded.clone()),
    }
}

/// Replay `bytes` the way recovery does — decoding into one record kept
/// from frame to frame, which holds `seed` to begin with — and report
/// what was applied (a record is applied only when the reader says it
/// decoded) and how the replay ended.
fn replay_into(bytes: &[u8], seed: CatalogMutation) -> (Vec<WalRecord>, Result<(), String>) {
    let mut applied = Vec::new();
    let mut reader = match WalReader::new(bytes) {
        Ok(reader) => reader,
        Err(e) => return (applied, Err(e.to_string())),
    };
    let mut record = seed;
    loop {
        match reader.next_into(&mut record) {
            Ok(None) => return (applied, Ok(())),
            Ok(Some(frame)) => applied.push(owned(frame, &record)),
            Err(e) => return (applied, Err(PersistError::from(e).to_string())),
        }
    }
}

/// The same replay through fresh owned records.
fn replay_fresh(bytes: &[u8]) -> (Vec<WalRecord>, Result<(), String>) {
    let mut applied = Vec::new();
    let mut reader = match WalReader::new(bytes) {
        Ok(reader) => reader,
        Err(e) => return (applied, Err(e.to_string())),
    };
    loop {
        match reader.next() {
            Ok(None) => return (applied, Ok(())),
            Ok(Some(record)) => applied.push(record),
            Err(e) => return (applied, Err(e.to_string())),
        }
    }
}

/// Decoding into a kept record, whatever it held, applies exactly what a
/// fresh decode does and fails exactly where and how it fails: a failed
/// decode is never applied.
fn assert_kept_parity(bytes: &[u8]) -> Result<(), TestCaseError> {
    let fresh = replay_fresh(bytes);
    for seed in kept_seeds() {
        let kept = replay_into(bytes, seed.clone());
        prop_assert_eq!(&kept, &fresh, "kept record seeded with {}", seed);
    }
    Ok(())
}

/// Every proper prefix of each sample record's payload, and every
/// single byte of it flipped every way, is refused by `decode_into` or
/// decodes to a record whose payload is exactly the damaged bytes (a
/// name's letter or a truth changed into another valid one): a record
/// has one spelling, as an image has. Nothing panics.
#[test]
fn every_cut_and_every_flip_of_a_record_is_refused_or_spells_its_record() {
    let spells = |bytes: &[u8], case: &str| -> bool {
        let mut kept = CatalogMutation::default();
        match decode_into(bytes, &mut kept) {
            Ok(frame) => {
                assert_eq!(encode_payload(&owned(frame, &kept)), bytes, "{case}");
                true
            }
            Err(_) => false,
        }
    };
    let mut decoded = 0;
    for m in sample_wal_mutations() {
        let payload = encode_payload(&WalRecord::Mutation(m.clone()));
        assert!(spells(&payload, "intact"), "{m} decodes");
        for cut in 0..payload.len() {
            assert!(!spells(&payload[..cut], &format!("{m} cut at {cut}")));
        }
        for pos in 0..payload.len() {
            for xor in 1..=255u8 {
                let mut damaged = payload.clone();
                damaged[pos] ^= xor;
                decoded += usize::from(spells(&damaged, &format!("{m}: {xor:#04x} at {pos}")));
            }
        }
    }
    assert!(decoded > 0, "some flips land on a name or a truth");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn wal_truncated_tail_is_corrupt(cut in 0usize..1000) {
        let (bytes, boundaries) = sample_wal();
        let cut = cut.min(bytes.len());
        assert_kept_parity(&bytes[..cut])?;
        match read_all(&bytes[..cut]) {
            // EOF exactly on a frame boundary is a clean (shorter) log.
            Ok(records) => {
                let idx = boundaries.iter().position(|&b| b == cut);
                prop_assert!(idx.is_some(), "cut {cut} decoded but is mid-frame");
                prop_assert_eq!(records.len(), idx.unwrap());
            }
            // Anywhere else the tail is torn.
            Err(PersistError::Corrupt(_)) | Err(PersistError::BadMagic) => {
                prop_assert!(!boundaries.contains(&cut));
            }
            Err(e) => prop_assert!(false, "unexpected error class: {e}"),
        }
    }

    #[test]
    fn wal_bit_flips_are_corrupt_never_panic(pos in 0usize..1000, xor in 1u8..=255) {
        let (mut bytes, _) = sample_wal();
        let pos = pos % bytes.len();
        bytes[pos] ^= xor;
        assert_kept_parity(&bytes)?;
        match read_all(&bytes) {
            // CRC-32 catches every single-byte corruption inside a
            // payload; flips in framing fields surface as Corrupt or a
            // header error. An `Io` error would mean the reader leaked
            // an internal failure.
            Err(PersistError::Io(e)) => prop_assert!(false, "io error leaked: {e}"),
            Err(_) => {}
            // A flip that still decodes must have hit a frame we then
            // stopped before (impossible here: all bytes are framed).
            Ok(_) => prop_assert!(false, "single-byte flip at {pos} went undetected"),
        }
    }

    #[test]
    fn wal_oversized_length_prefix_is_corrupt(oversize in 1u64..1_000_000) {
        let mut bytes = Vec::new();
        write_header(&mut bytes);
        // A frame claiming a payload beyond RECORD_CAP must be rejected
        // before any allocation of that size.
        let mut v = RECORD_CAP as u64 + oversize;
        while v >= 0x80 {
            bytes.push((v as u8 & 0x7F) | 0x80);
            v >>= 7;
        }
        bytes.push(v as u8);
        bytes.extend_from_slice(&[0u8; 4]); // crc placeholder
        let err = read_all(&bytes).unwrap_err();
        prop_assert!(
            matches!(err, PersistError::Corrupt(ref msg) if msg.contains("cap")),
            "expected length-cap rejection, got {err}"
        );
    }

    #[test]
    fn wal_duplicate_checkpoint_is_corrupt(lsn in any::<u64>(), at in 0usize..6) {
        let mut bytes = Vec::new();
        write_header(&mut bytes);
        write_record(&mut bytes, &WalRecord::Checkpoint { lsn });
        let muts = sample_wal_mutations();
        let at = at.min(muts.len());
        for m in &muts[..at] {
            write_record(&mut bytes, &WalRecord::Mutation(m.clone()));
        }
        // A second checkpoint record — wherever it lands — is corrupt:
        // checkpoints truncate the log, they never appear mid-stream.
        write_record(&mut bytes, &WalRecord::Checkpoint { lsn: lsn ^ 1 });
        for m in &muts[at..] {
            write_record(&mut bytes, &WalRecord::Mutation(m.clone()));
        }
        let err = read_all(&bytes).unwrap_err();
        prop_assert!(
            matches!(err, PersistError::Corrupt(ref msg) if msg.contains("duplicate checkpoint")),
            "expected duplicate-checkpoint rejection, got {err}"
        );
    }

    #[test]
    fn wal_garbage_after_header_never_panics(
        tail in prop::collection::vec(any::<u8>(), 0..300)
    ) {
        let mut bytes = Vec::new();
        write_header(&mut bytes);
        bytes.extend(tail);
        assert_kept_parity(&bytes)?;
        // Anything but a leaked Io error is fine, as long as it didn't panic.
        if let Err(PersistError::Io(e)) = read_all(&bytes) {
            prop_assert!(false, "io error leaked: {e}");
        }
    }

    #[test]
    fn wal_random_garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = read_all(&bytes); // must not panic
        assert_kept_parity(&bytes)?;
    }

    /// One payload — intact, damaged (a byte flipped, the end cut off,
    /// or both), or garbage behind a tag: decoded into a kept record it
    /// is what a fresh decode makes of it, success or error.
    #[test]
    fn damaged_payloads_decode_alike_into_a_kept_record(
        sample in 0usize..9,
        pos in 0usize..64,
        xor in 0u8..=255,
        cut in 0usize..64,
        tag in 0u8..16,
        garbage in prop::collection::vec(any::<u8>(), 0..48),
    ) {
        let intact =
            encode_payload(&WalRecord::Mutation(sample_wal_mutations()[sample].clone()));
        let mut damaged = intact.clone();
        let at = pos % damaged.len();
        damaged[at] ^= xor;
        damaged.truncate(damaged.len() - cut.min(damaged.len()));
        let mut tagged = vec![tag];
        tagged.extend(garbage);
        for payload in [intact, damaged, tagged] {
            let fresh = decode_payload(&payload).map_err(|e| e.to_string());
            for seed in kept_seeds() {
                let mut kept = seed.clone();
                let got = decode_into(&payload, &mut kept)
                    .map(|frame| owned(frame, &kept))
                    .map_err(|e| e.to_string());
                prop_assert_eq!(&got, &fresh, "kept record seeded with {}", seed);
            }
        }
    }
}
