//! The per-record steps of a write, a replay and a replica's catch-up
//! allocate nothing once warm.
//!
//! A tuple mutation is §3.1's unit of change: a restart applies it once
//! per logged record and a replica once per shipped one, so each step
//! below runs thousands of times per operation. This binary installs a
//! counting global allocator that counts on the calling thread only
//! (tests in other threads do not disturb it) and holds each step to
//! zero allocations in steady state:
//!
//! * `HierarchyGraph::node(&str)` — a name probe builds no `NodeName`;
//! * `Schema::item` up to arity four — no name vector, no component
//!   vector (and, as the counter's own check, arity five does allocate);
//! * `Catalog::apply_mutation` of paired `Assert`/`Retract` records on a
//!   catalog that holds its relation alone, whose leaf never empties;
//! * `WalFile::append` after its first record — no clone of the
//!   mutation, no fresh payload buffer — whether it only buffers the
//!   record, wakes the syncer thread or waits for an `fdatasync`;
//! * recovery's step: `WalReader::next_into` over a real log, decoding
//!   into the one record replay keeps, then `Catalog::apply_mutation`;
//! * a `WalTailer` delivery whose records are applied as they are
//!   read: a delivery of 2 000 records allocates what a delivery of 2
//!   does;
//! * `recover` of a log, whose replay runs on the calling thread:
//!   recovering 2 048 records allocates no more than recovering 1 024.
//!
//! The same allocator records the largest single allocation, which
//! holds a checkpoint's claimed length to what its file bears out.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use hrdm_core::prelude::*;
use hrdm_hierarchy::HierarchyGraph;
use hrdm_persist::codec::{write_u32, write_u64, write_varint};
use hrdm_persist::store::{checkpoint_path, wal_path, write_checkpoint};
use hrdm_persist::{recover, Frame, Image, PersistError, WalFile, WalReader, WalTailer};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn count(size: usize) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// counting touches only const-initialised thread-local `Cell`s.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (and reallocations) `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// What `f` returns, and the largest single allocation it made on this
/// thread.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// How many times each step runs while counted.
const ROUNDS: usize = 1000;

fn domain(root: &str, members: &[&str]) -> HierarchyGraph {
    let mut g = HierarchyGraph::new(root);
    let class = g.add_class(format!("{root}Class"), g.root()).unwrap();
    for m in members {
        g.add_instance(*m, class).unwrap();
    }
    g
}

#[test]
fn node_lookup_by_name_allocates_nothing() {
    let g = domain("Animal", &["Tweety", "Paul", "Opus"]);
    let tweety = g.node("Tweety").unwrap();
    let n = allocations(|| {
        for _ in 0..ROUNDS {
            assert_eq!(g.node("Tweety").unwrap(), tweety);
            assert_eq!(g.node("AnimalClass").unwrap().index(), 1);
        }
    });
    assert_eq!(n, 0, "HierarchyGraph::node allocated");
}

#[test]
fn item_resolution_allocates_nothing_up_to_arity_four() {
    let attributes: Vec<Attribute> = ["A", "B", "C", "D", "E"]
        .iter()
        .map(|&d| Attribute::new(d, Arc::new(domain(d, &["x", "y"]))))
        .collect();
    let four = Schema::new(attributes[..4].to_vec());
    let five = Schema::new(attributes);
    let borrowed = ["x", "y", "CClass", "x"];
    let owned: Vec<String> = borrowed.iter().map(|s| s.to_string()).collect();
    let expected = four.item(&borrowed).unwrap();
    let n = allocations(|| {
        for _ in 0..ROUNDS {
            assert_eq!(four.item(&borrowed).unwrap(), expected);
            assert_eq!(four.item(&owned).unwrap(), expected);
            assert_eq!(four.item(&owned[..2]).unwrap_err().kind(), "arity");
        }
    });
    assert_eq!(n, 0, "Schema::item allocated");
    // The counter sees what does allocate: a fifth component moves the
    // item to the heap.
    let wide = allocations(|| {
        five.item(&["x", "x", "x", "x", "x"]).unwrap();
    });
    assert!(wide > 0, "an arity-5 item is heap-backed");
}

/// A catalog holding relation `R` alone, and an `Assert`/`Retract` pair
/// of one item in it that can be applied over and over.
fn owned_catalog_and_pair() -> (Catalog, CatalogMutation, CatalogMutation) {
    use CatalogMutation::*;
    let mut catalog = Catalog::new();
    let setup = [
        CreateDomain { name: "D".into() },
        AddClass {
            domain: "D".into(),
            name: "A".into(),
            parents: vec!["D".into()],
        },
        AddInstance {
            domain: "D".into(),
            name: "x".into(),
            parents: vec!["A".into()],
        },
        CreateRelation {
            name: "R".into(),
            attributes: vec![("V".into(), "D".into())],
        },
        // Keeps the tuple map's leaf from ever emptying.
        Assert {
            relation: "R".into(),
            values: vec!["A".into()],
            truth: Truth::Positive,
        },
    ];
    for m in &setup {
        catalog.apply_mutation(m).unwrap();
    }
    let assert = Assert {
        relation: "R".into(),
        values: vec!["x".into()],
        truth: Truth::Negative,
    };
    let retract = Retract {
        relation: "R".into(),
        values: vec!["x".into()],
    };
    (catalog, assert, retract)
}

#[test]
fn paired_tuple_mutations_on_an_owned_catalog_allocate_nothing() {
    let (mut catalog, assert, retract) = owned_catalog_and_pair();
    let x = catalog.relation("R").unwrap().item(&["x"]).unwrap();
    let mut round = || {
        assert_eq!(catalog.apply_mutation(&assert), Ok(Some(x.clone())));
        assert_eq!(catalog.apply_mutation(&retract), Ok(Some(x.clone())));
    };
    round();
    let n = allocations(|| (0..ROUNDS).for_each(|_| round()));
    assert_eq!(n, 0, "Catalog::apply_mutation allocated");
    assert_eq!(catalog.relation("R").unwrap().len(), 1);
}

#[test]
fn wal_append_allocates_nothing_after_its_first_record() {
    let dir = std::env::temp_dir().join(format!("hrdm_alloc_free_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let assert = CatalogMutation::Assert {
        relation: "Flies".into(),
        values: vec!["Tweety".into(), "Sky".into()],
        truth: Truth::Positive,
    };
    let retract = CatalogMutation::Retract {
        relation: "Flies".into(),
        values: vec!["Tweety".into(), "Sky".into()],
    };
    // A group wider than the run: no fsync falls due while counting.
    let mut wal = WalFile::create(dir.join("wal-test.log"), 0, usize::MAX).unwrap();
    wal.append(&assert).unwrap();
    let n = allocations(|| {
        for _ in 0..ROUNDS {
            wal.append(&retract).unwrap();
            wal.append(&assert).unwrap();
        }
    });
    assert_eq!(n, 0, "WalFile::append allocated");
    assert_eq!(wal.appended(), 1 + 2 * ROUNDS as u64);
    drop(wal);

    // Groups that fall due. A new file hands its first half group to
    // the syncer thread and wakes it (no sync has been timed yet), and
    // at `SYNC EVERY 1024` a half group takes this writer longer than a
    // sync, so it goes on doing so. At the narrower groups a sync takes
    // longer than a whole group, so the writer waits at each group and
    // syncs it on its own thread — at `SYNC EVERY 1` every append does.
    let waits = hrdm_obs::metrics::histogram("wal.sync_wait");
    let waited = waits.count();
    for group in [1024, 8, 2, 1] {
        let mut wal = WalFile::create(dir.join(format!("wal-{group}.log")), 0, group).unwrap();
        wal.append(&assert).unwrap();
        let n = allocations(|| {
            for _ in 0..ROUNDS {
                wal.append(&retract).unwrap();
                wal.append(&assert).unwrap();
            }
        });
        assert_eq!(n, 0, "WalFile::append allocated at SYNC EVERY {group}");
        assert!(wal.appended() - wal.durable() < group as u64);
        if group == 1 {
            assert_eq!(wal.durable(), wal.appended());
        }
    }
    assert!(waits.count() > waited, "no append waited for a sync");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A fresh temporary directory for one test.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hrdm_alloc_free_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Append `pairs` `Assert`/`Retract` pairs to a fresh log at `path`.
fn write_pairs(path: &Path, pairs: usize, assert: &CatalogMutation, retract: &CatalogMutation) {
    let mut wal = WalFile::create(path, 0, usize::MAX).unwrap();
    for _ in 0..pairs {
        wal.append(assert).unwrap();
        wal.append(retract).unwrap();
    }
    wal.sync().unwrap();
}

#[test]
fn replaying_a_log_into_the_kept_record_allocates_nothing() {
    let dir = temp_dir("replay");
    let path = dir.join("wal-test.log");
    let (mut catalog, assert, retract) = owned_catalog_and_pair();
    write_pairs(&path, 1 + ROUNDS, &assert, &retract);

    let mut reader = WalReader::new(BufReader::new(File::open(&path).unwrap())).unwrap();
    let mut record = CatalogMutation::default();
    assert_eq!(
        reader.next_into(&mut record).unwrap(),
        Some(Frame::Checkpoint { lsn: 0 })
    );
    let mut step = || {
        assert_eq!(
            reader.next_into(&mut record).unwrap(),
            Some(Frame::Mutation)
        );
        catalog.apply_mutation(&record).unwrap();
    };
    step();
    step();
    let n = allocations(|| (0..2 * ROUNDS).for_each(|_| step()));
    assert_eq!(n, 0, "a replayed record allocated");
    assert_eq!(reader.next_into(&mut record).unwrap(), None);
    assert_eq!(record, retract);
    assert_eq!(catalog.relation("R").unwrap().len(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_tailer_delivery_and_its_application_allocate_nothing_per_record() {
    let dir = temp_dir("tail");
    let (mut catalog, assert, retract) = owned_catalog_and_pair();
    write_checkpoint(&dir, 0, &Image::from_catalog(&catalog)).unwrap();
    // The first pair, then a warming delivery, a short and a long one.
    write_pairs(&wal_path(&dir, 0), 2 + 2 * ROUNDS, &assert, &retract);

    let mut tailer = WalTailer::attach(&dir);
    // Deliver up to `max` records and apply each as it is read, as a
    // replica's sync does.
    let mut catch_up = |max: usize| {
        let taken = tailer
            .deliver::<PersistError>(max, |_, records| {
                records(&mut |m| {
                    catalog.apply_mutation(m).unwrap();
                    Ok(())
                })
            })
            .unwrap()
            .unwrap();
        (tailer.shipped_lsn(), taken)
    };
    assert_eq!(catch_up(2), (2, Some(2)), "the rollover and the first pair");
    catch_up(2 * ROUNDS);
    let mut delivered = (0, None);
    let short = allocations(|| delivered = catch_up(2));
    assert_eq!(delivered, (4 + 2 * ROUNDS as u64, Some(2)));
    let long = allocations(|| delivered = catch_up(2 * ROUNDS));
    assert_eq!(delivered, (4 + 4 * ROUNDS as u64, Some(2 * ROUNDS as u64)));
    assert_eq!(
        long,
        short,
        "a delivery of {} records allocated more than a delivery of 2",
        2 * ROUNDS
    );
    assert_eq!(catalog.relation("R").unwrap().len(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Recovery reads, decodes and applies every record on the calling
/// thread, into the one record replay keeps, so the counter sees the
/// whole replay: recovering 2 048 records allocates no more than
/// recovering 1 024.
#[test]
fn recovering_2048_records_allocates_no_more_than_1024() {
    let (catalog, assert, retract) = owned_catalog_and_pair();
    let mut counts = Vec::new();
    for records in [1_024, 2_048] {
        let dir = temp_dir(&format!("recover_{records}"));
        write_checkpoint(&dir, 0, &Image::from_catalog(&catalog)).unwrap();
        write_pairs(&wal_path(&dir, 0), records / 2, &assert, &retract);
        let mut recovered = None;
        counts.push(allocations(|| recovered = Some(recover(&dir).unwrap())));
        let recovered = recovered.unwrap();
        assert_eq!(recovered.report.records_replayed, records as u64);
        assert_eq!(recovered.catalog.render_stable(), catalog.render_stable());
        std::fs::remove_dir_all(&dir).unwrap();
    }
    assert!(
        counts[1] <= counts[0],
        "recovering 2 048 records allocated {} times, 1 024 records {}",
        counts[1],
        counts[0]
    );
}

/// A checkpoint whose header claims a payload its file does not hold is
/// skipped without allocating the claim: recovery falls back to the
/// previous generation, and no allocation is larger than the forged
/// file.
#[test]
fn a_forged_checkpoint_length_is_refused_before_it_is_allocated() {
    let dir = temp_dir("forged");
    let (catalog, _, _) = owned_catalog_and_pair();
    write_checkpoint(&dir, 5, &Image::from_catalog(&catalog)).unwrap();
    let mut forged = Vec::new();
    forged.extend_from_slice(hrdm_persist::store::CHECKPOINT_MAGIC);
    write_u64(&mut forged, 9).unwrap();
    write_varint(&mut forged, (1 << 30) - 1).unwrap();
    write_u32(&mut forged, 0).unwrap();
    forged.resize(forged.len() + (64 << 10), 0x5A);
    std::fs::write(checkpoint_path(&dir, 9), &forged).unwrap();

    let (recovered, largest) = largest_allocation(|| recover(&dir).unwrap());
    assert_eq!(recovered.report.checkpoint_lsn, 5);
    assert_eq!(recovered.report.checkpoints_skipped, 1);
    assert_eq!(recovered.catalog.render_stable(), catalog.render_stable());
    assert!(
        largest <= forged.len(),
        "recovery allocated {largest} bytes at once for a {}-byte file",
        forged.len()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// An image whose domain count is forged — a full ten-byte varint, or
/// a count under the cap that the bytes left cannot hold — is corrupt
/// before the decoder allocates for the domains it claims: no single
/// allocation is larger than an error message.
#[test]
fn a_forged_image_count_is_refused_before_it_is_allocated() {
    let (catalog, _, _) = owned_catalog_and_pair();
    let bytes = Image::from_catalog(&catalog).to_bytes().unwrap();
    for forged in [u64::MAX, 1 << 63, (1 << 24) - 1] {
        // Magic (6 bytes) and version (4), then the one-byte count.
        let mut image = bytes[..10].to_vec();
        write_varint(&mut image, forged).unwrap();
        image.extend_from_slice(&bytes[11..]);
        let (decoded, largest) = largest_allocation(|| Image::from_bytes(&image));
        assert!(
            matches!(decoded, Err(PersistError::Corrupt(_))),
            "count {forged}: {decoded:?}"
        );
        assert!(
            largest <= 256,
            "count {forged}: allocated {largest} bytes at once"
        );
    }
}
