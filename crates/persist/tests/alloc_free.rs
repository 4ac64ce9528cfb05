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
//!   mutation, no fresh payload buffer.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use hrdm_core::prelude::*;
use hrdm_hierarchy::HierarchyGraph;
use hrdm_persist::WalFile;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// counting touches only a const-initialised thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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

#[test]
fn paired_tuple_mutations_on_an_owned_catalog_allocate_nothing() {
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
    std::fs::remove_dir_all(&dir).unwrap();
}
