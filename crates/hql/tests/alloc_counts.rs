//! A point read allocates its reply and the statement it parsed, and
//! nothing else, once warm; a one-tuple write allocates the paths it
//! copies and the world it publishes, and nothing else.
//!
//! `HOLDS`/`HOLDS3` is the read the serving tier answers most: §2.1's
//! lookup of one item's truth from its strongest binders. The answer is
//! one truth value, so the path from request text to reply —
//! lex → parse → route → snapshot → resolve → verdict → reply — builds
//! no token list, no binder list and no ancestor list. This binary
//! installs a counting global allocator that counts on the calling
//! thread only (tests in other threads do not disturb it) and pins the
//! exact count of one read through `ExecutorHandle::execute_read`, on an
//! `Engine` and on a 2-shard `Router<Engine>`, for a stored, an
//! inherited, an unspecified and a conflicted item, and for items with
//! 2 and 12 binding ancestors. What is left is the statement
//! (`Vec<Statement>`, the relation name, the value list, one name per
//! value), the rendered item and the reply vector.
//!
//! A write is pinned the same way: an `Assert`/`Retract` through
//! `Engine::apply_mutations` on an engine with one relation, no store
//! and no view allocates what copy-on-write copies and what publication
//! wraps, a fixed count per write.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hrdm_core::mutation::CatalogMutation;
use hrdm_core::prelude::Truth;
use hrdm_hql::{Engine, ExecutorHandle, ShardedEngine};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// counting touches only a const-initialised thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// How many times each read runs while counted.
const ROUNDS: u64 = 200;

/// Filler tuples, so that walking even the deep item's 12 ancestors
/// (12 × `PROBE_COST` = 96 probes) is cheaper than scanning the relation.
const FILLERS: usize = 200;

/// One relation over a domain with every shape a point read meets.
fn world() -> String {
    let mut script = String::from(
        "CREATE DOMAIN D;
         CREATE CLASS Pos UNDER D;
         CREATE CLASS Neg UNDER D;
         CREATE CLASS Other UNDER D;
         CREATE CLASS Filler UNDER D;
         CREATE INSTANCE stored OF Pos;
         CREATE INSTANCE inherits OF Pos;
         CREATE INSTANCE nothing OF Other;
         CREATE INSTANCE both OF Pos, Neg;
         CREATE INSTANCE shallow OF D;
         CREATE CLASS C1 UNDER D;",
    );
    for i in 2..=10 {
        script.push_str(&format!("CREATE CLASS C{i} UNDER C{};", i - 1));
    }
    script.push_str(
        "CREATE INSTANCE deep OF C10;
         CREATE RELATION R (x: D);
         ASSERT R (ALL Pos);
         ASSERT NOT R (ALL Neg);
         ASSERT NOT R (stored);
         ASSERT R (ALL C5);",
    );
    for i in 0..FILLERS {
        script.push_str(&format!("CREATE INSTANCE f{i} OF Filler; ASSERT R (f{i});"));
    }
    script
}

/// The reads, what each answers, and the allocations one costs. Before
/// tokens borrowed the script and a point read asked for a verdict
/// instead of its binders, the same reads cost 14 (stored), 20
/// (inherited), 16 (unspecified), 22 (conflicted), 23 and 15 (`HOLDS3`),
/// 16 (2 ancestors) and 21 (12 ancestors), on either backend.
const READS: [(&str, &str, u64); 8] = [
    ("HOLDS R (stored);", "stored: false", 6),
    ("HOLDS R (inherits);", "inherits: true", 6),
    ("HOLDS R (nothing);", "nothing: false", 6),
    ("HOLDS R (both);", "both: conflict", 6),
    ("HOLDS3 R (both);", "both: unknown", 6),
    ("HOLDS3 R (stored);", "stored: false", 6),
    ("HOLDS R (shallow);", "shallow: false", 6),
    ("HOLDS R (deep);", "deep: true", 6),
];

/// Allocations of one warm `execute_read(script)` on `handle`, checking
/// its reply.
fn per_read(handle: &dyn ExecutorHandle, script: &str, reply: &str) -> u64 {
    for _ in 0..3 {
        assert_eq!(handle.execute_read(script, 0).unwrap(), [reply]);
    }
    let before = ALLOCATIONS.with(Cell::get);
    for _ in 0..ROUNDS {
        let out = handle.execute_read(script, 0).unwrap();
        assert_eq!(out.len(), 1);
    }
    let total = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(total % ROUNDS, 0, "`{script}` allocated unevenly: {total}");
    total / ROUNDS
}

fn check(handle: &dyn ExecutorHandle, backend: &str) {
    let mut counts = Vec::new();
    for (script, reply, _) in READS {
        counts.push((script, per_read(handle, script, reply)));
    }
    eprintln!("{backend}: {counts:?}");
    for ((script, got), (_, _, pinned)) in counts.into_iter().zip(READS) {
        assert_eq!(got, pinned, "{backend}: `{script}` allocations");
    }
}

#[test]
fn the_read_items_have_the_shapes_they_are_named_for() {
    let engine = Engine::new();
    engine.execute(&world()).unwrap();
    let snapshot = engine.snapshot();
    let r = snapshot.relation("R").unwrap();
    let d = r.schema().domain(0);
    let ancestors = |name: &str| {
        let node = d.node(name).unwrap();
        d.binding_ancestors(node, usize::MAX).unwrap().len()
    };
    assert_eq!(ancestors("shallow"), 2);
    assert_eq!(ancestors("deep"), 12);
    assert_eq!(r.len(), FILLERS + 4);
    // The deep item's walk probes 12 combinations, well under the scan.
    assert!(12 * hrdm_core::relation::PROBE_COST < r.len());
}

#[test]
fn point_reads_on_an_engine_allocate_only_their_reply() {
    let engine = Engine::new();
    engine.execute(&world()).unwrap();
    check(&engine, "engine");
}

#[test]
fn point_reads_through_a_router_allocate_only_their_reply() {
    let router = ShardedEngine::new(2);
    router.execute(&world()).unwrap();
    check(&router, "router");
}

/// The allocations of one warm single-tuple write on an engine with one
/// relation, no store and no view: the relation map's one leaf (its
/// node and its entry vector) and the relation's header copied out of
/// the published world, the tuple map's leaf (node and vector) copied,
/// and the published world's `Arc`. While a write also published a net
/// delta it cost 10: 4 more for the delta's key, its map node, the row
/// vector of the diff and the delta's `Arc`.
const PER_WRITE: u64 = 6;

#[test]
fn a_one_tuple_write_allocates_only_what_it_copies_and_publishes() {
    let engine = Engine::new();
    engine
        .execute(
            "CREATE DOMAIN D; CREATE CLASS A UNDER D; CREATE INSTANCE x OF A;
             CREATE RELATION R (v: D); ASSERT R (ALL A);",
        )
        .unwrap();
    let pair = [
        CatalogMutation::Assert {
            relation: "R".into(),
            values: vec!["x".into()],
            truth: Truth::Negative,
        },
        CatalogMutation::Retract {
            relation: "R".into(),
            values: vec!["x".into()],
        },
    ];
    let write = |m: &CatalogMutation| engine.apply_mutations(None, |apply| apply(m)).unwrap();
    for _ in 0..3 {
        pair.iter().for_each(write);
    }
    let epoch = engine.epoch();
    let before = ALLOCATIONS.with(Cell::get);
    for _ in 0..ROUNDS {
        pair.iter().for_each(write);
    }
    let total = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(engine.epoch(), epoch + 2 * ROUNDS, "every write published");
    assert_eq!(engine.snapshot().relation("R").unwrap().len(), 1);
    assert_eq!(
        total % (2 * ROUNDS),
        0,
        "writes allocated unevenly: {total}"
    );
    assert_eq!(total / (2 * ROUNDS), PER_WRITE, "allocations per write");
}
