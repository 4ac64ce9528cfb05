//! `PMap` against `BTreeMap` as the model: random edit histories must
//! leave the two indistinguishable through the map's public surface, a
//! retained clone must never see a later edit, an edit must copy no
//! more than one root-to-leaf path, and `PMap::diff` between any two
//! versions must report exactly the models' difference.
//!
//! Every history runs on three key types: `Item`, the key `HRelation`
//! stores, whose head tells its keys apart; a key whose head is
//! deliberately coarse; and names sharing a prefix longer than a head,
//! looked up through `&str` as `Catalog` does. On the last two most
//! node searches meet equal heads and compare whole keys. The `Head`
//! contract itself is a property of its own.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::sync::Arc;

use hrdm_core::item::Item;
use hrdm_core::pmap::{Head, PMap, FANOUT};
use hrdm_hierarchy::NodeId;
use proptest::prelude::*;

/// What a key is drawn from: a space small enough that histories
/// collide (overwrites, removals of present keys) as often as they miss.
type Pair = (u16, u16);

/// A key type the histories run on.
trait Key: Ord + Clone + Head + Debug {
    fn from_pair(pair: Pair) -> Self;

    /// Look this key up the way a caller holding it does.
    fn get_in<'m>(&self, map: &'m PMap<Self, u32>) -> Option<&'m u32> {
        map.get(self)
    }
}

fn n(i: u32) -> NodeId {
    NodeId::from_index(i as usize)
}

/// Keys the way `HRelation` keys them: two components, both in the head.
impl Key for Item {
    fn from_pair((a, b): Pair) -> Item {
        Item::new(vec![n(a.into()), n(b.into())])
    }
}

/// A key whose head is its first element only: a dozen keys of the
/// drawn space share each head, so a search mostly breaks ties by
/// comparing whole keys.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Coarse(Vec<u16>);

impl Head for Coarse {
    fn head(&self) -> u64 {
        self.0.first().map_or(0, |&a| a.into())
    }
}

impl Key for Coarse {
    fn from_pair((a, b): Pair) -> Coarse {
        Coarse(vec![a, b])
    }
}

/// Names the way `Catalog` keys them, all sharing a prefix longer than
/// 8 bytes, so every head ties; looked up through the borrowed `str`.
impl Key for Arc<str> {
    fn from_pair((a, b): Pair) -> Arc<str> {
        format!("relation_{a:02}_{b:02}").into()
    }

    fn get_in<'m>(&self, map: &'m PMap<Self, u32>) -> Option<&'m u32> {
        map.get(&**self)
    }
}

#[derive(Clone, Debug)]
enum Op {
    Insert(Pair, u32),
    Remove(Pair),
    /// `get_mut` and bump the value, if present.
    Bump(Pair),
    /// Retain a clone of the map (and of the model) as it stands.
    Pin,
}

fn arb_pair() -> impl Strategy<Value = Pair> {
    (0u16..40, 0u16..12)
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (arb_pair(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
        (arb_pair(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
        arb_pair().prop_map(Op::Remove),
        arb_pair().prop_map(Op::Bump),
        Just(Op::Pin),
    ]
}

/// Apply one edit to the map and to its model; returns whether the two
/// answered alike.
fn apply<K: Key>(op: &Op, map: &mut PMap<K, u32>, model: &mut BTreeMap<K, u32>) -> bool {
    match *op {
        Op::Insert(k, v) => map.insert(K::from_pair(k), v) == model.insert(K::from_pair(k), v),
        Op::Remove(k) => map.remove(&K::from_pair(k)) == model.remove(&K::from_pair(k)),
        Op::Bump(k) => {
            let k = K::from_pair(k);
            match (map.get_mut(&k), model.get_mut(&k)) {
                (Some(a), Some(b)) => {
                    *a = a.wrapping_add(1);
                    *b = b.wrapping_add(1);
                    true
                }
                (a, b) => a.is_none() && b.is_none(),
            }
        }
        Op::Pin => true,
    }
}

fn assert_same<K: Key>(map: &PMap<K, u32>, model: &BTreeMap<K, u32>) {
    map.check_invariants();
    assert_eq!(map.len(), model.len());
    assert_eq!(map.is_empty(), model.is_empty());
    assert!(
        map.iter().eq(model.iter()),
        "iteration order or contents differ:\n{map:?}\n{model:?}"
    );
    assert!(map.keys().eq(model.keys()));
    assert!(map.values().eq(model.values()));
}

/// Every step of a history agrees with the model, and so does every
/// clone retained along the way — still, after all the edits that
/// followed it.
fn run_history<K: Key>(ops: &[Op]) {
    let mut map: PMap<K, u32> = PMap::new();
    let mut model: BTreeMap<K, u32> = BTreeMap::new();
    let mut pinned: Vec<(PMap<K, u32>, BTreeMap<K, u32>)> = Vec::new();
    for op in ops {
        assert!(
            apply(op, &mut map, &mut model),
            "{op:?} answered differently"
        );
        if let Op::Pin = op {
            pinned.push((map.clone(), model.clone()));
        }
        assert_same(&map, &model);
        for probe in [(0, 0), (17, 3), (39, 11)].map(K::from_pair) {
            assert_eq!(probe.get_in(&map), model.get(&probe));
            assert_eq!(map.contains_key(&probe), model.contains_key(&probe));
        }
    }
    for (map, model) in &pinned {
        assert_same(map, model);
    }
}

/// The bulk constructor is n inserts: for sorted input (its one-pass
/// case), for shuffled input, and for input with repeated keys, where —
/// like `BTreeMap`'s — the last value given wins.
fn bulk_build<K: Key>(pairs: &[(Pair, u32)]) {
    let entries: Vec<(K, u32)> = pairs.iter().map(|&(k, v)| (K::from_pair(k), v)).collect();
    let mut by_insert: PMap<K, u32> = PMap::new();
    for (k, v) in &entries {
        by_insert.insert(k.clone(), *v);
    }
    let model: BTreeMap<K, u32> = entries.iter().cloned().collect();
    let unsorted: PMap<K, u32> = entries.iter().cloned().collect();
    let sorted: PMap<K, u32> = model.clone().into_iter().collect();
    for map in [&by_insert, &unsorted, &sorted] {
        assert_same(map, &model);
    }
    // A bulk-built map is as editable as any other.
    let mut edited = sorted.clone();
    let mut edited_model = model.clone();
    for (k, _) in entries.iter().step_by(3) {
        assert_eq!(edited.remove(k), edited_model.remove(k));
    }
    let outside = K::from_pair((99, 99));
    edited.insert(outside.clone(), 7);
    edited_model.insert(outside, 7);
    assert_same(&edited, &edited_model);
    assert_same(&sorted, &model);
}

/// Structural sharing, as a bound: after `clone` and one edit the
/// edited map has copied at most `depth` nodes of the original (one
/// root-to-leaf path; whatever else it holds alone are the siblings and
/// root its splits created) — also when the key it went looking for was
/// not there.
fn edit_one_path<K: Key>(size: usize, key: Pair, wide: u16) {
    let base: PMap<K, u32> = (0..size)
        .map(|i| (K::from_pair(((i / 12) as u16, (i % 12) as u16)), i as u32))
        .collect();
    let depth = base.depth();
    assert!(depth <= 2 + size.ilog(FANOUT / 2) as usize);
    let nodes = |m: &PMap<K, u32>| m.nodes_not_shared_with(&PMap::new());
    let wide_key = K::from_pair((wide, wide));

    let mut inserted = base.clone();
    assert!(inserted.ptr_eq(&base));
    assert_eq!(inserted.nodes_not_shared_with(&base), 0);
    inserted.insert(wide_key.clone(), 1);
    inserted.check_invariants();
    let created = nodes(&inserted) - nodes(&base);
    assert!(created <= depth + 1);
    assert!(inserted.nodes_not_shared_with(&base) <= depth + created);
    assert!(base.nodes_not_shared_with(&inserted) <= depth);

    let mut removed = base.clone();
    removed.remove(&K::from_pair(key));
    removed.check_invariants();
    assert!(removed.nodes_not_shared_with(&base) <= depth);
    assert!(base.nodes_not_shared_with(&removed) <= depth);

    let mut probed = base.clone();
    probed.get_mut(&wide_key);
    assert!(probed.nodes_not_shared_with(&base) <= depth);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn histories_match_the_model(ops in proptest::collection::vec(arb_op(), 1..600)) {
        run_history::<Item>(&ops);
        run_history::<Coarse>(&ops);
        run_history::<Arc<str>>(&ops);
    }

    #[test]
    fn bulk_build_equals_inserts(
        entries in proptest::collection::vec((arb_pair(), any::<u32>()), 0..700),
    ) {
        bulk_build::<Item>(&entries);
        bulk_build::<Coarse>(&entries);
        bulk_build::<Arc<str>>(&entries);
    }

    #[test]
    fn an_edit_copies_at_most_one_path(
        size in 1usize..2500,
        key in arb_pair(),
        wide in any::<u16>(),
    ) {
        edit_one_path::<Item>(size, key, wide);
        edit_one_path::<Coarse>(size, key, wide);
        edit_one_path::<Arc<str>>(size, key, wide);
    }
}

/// A key's values on each side of a difference.
type Change<K> = (K, Option<u32>, Option<u32>);

/// What `PMap::diff(before, after)` reports, collected.
fn diff_of<K: Key>(before: &PMap<K, u32>, after: &PMap<K, u32>) -> Vec<Change<K>> {
    let mut out = Vec::new();
    PMap::diff(before, after, |k, a, b| {
        out.push((k.clone(), a.copied(), b.copied()))
    });
    out
}

/// The two models' difference, in ascending key order: every key stored
/// on either side whose values are not equal.
fn model_diff<K: Key>(before: &BTreeMap<K, u32>, after: &BTreeMap<K, u32>) -> Vec<Change<K>> {
    let mut keys: Vec<&K> = before.keys().chain(after.keys()).collect();
    keys.sort();
    keys.dedup();
    keys.into_iter()
        .map(|k| (k.clone(), before.get(k).copied(), after.get(k).copied()))
        .filter(|(_, a, b)| a != b)
        .collect()
}

/// `diff(pinned, current)` is the models' difference — the same keys,
/// both sides' values, ascending — for every clone pinned along a
/// history, whatever the history copied, split or collapsed in between;
/// so is the diff the other way round, and between two pinned clones. A
/// map against its own clone, or against a rebuild of its contents that
/// shares no node, differs nowhere.
fn diff_history<K: Key>(seed: &[(Pair, u32)], ops: &[Op]) {
    let seed = seed.iter().map(|&(k, v)| (K::from_pair(k), v));
    let mut map: PMap<K, u32> = seed.clone().collect();
    let mut model: BTreeMap<K, u32> = seed.collect();
    let mut pinned = vec![(map.clone(), model.clone())];
    for op in ops {
        apply(op, &mut map, &mut model);
        if let Op::Pin = op {
            pinned.push((map.clone(), model.clone()));
        }
    }
    assert!(diff_of(&map, &map.clone()).is_empty());
    let rebuilt: PMap<K, u32> = model.clone().into_iter().collect();
    assert!(!rebuilt.ptr_eq(&map));
    assert!(diff_of(&map, &rebuilt).is_empty());
    assert!(diff_of(&rebuilt, &map).is_empty());
    for (old, old_model) in &pinned {
        assert_eq!(diff_of(old, &map), model_diff(old_model, &model));
        assert_eq!(diff_of(&map, old), model_diff(&model, old_model));
    }
    for pair in pinned.windows(2) {
        let [(a, a_model), (b, b_model)] = pair else {
            unreachable!()
        };
        assert_eq!(diff_of(a, b), model_diff(a_model, b_model));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn diff_matches_the_models_difference(
        seed in proptest::collection::vec((arb_pair(), any::<u32>()), 0..300),
        ops in proptest::collection::vec(arb_op(), 1..400),
    ) {
        diff_history::<Item>(&seed, &ops);
        diff_history::<Coarse>(&seed, &ops);
        diff_history::<Arc<str>>(&seed, &ops);
    }
}

/// Histories that grow the root by splits and then shrink it back by
/// collapses still diff to the models' difference against every
/// version pinned on the way: the two sides of a diff then differ in
/// depth, not only along one path.
fn diff_grow_and_drain<K: Key>() {
    let key = |i: u32| K::from_pair(((i / 12) as u16, (i % 12) as u16));
    let n = (FANOUT * FANOUT * 3) as u32;
    let mut map: PMap<K, u32> = PMap::new();
    let mut model: BTreeMap<K, u32> = BTreeMap::new();
    let mut pinned = Vec::new();
    let mut depths = Vec::new();
    // Grow one key at a time (every root split on the way), then drain
    // in an interleaved order (pruned nodes and root collapses).
    let grow = (0..n).map(|i| (i * 7) % n);
    let drain = (0..n)
        .filter(|i| i % 3 != 0)
        .chain((0..n).filter(|i| i % 3 == 0));
    for (step, (i, insert)) in grow
        .map(|i| (i, true))
        .chain(drain.map(|i| (i, false)))
        .enumerate()
    {
        if insert {
            map.insert(key(i), i);
            model.insert(key(i), i);
        } else {
            map.remove(&key(i));
            model.remove(&key(i));
        }
        if step % 97 == 0 {
            depths.push(map.depth());
            pinned.push((map.clone(), model.clone()));
        }
    }
    assert!(
        depths.iter().any(|&d| d >= 3),
        "the history grew the root: {depths:?}"
    );
    assert_eq!(map.depth(), 1, "and collapsed it again");
    pinned.push((map.clone(), model.clone()));
    for (i, (a, a_model)) in pinned.iter().enumerate() {
        a.check_invariants();
        for (b, b_model) in &pinned[i..] {
            assert_eq!(diff_of(a, b), model_diff(a_model, b_model));
            assert_eq!(diff_of(b, a), model_diff(b_model, a_model));
        }
    }
}

#[test]
fn diff_across_root_splits_and_collapses() {
    diff_grow_and_drain::<Item>();
    diff_grow_and_drain::<Coarse>();
    diff_grow_and_drain::<Arc<str>>();
}

/// A map drained to nothing and refilled keeps working: pruned nodes
/// leave no empty leaf behind for the iterator or the root collapse to
/// trip over.
#[test]
fn drain_and_refill() {
    let n = 40 * FANOUT as u32;
    let mut map: PMap<u32, u32> = (0..n).map(|i| (i, i)).collect();
    for i in (0..n).rev().step_by(2).chain((0..n).step_by(2)) {
        map.remove(&i);
    }
    map.check_invariants();
    assert!(map.is_empty());
    assert_eq!(map.iter().next(), None);
    assert_eq!(map.depth(), 1);
    for i in 0..n {
        assert_eq!(map.insert(i, i + 1), None);
    }
    map.check_invariants();
    assert!(map
        .iter()
        .map(|(k, v)| (*k, *v))
        .eq((0..n).map(|i| (i, i + 1))));
}

/// The `Head` contract over every pair of `keys`: a lesser key never has
/// a greater head, and equal keys have equal heads.
fn assert_head_contract<K: Ord + Head + Debug + ?Sized>(keys: &[&K]) {
    for a in keys {
        for b in keys {
            match a.cmp(b) {
                std::cmp::Ordering::Less => assert!(
                    a.head() <= b.head(),
                    "{a:?} < {b:?} but head {:#x} > {:#x}",
                    a.head(),
                    b.head()
                ),
                std::cmp::Ordering::Equal => assert_eq!(a.head(), b.head(), "{a:?}"),
                std::cmp::Ordering::Greater => {}
            }
        }
    }
}

/// Pieces names are glued from: the empty string, NUL, multi-byte UTF-8
/// (2, 3 and 4 bytes, and the greatest scalar), and prefixes longer than
/// a head that differ only past its 8 bytes.
const NAME_PIECES: [&str; 11] = [
    "",
    "\0",
    "a",
    "z",
    "é",
    "日本",
    "🦀",
    "\u{10FFFF}",
    "relation_name_",
    "relation_name_x",
    "relation_\0",
];

fn arb_name() -> impl Strategy<Value = String> {
    proptest::collection::vec(proptest::sample::select(NAME_PIECES.to_vec()), 0..5)
        .prop_map(|pieces| pieces.concat())
}

/// An item of arity 0–6 (more than 4 components live on the heap), its
/// components from a few ids including the extremes of a `u32`.
fn arb_item() -> impl Strategy<Value = Item> {
    proptest::collection::vec(proptest::sample::select(vec![0, 1, 2, 7, u32::MAX]), 0..7)
        .prop_map(|ids| Item::new(ids.into_iter().map(n).collect()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn str_heads_keep_the_contract(names in proptest::collection::vec(arb_name(), 0..12)) {
        let strs: Vec<&str> = names.iter().map(String::as_str).collect();
        assert_head_contract::<str>(&strs);
        let arcs: Vec<Arc<str>> = names.iter().map(|s| Arc::from(s.as_str())).collect();
        for (arc, s) in arcs.iter().zip(&strs) {
            prop_assert_eq!(arc.head(), s.head(), "a borrowed name has its owner's head");
        }
        assert_head_contract::<Arc<str>>(&arcs.iter().collect::<Vec<_>>());
    }

    /// Mixed arities in one set, as in a map holding items of several
    /// relations' shapes.
    #[test]
    fn item_heads_keep_the_contract(items in proptest::collection::vec(arb_item(), 0..12)) {
        assert_head_contract::<Item>(&items.iter().collect::<Vec<_>>());
        let map: PMap<Item, ()> = items.iter().map(|i| (i.clone(), ())).collect();
        map.check_invariants();
    }

    #[test]
    fn u32_heads_keep_the_contract(
        small in proptest::collection::vec(0u32..4, 0..6),
        wide in proptest::collection::vec(any::<u32>(), 0..6),
    ) {
        let keys: Vec<&u32> = small.iter().chain(&wide).chain(&[u32::MAX]).collect();
        assert_head_contract::<u32>(&keys);
    }
}

/// The contract at its edges, spelled out: a prefix's head does not
/// exceed the longer key's, and keys that differ only past what the
/// head holds share one.
#[test]
fn heads_at_the_edges() {
    assert_eq!("".head(), 0);
    assert_eq!("".head(), "\0".head());
    assert_eq!("relation_a".head(), "relation_b".head());
    assert!("a".head() < "b".head());
    assert!("z".head() < "é".head(), "UTF-8 orders by bytes");
    let item = |ids: &[u32]| Item::new(ids.iter().copied().map(n).collect());
    assert_eq!(item(&[]).head(), 0);
    assert_eq!(item(&[3]).head(), item(&[3, 0]).head());
    assert!(item(&[3, 9]).head() < item(&[4]).head());
    assert_eq!(
        item(&[1, 2, 3, 4, 5]).head(),
        item(&[1, 2, 9]).head(),
        "a heap item packs its first two components too"
    );
    assert_eq!(item(&[u32::MAX, u32::MAX]).head(), u64::MAX);
}
