//! `PMap` against `BTreeMap` as the model: random edit histories must
//! leave the two indistinguishable through the map's public surface, a
//! retained clone must never see a later edit, an edit must copy no
//! more than one root-to-leaf path, and `PMap::diff` between any two
//! versions must report exactly the models' difference.

use std::collections::BTreeMap;

use hrdm_core::pmap::{PMap, FANOUT};
use proptest::prelude::*;

/// Keys the way `HRelation` keys them: a short vector, compared
/// lexicographically, from a space small enough that histories collide
/// (overwrites, removals of present keys) as often as they miss.
type Key = Vec<u16>;

#[derive(Clone, Debug)]
enum Op {
    Insert(Key, u32),
    Remove(Key),
    /// `get_mut` and bump the value, if present.
    Bump(Key),
    /// Retain a clone of the map (and of the model) as it stands.
    Pin,
}

fn arb_key() -> impl Strategy<Value = Key> {
    (0u16..40, 0u16..12).prop_map(|(a, b)| vec![a, b])
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (arb_key(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
        (arb_key(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
        arb_key().prop_map(Op::Remove),
        arb_key().prop_map(Op::Bump),
        Just(Op::Pin),
    ]
}

fn assert_same(map: &PMap<Key, u32>, model: &BTreeMap<Key, u32>) {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every step of a random history agrees with the model, and so
    /// does every clone retained along the way — still, after all the
    /// edits that followed it.
    #[test]
    fn histories_match_the_model(ops in proptest::collection::vec(arb_op(), 1..600)) {
        let mut map: PMap<Key, u32> = PMap::new();
        let mut model: BTreeMap<Key, u32> = BTreeMap::new();
        let mut pinned: Vec<(PMap<Key, u32>, BTreeMap<Key, u32>)> = Vec::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    prop_assert_eq!(map.insert(k.clone(), v), model.insert(k, v));
                }
                Op::Remove(k) => {
                    prop_assert_eq!(map.remove(&k), model.remove(&k));
                }
                Op::Bump(k) => {
                    let (a, b) = (map.get_mut(&k), model.get_mut(&k));
                    prop_assert_eq!(a.is_some(), b.is_some());
                    if let (Some(a), Some(b)) = (a, b) {
                        *a = a.wrapping_add(1);
                        *b = b.wrapping_add(1);
                    }
                }
                Op::Pin => pinned.push((map.clone(), model.clone())),
            }
            assert_same(&map, &model);
            for probe in [vec![0, 0], vec![17, 3], vec![39, 11]] {
                prop_assert_eq!(map.get(&probe), model.get(&probe));
                prop_assert_eq!(map.contains_key(&probe), model.contains_key(&probe));
            }
        }
        for (map, model) in &pinned {
            assert_same(map, model);
        }
    }

    /// The bulk constructor is n inserts: for sorted input (its one-pass
    /// case), for shuffled input, and for input with repeated keys,
    /// where — like `BTreeMap`'s — the last value given wins.
    #[test]
    fn bulk_build_equals_inserts(
        entries in proptest::collection::vec((arb_key(), any::<u32>()), 0..700),
    ) {
        let mut by_insert: PMap<Key, u32> = PMap::new();
        for (k, v) in &entries {
            by_insert.insert(k.clone(), *v);
        }
        let model: BTreeMap<Key, u32> = entries.iter().cloned().collect();
        let unsorted: PMap<Key, u32> = entries.iter().cloned().collect();
        let sorted: PMap<Key, u32> = model.clone().into_iter().collect();
        for map in [&by_insert, &unsorted, &sorted] {
            assert_same(map, &model);
        }
        // A bulk-built map is as editable as any other.
        let mut edited = sorted.clone();
        let mut edited_model = model.clone();
        for (k, _) in entries.iter().step_by(3) {
            prop_assert_eq!(edited.remove(k), edited_model.remove(k));
        }
        edited.insert(vec![99, 99], 7);
        edited_model.insert(vec![99, 99], 7);
        assert_same(&edited, &edited_model);
        assert_same(&sorted, &model);
    }

    /// Structural sharing, as a bound: after `clone` and one edit the
    /// edited map has copied at most `depth` nodes of the original (one
    /// root-to-leaf path; whatever else it holds alone are the siblings
    /// and root its splits created) — also when the key it went looking
    /// for was not there.
    #[test]
    fn an_edit_copies_at_most_one_path(
        size in 1usize..2500,
        key in arb_key(),
        wide in any::<u16>(),
    ) {
        let base: PMap<Key, u32> = (0..size)
            .map(|i| (vec![(i / 12) as u16, (i % 12) as u16], i as u32))
            .collect();
        let depth = base.depth();
        prop_assert!(depth <= 2 + size.ilog(FANOUT / 2) as usize);
        let nodes = |m: &PMap<Key, u32>| m.nodes_not_shared_with(&PMap::new());
        let wide_key = vec![wide, wide];

        let mut inserted = base.clone();
        prop_assert!(inserted.ptr_eq(&base));
        prop_assert_eq!(inserted.nodes_not_shared_with(&base), 0);
        inserted.insert(wide_key.clone(), 1);
        inserted.check_invariants();
        let created = nodes(&inserted) - nodes(&base);
        prop_assert!(created <= depth + 1);
        prop_assert!(inserted.nodes_not_shared_with(&base) <= depth + created);
        prop_assert!(base.nodes_not_shared_with(&inserted) <= depth);

        let mut removed = base.clone();
        removed.remove(&key);
        removed.check_invariants();
        prop_assert!(removed.nodes_not_shared_with(&base) <= depth);
        prop_assert!(base.nodes_not_shared_with(&removed) <= depth);

        let mut probed = base.clone();
        probed.get_mut(&wide_key);
        prop_assert!(probed.nodes_not_shared_with(&base) <= depth);
    }
}

/// A key's values on each side of a difference.
type Change = (Key, Option<u32>, Option<u32>);

/// What `PMap::diff(before, after)` reports, collected.
fn diff_of(before: &PMap<Key, u32>, after: &PMap<Key, u32>) -> Vec<Change> {
    let mut out = Vec::new();
    PMap::diff(before, after, |k, a, b| {
        out.push((k.clone(), a.copied(), b.copied()))
    });
    out
}

/// The two models' difference, in ascending key order: every key stored
/// on either side whose values are not equal.
fn model_diff(before: &BTreeMap<Key, u32>, after: &BTreeMap<Key, u32>) -> Vec<Change> {
    let mut keys: Vec<&Key> = before.keys().chain(after.keys()).collect();
    keys.sort();
    keys.dedup();
    keys.into_iter()
        .map(|k| (k.clone(), before.get(k).copied(), after.get(k).copied()))
        .filter(|(_, a, b)| a != b)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `diff(pinned, current)` is the models' difference — the same
    /// keys, both sides' values, ascending — for every clone pinned
    /// along a random history, whatever the history copied, split or
    /// collapsed in between; so is the diff the other way round, and
    /// between two pinned clones. A map against its own clone, or
    /// against a rebuild of its contents that shares no node, differs
    /// nowhere.
    #[test]
    fn diff_matches_the_models_difference(
        seed in proptest::collection::vec((arb_key(), any::<u32>()), 0..300),
        ops in proptest::collection::vec(arb_op(), 1..400),
    ) {
        let mut map: PMap<Key, u32> = seed.iter().cloned().collect();
        let mut model: BTreeMap<Key, u32> = seed.into_iter().collect();
        let mut pinned = vec![(map.clone(), model.clone())];
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    map.insert(k.clone(), v);
                    model.insert(k, v);
                }
                Op::Remove(k) => {
                    map.remove(&k);
                    model.remove(&k);
                }
                Op::Bump(k) => {
                    if let (Some(a), Some(b)) = (map.get_mut(&k), model.get_mut(&k)) {
                        *a = a.wrapping_add(1);
                        *b = b.wrapping_add(1);
                    }
                }
                Op::Pin => pinned.push((map.clone(), model.clone())),
            }
        }
        prop_assert!(diff_of(&map, &map.clone()).is_empty());
        let rebuilt: PMap<Key, u32> = model.clone().into_iter().collect();
        prop_assert!(!rebuilt.ptr_eq(&map));
        prop_assert!(diff_of(&map, &rebuilt).is_empty());
        prop_assert!(diff_of(&rebuilt, &map).is_empty());
        for (old, old_model) in &pinned {
            prop_assert_eq!(diff_of(old, &map), model_diff(old_model, &model));
            prop_assert_eq!(diff_of(&map, old), model_diff(&model, old_model));
        }
        for pair in pinned.windows(2) {
            let [(a, a_model), (b, b_model)] = pair else { unreachable!() };
            prop_assert_eq!(diff_of(a, b), model_diff(a_model, b_model));
        }
    }
}

/// Histories that grow the root by splits and then shrink it back by
/// collapses still diff to the models' difference against every
/// version pinned on the way: the two sides of a diff then differ in
/// depth, not only along one path.
#[test]
fn diff_across_root_splits_and_collapses() {
    let key = |i: u32| vec![(i / 12) as u16, (i % 12) as u16];
    let n = (FANOUT * FANOUT * 3) as u32;
    let mut map: PMap<Key, u32> = PMap::new();
    let mut model: BTreeMap<Key, u32> = BTreeMap::new();
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
        for (b, b_model) in &pinned[i..] {
            assert_eq!(diff_of(a, b), model_diff(a_model, b_model));
            assert_eq!(diff_of(b, a), model_diff(b_model, a_model));
        }
    }
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
