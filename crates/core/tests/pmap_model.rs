//! `PMap` against `BTreeMap` as the model: random edit histories must
//! leave the two indistinguishable through the map's public surface, a
//! retained clone must never see a later edit, and an edit must copy no
//! more than one root-to-leaf path.

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
