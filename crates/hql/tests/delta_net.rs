//! The delta a write publishes is *net*: applied to the relations as
//! they stood before the write it yields the relations after it,
//! however many mutations the write ran and in whatever order they
//! touched an item.
//!
//! Randomized multi-mutation transactions go through
//! [`Engine::apply_mutations`] (what a replica feeds a poll of shipped
//! records to). Their mutations come from `hrdm-testkit`'s seeded
//! model, so every batch commits (a mirror [`Catalog`] applies each one
//! as well); a third of a batch's steps are the orders that used to go
//! wrong — assert-then-retract and retract-then-assert of one item
//! ([`Model::same_item_pair`]).

use std::collections::BTreeSet;

use hrdm_core::delta::RelationChange;
use hrdm_core::mutation::CatalogMutation;
use hrdm_core::prelude::{Catalog, HRelation, Item, Truth};
use hrdm_hql::Engine;
use hrdm_testkit::Model;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SEEDS: [u64; 4] = [0xA11CE, 0xB0B, 0x5EED_CAFE, 0xD15C0];
const BATCHES: usize = 150;
/// The share of a batch's steps that write one item twice.
const PAIR_SHARE: f64 = 0.3;

fn rows(relation: &HRelation) -> Vec<(Item, Truth)> {
    relation.iter().map(|(i, t)| (i.clone(), t)).collect()
}

#[test]
fn a_published_delta_applied_to_the_state_before_yields_the_state_after() {
    let mut net_to_nothing = 0usize;
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut model = Model::default();
        let engine = Engine::new();
        let mut mirror = Catalog::new();

        for round in 0..BATCHES {
            let context = format!("seed {seed:#x} batch {round}");
            let mut batch = Vec::new();
            for _ in 0..rng.gen_range(1..=6usize) {
                let pair = if rng.gen_bool(PAIR_SHARE) {
                    model.same_item_pair(&mut rng)
                } else {
                    None
                };
                match pair {
                    Some(pair) => batch.extend(pair),
                    None => batch.push(model.mutation(&mut rng)),
                }
            }
            // Relations the batch creates, drops, renames, re-modes or
            // rewrites in place: the ones whose change is wholesale. A
            // view the batch defines is born with no entry of its own.
            let mut wholesale = BTreeSet::new();
            let mut defined = BTreeSet::new();
            for m in &batch {
                mirror
                    .apply_mutation(m)
                    .unwrap_or_else(|e| panic!("{context}: {m}: {e}"));
                match m {
                    CatalogMutation::CreateRelation { name, .. }
                    | CatalogMutation::DropRelation { name } => {
                        wholesale.insert(name.clone());
                    }
                    CatalogMutation::SetPreemption { relation, .. }
                    | CatalogMutation::Consolidate { relation }
                    | CatalogMutation::Explicate { relation, .. } => {
                        wholesale.insert(relation.clone());
                    }
                    CatalogMutation::RenameRelation { from, to } => {
                        wholesale.extend([from.clone(), to.clone()]);
                    }
                    CatalogMutation::DefineView { name, .. } => {
                        defined.insert(name.clone());
                    }
                    _ => {}
                }
            }
            let pre = engine.snapshot();
            engine
                .apply_mutations(None, |apply| batch.iter().try_for_each(apply))
                .unwrap_or_else(|e| panic!("{context}: {e}"));
            let post = engine.snapshot();
            let (epoch, delta) = engine.last_delta().expect("the batch published");
            assert_eq!(
                (epoch, post.epoch()),
                (pre.epoch() + 1, pre.epoch() + 1),
                "{context}: one batch, one epoch"
            );

            let mut relations: BTreeSet<&str> = pre.relation_names().collect();
            relations.extend(post.relation_names());
            for name in relations {
                let context = format!("{context}, {name}, after {batch:?}");
                // A view whose source changed mode changes mode with it,
                // which a row delta cannot say.
                let remoded = matches!(
                    (pre.relation(name), post.relation(name)),
                    (Ok(a), Ok(b)) if a.preemption() != b.preemption()
                );
                match delta.relations.get(name) {
                    Some(RelationChange::Reset) => assert!(
                        wholesale.contains(name) || remoded || defined.contains(name),
                        "{context}: reset for no reason"
                    ),
                    Some(RelationChange::Rows(rows_delta)) => {
                        assert!(!wholesale.contains(name), "{context}: rows for a reset");
                        let before = pre.relation(name).unwrap();
                        let after = post.relation(name).unwrap();
                        // The rows before, on the schema after: a class
                        // added in the batch may be what a row names.
                        let mut patched = HRelation::new(after.schema().clone());
                        for (item, truth) in before.iter() {
                            patched.assert_item(item.clone(), truth).unwrap();
                        }
                        rows_delta.apply_to(&mut patched);
                        assert_eq!(
                            rows(&patched),
                            rows(after),
                            "{context}: delta {rows_delta:?} does not take pre to post"
                        );
                        // And every listed row is a real difference.
                        for (item, truth) in &rows_delta.added {
                            assert_ne!(before.stored(item), Some(*truth), "{context}");
                        }
                        for item in &rows_delta.removed {
                            assert!(before.stored(item).is_some(), "{context}");
                        }
                        net_to_nothing += usize::from(rows_delta.is_empty());
                    }
                    None if defined.contains(name) && pre.relation(name).is_err() => {}
                    None => assert_eq!(
                        rows(pre.relation(name).unwrap()),
                        rows(post.relation(name).unwrap()),
                        "{context}: changed, with no delta"
                    ),
                }
            }
        }
        assert_eq!(
            engine.snapshot().to_image().into_catalog().render_stable(),
            mirror.render_stable(),
            "seed {seed:#x}: the engine and the mirror catalog diverged"
        );
    }
    assert!(
        net_to_nothing > 20,
        "the generator must produce batches whose edits to a relation cancel out \
         (got {net_to_nothing})"
    );
}

/// The names of the relations a delta resets, and whether it resets
/// every relation it names.
fn resets(engine: &Engine) -> (Vec<String>, bool) {
    let (_, delta) = engine.last_delta().expect("the write published");
    let names = delta.relations.keys().cloned().collect();
    let all = delta
        .relations
        .values()
        .all(|c| *c == RelationChange::Reset);
    (names, all)
}

/// A write that replaces the world — `LOAD`, and a replica's shipped
/// rollover (`apply_mutations` with a base image) — resets every
/// relation of the world it replaced as well as of the new one: a
/// relation the new world lacks is gone, and the delta names it, as
/// `DROP RELATION` would.
#[test]
fn a_replaced_world_resets_the_relations_it_removed() {
    let dir = std::env::temp_dir().join(format!("hrdm_delta_net_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let image = dir.join("a.img");
    let engine = Engine::new();
    engine
        .execute(&format!(
            "CREATE DOMAIN D; CREATE INSTANCE x OF D; CREATE RELATION A (v: D); \
             ASSERT A (x); SAVE \"{}\";",
            image.display()
        ))
        .unwrap();
    let base = engine.snapshot().to_image();
    engine
        .execute("CREATE RELATION B (v: D); ASSERT B (x);")
        .unwrap();
    engine
        .execute(&format!("LOAD \"{}\";", image.display()))
        .unwrap();
    let names: Vec<String> = engine
        .snapshot()
        .relation_names()
        .map(String::from)
        .collect();
    assert_eq!(names, ["A"]);
    assert_eq!(
        resets(&engine),
        (vec!["A".into(), "B".into()], true),
        "LOAD"
    );

    engine
        .execute("CREATE RELATION C (v: D); ASSERT C (x);")
        .unwrap();
    let batch = [CatalogMutation::CreateRelation {
        name: "E".into(),
        attributes: vec![("v".into(), "D".into())],
    }];
    engine
        .apply_mutations(Some(base), |apply| batch.iter().try_for_each(apply))
        .unwrap();
    let names: Vec<String> = engine
        .snapshot()
        .relation_names()
        .map(String::from)
        .collect();
    assert_eq!(names, ["A", "E"]);
    assert_eq!(
        resets(&engine),
        (vec!["A".into(), "C".into(), "E".into()], true),
        "a rollover"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
