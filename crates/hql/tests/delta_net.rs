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
            // Relations the batch creates, drops or re-modes: the ones
            // whose change is wholesale.
            let mut wholesale = BTreeSet::new();
            for m in &batch {
                mirror
                    .apply_mutation(m)
                    .unwrap_or_else(|e| panic!("{context}: {m}: {e}"));
                match m {
                    CatalogMutation::CreateRelation { name, .. }
                    | CatalogMutation::DropRelation { name } => {
                        wholesale.insert(name.clone());
                    }
                    CatalogMutation::SetPreemption { relation, .. } => {
                        wholesale.insert(relation.clone());
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
                match delta.relations.get(name) {
                    Some(RelationChange::Reset) => {
                        assert!(wholesale.contains(name), "{context}: reset for no reason")
                    }
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
