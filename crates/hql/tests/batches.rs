//! A batch of mutations is one write: however many mutations it runs
//! and in whatever order they touch an item, it publishes one epoch and
//! the state that applying its mutations one by one reaches.
//!
//! Randomized multi-mutation transactions go through
//! [`Engine::apply_mutations`] (what a replica feeds a poll of shipped
//! records to). Their mutations come from `hrdm-testkit`'s seeded
//! model, so every batch commits; a mirror [`Catalog`] applies each one
//! as well, and after every batch the engine's world renders as the
//! mirror does, views included. A third of a batch's steps are the
//! orders that used to go wrong — assert-then-retract and
//! retract-then-assert of one item ([`Model::same_item_pair`]).

use std::collections::BTreeSet;

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
fn each_batch_publishes_one_epoch_and_the_state_its_mutations_reach() {
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
            // Relations the batch only wrote rows of: the ones whose
            // rows can come out as they went in.
            let mut written = BTreeSet::new();
            let mut wholesale = BTreeSet::new();
            for m in &batch {
                mirror
                    .apply_mutation(m)
                    .unwrap_or_else(|e| panic!("{context}: {m}: {e}"));
                match m {
                    CatalogMutation::Assert { relation, .. }
                    | CatalogMutation::Retract { relation, .. } => {
                        written.insert(relation.clone());
                    }
                    CatalogMutation::CreateRelation { name, .. }
                    | CatalogMutation::DropRelation { name }
                    | CatalogMutation::DefineView { name, .. } => {
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
                    _ => {}
                }
            }
            let pre = engine.snapshot();
            engine
                .apply_mutations(None, |apply| batch.iter().try_for_each(apply))
                .unwrap_or_else(|e| panic!("{context}: {e}"));
            let post = engine.snapshot();
            assert_eq!(
                (engine.epoch(), post.epoch()),
                (pre.epoch() + 1, pre.epoch() + 1),
                "{context}: one batch, one epoch"
            );
            assert_eq!(
                post.render_stable(),
                mirror.render_stable(),
                "{context}: the engine and the mirror catalog diverged after {batch:?}"
            );
            net_to_nothing += written
                .difference(&wholesale)
                .filter(|name| match (pre.relation(name), post.relation(name)) {
                    (Ok(before), Ok(after)) => rows(before) == rows(after),
                    _ => false,
                })
                .count();
        }
    }
    assert!(
        net_to_nothing > 20,
        "the generator must produce batches whose edits to a relation cancel out \
         (got {net_to_nothing})"
    );
}

/// The relations of the engine's current world, in name order.
fn relation_names(engine: &Engine) -> Vec<String> {
    engine
        .snapshot()
        .relation_names()
        .map(String::from)
        .collect()
}

/// A write that replaces the world — `LOAD`, and a replica's shipped
/// rollover (`apply_mutations` with a base image) — leaves exactly the
/// relations of the new world, and of the batch after it: a relation
/// the new world lacks is gone, as if dropped.
#[test]
fn a_replaced_world_holds_only_its_own_relations() {
    let dir = std::env::temp_dir().join(format!("hrdm_batches_{}", std::process::id()));
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
    assert_eq!(relation_names(&engine), ["A"], "LOAD");

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
    assert_eq!(relation_names(&engine), ["A", "E"], "a rollover");
    let _ = std::fs::remove_dir_all(&dir);
}
