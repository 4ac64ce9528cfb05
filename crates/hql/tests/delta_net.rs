//! The delta a write publishes is *net*: applied to the relations as
//! they stood before the write it yields the relations after it,
//! however many mutations the write ran and in whatever order they
//! touched an item.
//!
//! Randomized multi-mutation transactions go through
//! [`Engine::apply_mutations`] (what a replica feeds a poll of shipped
//! records to); a mirror [`Catalog`] filters the generated mutations
//! down to ones that apply, so every batch commits. The generator
//! leans on the orders that used to go wrong — assert-then-retract and
//! retract-then-assert of one item inside one batch.

use std::collections::BTreeSet;

use hrdm_core::delta::RelationChange;
use hrdm_core::mutation::CatalogMutation;
use hrdm_core::prelude::{Catalog, HRelation, Item, Preemption, Truth};
use hrdm_hql::Engine;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SEEDS: [u64; 4] = [0xA11CE, 0xB0B, 0x5EED_CAFE, 0xD15C0];
const BATCHES: usize = 150;

fn rows(relation: &HRelation) -> Vec<(Item, Truth)> {
    relation.iter().map(|(i, t)| (i.clone(), t)).collect()
}

/// Node names and relation names the generator draws from; both grow.
struct Names {
    nodes: Vec<String>,
    relations: Vec<String>,
    counter: usize,
}

impl Names {
    fn node(&self, rng: &mut SmallRng) -> String {
        self.nodes[rng.gen_range(0..self.nodes.len())].clone()
    }

    fn relation(&self, rng: &mut SmallRng) -> String {
        self.relations[rng.gen_range(0..self.relations.len())].clone()
    }

    /// A few mutations to try next; some will not apply, which the
    /// caller's mirror catalog finds out.
    fn candidates(&mut self, rng: &mut SmallRng) -> Vec<CatalogMutation> {
        let relation = self.relation(rng);
        let values = vec![self.node(rng)];
        let truth = if rng.gen_bool(0.3) {
            Truth::Negative
        } else {
            Truth::Positive
        };
        let assert = CatalogMutation::Assert {
            relation: relation.clone(),
            values: values.clone(),
            truth,
        };
        let retract = CatalogMutation::Retract {
            relation: relation.clone(),
            values,
        };
        match rng.gen_range(0u32..100) {
            0..=29 => vec![assert],
            30..=49 => vec![retract],
            // One item, both orders, within the batch.
            50..=64 => vec![assert, retract],
            65..=79 => vec![retract, assert],
            80..=84 => {
                self.counter += 1;
                let name = format!("n{}", self.counter);
                let parent = self.node(rng);
                self.nodes.push(name.clone());
                vec![CatalogMutation::AddClass {
                    domain: "D".into(),
                    name,
                    parents: vec![parent],
                }]
            }
            85..=89 => {
                let mode = [
                    Preemption::OffPath,
                    Preemption::OnPath,
                    Preemption::NoPreemption,
                ][rng.gen_range(0..3usize)];
                vec![CatalogMutation::SetPreemption { relation, mode }]
            }
            90..=94 => {
                self.counter += 1;
                let name = format!("R{}", self.counter);
                self.relations.push(name.clone());
                vec![CatalogMutation::CreateRelation {
                    name,
                    attributes: vec![("V".into(), "D".into())],
                }]
            }
            _ => vec![CatalogMutation::DropRelation { name: relation }],
        }
    }
}

#[test]
fn a_published_delta_applied_to_the_state_before_yields_the_state_after() {
    let mut net_to_nothing = 0usize;
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut names = Names {
            nodes: vec!["D".into()],
            relations: vec!["R0".into(), "R1".into()],
            counter: 1,
        };
        let bootstrap = [
            CatalogMutation::CreateDomain { name: "D".into() },
            CatalogMutation::CreateRelation {
                name: "R0".into(),
                attributes: vec![("V".into(), "D".into())],
            },
            CatalogMutation::CreateRelation {
                name: "R1".into(),
                attributes: vec![("V".into(), "D".into())],
            },
        ];
        let engine = Engine::new();
        let mut mirror = Catalog::new();
        for m in &bootstrap {
            mirror.apply_mutation(m).unwrap();
        }
        engine
            .apply_mutations(None, |apply| bootstrap.iter().try_for_each(apply))
            .unwrap();

        for round in 0..BATCHES {
            let context = format!("seed {seed:#x} batch {round}");
            let mut batch = Vec::new();
            // Relations the batch creates, drops or re-modes: the ones
            // whose change is wholesale.
            let mut wholesale = BTreeSet::new();
            for _ in 0..rng.gen_range(1..=6usize) {
                for m in names.candidates(&mut rng) {
                    if mirror.apply_mutation(&m).is_err() {
                        continue;
                    }
                    match &m {
                        CatalogMutation::CreateRelation { name, .. }
                        | CatalogMutation::DropRelation { name } => {
                            wholesale.insert(name.clone());
                        }
                        CatalogMutation::SetPreemption { relation, .. } => {
                            wholesale.insert(relation.clone());
                        }
                        _ => {}
                    }
                    batch.push(m);
                }
            }
            if batch.is_empty() {
                continue;
            }
            let pre = engine.snapshot();
            engine
                .apply_mutations(None, |apply| batch.iter().try_for_each(apply))
                .unwrap();
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
