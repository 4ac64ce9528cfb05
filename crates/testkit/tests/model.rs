//! The model's own contract: a seed names one history, every mutation
//! it emits applies, its HQL text builds the same catalog as its
//! mutations, short scripts reach every kind it emits, and what it
//! says an engine must refuse, the engine refuses.

use std::collections::BTreeSet;

use hrdm_core::mutation::CatalogMutation;
use hrdm_core::prelude::Catalog;
use hrdm_hql::Engine;
use hrdm_testkit::{script, Model};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The seeds the suites draw their histories from.
const SEEDS: [u64; 5] = [0xA11CE, 0xB0B, 0x5EED_CAFE, 0x5EED_CAFE ^ 0xF00D, 0xD15C0];

/// `steps` steps of mutations and same-item pairs, the way the net-delta
/// suite mixes them, each applied to a mirror catalog as it is emitted.
fn mirrored_history(seed: u64, steps: usize) -> Vec<CatalogMutation> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut model = Model::default();
    let mut mirror = Catalog::new();
    let mut history = Vec::new();
    for step in 0..steps {
        let pair = if rng.gen_bool(0.3) {
            model.same_item_pair(&mut rng)
        } else {
            None
        };
        for m in pair.map_or_else(|| vec![model.mutation(&mut rng)], Vec::from) {
            mirror
                .apply_mutation(&m)
                .unwrap_or_else(|e| panic!("seed {seed:#x} step {step}: {m}: {e}"));
            history.push(m);
        }
    }
    history
}

#[test]
fn a_seed_names_one_history_and_every_mutation_of_it_applies() {
    for seed in SEEDS {
        let history = mirrored_history(seed, 1_000);
        assert!(history.len() > 1_100, "seed {seed:#x}: few pairs");
        assert_eq!(history, mirrored_history(seed, 1_000), "seed {seed:#x}");
        assert_ne!(script(seed, 50), script(seed ^ 1, 50), "seed {seed:#x}");
    }
}

/// All fourteen kinds but `Explicate`, which the model does not emit.
#[test]
fn thirteen_kinds_appear_within_220_steps() {
    for seed in SEEDS {
        let kinds: BTreeSet<&str> = script(seed, 220)
            .iter()
            .map(CatalogMutation::kind)
            .collect();
        assert_eq!(kinds.len(), 13, "seed {seed:#x}: only {kinds:?}");
        assert!(!kinds.contains("explicate"), "seed {seed:#x}");
    }
}

#[test]
fn the_hql_text_builds_the_catalog_the_mutations_build() {
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut model = Model::default();
        let engine = Engine::new();
        let mut mirror = Catalog::new();
        for step in 0..400 {
            let m = model.mutation(&mut rng);
            let stmt = model.hql(&m);
            mirror.apply_mutation(&m).unwrap();
            engine
                .execute(&stmt)
                .unwrap_or_else(|e| panic!("seed {seed:#x} step {step}: {stmt}: {e}"));
        }
        assert_eq!(
            engine.snapshot().to_image().into_catalog().render_stable(),
            mirror.render_stable(),
            "seed {seed:#x}"
        );
    }
}

/// Checked against an engine that replayed the history so far, at every
/// step: each refused statement errs and publishes nothing.
#[test]
fn every_refused_statement_is_refused_by_an_engine_that_replayed_the_history() {
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut model = Model::default();
        let engine = Engine::new();
        let mut checked = 0;
        for step in 0..300 {
            let m = model.mutation(&mut rng);
            let stmt = model.hql(&m);
            if let Err(e) = engine.execute(&stmt) {
                panic!("seed {seed:#x} step {step}: {stmt} refused: {e}");
            }
            let epoch = engine.epoch();
            for refused in model.refused_statements() {
                assert!(
                    engine.execute(&refused).is_err(),
                    "seed {seed:#x} step {step}: {refused} was accepted"
                );
                checked += 1;
            }
            assert_eq!(engine.epoch(), epoch, "seed {seed:#x} step {step}");
        }
        assert!(checked > 1_000, "seed {seed:#x}: only {checked} checked");
    }
}
