//! Differential harness for incremental view maintenance: a
//! [`MaterializedPlan`] maintained step-by-step under random mutation
//! scripts versus full recomputation of the same plan from scratch.
//!
//! The correctness claim is **byte identity**, not semantic
//! equivalence: after every committed mutation the maintained relation
//! must have the exact tuple sequence,
//! the same eliminated-tuple report, and the same `render_table` bytes
//! as executing the plan over the mutated bases from nothing. Steps
//! whose recomputation fails must fail identically on the differential
//! path (same error, debug-formatted), and — matching the engine's
//! atomic-statement semantics — a failing step commits nothing: the
//! script reverts the mutation and carries on with the old
//! materialization.
//!
//! The generator is seeded and split-mix driven, so a reported seed
//! reproduces its plan and script exactly.

use std::collections::BTreeMap;
use std::sync::Arc;

use hrdm_core::conflict::find_conflicts;
use hrdm_core::delta::RelationDelta;
use hrdm_core::differential::{MaterializedPlan, CONE_LIMIT};
use hrdm_core::plan::LogicalPlan;
use hrdm_core::prelude::*;
use hrdm_core::render::render_table;
use hrdm_hierarchy::gen::{layered_dag, sample_nodes};
use hrdm_hierarchy::HierarchyGraph;

fn tuples_of(r: &HRelation) -> Vec<(Item, Truth)> {
    r.iter().map(|(i, t)| (i.clone(), t)).collect()
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn make_consistent(r: &mut HRelation) {
    loop {
        let conflicts = find_conflicts(r);
        if conflicts.is_empty() {
            return;
        }
        for c in conflicts {
            r.insert(Tuple::positive(c.item)).unwrap();
        }
    }
}

/// A pool of consistent base relations over one shared single-attribute
/// schema (so joins are always well-formed) — same shape as
/// `properties.rs`'s.
fn plan_bases(gseed: u64, t1: u64, t2: u64) -> (Arc<Schema>, Vec<HRelation>) {
    let layers = 1 + (gseed % 3) as usize;
    let width = 2 + (gseed / 3 % 3) as usize;
    let maxp = 1 + (gseed / 9 % 2) as usize;
    let g = Arc::new(layered_dag(layers, width, maxp, gseed));
    let schema = Arc::new(Schema::single("D", g));
    let mk = |n: usize, seed: u64| {
        let mut r = HRelation::new(schema.clone());
        for (k, node) in sample_nodes(schema.domain(0), n, seed)
            .into_iter()
            .enumerate()
        {
            let truth = if (seed >> k) & 1 == 1 {
                Truth::Positive
            } else {
                Truth::Negative
            };
            let _ = r.insert(Tuple::new(Item::new(vec![node]), truth));
        }
        make_consistent(&mut r);
        r
    };
    (schema.clone(), vec![mk(3, t1), mk(4, t2)])
}

/// Deterministically grow a random plan from a seed; every IR operator
/// is reachable. Rebuilding with the same seed over mutated bases
/// yields the identical plan shape with fresh scan snapshots — the
/// full-recomputation oracle.
fn build_plan(schema: &Arc<Schema>, bases: &[HRelation], seed: u64, depth: usize) -> LogicalPlan {
    if depth == 0 || seed.is_multiple_of(5) {
        let k = (seed as usize / 5) % bases.len();
        return LogicalPlan::scan(format!("R{k}"), bases[k].clone());
    }
    let op = (seed / 5) % 9;
    let next = seed
        .wrapping_div(45)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(1);
    let child = build_plan(schema, bases, next, depth - 1);
    let node = || {
        sample_nodes(schema.domain(0), 1, seed ^ 0x00ff_00ff)
            .pop()
            .unwrap_or(hrdm_hierarchy::NodeId::ROOT)
    };
    match op {
        0 => child.select(Item::new(vec![node()])),
        1 => {
            let value = schema.domain(0).name(node()).to_string();
            child.select_eq("D", value)
        }
        2 => child.union(build_plan(schema, bases, next ^ 0xabcd, depth - 1)),
        3 => child.intersect(build_plan(schema, bases, next ^ 0x1234, depth - 1)),
        4 => child.diff(build_plan(schema, bases, next ^ 0x5a5a, depth - 1)),
        5 => child.join(build_plan(schema, bases, next ^ 0xbeef, depth - 1)),
        6 => child.consolidate(),
        7 => child.explicate(vec![0]),
        _ => child.project(vec![0]),
    }
}

/// One random mutation against base `k`: an assert (possibly a truth
/// overwrite) or a retract of a stored row. Returns the row delta, or
/// `None` when the script rolled a retract against an empty relation.
fn random_step(
    bases: &[HRelation],
    schema: &Arc<Schema>,
    seed: u64,
) -> Option<(usize, RelationDelta)> {
    let k = (seed as usize >> 8) % bases.len();
    let r = &bases[k];
    let mut delta = RelationDelta::new();
    if seed & 3 == 0 && !r.is_empty() {
        // Retract a stored row.
        let victim = r
            .items()
            .nth((seed as usize >> 16) % r.len())
            .unwrap()
            .clone();
        delta.removed.push(victim);
    } else {
        let node = sample_nodes(schema.domain(0), 1, seed ^ 0x5eed).pop()?;
        let truth = if seed & 4 == 0 {
            Truth::Positive
        } else {
            Truth::Negative
        };
        delta.added.push((Item::new(vec![node]), truth));
    }
    Some((k, delta))
}

/// Maintained-vs-recomputed byte identity across one mutation script.
fn run_script(gseed: u64, rng: &mut u64, steps: usize) -> (u64, u64) {
    let (schema, mut bases) = plan_bases(gseed, splitmix(rng), splitmix(rng));
    let plan_seed = splitmix(rng);
    let depth = 2 + (plan_seed % 3) as usize;
    let plan = build_plan(&schema, &bases, plan_seed, depth);

    let mut mat = match MaterializedPlan::new(plan.clone()) {
        Ok(m) => m,
        Err(e) => {
            // The plan is unexecutable outright; the batch oracle must
            // agree, and there is nothing to maintain.
            let oe = plan
                .execute()
                .expect_err("materialize failed but execute succeeded");
            assert_eq!(format!("{e:?}"), format!("{oe:?}"), "seed {plan_seed}");
            return (0, 0);
        }
    };
    let mut committed = 0u64;
    let mut rejected = 0u64;

    for step in 0..steps {
        let sseed = splitmix(rng);
        let Some((k, delta)) = random_step(&bases, &schema, sseed) else {
            continue;
        };
        // Stage the mutation.
        let mut staged = bases[k].clone();
        delta.apply_to(&mut staged);
        let mut staged_bases = bases.clone();
        staged_bases[k] = staged;

        let mut deltas = BTreeMap::new();
        deltas.insert(format!("R{k}"), delta);

        let fresh_plan = build_plan(&schema, &staged_bases, plan_seed, depth);
        match (mat.apply(&deltas), fresh_plan.execute()) {
            (Ok((next, _, _)), Ok(fresh)) => {
                assert_eq!(
                    tuples_of(next.relation()),
                    tuples_of(&fresh.relation),
                    "plan seed {plan_seed} step {step} (seed {sseed}): maintained relation diverged for {plan:?}"
                );
                assert_eq!(
                    next.canonicalized_away(),
                    fresh.canonicalized_away,
                    "plan seed {plan_seed} step {step}: eliminated-tuple reports differ"
                );
                assert_eq!(
                    render_table(next.relation()).into_bytes(),
                    render_table(&fresh.relation).into_bytes(),
                    "plan seed {plan_seed} step {step}: renderings differ"
                );
                bases = staged_bases;
                mat = next;
                committed += 1;
            }
            (Err(me), Err(fe)) => {
                // Same failure both ways; the step commits nothing and
                // the old materialization stays live.
                assert_eq!(
                    format!("{me:?}"),
                    format!("{fe:?}"),
                    "plan seed {plan_seed} step {step}: paths fail differently"
                );
                rejected += 1;
            }
            (m, f) => panic!(
                "plan seed {plan_seed} step {step}: maintain ok={} but recompute ok={} for {plan:?}",
                m.is_ok(),
                f.is_ok()
            ),
        }
    }
    (committed, rejected)
}

/// The headline differential: hundreds of random plans, each maintained
/// through a multi-step mutation script, byte-identical to full
/// recomputation at every committed epoch.
#[test]
fn maintained_plans_match_recomputation_on_random_mutation_scripts() {
    const SCRIPTS: u64 = 384;
    const STEPS: usize = 8;
    let mut rng = 0x1bc2_3fee_d000_0001u64;
    let mut committed = 0u64;
    let mut rejected = 0u64;
    for _ in 0..SCRIPTS {
        let (c, r) = run_script(splitmix(&mut rng), &mut rng, STEPS);
        committed += c;
        rejected += r;
    }
    // The sweep must exercise both outcomes, not pass vacuously.
    assert!(committed > 1_000, "only {committed} committed epochs");
    assert!(rejected > 0, "no step exercised the error-parity path");
}

/// Deep consolidate chains over a growing relation: the worst case for
/// the cone-localized delete/rederive (every level re-judges), still
/// byte-identical.
#[test]
fn consolidate_tower_stays_identical_under_growth() {
    let g = Arc::new(layered_dag(3, 4, 2, 0xfeed));
    let schema = Arc::new(Schema::single("D", g));
    let mut base = HRelation::new(schema.clone());
    let plan_of = |r: &HRelation| {
        LogicalPlan::scan("R", r.clone())
            .consolidate()
            .explicate(vec![0])
            .consolidate()
    };
    let mut mat = MaterializedPlan::new(plan_of(&base)).unwrap();
    let mut rng = 0x70_ee_11u64;
    for step in 0..48 {
        let seed = splitmix(&mut rng);
        let Some(node) = sample_nodes(schema.domain(0), 1, seed).pop() else {
            continue;
        };
        let mut delta = RelationDelta::new();
        let item = Item::new(vec![node]);
        if seed & 7 == 0 && base.stored(&item).is_some() {
            delta.removed.push(item);
        } else {
            let truth = if seed & 1 == 0 {
                Truth::Positive
            } else {
                Truth::Negative
            };
            delta.added.push((item, truth));
        }
        let mut staged = base.clone();
        delta.apply_to(&mut staged);
        let mut deltas = BTreeMap::new();
        deltas.insert("R".to_string(), delta);
        match (mat.apply(&deltas), plan_of(&staged).execute()) {
            (Ok((next, _, _)), Ok(fresh)) => {
                assert_eq!(
                    tuples_of(next.relation()),
                    tuples_of(&fresh.relation),
                    "step {step} diverged"
                );
                base = staged;
                mat = next;
            }
            (Err(me), Err(fe)) => {
                assert_eq!(format!("{me:?}"), format!("{fe:?}"), "step {step}");
            }
            (m, f) => panic!(
                "step {step}: maintain ok={} recompute ok={}",
                m.is_ok(),
                f.is_ok()
            ),
        }
    }
}

/// Both sides of the consolidate cutoff, each held to the oracle: a
/// delta whose cone is exactly `CONE_LIMIT` tuples is swept locally, one
/// tuple more and the node recomputes — and either way the maintained
/// relation is byte-identical to fresh re-derivation.
#[test]
fn both_sides_of_the_cone_limit_match_recomputation() {
    let mut g = HierarchyGraph::new("D");
    // Asserting a class puts the class and its stored instances in the
    // cone: `At` yields CONE_LIMIT tuples, `Over` one more.
    for (class, members) in [("At", CONE_LIMIT - 1), ("Over", CONE_LIMIT)] {
        let c = g.add_class(class, g.root()).unwrap();
        for k in 0..members {
            g.add_instance(format!("{class}{k}"), c).unwrap();
        }
    }
    let schema = Arc::new(Schema::single("D", Arc::new(g)));
    let mut base = HRelation::new(schema.clone());
    for id in schema.domain(0).instances() {
        base.insert(Tuple::positive(Item::new(vec![id]))).unwrap();
    }
    let plan_of = |r: &HRelation| LogicalPlan::scan("R", r.clone());
    let mut mat = MaterializedPlan::new(plan_of(&base)).unwrap();

    for (class, localized, recomputed) in [("At", 2, 0), ("Over", 1, 1)] {
        let mut delta = RelationDelta::new();
        let item = Item::new(vec![schema.domain(0).expect(class)]);
        delta.added.push((item, Truth::Positive));
        delta.apply_to(&mut base);
        let deltas = BTreeMap::from([("R".to_string(), delta)]);
        let (next, _, report) = mat.apply(&deltas).unwrap();
        // The scan applies its rows in place either way; the canonical
        // consolidate above it is the node the limit decides.
        assert_eq!(
            (report.localized, report.recomputed),
            (localized, recomputed),
            "asserting {class}"
        );
        let fresh = plan_of(&base).execute().unwrap();
        assert_eq!(tuples_of(next.relation()), tuples_of(&fresh.relation));
        assert_eq!(next.canonicalized_away(), fresh.canonicalized_away);
        assert_eq!(
            render_table(next.relation()).into_bytes(),
            render_table(&fresh.relation).into_bytes()
        );
        mat = next;
    }
}
