//! `HRelation::above` against the scan it replaced. For each query item
//! it either walks the item's binding ancestors and probes the tuple
//! map, or scans the stored tuples when the walk would cost as much.
//! Either way it must list exactly the tuples a `reaches` scan finds, in
//! the same order, and binding through it must agree with binding
//! through the scan in every preemption mode. The truth-only kernel a
//! point read asks (`HRelation::verdict`) must answer what `bind`
//! reports for every item, on both sides of the switch.
//!
//! The hierarchies are random layered DAGs with multi-parent nodes and
//! random preference edges (binding reachability follows both kinds).
//! Relations have arity 1–3 and hold anything from one tuple to a few
//! hundred, so queries land on both sides of the walk/scan switch; the
//! run fails unless both sides were exercised.

use std::sync::Arc;

use hrdm_core::binding::{bind, verdict};
use hrdm_core::justify::justify;
use hrdm_core::prelude::*;
use hrdm_core::relation::PROBE_COST;
use hrdm_hierarchy::gen::layered_dag;
use hrdm_hierarchy::{HierarchyGraph, NodeId};

const CASES: u64 = 160;
const QUERIES: usize = 40;
const MAX_TUPLES: usize = 400;
/// The first cases, whose every item the verdict kernel is held to.
const VERDICT_CASES: u64 = 48;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn below(state: &mut u64, n: usize) -> usize {
    (splitmix(state) % n as u64) as usize
}

/// The oracle: every stored tuple whose item reaches `q`, by scanning.
fn scan(r: &HRelation, q: &Item) -> Vec<(Item, Truth)> {
    let product = r.schema().product();
    r.iter()
        .filter(|(x, _)| product.reaches(x.components(), q.components()))
        .map(|(x, t)| (x.clone(), t))
        .collect()
}

/// A layered DAG with up to three parents a node, plus up to three
/// random preference edges (a refused one — a cycle, a duplicate, an
/// edge out of an instance — is skipped).
fn graph(state: &mut u64) -> HierarchyGraph {
    let layers = 1 + below(state, 3);
    let width = 2 + below(state, 3);
    let mut g = layered_dag(layers, width, 3, splitmix(state));
    for _ in 0..below(state, 4) {
        let from = NodeId::from_index(below(state, g.len()));
        let to = NodeId::from_index(below(state, g.len()));
        let _ = g.add_preference_edge(from, to);
    }
    g
}

/// Every item of the product hierarchy.
fn all_items(schema: &Schema) -> Vec<Item> {
    let mut items = vec![Vec::new()];
    for g in schema.product().components() {
        items = items
            .into_iter()
            .flat_map(|prefix: Vec<NodeId>| {
                g.node_ids().map(move |n| {
                    let mut item = prefix.clone();
                    item.push(n);
                    item
                })
            })
            .collect();
    }
    items.into_iter().map(Item::new).collect()
}

/// Does `above` walk for `q` rather than scan?
fn walks(r: &HRelation, q: &Item) -> bool {
    let probes: usize = q
        .components()
        .iter()
        .zip(r.schema().product().components())
        .map(|(&x, g)| g.binding_ancestors(x, usize::MAX).expect("no cap").len())
        .product();
    probes * PROBE_COST < r.len()
}

const MODES: [Preemption; 3] = [
    Preemption::OffPath,
    Preemption::OnPath,
    Preemption::NoPreemption,
];

/// Case `case`'s random relation (off-path), every item of its product
/// hierarchy, and the generator state after drawing them.
fn random_relation(case: u64) -> (HRelation, Vec<Item>, u64) {
    let mut state = case;
    let arity = 1 + below(&mut state, 3);
    let schema = Arc::new(Schema::new(
        (0..arity)
            .map(|i| Attribute::new(format!("A{i}"), Arc::new(graph(&mut state))))
            .collect(),
    ));
    let items = all_items(&schema);
    let mut r = HRelation::new(schema);
    for _ in 0..1 + below(&mut state, items.len().min(MAX_TUPLES)) {
        let truth = if splitmix(&mut state) & 1 == 1 {
            Truth::Positive
        } else {
            Truth::Negative
        };
        let item = items[below(&mut state, items.len())].clone();
        r.insert(Tuple::new(item, truth)).unwrap();
    }
    (r, items, state)
}

#[test]
fn above_and_bind_match_the_scan_on_both_sides_of_the_switch() {
    let (mut walked, mut scanned) = (0, 0);
    for case in 0..CASES {
        let (mut r, items, mut state) = random_relation(case);
        // The walk itself, against the closure it stands in for.
        for g in r.schema().product().components() {
            let closure = g.closure();
            for x in g.node_ids() {
                let reaching: Vec<NodeId> =
                    g.node_ids().filter(|&y| closure.reaches(y, x)).collect();
                let cap = reaching.len() - 1;
                assert_eq!(
                    g.binding_ancestors(x, usize::MAX),
                    Some(reaching),
                    "case {case}"
                );
                assert_eq!(g.binding_ancestors(x, cap), None, "case {case}");
            }
        }
        for _ in 0..QUERIES {
            let q = &items[below(&mut state, items.len())];
            let want = scan(&r, q);
            if walks(&r, q) {
                walked += 1;
            } else {
                scanned += 1;
            }
            assert_eq!(r.above(q), want, "case {case}: above({q:?})");
            let listed: Vec<(Item, Truth)> = justify(&r, q)
                .applicable
                .into_iter()
                .map(|t| (t.item, t.truth))
                .collect();
            assert_eq!(listed, want, "case {case}: WHY lists above({q:?})");
            for mode in MODES {
                r.set_preemption(mode);
                assert_eq!(
                    r.bind(q),
                    bind(&r, q, &want),
                    "case {case}: {mode} bind({q:?})"
                );
            }
        }
    }
    assert!(
        walked > 0 && scanned > 0,
        "walked {walked}, scanned {scanned}"
    );
}

/// The truth-only kernel a point read asks (`HRelation::verdict`, the
/// `verdict` of a listed `above`) answers what `bind` reports — the
/// truth, a conflict, or nothing — for every item of every relation,
/// in all three preemption modes, whether the item's binders were
/// found by the walk or by the scan. `holds`, `holds3` and the
/// operators' `class_holds` all read it.
#[test]
fn the_verdict_kernel_answers_what_bind_reports() {
    let (mut walked, mut scanned) = (0, 0);
    for case in 0..VERDICT_CASES {
        let (mut r, items, _) = random_relation(case);
        for mode in MODES {
            r.set_preemption(mode);
            for q in &items {
                let bound = r.bind(q);
                let got = r.verdict(q);
                assert_eq!(got, bound.verdict(), "case {case}: {mode} verdict({q:?})");
                assert_eq!(got.truth(), bound.truth(), "case {case}");
                assert_eq!(got.is_conflict(), bound.is_conflict(), "case {case}");
                assert_eq!(verdict(&r, q, &scan(&r, q)), got, "case {case}: {mode}");
                assert_eq!(r.holds(q), bound.truth() == Some(Truth::Positive));
                if mode == Preemption::OffPath {
                    if walks(&r, q) {
                        walked += 1;
                    } else {
                        scanned += 1;
                    }
                }
            }
        }
    }
    assert!(
        walked > 0 && scanned > 0,
        "walked {walked}, scanned {scanned}"
    );
}
