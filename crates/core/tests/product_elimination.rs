//! Multi-attribute paper-faithfulness: the closed-form subsumption /
//! binding construction over *product* item hierarchies must agree with
//! the literal node-elimination procedure run on the **materialized**
//! product graph.
//!
//! The arity-1 agreement is property-tested in `properties.rs`; this
//! suite materializes small two-attribute products (feasible only at
//! test scale — that's the point of the closed form) and compares
//! immediate-predecessor sets, in all three preemption modes for every
//! case: every stored tuple's parents in the subsumption graph, and
//! every atomic item's strongest binders and parents in its
//! tuple-binding graph.
//!
//! The cases are dense enough to hold an edge rule to the literal
//! procedure on their own: class layers up to three deep and up to
//! eight stored tuples make chains of three stored tuples common, which
//! is where off-path preemption drops an edge that no-preemption keeps.

use std::sync::Arc;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use hrdm_core::binding::strongest_binders;
use hrdm_core::prelude::*;
use hrdm_core::subsumption::SubsumptionGraph;
use hrdm_hierarchy::elim::{EliminationGraph, EliminationMode};
use hrdm_hierarchy::gen::{layered_dag, sample_nodes};
use hrdm_hierarchy::{HierarchyGraph, NodeId, ProductHierarchy};

/// Build a small random 2-attribute relation plus the materialized
/// product graph with a mapping between product nodes and names.
fn setup(
    s1: u64,
    s2: u64,
    ntuples: usize,
    tseed: u64,
) -> (HRelation, HierarchyGraph, Vec<(Item, NodeId)>) {
    let g1 = Arc::new(layered_dag(
        1 + (s1 % 3) as usize,
        2 + (s1 / 3 % 2) as usize,
        2,
        s1,
    ));
    let g2 = Arc::new(layered_dag(
        1 + (s2 % 3) as usize,
        2 + (s2 / 3 % 2) as usize,
        2,
        s2,
    ));
    let schema = Arc::new(Schema::new(vec![
        Attribute::new("A", g1.clone()),
        Attribute::new("B", g2.clone()),
    ]));
    let mut r = HRelation::new(schema);
    let n1 = sample_nodes(&g1, ntuples, tseed);
    let n2 = sample_nodes(&g2, ntuples, tseed ^ 0xabcd);
    for (k, (a, b)) in n1.into_iter().zip(n2).enumerate() {
        let truth = if (tseed >> k) & 1 == 1 {
            Truth::Positive
        } else {
            Truth::Negative
        };
        let _ = r.insert(Tuple::new(Item::new(vec![a, b]), truth));
    }

    // Materialize the product and build the item <-> product-node map by
    // name, which `ProductHierarchy::materialize` guarantees unique.
    let product = ProductHierarchy::new(vec![g1.clone(), g2.clone()]);
    let materialized = product.materialize().expect("small product");
    let mut mapping = Vec::new();
    for a in g1.node_ids() {
        for b in g2.node_ids() {
            let name = format!("({}, {})", g1.name(a), g2.name(b));
            let node = materialized.expect(&name);
            mapping.push((Item::new(vec![a, b]), node));
        }
    }
    (r, materialized, mapping)
}

fn node_of(mapping: &[(Item, NodeId)], item: &Item) -> NodeId {
    mapping
        .iter()
        .find(|(i, _)| i == item)
        .map(|&(_, n)| n)
        .expect("every product item is mapped")
}

fn item_of(mapping: &[(Item, NodeId)], node: NodeId) -> &Item {
    mapping
        .iter()
        .find(|&&(_, n)| n == node)
        .map(|(i, _)| i)
        .expect("every product node is mapped")
}

/// `v`'s predecessors in the materialized product once every node
/// `kept` refuses is eliminated (§2.1/Appendix), as sorted items.
fn literal(
    materialized: &HierarchyGraph,
    mapping: &[(Item, NodeId)],
    mode: Preemption,
    kept: impl Fn(NodeId) -> bool,
    v: NodeId,
) -> Vec<Item> {
    let mut e = match mode {
        Preemption::OffPath => EliminationGraph::new(materialized, EliminationMode::OffPath),
        Preemption::OnPath => EliminationGraph::new(materialized, EliminationMode::OnPath),
        Preemption::NoPreemption => EliminationGraph::from_closure(materialized),
    };
    e.retain(kept);
    let mut preds: Vec<Item> = e
        .predecessors(v)
        .iter()
        .map(|&p| item_of(mapping, p).clone())
        .collect();
    preds.sort();
    preds.dedup();
    preds
}

/// Node `v`'s parents in `g`, the universal node left out, as sorted
/// items.
fn parents(g: &SubsumptionGraph, v: usize) -> Vec<Item> {
    let mut items: Vec<Item> = g
        .parents(v)
        .iter()
        .filter(|&&p| p != SubsumptionGraph::UNIVERSAL)
        .map(|&p| g.item(p).clone())
        .collect();
    items.sort();
    items
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn binding_matches_literal_elimination_on_materialized_product(
        s1 in 0u64..1000,
        s2 in 0u64..1000,
        ntuples in 1usize..9,
        tseed in any::<u64>(),
    ) {
        for mode in [Preemption::OffPath, Preemption::OnPath, Preemption::NoPreemption] {
            check(s1, s2, ntuples, tseed, mode)?;
        }
    }
}

/// Every stored tuple's subsumption-graph parents, and every atomic
/// item's binding-graph parents and strongest binders, against the
/// literal elimination on the materialized product, in `mode`.
fn check(
    s1: u64,
    s2: u64,
    ntuples: usize,
    tseed: u64,
    mode: Preemption,
) -> Result<(), TestCaseError> {
    let (mut r, materialized, mapping) = setup(s1, s2, ntuples, tseed);
    r.set_preemption(mode);

    let tuple_nodes: Vec<NodeId> = r.items().map(|i| node_of(&mapping, i)).collect();

    // Query every atomic item without a stored tuple.
    let schema = r.schema().clone();
    let atoms: Vec<Item> = schema
        .domain(0)
        .instances()
        .flat_map(|a| {
            schema
                .domain(1)
                .instances()
                .map(move |b| Item::new(vec![a, b]))
        })
        .collect();

    // Every stored tuple's parents in the subsumption graph.
    let tuples_only = |n: NodeId| tuple_nodes.contains(&n);
    let sub = SubsumptionGraph::build(&r);
    for v in 1..sub.node_count() {
        let vn = node_of(&mapping, sub.item(v));
        prop_assert_eq!(
            parents(&sub, v),
            literal(&materialized, &mapping, mode, tuples_only, vn),
            "mode {:?}, stored tuple {:?}",
            mode,
            r.schema().display_item(sub.item(v))
        );
    }

    for q in atoms {
        let qn = node_of(&mapping, &q);
        let with_query = |n: NodeId| n == qn || tuple_nodes.contains(&n);
        let expected = literal(&materialized, &mapping, mode, with_query, qn);
        let (tbg, qi) = SubsumptionGraph::build_for_item(&r, &q);
        prop_assert_eq!(
            parents(&tbg, qi),
            expected.clone(),
            "binding graph, mode {:?}, query {:?}",
            mode,
            r.schema().display_item(&q)
        );
        if r.contains(&q) {
            continue;
        }

        let mut closed: Vec<Item> = strongest_binders(&r, &q)
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        closed.sort();
        closed.dedup();

        prop_assert_eq!(
            closed,
            expected,
            "mode {:?}, query {:?}",
            mode,
            r.schema().display_item(&q)
        );
    }
    Ok(())
}
