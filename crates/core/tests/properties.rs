//! Property tests for the hierarchical relational core.
//!
//! The §3 invariant — "any manipulations on hierarchical relations
//! should have the same effect whether performed on the hierarchical
//! relations or on the equivalent flat relations" — is the specification
//! of every operator. These tests generate random taxonomies and random
//! *consistent* relations and check each operator against its flat
//! counterpart, plus the physical operators' equivalence-preservation
//! guarantees and the paper-faithfulness of the binding closed form
//! against the literal node-elimination procedure.

use std::sync::Arc;

use proptest::prelude::*;

use hrdm_core::conflict::{find_conflicts, is_consistent};
use hrdm_core::consolidate::consolidate;
use hrdm_core::explicate::{explicate, explicate_all};
use hrdm_core::flat::{equivalent, flatten, flatten_via_binding};
use hrdm_core::ops::{difference, intersection, join, project, select, union};
use hrdm_core::plan::LogicalPlan;
use hrdm_core::prelude::*;
use hrdm_core::subsumption::SubsumptionGraph;
use hrdm_hierarchy::elim::{EliminationGraph, EliminationMode};
use hrdm_hierarchy::gen::{layered_dag, sample_nodes};
use hrdm_hierarchy::{HierarchyGraph, NodeId};

/// Owned atom set of a relation's flat model (avoids borrow lifetimes in
/// proptest macros).
fn atoms_of(r: &HRelation) -> std::collections::BTreeSet<Item> {
    flatten(r).into_atoms()
}

/// A small random taxonomy.
fn arb_graph(seed: u64) -> HierarchyGraph {
    let layers = 1 + (seed % 3) as usize;
    let width = 2 + (seed / 3 % 3) as usize;
    let maxp = 1 + (seed / 9 % 2) as usize;
    layered_dag(layers, width, maxp, seed)
}

/// Force consistency by resolving every conflict positively, repeating
/// to a fixpoint (terminates: resolution tuples move strictly down the
/// finite item hierarchy).
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

/// Random consistent single-attribute relation plus its schema.
fn arb_relation() -> impl Strategy<Value = HRelation> {
    (any::<u64>(), 1usize..6, any::<u64>()).prop_map(|(gseed, ntuples, tseed)| {
        let g = arb_graph(gseed);
        let schema = Arc::new(Schema::single("D", Arc::new(g)));
        let mut r = HRelation::new(schema.clone());
        let nodes = sample_nodes(schema.domain(0), ntuples, tseed);
        for (k, node) in nodes.into_iter().enumerate() {
            let truth = if (tseed >> k) & 1 == 1 {
                Truth::Positive
            } else {
                Truth::Negative
            };
            let _ = r.insert(Tuple::new(Item::new(vec![node]), truth));
        }
        make_consistent(&mut r);
        r
    })
}

/// Exact tuple sequence of a relation — the byte-level identity used by
/// the parity properties (not just flat-model equivalence).
fn tuples_of(r: &HRelation) -> Vec<(Item, Truth)> {
    r.iter().map(|(i, t)| (i.clone(), t)).collect()
}

/// Random consistent two-attribute relation over shared-able graphs.
fn arb_relation2() -> impl Strategy<Value = HRelation> {
    (any::<u64>(), any::<u64>(), 1usize..5, any::<u64>()).prop_map(|(s1, s2, ntuples, tseed)| {
        let g1 = Arc::new(arb_graph(s1));
        let g2 = Arc::new(arb_graph(s2));
        let schema = Arc::new(Schema::new(vec![
            Attribute::new("A", g1.clone()),
            Attribute::new("B", g2.clone()),
        ]));
        let mut r = HRelation::new(schema.clone());
        let n1 = sample_nodes(&g1, ntuples, tseed);
        let n2 = sample_nodes(&g2, ntuples, tseed ^ 0x5a5a);
        for (k, (a, b)) in n1.into_iter().zip(n2).enumerate() {
            let truth = if (tseed >> k) & 1 == 1 {
                Truth::Positive
            } else {
                Truth::Negative
            };
            let _ = r.insert(Tuple::new(Item::new(vec![a, b]), truth));
        }
        make_consistent(&mut r);
        r
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn flatten_matches_binding_oracle(r in arb_relation()) {
        prop_assert_eq!(atoms_of(&r), flatten_via_binding(&r).into_atoms());
    }

    #[test]
    fn flatten_matches_binding_oracle_2attr(r in arb_relation2()) {
        prop_assert_eq!(atoms_of(&r), flatten_via_binding(&r).into_atoms());
    }

    #[test]
    fn consolidate_preserves_model_and_minimizes(r in arb_relation2()) {
        let c = consolidate(&r);
        prop_assert!(equivalent(&r, &c.relation));
        prop_assert!(c.relation.len() <= r.len());
        // Idempotent: a second pass removes nothing.
        prop_assert!(consolidate(&c.relation).removed.is_empty());
        // Consistency preserved.
        prop_assert!(is_consistent(&c.relation));
    }

    #[test]
    fn explicate_preserves_model(r in arb_relation2()) {
        let full = explicate_all(&r);
        prop_assert!(equivalent(&r, &full));
        // Partial explication of either attribute also preserves it.
        for attrs in [[0usize], [1usize]] {
            let part = explicate(&r, &attrs).unwrap();
            prop_assert!(equivalent(&r, &part), "attrs {:?}", attrs);
        }
    }

    #[test]
    fn select_matches_flat_selection(r in arb_relation(), rseed in any::<u64>()) {
        // Random region node.
        let region_node = sample_nodes(r.schema().domain(0), 1, rseed)
            .into_iter()
            .next()
            .unwrap_or(hrdm_hierarchy::NodeId::ROOT);
        let region = Item::new(vec![region_node]);
        let result = select(&r, &region).unwrap();
        let product = r.schema().product();
        let expected: std::collections::BTreeSet<Item> = flatten(&r)
            .into_atoms()
            .into_iter()
            .filter(|a| product.subsumes(region.components(), a.components()))
            .collect();
        prop_assert_eq!(atoms_of(&result), expected);
        prop_assert!(is_consistent(&result));
    }

    #[test]
    fn set_ops_match_flat_set_ops(
        (r1, r2) in (any::<u64>(), 1usize..5, 1usize..5, any::<u64>(), any::<u64>())
            .prop_map(|(gseed, n1, n2, t1, t2)| {
                let g = arb_graph(gseed);
                let schema = Arc::new(Schema::single("D", Arc::new(g)));
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
                (mk(n1, t1), mk(n2, t2))
            })
    ) {
        let f1 = flatten(&r1);
        let f2 = flatten(&r2);
        let mut all: std::collections::BTreeSet<Item> = f1.atoms().clone();
        all.extend(f2.atoms().iter().cloned());

        let u = union(&r1, &r2).unwrap();
        let expected: std::collections::BTreeSet<Item> =
            all.iter().filter(|i| f1.contains(i) || f2.contains(i)).cloned().collect();
        prop_assert_eq!(atoms_of(&u), expected, "union");

        let i = intersection(&r1, &r2).unwrap();
        let expected: std::collections::BTreeSet<Item> =
            all.iter().filter(|i| f1.contains(i) && f2.contains(i)).cloned().collect();
        prop_assert_eq!(atoms_of(&i), expected, "intersection");

        let d = difference(&r1, &r2).unwrap();
        let expected: std::collections::BTreeSet<Item> =
            all.iter().filter(|i| f1.contains(i) && !f2.contains(i)).cloned().collect();
        prop_assert_eq!(atoms_of(&d), expected, "difference");
    }

    #[test]
    fn join_matches_flat_join(
        (r1, r2) in (any::<u64>(), any::<u64>(), any::<u64>(), 1usize..4, 1usize..4, any::<u64>(), any::<u64>())
            .prop_map(|(gs, gb, gc, n1, n2, t1, t2)| {
                let shared = Arc::new(arb_graph(gs));
                let gb = Arc::new(arb_graph(gb));
                let gc = Arc::new(arb_graph(gc));
                let s1 = Arc::new(Schema::new(vec![
                    Attribute::new("K", shared.clone()),
                    Attribute::new("B", gb),
                ]));
                let s2 = Arc::new(Schema::new(vec![
                    Attribute::new("K", shared),
                    Attribute::new("C", gc),
                ]));
                let mk = |schema: &Arc<Schema>, n: usize, seed: u64| {
                    let mut r = HRelation::new(schema.clone());
                    let ka = sample_nodes(schema.domain(0), n, seed);
                    let kb = sample_nodes(schema.domain(1), n, seed ^ 0xbeef);
                    for (k, (a, b)) in ka.into_iter().zip(kb).enumerate() {
                        let truth = if (seed >> k) & 1 == 1 {
                            Truth::Positive
                        } else {
                            Truth::Negative
                        };
                        let _ = r.insert(Tuple::new(Item::new(vec![a, b]), truth));
                    }
                    make_consistent(&mut r);
                    r
                };
                (mk(&s1, n1, t1), mk(&s2, n2, t2))
            })
    ) {
        let joined = join(&r1, &r2).unwrap();
        let f1 = flatten(&r1);
        let f2 = flatten(&r2);
        let mut expected = std::collections::BTreeSet::new();
        for a in f1.iter() {
            for b in f2.iter() {
                if a.component(0) == b.component(0) {
                    expected.insert(Item::new(vec![
                        a.component(0),
                        a.component(1),
                        b.component(1),
                    ]));
                }
            }
        }
        prop_assert_eq!(atoms_of(&joined), expected);
    }

    #[test]
    fn project_positive_only_matches_exists_semantics(r in arb_relation2()) {
        // Keep only positive tuples whose dropped component has a
        // non-empty extension: that is the precondition under which
        // tuple-wise projection coincides with the extensional reading
        // (see DESIGN.md — intensional classes are kept deliberately).
        let mut pos = HRelation::new(r.schema().clone());
        let dropped_domain = r.schema().domain(1);
        for (item, truth) in r.iter() {
            if truth == Truth::Positive
                && !dropped_domain.extension(item.component(1)).is_empty()
            {
                pos.insert(Tuple::positive(item.clone())).unwrap();
            }
        }
        let p = project(&pos, &[0]).unwrap();
        let expected: std::collections::BTreeSet<Item> = flatten(&pos)
            .iter()
            .map(|a| a.select_components(&[0]))
            .collect();
        prop_assert_eq!(atoms_of(&p), expected);
    }

    /// Paper-faithfulness: the binding kernel must agree with the
    /// literal node-elimination procedure on single-attribute relations,
    /// in all three preemption modes — for a query item's strongest
    /// binders, for its tuple-binding graph, and for every edge of the
    /// subsumption graph.
    #[test]
    fn binding_matches_literal_elimination(
        r in arb_relation(),
        qseed in any::<u64>(),
        mode in prop::sample::select(vec![
            Preemption::OffPath,
            Preemption::OnPath,
            Preemption::NoPreemption,
        ]),
    ) {
        let mut r = r;
        r.set_preemption(mode);
        let g = r.schema().domain(0);
        let q = sample_nodes(g, 1, qseed)
            .into_iter()
            .next()
            .unwrap_or(NodeId::ROOT);
        let qitem = Item::new(vec![q]);
        let tuple_nodes: Vec<NodeId> = r.items().map(|i| i.component(0)).collect();
        let sorted = |nodes: Vec<NodeId>| {
            let mut nodes = nodes;
            nodes.sort_unstable();
            nodes.dedup();
            nodes
        };

        // Literal: eliminate all hierarchy nodes without tuples, per
        // §2.1, in the right elimination flavour. Only tuple nodes and
        // (for the binding graph) the query survive, so every
        // predecessor left is a binder.
        let literal = |kept: &dyn Fn(NodeId) -> bool, v: NodeId| {
            let mut e = match mode {
                Preemption::OffPath => EliminationGraph::new(g, EliminationMode::OffPath),
                Preemption::OnPath => EliminationGraph::new(g, EliminationMode::OnPath),
                Preemption::NoPreemption => EliminationGraph::from_closure(g),
            };
            e.retain(kept);
            sorted(e.predecessors(v).to_vec())
        };
        let parents = |sub: &SubsumptionGraph, v: usize| {
            sorted(
                sub.parents(v)
                    .iter()
                    .filter(|&&p| p != SubsumptionGraph::UNIVERSAL)
                    .map(|&p| sub.item(p).component(0))
                    .collect(),
            )
        };

        // Every stored tuple's parents in the subsumption graph.
        let sub = SubsumptionGraph::build(&r);
        for v in 1..sub.node_count() {
            let node = sub.item(v).component(0);
            prop_assert_eq!(
                parents(&sub, v),
                literal(&|n| tuple_nodes.contains(&n), node),
                "mode {:?}, stored tuple {:?}", mode, node
            );
        }

        // The query node's parents in its tuple-binding graph.
        let with_query = |n: NodeId| n == q || tuple_nodes.contains(&n);
        let expected = literal(&with_query, q);
        let (tbg, qi) = SubsumptionGraph::build_for_item(&r, &qitem);
        prop_assert_eq!(parents(&tbg, qi), expected.clone(), "mode {:?}, query {:?}", mode, q);

        if r.contains(&qitem) {
            return Ok(()); // explicit tuples preempt everything
        }
        let closed = sorted(
            hrdm_core::binding::strongest_binders(&r, &qitem)
                .into_iter()
                .map(|(i, _)| i.component(0))
                .collect(),
        );
        prop_assert_eq!(closed, expected, "mode {:?}, query {:?}", mode, q);
    }

    /// The subsumption graph's order is the hierarchy crate's one order:
    /// repeatedly the smallest-index node whose parents are all placed,
    /// the virtual universal node then left out.
    #[test]
    fn subsumption_topo_order_is_the_smallest_free_index_order(
        r in arb_relation2(),
        mode in prop::sample::select(vec![
            Preemption::OffPath,
            Preemption::OnPath,
            Preemption::NoPreemption,
        ]),
    ) {
        let mut r = r;
        r.set_preemption(mode);
        let g = SubsumptionGraph::build(&r);
        let mut placed = vec![false; g.node_count()];
        let mut naive = Vec::new();
        while let Some(next) = (0..g.node_count())
            .find(|&x| !placed[x] && g.parents(x).iter().all(|&p| placed[p]))
        {
            placed[next] = true;
            naive.push(next);
        }
        prop_assert_eq!(naive.len(), g.node_count());
        naive.retain(|&x| x != SubsumptionGraph::UNIVERSAL);
        prop_assert_eq!(g.topo_order(), naive, "mode {:?}", mode);
    }

    #[test]
    fn discovery_round_trips_and_compresses(r in arb_relation()) {
        let flat = flatten(&r);
        let d = hrdm_core::discover::discover(&flat);
        prop_assert_eq!(atoms_of(&d.relation), flat.atoms().clone());
        prop_assert!(d.stats.hierarchical_tuples <= d.stats.flat_tuples.max(1));
        prop_assert!(is_consistent(&d.relation));
    }

    #[test]
    fn operators_never_panic_on_consistent_inputs(r in arb_relation2()) {
        // Smoke property: every unary operator succeeds on consistent
        // input and yields a consistent result.
        let c = consolidate(&r).relation;
        prop_assert!(is_consistent(&c));
        let e = explicate_all(&r);
        prop_assert!(is_consistent(&e));
        let s = select(&r, &r.schema().universal_item()).unwrap();
        prop_assert!(is_consistent(&s));
    }
}

// Algebraic laws of the physical operators, compared at the byte level
// (exact tuple sequences with truths), not just up to flat-model
// equivalence.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Consolidation never changes what explication means:
    /// explicate(consolidate(r)) and explicate(r) have the same flat
    /// model, and the two can differ only by redundant negated tuples
    /// (§3.3.2) — so consolidating both yields byte-identical relations
    /// (the §3.3.1 unique minimum of that shared model).
    #[test]
    fn explicate_after_consolidate_is_identity(r in arb_relation2()) {
        let direct = explicate_all(&r);
        let via = explicate_all(&consolidate(&r).relation);
        prop_assert!(equivalent(&direct, &via));
        prop_assert_eq!(
            tuples_of(&consolidate(&direct).relation),
            tuples_of(&consolidate(&via).relation)
        );
    }

    /// §3.3.1's "unique minimal relation": the consolidated result
    /// depends only on the tuple set — not the order tuples were
    /// inserted — and a second pass is a byte-level fixpoint.
    #[test]
    fn consolidate_unique_minimum_regardless_of_order(
        r in arb_relation2(),
        seed in any::<u64>(),
    ) {
        let c1 = consolidate(&r);
        let tuples = tuples_of(&r);
        for variant in 0..2 {
            let mut order = tuples.clone();
            if variant == 0 {
                order.reverse();
            } else {
                let rot = (seed as usize) % order.len().max(1);
                order.rotate_left(rot);
            }
            let mut r2 = HRelation::with_preemption(r.schema().clone(), r.preemption());
            for (item, truth) in order {
                r2.insert(Tuple::new(item, truth)).unwrap();
            }
            let c2 = consolidate(&r2);
            prop_assert_eq!(tuples_of(&c1.relation), tuples_of(&c2.relation));
            prop_assert_eq!(&c1.removed, &c2.removed);
        }
        let again = consolidate(&c1.relation);
        prop_assert!(again.removed.is_empty());
        prop_assert_eq!(tuples_of(&c1.relation), tuples_of(&again.relation));
    }
}

// ---------------------------------------------------------------------
// Logical-plan properties: rewrite soundness at the byte level.
// ---------------------------------------------------------------------

/// A pool of consistent base relations over one shared single-attribute
/// schema, so every binary plan node (join included) is well-formed.
fn plan_bases(gseed: u64, t1: u64, t2: u64) -> (Arc<Schema>, Vec<HRelation>) {
    let g = Arc::new(arb_graph(gseed));
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

/// Deterministically grow a random plan tree from a seed: every
/// operator of the IR appears, regions/values are sampled from the
/// shared domain, and leaves scan the base-relation pool.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The optimizer is a byte-level no-op on the canonical output:
    /// 4 random plans per proptest case × 64 cases = 256 plan/relation
    /// pairs where the rewritten pipeline's result is identical — exact
    /// tuple sequences with truths — to naive bottom-up evaluation.
    #[test]
    fn optimized_plan_matches_naive_evaluation(
        gseed in any::<u64>(),
        t1 in any::<u64>(),
        t2 in any::<u64>(),
        pseed in any::<u64>(),
    ) {
        let (schema, bases) = plan_bases(gseed, t1, t2);
        for variant in 0..4u64 {
            let seed = pseed.wrapping_add(variant.wrapping_mul(0x9e37_79b9));
            let depth = 2 + (seed % 3) as usize;
            let plan = build_plan(&schema, &bases, seed, depth);
            // A join-rooted shape the generator reaches only one seed in
            // nine: the same seed's depth-2 subtree joined with a base
            // scan.
            let joined = build_plan(&schema, &bases, seed, 2)
                .join(LogicalPlan::scan("R0", bases[0].clone()));
            for plan in [plan, joined] {
                let (optimized, _rewrites) = plan.optimize();
                match (plan.execute(), optimized.execute()) {
                    (Ok(a), Ok(b)) => prop_assert_eq!(
                        tuples_of(&a.relation),
                        tuples_of(&b.relation),
                        "plan {:?}",
                        plan
                    ),
                    // Both evaluation orders may legitimately reject
                    // (e.g. a conflicted intermediate), as long as they
                    // agree on the kind of failure.
                    (Err(a), Err(b)) => prop_assert_eq!(
                        std::mem::discriminant(&a),
                        std::mem::discriminant(&b),
                        "naive fails with {:?}, optimized with {:?}, for plan {:?}",
                        a,
                        b,
                        plan
                    ),
                    (a, b) => prop_assert!(
                        false,
                        "naive ok={} vs optimized ok={} for plan {:?}",
                        a.is_ok(),
                        b.is_ok(),
                        plan
                    ),
                }
            }
        }
    }

    /// `Consolidate(Consolidate(p))` ≡ `Consolidate(p)` as executed
    /// plans — §3.3.1 idempotence at the plan layer, byte for byte.
    #[test]
    fn plan_consolidate_is_idempotent(
        gseed in any::<u64>(),
        t1 in any::<u64>(),
        t2 in any::<u64>(),
        pseed in any::<u64>(),
    ) {
        let (schema, bases) = plan_bases(gseed, t1, t2);
        let depth = 1 + (pseed % 2) as usize;
        let p = build_plan(&schema, &bases, pseed, depth);
        let single = p.clone().consolidate().execute();
        let double = p.consolidate().consolidate().execute();
        match (single, double) {
            (Ok(a), Ok(b)) => prop_assert_eq!(
                tuples_of(&a.relation),
                tuples_of(&b.relation)
            ),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "ok={} vs ok={}", a.is_ok(), b.is_ok()),
        }
    }
}
