//! Property-based tests for the hierarchy substrate.
//!
//! The most important property here is `off_path_elimination_matches_
//! closed_form`: the relational core derives subsumption graphs over
//! *product* hierarchies (which cannot be materialized) from a closed-form
//! characterization of the paper's node-elimination procedure. This suite
//! checks that characterization against the literal procedure on random
//! DAGs, including DAGs with deliberately redundant edges.

use proptest::prelude::*;

use hrdm_hierarchy::elim::{EliminationGraph, EliminationMode};
use hrdm_hierarchy::gen::{layered_dag, sample_nodes};
use hrdm_hierarchy::reach::{redundant_edge_list, transitive_reduction, Reachability};
use hrdm_hierarchy::topo::topological_order;
use hrdm_hierarchy::validate::{validate, Violation};
use hrdm_hierarchy::{HierarchyGraph, NodeId};

/// Strategy: a random layered DAG plus a few random extra (possibly
/// redundant) edges.
fn arb_dag() -> impl Strategy<Value = HierarchyGraph> {
    (1usize..5, 1usize..6, 1usize..4, any::<u64>(), 0usize..6).prop_map(
        |(layers, width, maxp, seed, extra)| {
            let mut g = layered_dag(layers, width, maxp, seed);
            // Sprinkle extra edges between random comparable-or-not nodes;
            // ignore rejections (cycles, duplicates).
            let nodes: Vec<NodeId> = g.node_ids().collect();
            let mut s = seed;
            for _ in 0..extra {
                // Cheap deterministic LCG so the strategy stays pure.
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let a = nodes[(s >> 33) as usize % nodes.len()];
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let b = nodes[(s >> 33) as usize % nodes.len()];
                let _ = g.add_edge(a, b);
            }
            g
        },
    )
}

/// Strategy: [`arb_dag`] plus a few random preference edges (rejections
/// ignored, as for the extra subset edges).
fn arb_dag_with_preferences() -> impl Strategy<Value = HierarchyGraph> {
    (arb_dag(), any::<u64>(), 0usize..6).prop_map(|(mut g, seed, extra)| {
        let n = g.len() as u64;
        let mut s = seed;
        for _ in 0..extra {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = NodeId::from_index(((s >> 33) % n) as usize);
            let b = NodeId::from_index(((s >> 13) % n) as usize);
            let _ = g.add_preference_edge(a, b);
        }
        g
    })
}

/// The order spelled out: repeatedly place the smallest-id node whose
/// parents are all placed.
fn naive_smallest_first_order(g: &HierarchyGraph) -> Vec<NodeId> {
    let mut placed = vec![false; g.len()];
    let mut order = Vec::with_capacity(g.len());
    while let Some(next) = g
        .node_ids()
        .find(|&x| !placed[x.index()] && g.parents(x).all(|p| placed[p.index()]))
    {
        placed[next.index()] = true;
        order.push(next);
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn topological_order_is_the_smallest_free_id_order(g in arb_dag_with_preferences()) {
        prop_assert_eq!(topological_order(&g), naive_smallest_first_order(&g));
    }

    #[test]
    fn generated_dags_have_no_cycles(g in arb_dag()) {
        let cycles: Vec<_> = validate(&g)
            .into_iter()
            .filter(|v| matches!(v, Violation::Cycle(_)))
            .collect();
        prop_assert!(cycles.is_empty());
    }

    #[test]
    fn topological_order_is_valid_and_total(g in arb_dag()) {
        let order = topological_order(&g);
        prop_assert_eq!(order.len(), g.len());
        let mut pos = vec![usize::MAX; g.len()];
        for (i, id) in order.iter().enumerate() {
            pos[id.index()] = i;
        }
        for id in g.node_ids() {
            for c in g.children(id) {
                prop_assert!(pos[id.index()] < pos[c.index()]);
            }
        }
    }

    #[test]
    fn reachability_matrix_matches_dfs(g in arb_dag()) {
        let r = Reachability::new(&g);
        for i in g.node_ids() {
            for j in g.node_ids() {
                prop_assert_eq!(r.reaches(i, j), g.reaches(i, j));
            }
        }
    }

    #[test]
    fn transitive_reduction_preserves_reachability(g in arb_dag()) {
        let before = Reachability::new(&g);
        let mut reduced = g.clone();
        transitive_reduction(&mut reduced);
        let after = Reachability::new(&reduced);
        for i in g.node_ids() {
            for j in g.node_ids() {
                prop_assert_eq!(before.reaches(i, j), after.reaches(i, j));
            }
        }
        prop_assert!(redundant_edge_list(&reduced).is_empty());
    }

    #[test]
    fn elimination_preserves_reachability_among_survivors(
        g in arb_dag(),
        keep_count in 2usize..8,
        seed in any::<u64>(),
    ) {
        let mut kept = sample_nodes(&g, keep_count, seed);
        kept.push(g.root());
        let mut e = EliminationGraph::new(&g, EliminationMode::OffPath);
        e.retain(|n| kept.contains(&n));
        let r = Reachability::new(&g);
        for &x in &kept {
            for &y in &kept {
                prop_assert_eq!(
                    e.has_path(x, y),
                    r.reaches(x, y),
                    "reachability must be induced for {:?} -> {:?}", x, y
                );
            }
        }
    }

    /// Closed form: after off-path elimination of all non-kept nodes,
    /// an edge x -> y survives iff x reaches y and either the *original*
    /// graph had a direct edge x -> y, or no kept node lies strictly
    /// between x and y.
    #[test]
    fn off_path_elimination_matches_closed_form(
        g in arb_dag(),
        keep_count in 2usize..8,
        seed in any::<u64>(),
    ) {
        let mut kept = sample_nodes(&g, keep_count, seed);
        kept.push(g.root());
        kept.sort_unstable();
        kept.dedup();
        let mut e = EliminationGraph::new(&g, EliminationMode::OffPath);
        e.retain(|n| kept.contains(&n));
        let r = Reachability::new(&g);
        for &x in &kept {
            for &y in &kept {
                if x == y {
                    continue;
                }
                let direct = g.children(x).any(|c| c == y);
                let intermediary = kept
                    .iter()
                    .any(|&z| z != x && z != y && r.reaches(x, z) && r.reaches(z, y));
                let expect = r.reaches(x, y) && (direct || !intermediary);
                prop_assert_eq!(
                    e.has_edge(x, y),
                    expect,
                    "edge {:?} -> {:?}: direct={} intermediary={}",
                    x, y, direct, intermediary
                );
            }
        }
    }

    /// On-path closed form: edge x -> y iff some original path x -> y has
    /// no kept interior node.
    #[test]
    fn on_path_elimination_matches_closed_form(
        g in arb_dag(),
        keep_count in 2usize..8,
        seed in any::<u64>(),
    ) {
        let mut kept = sample_nodes(&g, keep_count, seed);
        kept.push(g.root());
        kept.sort_unstable();
        kept.dedup();
        let mut e = EliminationGraph::new(&g, EliminationMode::OnPath);
        e.retain(|n| kept.contains(&n));
        for &x in &kept {
            for &y in &kept {
                if x == y {
                    continue;
                }
                // Path avoiding kept interior nodes, by DFS on the
                // original graph.
                let mut stack = vec![x];
                let mut seen = vec![false; g.len()];
                seen[x.index()] = true;
                let mut found = false;
                while let Some(n) = stack.pop() {
                    for c in g.children(n) {
                        if c == y {
                            found = true;
                            break;
                        }
                        if !seen[c.index()] && !kept.contains(&c) {
                            seen[c.index()] = true;
                            stack.push(c);
                        }
                    }
                    if found {
                        break;
                    }
                }
                prop_assert_eq!(
                    e.has_edge(x, y),
                    found,
                    "on-path edge {:?} -> {:?}", x, y
                );
            }
        }
    }

    /// Off-path elimination is independent of elimination order.
    #[test]
    fn off_path_elimination_is_order_independent(
        g in arb_dag(),
        keep_count in 2usize..6,
        seed in any::<u64>(),
    ) {
        let mut kept = sample_nodes(&g, keep_count, seed);
        kept.push(g.root());
        let doomed: Vec<NodeId> = g
            .node_ids()
            .filter(|n| !kept.contains(n))
            .collect();

        let mut fwd = EliminationGraph::new(&g, EliminationMode::OffPath);
        for &n in &doomed {
            fwd.eliminate(n);
        }
        let mut rev = EliminationGraph::new(&g, EliminationMode::OffPath);
        for &n in doomed.iter().rev() {
            rev.eliminate(n);
        }
        for &x in &kept {
            let mut a = fwd.successors(x).to_vec();
            let mut b = rev.successors(x).to_vec();
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b, "successors of {:?} differ by order", x);
        }
    }

    #[test]
    fn extension_members_are_exactly_descendant_instances(g in arb_dag()) {
        for class in g.node_ids() {
            let ext = g.extension(class);
            for inst in g.instances() {
                prop_assert_eq!(
                    ext.contains(&inst),
                    g.is_descendant(inst, class),
                    "instance {:?} vs class {:?}", inst, class
                );
            }
        }
    }
}
