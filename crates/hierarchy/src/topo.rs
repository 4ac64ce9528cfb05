//! Topological orders over hierarchy graphs and any other DAG on `usize`
//! ids.
//!
//! The paper's node-elimination procedure (§2.1) and consolidation
//! (§3.3.1) both require traversals "in topologically sorted order" and
//! "in reverse topological order". A topological order here follows the
//! paper's footnote 5: if there is an edge from node *i* to node *j*, then
//! *i* precedes *j* (general before specific).
//!
//! There is one order and one implementation of it, [`kahn_order`]:
//! Kahn's algorithm that always places the *smallest* free id next. It
//! is deterministic (consolidation results are stable) and costs
//! O((V+E) log V), the free set being a binary min-heap. The hierarchy
//! closure ([`crate::reach::Reachability::build`]) and the core crate's
//! subsumption graphs both order their nodes through it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::graph::HierarchyGraph;
use crate::node::NodeId;

/// The topological order of the DAG on ids `0..n` whose edges are
/// `x → c` for every `c` in `children(x)`: of the nodes whose parents
/// are all placed, the smallest id goes next.
///
/// `children` is called twice per node (once to count in-degrees, once
/// when the node is placed). The graph must be acyclic; a cycle's nodes
/// are left out of the order (a debug assertion).
pub fn kahn_order<I>(n: usize, children: impl Fn(usize) -> I) -> Vec<usize>
where
    I: IntoIterator<Item = usize>,
{
    let mut indegree = vec![0usize; n];
    for x in 0..n {
        for c in children(x) {
            indegree[c] += 1;
        }
    }
    let mut free: BinaryHeap<Reverse<usize>> =
        (0..n).filter(|&x| indegree[x] == 0).map(Reverse).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(Reverse(x)) = free.pop() {
        order.push(x);
        for c in children(x) {
            indegree[c] -= 1;
            if indegree[c] == 0 {
                free.push(Reverse(c));
            }
        }
    }
    debug_assert_eq!(order.len(), n, "topological order of a cyclic graph");
    order
}

/// The topological order of all nodes of `g` (general before specific),
/// over both edge kinds; see [`kahn_order`].
pub fn topological_order(g: &HierarchyGraph) -> Vec<NodeId> {
    kahn_order(g.len(), |x| {
        g.children(NodeId::from_index(x)).map(NodeId::index)
    })
    .into_iter()
    .map(NodeId::from_index)
    .collect()
}

/// Positions of each node in a topological order, indexed by node id.
///
/// `rank[i.index()] < rank[j.index()]` whenever there is a path `i -> j`.
pub fn topological_ranks(g: &HierarchyGraph) -> Vec<usize> {
    let order = topological_order(g);
    let mut rank = vec![0usize; g.len()];
    for (pos, id) in order.iter().enumerate() {
        rank[id.index()] = pos;
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::HierarchyGraph;

    fn diamond() -> HierarchyGraph {
        let mut g = HierarchyGraph::new("D");
        let a = g.add_class("A", g.root()).unwrap();
        let b = g.add_class("B", g.root()).unwrap();
        g.add_class_multi("C", &[a, b]).unwrap();
        g
    }

    fn assert_is_topological(g: &HierarchyGraph, order: &[NodeId]) {
        let pos: std::collections::HashMap<NodeId, usize> =
            order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        assert_eq!(order.len(), g.len());
        for id in g.node_ids() {
            for c in g.children(id) {
                assert!(pos[&id] < pos[&c], "{id} must precede {c}");
            }
        }
    }

    #[test]
    fn order_respects_edges() {
        let g = diamond();
        let order = topological_order(&g);
        assert_is_topological(&g, &order);
        assert_eq!(order[0], g.root());
    }

    #[test]
    fn order_is_deterministic() {
        let g = diamond();
        assert_eq!(topological_order(&g), topological_order(&g));
    }

    #[test]
    fn ranks_agree_with_order() {
        let g = diamond();
        let order = topological_order(&g);
        let rank = topological_ranks(&g);
        for (pos, id) in order.iter().enumerate() {
            assert_eq!(rank[id.index()], pos);
        }
    }

    #[test]
    fn flat_fringe_is_ids_ascending_and_closed_over() {
        // One class over 20 000 instances: the shape on which a
        // frontier re-sorted per placed node is quadratic in the fringe.
        let mut g = HierarchyGraph::new("D");
        let class = g.add_class("C", g.root()).unwrap();
        for i in 0..20_000 {
            g.add_instance(format!("i{i}"), class).unwrap();
        }
        let order = topological_order(&g);
        assert!(order.iter().map(|id| id.index()).eq(0..g.len()));
        let closure = g.closure();
        for id in g.node_ids() {
            assert!(closure.reaches(g.root(), id));
            assert_eq!(closure.reaches(id, class), id.index() <= class.index());
        }
    }

    #[test]
    fn preference_edges_participate_in_ordering() {
        let mut g = HierarchyGraph::new("D");
        let a = g.add_class("A", g.root()).unwrap();
        let b = g.add_class("B", g.root()).unwrap();
        g.add_preference_edge(a, b).unwrap();
        let order = topological_order(&g);
        let pos_a = order.iter().position(|&n| n == a).unwrap();
        let pos_b = order.iter().position(|&n| n == b).unwrap();
        assert!(pos_a < pos_b);
    }

    #[test]
    fn single_node_graph() {
        let g = HierarchyGraph::new("D");
        assert_eq!(topological_order(&g), vec![g.root()]);
    }
}
