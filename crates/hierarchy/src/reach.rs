//! Reachability, transitive closure, and transitive reduction.
//!
//! The Appendix pins the paper's default (off-path) preemption semantics
//! to the *transitive reduction* of the hierarchy graph ("we wish to
//! retain only the transitive reduction"), while no-preemption semantics
//! use the *transitive closure*. This module provides both, plus a
//! reusable reachability matrix for the algorithms that repeatedly ask
//! path-existence questions (node elimination, redundancy detection).

use crate::graph::{EdgeKind, HierarchyGraph};
use crate::node::NodeId;
use crate::topo::topological_order;

/// Which edges participate in a [`Reachability`] closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClosureKind {
    /// Subset and preference edges: full path reachability, as used by
    /// binding-graph construction and no-preemption semantics.
    Both,
    /// Subset edges only: set membership (`is_descendant`), as used by
    /// the membership join and extension queries.
    SubsetOnly,
}

/// A dense reachability matrix over a graph's nodes.
///
/// `reach(i, j)` answers "is there a path i → j?" in O(1) after an
/// O((V+E) log V + E·V/64) construction: one topological order, then
/// one row OR per edge. Rows are 64-bit packed.
#[derive(Clone)]
pub struct Reachability {
    n: usize,
    words: usize,
    bits: Vec<u64>,
}

impl Reachability {
    /// Build the full transitive closure of `g` (edges of both kinds).
    ///
    /// Reflexive: every node reaches itself.
    pub fn new(g: &HierarchyGraph) -> Reachability {
        Reachability::build(g, ClosureKind::Both)
    }

    /// Build the closure over the given edge kinds.
    pub fn build(g: &HierarchyGraph, kind: ClosureKind) -> Reachability {
        let n = g.len();
        let words = n.div_ceil(64);
        let mut bits = vec![0u64; n * words];
        // Process in reverse topological order so each node's row can be
        // formed by OR-ing its (already complete) children's rows.
        let order = topological_order(g);
        for &id in order.iter().rev() {
            let i = id.index();
            bits[i * words + i / 64] |= 1u64 << (i % 64);
            for &(c, ek) in g.children_with_kind(id) {
                if kind == ClosureKind::SubsetOnly && ek != EdgeKind::Subset {
                    continue;
                }
                let (row_i, row_c) = (i * words, c.index() * words);
                // Split-borrow the two rows.
                if row_i < row_c {
                    let (a, b) = bits.split_at_mut(row_c);
                    let dst = &mut a[row_i..row_i + words];
                    let src = &b[..words];
                    for (d, s) in dst.iter_mut().zip(src) {
                        *d |= *s;
                    }
                } else {
                    let (a, b) = bits.split_at_mut(row_i);
                    let src = &a[row_c..row_c + words];
                    let dst = &mut b[..words];
                    for (d, s) in dst.iter_mut().zip(src) {
                        *d |= *s;
                    }
                }
            }
        }
        Reachability { n, words, bits }
    }

    /// Is there a path `from → to` (reflexive)?
    #[inline]
    pub fn reaches(&self, from: NodeId, to: NodeId) -> bool {
        let (i, j) = (from.index(), to.index());
        debug_assert!(i < self.n && j < self.n);
        self.bits[i * self.words + j / 64] >> (j % 64) & 1 == 1
    }

    /// All nodes reachable from `from`, including itself, in id order.
    pub fn reachable_set(&self, from: NodeId) -> Vec<NodeId> {
        let row = &self.bits[from.index() * self.words..][..self.words];
        let mut out = Vec::new();
        for (w, &word) in row.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                let b = word.trailing_zeros() as usize;
                out.push(NodeId::from_index(w * 64 + b));
                word &= word - 1;
            }
        }
        out
    }

    /// All nodes reachable from *both* `a` and `b`, in id order: the
    /// AND of the two bitset rows. Over a subset-only closure this is
    /// the defined-node approximation of the set intersection `a ∩ b`
    /// (§3.1), computed in O(V/64) instead of two DFS walks per node.
    pub fn common_reachable(&self, a: NodeId, b: NodeId) -> Vec<NodeId> {
        let ra = &self.bits[a.index() * self.words..][..self.words];
        let rb = &self.bits[b.index() * self.words..][..self.words];
        let mut out = Vec::new();
        for (w, (&wa, &wb)) in ra.iter().zip(rb).enumerate() {
            let mut word = wa & wb;
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                out.push(NodeId::from_index(w * 64 + bit));
                word &= word - 1;
            }
        }
        out
    }

    /// Is any node reachable from both `a` and `b`?
    pub fn reaches_common(&self, a: NodeId, b: NodeId) -> bool {
        let ra = &self.bits[a.index() * self.words..][..self.words];
        let rb = &self.bits[b.index() * self.words..][..self.words];
        ra.iter().zip(rb).any(|(&wa, &wb)| wa & wb != 0)
    }

    /// Number of nodes in the matrix.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the empty matrix (never produced from a real graph,
    /// which always has a root).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

/// The transitive-closure edge list of `g`: every pair `(i, j)`, `i ≠ j`,
/// with a path `i → j`.
pub fn transitive_closure_edges(g: &HierarchyGraph) -> Vec<(NodeId, NodeId)> {
    let r = g.closure_ref(ClosureKind::Both);
    let mut out = Vec::new();
    for i in g.node_ids() {
        for j in r.reachable_set(i) {
            if i != j {
                out.push((i, j));
            }
        }
    }
    out
}

/// Redundant subset/preference edges of `g`: edges `(u, v)` such that a
/// path `u → v` exists that does not use the edge itself.
///
/// The Appendix: redundant edges flip off-path preemption into on-path
/// behaviour, so the paper's default semantics require none.
pub fn redundant_edge_list(g: &HierarchyGraph) -> Vec<(NodeId, NodeId)> {
    // One shared closure replaces a DFS per (edge, sibling) pair; repeated
    // calls on an unchanged graph reuse the graph's memo.
    let r = g.closure_ref(ClosureKind::Both);
    let mut out = Vec::new();
    for u in g.node_ids() {
        for v in g.children(u) {
            // u → w →* v for some other child w of u means (u, v) is
            // redundant. Equivalently: v reachable from some sibling.
            if g.children(u).any(|w| w != v && r.reaches(w, v)) {
                out.push((u, v));
            }
        }
    }
    out
}

/// Remove every redundant edge, leaving the transitive reduction.
///
/// For a DAG the transitive reduction is unique. Returns the number of
/// edges removed.
pub fn transitive_reduction(g: &mut HierarchyGraph) -> usize {
    // Removing one redundant edge can never make another *non*-redundant
    // (paths only shrink), and cannot create new redundancy, so a single
    // sweep over the precomputed list is sound.
    let redundant = redundant_edge_list(g);
    let removed = redundant.len();
    for (u, v) in redundant {
        g.remove_edge(u, v)
            .expect("edge listed as redundant must exist");
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::HierarchyGraph;

    fn chain() -> (HierarchyGraph, Vec<NodeId>) {
        let mut g = HierarchyGraph::new("D");
        let a = g.add_class("A", g.root()).unwrap();
        let b = g.add_class("B", a).unwrap();
        let c = g.add_class("C", b).unwrap();
        (g, vec![a, b, c])
    }

    #[test]
    fn closure_matches_dfs() {
        let (g, ns) = chain();
        let r = Reachability::new(&g);
        for i in g.node_ids() {
            for j in g.node_ids() {
                assert_eq!(r.reaches(i, j), g.reaches(i, j), "{i} -> {j}");
            }
        }
        assert!(r.reaches(ns[0], ns[2]));
        assert!(!r.reaches(ns[2], ns[0]));
    }

    #[test]
    fn closure_is_reflexive() {
        let (g, _) = chain();
        let r = Reachability::new(&g);
        for i in g.node_ids() {
            assert!(r.reaches(i, i));
        }
    }

    #[test]
    fn reachable_set_lists_descendants_and_self() {
        let (g, ns) = chain();
        let r = Reachability::new(&g);
        assert_eq!(r.reachable_set(ns[1]), vec![ns[1], ns[2]]);
        assert_eq!(r.reachable_set(ns[2]), vec![ns[2]]);
        assert_eq!(r.len(), 4);
        assert!(!r.is_empty());
    }

    #[test]
    fn closure_edges_count_for_chain() {
        let (g, _) = chain();
        // root->A,B,C  A->B,C  B->C : 6 pairs
        assert_eq!(transitive_closure_edges(&g).len(), 6);
    }

    #[test]
    fn redundant_edges_detected_and_reduced() {
        let (mut g, ns) = chain();
        assert!(redundant_edge_list(&g).is_empty());
        g.add_edge(ns[0], ns[2]).unwrap(); // A -> C, redundant via B
        assert_eq!(redundant_edge_list(&g), vec![(ns[0], ns[2])]);
        let removed = transitive_reduction(&mut g);
        assert_eq!(removed, 1);
        assert!(redundant_edge_list(&g).is_empty());
        assert!(g.reaches(ns[0], ns[2]), "reachability preserved");
    }

    #[test]
    fn reduction_of_diamond_keeps_all_edges() {
        let mut g = HierarchyGraph::new("D");
        let a = g.add_class("A", g.root()).unwrap();
        let b = g.add_class("B", g.root()).unwrap();
        g.add_class_multi("C", &[a, b]).unwrap();
        assert_eq!(transitive_reduction(&mut g), 0);
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn reduction_removes_nested_redundancy() {
        // root -> a -> b -> c plus root -> b and root -> c: two redundant
        // edges, both from one sweep.
        let mut g = HierarchyGraph::new("D");
        let a = g.add_class("A", g.root()).unwrap();
        let b = g.add_class("B", a).unwrap();
        let c = g.add_class("C", b).unwrap();
        g.add_edge(g.root(), b).unwrap();
        g.add_edge(g.root(), c).unwrap();
        assert_eq!(transitive_reduction(&mut g), 2);
        assert_eq!(g.edge_count(), 3);
        assert!(g.reaches(g.root(), c));
    }

    #[test]
    fn bitset_crosses_word_boundaries() {
        // >64 nodes to exercise multi-word rows.
        let mut g = HierarchyGraph::new("D");
        let mut prev = g.root();
        let mut all = vec![prev];
        for i in 0..130 {
            prev = g.add_class(format!("C{i}"), prev).unwrap();
            all.push(prev);
        }
        let r = Reachability::new(&g);
        assert!(r.reaches(all[0], all[130]));
        assert!(r.reaches(all[64], all[129]));
        assert!(!r.reaches(all[130], all[0]));
        assert_eq!(r.reachable_set(all[0]).len(), 131);
    }
}
