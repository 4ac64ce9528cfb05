//! The paper's node-elimination procedure (§2.1) and its Appendix
//! variants.
//!
//! > "Define a node elimination procedure for a node *i* as follows:
//! > Delete the node *i* and all edges incident upon it. For each
//! > immediate predecessor, *j*, of *i* (before the deletion) considered
//! > in reverse topological order, for each immediate successor, *k*, of
//! > *i* considered in topologically sorted order, if there does not
//! > exist a directed path from *j* to *k* (after the deletion) introduce
//! > a directed edge from *j* to *k*."
//!
//! The path check and the prescribed insertion order guarantee that no
//! *redundant* edge is introduced, which is what gives the paper's
//! default **off-path** preemption. The Appendix's **on-path** variant is
//! the same procedure with the path check dropped ("redundant edges
//! should not be deleted when eliminating a node"); **no-preemption**
//! starts from the transitive closure instead.
//!
//! Elimination operates on an [`EliminationGraph`]: a cheap mutable view
//! of a [`HierarchyGraph`] that supports node deletion while preserving
//! induced reachability. Both the *subsumption graph* of a relation and
//! the per-item *tuple-binding graph* are built this way by the core
//! crate.

use crate::graph::HierarchyGraph;
use crate::node::NodeId;
use crate::reach::ClosureKind;
use crate::topo::topological_ranks;

/// Which preemption semantics drive edge re-insertion during elimination.
///
/// See the paper's Appendix for the three semantic families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EliminationMode {
    /// Paper default: never introduce a redundant edge (path check on).
    #[default]
    OffPath,
    /// Appendix alternative: bridge every predecessor/successor pair,
    /// introducing redundant edges.
    OnPath,
}

/// A mutable DAG view supporting the paper's node-elimination procedure.
///
/// Node ids are shared with the source [`HierarchyGraph`]; eliminated
/// nodes stay allocated but dead. Every edge `j → k` ever present
/// satisfies "`j` reached `k` in the original graph", so the original
/// topological ranks remain a valid topological order throughout — this
/// is what lets predecessors/successors be visited "in (reverse)
/// topological order" without re-sorting after each elimination.
#[derive(Clone)]
pub struct EliminationGraph {
    children: Vec<Vec<NodeId>>,
    parents: Vec<Vec<NodeId>>,
    alive: Vec<bool>,
    rank: Vec<usize>,
    mode: EliminationMode,
}

impl EliminationGraph {
    /// Start from the edges of `g` (both subset and preference edges —
    /// the Appendix's preference edges exist precisely to shape this
    /// graph).
    pub fn new(g: &HierarchyGraph, mode: EliminationMode) -> EliminationGraph {
        let n = g.len();
        let mut children = vec![Vec::new(); n];
        let mut parents = vec![Vec::new(); n];
        for id in g.node_ids() {
            for c in g.children(id) {
                children[id.index()].push(c);
                parents[c.index()].push(id);
            }
        }
        EliminationGraph {
            children,
            parents,
            alive: vec![true; n],
            rank: topological_ranks(g),
            mode,
        }
    }

    /// Start from the *transitive closure* of `g` — the Appendix's
    /// no-preemption construction, where "every node in the tuple binding
    /// graph then becomes an immediate predecessor of the item in
    /// question".
    pub fn from_closure(g: &HierarchyGraph) -> EliminationGraph {
        let n = g.len();
        let r = g.closure_ref(ClosureKind::Both);
        let mut children = vec![Vec::new(); n];
        let mut parents = vec![Vec::new(); n];
        for id in g.node_ids() {
            for c in r.reachable_set(id) {
                if c != id {
                    children[id.index()].push(c);
                    parents[c.index()].push(id);
                }
            }
        }
        EliminationGraph {
            children,
            parents,
            alive: vec![true; n],
            rank: topological_ranks(g),
            // In a transitively closed graph every bridging edge already
            // exists, so the mode is immaterial; keep the cheap check.
            mode: EliminationMode::OffPath,
        }
    }

    /// Total node slots (alive + eliminated).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.alive.len()
    }

    /// Is the node still present?
    #[inline]
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.alive[id.index()]
    }

    /// Alive nodes in id order.
    pub fn alive_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.alive.len())
            .filter(move |&i| self.alive[i])
            .map(NodeId::from_index)
    }

    /// Number of alive nodes.
    pub fn alive_count(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Current immediate successors of an alive node.
    #[inline]
    pub fn successors(&self, id: NodeId) -> &[NodeId] {
        &self.children[id.index()]
    }

    /// Current immediate predecessors of an alive node.
    #[inline]
    pub fn predecessors(&self, id: NodeId) -> &[NodeId] {
        &self.parents[id.index()]
    }

    /// Number of live edges.
    pub fn edge_count(&self) -> usize {
        self.alive_nodes()
            .map(|n| self.children[n.index()].len())
            .sum()
    }

    /// Is there a direct edge `from → to`?
    #[inline]
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.children[from.index()].contains(&to)
    }

    /// Is there a path `from → to` over alive nodes (reflexive)?
    pub fn has_path(&self, from: NodeId, to: NodeId) -> bool {
        if from == to {
            return self.alive[from.index()];
        }
        if !self.alive[from.index()] || !self.alive[to.index()] {
            return false;
        }
        let mut seen = vec![false; self.alive.len()];
        seen[from.index()] = true;
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            for &c in &self.children[n.index()] {
                if c == to {
                    return true;
                }
                if !seen[c.index()] {
                    // Prune: a path can only descend in rank.
                    if self.rank[c.index()] < self.rank[to.index()] {
                        seen[c.index()] = true;
                        stack.push(c);
                    }
                }
            }
        }
        false
    }

    fn add_edge(&mut self, from: NodeId, to: NodeId) {
        debug_assert!(!self.has_edge(from, to));
        self.children[from.index()].push(to);
        self.parents[to.index()].push(from);
    }

    /// Apply the paper's node-elimination procedure to `id`.
    ///
    /// No-op when the node is already eliminated.
    pub fn eliminate(&mut self, id: NodeId) {
        let i = id.index();
        if !self.alive[i] {
            return;
        }
        self.alive[i] = false;

        // Immediate predecessors in *reverse* topological order,
        // immediate successors in topological order (paper's
        // prescription; with the path check this makes "no redundant
        // edges added" hold — see the paper's parenthetical and our
        // regression tests).
        let mut preds = std::mem::take(&mut self.parents[i]);
        let mut succs = std::mem::take(&mut self.children[i]);
        preds.sort_unstable_by(|a, b| self.rank[b.index()].cmp(&self.rank[a.index()]));
        succs.sort_unstable_by_key(|k| self.rank[k.index()]);

        // Detach `id` from its neighbours.
        for &p in &preds {
            self.children[p.index()].retain(|&c| c != id);
        }
        for &s in &succs {
            self.parents[s.index()].retain(|&p| p != id);
        }

        for &j in &preds {
            for &k in &succs {
                let bridge = match self.mode {
                    EliminationMode::OffPath => !self.has_path(j, k),
                    EliminationMode::OnPath => !self.has_edge(j, k),
                };
                if bridge {
                    self.add_edge(j, k);
                }
            }
        }
    }

    /// Eliminate every node for which `keep` returns false.
    ///
    /// Nodes are processed in reverse topological order for determinism;
    /// under off-path semantics the surviving induced graph is
    /// order-independent (it is the transitive reduction of induced
    /// reachability — property-tested).
    pub fn retain(&mut self, mut keep: impl FnMut(NodeId) -> bool) {
        let mut order: Vec<NodeId> = self.alive_nodes().collect();
        order.sort_unstable_by(|a, b| self.rank[b.index()].cmp(&self.rank[a.index()]));
        for id in order {
            if !keep(id) {
                self.eliminate(id);
            }
        }
    }
}

impl std::fmt::Debug for EliminationGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "EliminationGraph({} alive)", self.alive_count())?;
        for n in self.alive_nodes() {
            writeln!(f, "  {n} -> {:?}", self.children[n.index()])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::HierarchyGraph;

    /// Fig. 1a: the flying-creatures hierarchy fragment.
    fn fig1() -> HierarchyGraph {
        let mut g = HierarchyGraph::new("Animal");
        let bird = g.add_class("Bird", g.root()).unwrap();
        let canary = g.add_class("Canary", bird).unwrap();
        let penguin = g.add_class("Penguin", bird).unwrap();
        g.add_instance("Tweety", canary).unwrap();
        let gala = g.add_class("Galapagos Penguin", penguin).unwrap();
        let afp = g.add_class("Amazing Flying Penguin", penguin).unwrap();
        g.add_instance("Paul", gala).unwrap();
        g.add_instance_multi("Patricia", &[gala, afp]).unwrap();
        g.add_instance("Pamela", afp).unwrap();
        g.add_instance("Peter", afp).unwrap();
        g
    }

    #[test]
    fn eliminate_bridges_chain() {
        let mut g = HierarchyGraph::new("D");
        let a = g.add_class("A", g.root()).unwrap();
        let b = g.add_class("B", a).unwrap();
        let c = g.add_class("C", b).unwrap();
        let mut e = EliminationGraph::new(&g, EliminationMode::OffPath);
        e.eliminate(b);
        assert!(!e.is_alive(b));
        assert!(e.has_edge(a, c));
        assert!(e.has_path(g.root(), c));
        assert_eq!(e.alive_count(), 3);
    }

    #[test]
    fn off_path_does_not_add_redundant_bridge() {
        // root -> a -> b -> c and a -> c directly: eliminating b must NOT
        // add a second a -> c, and eliminating via the existing path must
        // leave no redundant edge.
        let mut g = HierarchyGraph::new("D");
        let a = g.add_class("A", g.root()).unwrap();
        let b = g.add_class("B", a).unwrap();
        let c = g.add_class("C", b).unwrap();
        g.add_edge(a, c).unwrap();
        let mut e = EliminationGraph::new(&g, EliminationMode::OffPath);
        e.eliminate(b);
        assert_eq!(
            e.successors(a).iter().filter(|&&x| x == c).count(),
            1,
            "exactly one a->c edge"
        );
    }

    #[test]
    fn off_path_skips_bridge_when_indirect_path_survives() {
        // j -> i -> k and j -> m -> k. Eliminating i: path j -> m -> k
        // survives, so no bridge j -> k is added (this is precisely what
        // creates off-path preemption downstream).
        let mut g = HierarchyGraph::new("D");
        let j = g.add_class("J", g.root()).unwrap();
        let i = g.add_class("I", j).unwrap();
        let m = g.add_class("M", j).unwrap();
        let k = g.add_class_multi("K", &[i, m]).unwrap();
        let mut e = EliminationGraph::new(&g, EliminationMode::OffPath);
        e.eliminate(i);
        assert!(!e.has_edge(j, k));
        assert!(e.has_path(j, k));
        assert_eq!(e.predecessors(k), &[m]);
    }

    #[test]
    fn on_path_inserts_redundant_bridge() {
        // Same shape; on-path semantics DO add the bridge. This is the
        // Appendix's Galapagos-penguin construction.
        let mut g = HierarchyGraph::new("D");
        let j = g.add_class("J", g.root()).unwrap();
        let i = g.add_class("I", j).unwrap();
        let m = g.add_class("M", j).unwrap();
        let k = g.add_class_multi("K", &[i, m]).unwrap();
        let mut e = EliminationGraph::new(&g, EliminationMode::OnPath);
        e.eliminate(i);
        assert!(e.has_edge(j, k), "on-path keeps the redundant bridge");
        let mut preds = e.predecessors(k).to_vec();
        preds.sort_unstable();
        assert_eq!(preds, vec![j, m]);
    }

    #[test]
    fn patricia_tuple_binding_shape_fig1d() {
        // Keep Animal(root implicit), Bird, Penguin, AFP, Patricia — the
        // nodes with tuples in Fig. 1b plus the item. Patricia's only
        // immediate predecessor must be AFP (Fig. 1d).
        let g = fig1();
        let keep = [
            g.root(),
            g.expect("Bird"),
            g.expect("Penguin"),
            g.expect("Amazing Flying Penguin"),
            g.expect("Patricia"),
        ];
        let mut e = EliminationGraph::new(&g, EliminationMode::OffPath);
        e.retain(|n| keep.contains(&n));
        let patricia = g.expect("Patricia");
        assert_eq!(
            e.predecessors(patricia),
            &[g.expect("Amazing Flying Penguin")]
        );
        // And the chain Bird -> Penguin -> AFP survives.
        assert!(e.has_edge(g.expect("Bird"), g.expect("Penguin")));
        assert!(e.has_edge(g.expect("Penguin"), g.expect("Amazing Flying Penguin")));
        assert!(!e.has_edge(g.expect("Penguin"), patricia));
    }

    #[test]
    fn appendix_redundant_edge_gives_conflict_shape() {
        // Appendix: "a redundant link in the hierarchy of Fig. 1 could be
        // used to state that Pamela is a Penguin. ... Amazing Flying
        // Penguin would no longer bind more strongly than Penguin."
        let mut g = fig1();
        let penguin = g.expect("Penguin");
        let pamela = g.expect("Pamela");
        g.add_edge(penguin, pamela).unwrap(); // redundant by design
        let keep = [
            g.root(),
            g.expect("Bird"),
            penguin,
            g.expect("Amazing Flying Penguin"),
            pamela,
        ];
        let mut e = EliminationGraph::new(&g, EliminationMode::OffPath);
        e.retain(|n| keep.contains(&n));
        let mut preds = e.predecessors(pamela).to_vec();
        preds.sort_unstable();
        assert_eq!(
            preds,
            vec![penguin, g.expect("Amazing Flying Penguin")],
            "Pamela now has two immediate predecessors -> conflict upstream"
        );
    }

    #[test]
    fn on_path_galapagos_reinsertion() {
        // Appendix: deriving Patricia's binding graph under on-path
        // semantics, deleting Galapagos Penguin re-inserts Penguin ->
        // Patricia even though a path through AFP exists.
        let g = fig1();
        let keep = [
            g.root(),
            g.expect("Bird"),
            g.expect("Penguin"),
            g.expect("Amazing Flying Penguin"),
            g.expect("Patricia"),
        ];
        let mut e = EliminationGraph::new(&g, EliminationMode::OnPath);
        e.retain(|n| keep.contains(&n));
        let mut preds = e.predecessors(g.expect("Patricia")).to_vec();
        preds.sort_unstable();
        assert_eq!(
            preds,
            vec![g.expect("Penguin"), g.expect("Amazing Flying Penguin")]
        );
    }

    #[test]
    fn closure_construction_makes_all_ancestors_immediate() {
        let g = fig1();
        let e = EliminationGraph::from_closure(&g);
        let patricia = g.expect("Patricia");
        let mut preds = e.predecessors(patricia).to_vec();
        preds.sort_unstable();
        let mut expect: Vec<_> = g.ancestors(patricia);
        expect.sort_unstable();
        assert_eq!(preds, expect);
    }

    #[test]
    fn eliminate_is_idempotent_per_node() {
        let mut g = HierarchyGraph::new("D");
        let a = g.add_class("A", g.root()).unwrap();
        let mut e = EliminationGraph::new(&g, EliminationMode::OffPath);
        e.eliminate(a);
        e.eliminate(a); // no-op
        assert_eq!(e.alive_count(), 1);
        assert!(e.successors(g.root()).is_empty());
    }

    #[test]
    fn retain_order_independence_for_off_path() {
        // Eliminating {B, C} from root->A->B->C->E in either order yields
        // the same surviving edges: A -> E (transitive reduction of the
        // induced reachability).
        let mut g = HierarchyGraph::new("D");
        let a = g.add_class("A", g.root()).unwrap();
        let b = g.add_class("B", a).unwrap();
        let c = g.add_class("C", b).unwrap();
        let x = g.add_class("E", c).unwrap();
        for order in [[b, c], [c, b]] {
            let mut e = EliminationGraph::new(&g, EliminationMode::OffPath);
            for n in order {
                e.eliminate(n);
            }
            assert!(e.has_edge(a, x));
            assert_eq!(e.edge_count(), 2); // root->A, A->E
        }
    }

    #[test]
    fn has_path_respects_dead_endpoints() {
        let mut g = HierarchyGraph::new("D");
        let a = g.add_class("A", g.root()).unwrap();
        let mut e = EliminationGraph::new(&g, EliminationMode::OffPath);
        assert!(e.has_path(a, a));
        e.eliminate(a);
        assert!(!e.has_path(a, a));
        assert!(!e.has_path(g.root(), a));
    }
}
