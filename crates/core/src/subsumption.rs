//! Subsumption graphs and tuple-binding graphs (§2.1, §3.3).
//!
//! "For a relation, a subsumption graph is obtained by eliminating all
//! nodes in the hierarchy graph for which no tuples have been asserted."
//! That elimination, seen from one stored tuple, leaves the tuple's
//! immediate predecessors: exactly its strongest binders (§2.1). So
//! the graph is built on the binding kernel, never by eliminating the
//! exponential product hierarchy literally: a node's parents are the
//! stored tuples above it (`HRelation::candidates`) that
//! `binding::binds_immediately` keeps, under the relation's preemption
//! semantics. The core crate's tests hold every edge to the literal
//! node-elimination procedure in all three modes.
//!
//! §3.3.1's **universal negated tuple** is included as a virtual node
//! (index [`SubsumptionGraph::UNIVERSAL`]) "defined over D*", with an
//! arc to every tuple node that has no other predecessor — this is what
//! makes parentless negated tuples detectably redundant.

use std::time::Instant;

use hrdm_hierarchy::topo::kahn_order;
use hrdm_obs::attrib::{self, AttribKey};

use crate::binding::binds_immediately;
use crate::item::Item;
use crate::relation::HRelation;
use crate::stats;
use crate::truth::Truth;

/// The subsumption graph of a relation (optionally extended with one
/// extra item, which turns it into that item's tuple-binding graph).
///
/// Node indexes: 0 is the virtual universal negated tuple; `1..` are the
/// relation's stored tuples in item order (plus the extra item, if any,
/// last).
///
/// Every call builds its graph: consolidate, explicate and the figures
/// each build the one they walk, and nothing is kept between calls.
pub struct SubsumptionGraph {
    items: Vec<Item>,
    truths: Vec<Truth>,
    children: Vec<Vec<usize>>,
    parents: Vec<Vec<usize>>,
    /// Index of the extra (query) item, when built as a tuple-binding
    /// graph for an item with no stored tuple.
    extra: Option<usize>,
}

impl SubsumptionGraph {
    /// Index of the virtual universal negated tuple.
    pub const UNIVERSAL: usize = 0;

    /// Build the subsumption graph of `relation` (§3.3.1): every stored
    /// tuple, each with its strongest binders as parents.
    pub fn build(relation: &HRelation) -> SubsumptionGraph {
        attrib::bump(AttribKey::SubsumptionBuild);
        let mut span = hrdm_obs::span!("core.subsumption.build");
        if span.is_active() {
            span.field_u64("tuples", relation.len() as u64 + 1);
        }
        let start = Instant::now();
        let g = SubsumptionGraph::over(relation, relation.iter(), None);
        stats::record_subsumption_build(start.elapsed());
        g
    }

    /// Build the tuple-binding graph for `item` (§2.1): the subsumption
    /// graph restricted to tuples that reach `item`, with `item` added.
    ///
    /// Returns the graph and the node index of `item`.
    pub fn build_for_item(relation: &HRelation, item: &Item) -> (SubsumptionGraph, usize) {
        let above = relation.candidates(item);
        let query = (!relation.contains(item)).then_some(item);
        let g = SubsumptionGraph::over(relation, above.iter().copied(), query);
        let idx = g
            .extra
            .or_else(|| g.index_of(item))
            .expect("query item always present");
        (g, idx)
    }

    /// The graph over the universal node, `tuples` (stored, in item
    /// order, closed upward: every stored tuple reaching one of them is
    /// among them) and `query`, appended last.
    fn over<'r>(
        relation: &HRelation,
        tuples: impl Iterator<Item = (&'r Item, Truth)>,
        query: Option<&Item>,
    ) -> SubsumptionGraph {
        let mut items = vec![relation.schema().universal_item()];
        let mut truths = vec![Truth::Negative];
        for (item, truth) in tuples {
            items.push(item.clone());
            truths.push(truth);
        }
        let stored = items.len();
        let extra = query.map(|q| {
            items.push(q.clone());
            // Truth placeholder; the query node's truth is what the
            // binding computes, not an assertion.
            truths.push(Truth::Negative);
            stored
        });
        let n = items.len();
        let mut parents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (y, preds) in parents.iter_mut().enumerate().skip(1) {
            let q = &items[y];
            let candidates = relation.candidates(q);
            *preds = candidates
                .iter()
                .filter(|(x, _)| binds_immediately(relation, q, x, &candidates))
                .map(|(x, _)| {
                    1 + items[1..stored]
                        .binary_search(x)
                        .expect("a stored tuple above a node is a node")
                })
                .collect();
        }
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (y, preds) in parents.iter_mut().enumerate().skip(1) {
            // Universal negated tuple: arc to every parentless real node.
            if preds.is_empty() {
                preds.push(SubsumptionGraph::UNIVERSAL);
            }
            for &x in preds.iter() {
                children[x].push(y);
            }
        }
        SubsumptionGraph {
            items,
            truths,
            children,
            parents,
            extra,
        }
    }

    /// Total nodes including the universal virtual node.
    pub fn node_count(&self) -> usize {
        self.items.len()
    }

    /// The item at a node (the universal node maps to `D*` itself).
    pub fn item(&self, i: usize) -> &Item {
        &self.items[i]
    }

    /// The truth value at a node (the universal node is negative).
    pub fn truth(&self, i: usize) -> Truth {
        self.truths[i]
    }

    /// Immediate successors.
    pub fn children(&self, i: usize) -> &[usize] {
        &self.children[i]
    }

    /// Immediate predecessors.
    pub fn parents(&self, i: usize) -> &[usize] {
        &self.parents[i]
    }

    /// The node index of a stored item, if present.
    pub fn index_of(&self, item: &Item) -> Option<usize> {
        self.items[1..]
            .iter()
            .position(|i| i == item)
            .map(|p| p + 1)
    }

    /// Index of the query item when built via
    /// [`SubsumptionGraph::build_for_item`] and the item had no stored
    /// tuple.
    pub fn extra_index(&self) -> Option<usize> {
        self.extra
    }

    /// Real (non-virtual) node indexes in the hierarchy crate's one
    /// topological order ([`kahn_order`]: general before specific, the
    /// smallest free index first).
    pub fn topo_order(&self) -> Vec<usize> {
        let mut order = kahn_order(self.node_count(), |x| self.children[x].iter().copied());
        order.retain(|&x| x != Self::UNIVERSAL);
        order
    }

    /// Decompose into a mutable [`SmallDigraph`] for consolidation.
    pub(crate) fn to_digraph(&self) -> SmallDigraph {
        SmallDigraph {
            children: self.children.clone(),
            parents: self.parents.clone(),
            alive: vec![true; self.node_count()],
        }
    }
}

/// A tiny mutable digraph over `usize` nodes supporting the paper's
/// node-elimination procedure; used by consolidation, where the
/// subsumption graph must be updated as redundant tuples are deleted.
#[derive(Clone, Debug)]
pub(crate) struct SmallDigraph {
    children: Vec<Vec<usize>>,
    parents: Vec<Vec<usize>>,
    alive: Vec<bool>,
}

impl SmallDigraph {
    pub(crate) fn predecessors(&self, i: usize) -> &[usize] {
        &self.parents[i]
    }

    pub(crate) fn has_path(&self, from: usize, to: usize) -> bool {
        if from == to {
            return self.alive[from];
        }
        if !self.alive[from] || !self.alive[to] {
            return false;
        }
        let mut seen = vec![false; self.children.len()];
        seen[from] = true;
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            for &c in &self.children[n] {
                if c == to {
                    return true;
                }
                if !seen[c] {
                    seen[c] = true;
                    stack.push(c);
                }
            }
        }
        false
    }

    /// The paper's node-elimination procedure with the off-path (no
    /// redundant edges) rule. Consolidation always uses this variant:
    /// §3.3.1 prescribes "the node elimination procedure presented in
    /// Sec. 2.1", which is the redundancy-free one.
    pub(crate) fn eliminate(&mut self, i: usize) {
        if !self.alive[i] {
            return;
        }
        self.alive[i] = false;
        let preds = std::mem::take(&mut self.parents[i]);
        let succs = std::mem::take(&mut self.children[i]);
        for &p in &preds {
            self.children[p].retain(|&c| c != i);
        }
        for &s in &succs {
            self.parents[s].retain(|&p| p != i);
        }
        for &j in &preds {
            for &k in &succs {
                if !self.has_path(j, k) {
                    self.children[j].push(k);
                    self.parents[k].push(j);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Attribute, Schema};
    use hrdm_hierarchy::HierarchyGraph;
    use std::sync::Arc;

    /// The Fig. 1 flying-creatures relation.
    fn flying() -> HRelation {
        let mut g = HierarchyGraph::new("Animal");
        let bird = g.add_class("Bird", g.root()).unwrap();
        let canary = g.add_class("Canary", bird).unwrap();
        g.add_instance("Tweety", canary).unwrap();
        let penguin = g.add_class("Penguin", bird).unwrap();
        let gala = g.add_class("Galapagos Penguin", penguin).unwrap();
        let afp = g.add_class("Amazing Flying Penguin", penguin).unwrap();
        g.add_instance("Paul", gala).unwrap();
        g.add_instance_multi("Patricia", &[gala, afp]).unwrap();
        g.add_instance("Pamela", afp).unwrap();
        g.add_instance("Peter", afp).unwrap();
        let schema = Arc::new(Schema::new(vec![Attribute::new("Creature", Arc::new(g))]));
        let mut r = HRelation::new(schema);
        r.assert_fact(&["Bird"], Truth::Positive).unwrap();
        r.assert_fact(&["Penguin"], Truth::Negative).unwrap();
        r.assert_fact(&["Amazing Flying Penguin"], Truth::Positive)
            .unwrap();
        r.assert_fact(&["Peter"], Truth::Positive).unwrap();
        r
    }

    #[test]
    fn fig1c_subsumption_graph_is_a_chain() {
        // Fig. 1c: Bird -> Penguin -> Amazing Flying Penguin -> Peter.
        let r = flying();
        let g = SubsumptionGraph::build(&r);
        assert_eq!(g.node_count(), 5); // universal + 4 tuples
        let bird = g.index_of(&r.item(&["Bird"]).unwrap()).unwrap();
        let penguin = g.index_of(&r.item(&["Penguin"]).unwrap()).unwrap();
        let afp = g
            .index_of(&r.item(&["Amazing Flying Penguin"]).unwrap())
            .unwrap();
        let peter = g.index_of(&r.item(&["Peter"]).unwrap()).unwrap();
        assert_eq!(g.children(bird), &[penguin]);
        assert_eq!(g.children(penguin), &[afp]);
        assert_eq!(g.children(afp), &[peter]);
        assert_eq!(g.children(peter), &[] as &[usize]);
        // Universal arcs only to the parentless Bird tuple.
        assert_eq!(g.children(SubsumptionGraph::UNIVERSAL), &[bird]);
        assert_eq!(g.truth(SubsumptionGraph::UNIVERSAL), Truth::Negative);
    }

    #[test]
    fn fig1d_patricia_binding_graph() {
        // Fig. 1d: Patricia's tuple-binding graph — the chain with
        // Patricia hanging off Amazing Flying Penguin only.
        let r = flying();
        let patricia = r.item(&["Patricia"]).unwrap();
        let (g, qi) = SubsumptionGraph::build_for_item(&r, &patricia);
        assert_eq!(g.extra_index(), Some(qi));
        assert_eq!(g.item(qi), &patricia);
        let afp = g
            .index_of(&r.item(&["Amazing Flying Penguin"]).unwrap())
            .unwrap();
        assert_eq!(g.parents(qi), &[afp]);
        // Peter's tuple does not reach Patricia, so it is absent.
        assert!(g.index_of(&r.item(&["Peter"]).unwrap()).is_none());
        // 5 nodes: universal + Bird + Penguin + AFP + Patricia.
        assert_eq!(g.node_count(), 5);
    }

    #[test]
    fn binding_graph_for_item_with_stored_tuple() {
        let r = flying();
        let peter = r.item(&["Peter"]).unwrap();
        let (g, qi) = SubsumptionGraph::build_for_item(&r, &peter);
        // Peter has a stored tuple, so no extra node is added.
        assert_eq!(g.extra_index(), None);
        assert_eq!(g.item(qi), &peter);
        assert_eq!(g.truth(qi), Truth::Positive);
    }

    #[test]
    fn topo_order_respects_edges_and_skips_universal() {
        let r = flying();
        let g = SubsumptionGraph::build(&r);
        let order = g.topo_order();
        assert_eq!(order.len(), 4);
        assert!(!order.contains(&SubsumptionGraph::UNIVERSAL));
        let pos = |i: usize| order.iter().position(|&x| x == i).unwrap();
        for x in order.iter().copied() {
            for &y in g.children(x) {
                assert!(pos(x) < pos(y));
            }
        }
    }

    #[test]
    fn no_preemption_graph_is_transitively_closed() {
        let mut r = flying();
        r.set_preemption(crate::preemption::Preemption::NoPreemption);
        let g = SubsumptionGraph::build(&r);
        let bird = g.index_of(&r.item(&["Bird"]).unwrap()).unwrap();
        let peter = g.index_of(&r.item(&["Peter"]).unwrap()).unwrap();
        // Bird reaches Peter transitively; under no-preemption the edge
        // is present directly.
        assert!(g.children(bird).contains(&peter));
    }

    #[test]
    fn small_digraph_elimination_bridges() {
        let mut d = SmallDigraph {
            children: vec![vec![1], vec![2], vec![]],
            parents: vec![vec![], vec![0], vec![1]],
            alive: vec![true; 3],
        };
        assert!(d.has_path(0, 2));
        d.eliminate(1);
        assert!(d.has_path(0, 2));
        assert_eq!(d.children[0], vec![2]);
        assert_eq!(d.predecessors(2), &[0]);
        // Re-eliminating is a no-op.
        d.eliminate(1);
        assert_eq!(d.children[0], vec![2]);
    }

    #[test]
    fn small_digraph_elimination_avoids_redundant_bridge() {
        // 0 -> 1 -> 3, 0 -> 2 -> 3; eliminating 1 must not duplicate
        // 0 -> 3 since the path through 2 survives.
        let mut d = SmallDigraph {
            children: vec![vec![1, 2], vec![3], vec![3], vec![]],
            parents: vec![vec![], vec![0], vec![0], vec![1, 2]],
            alive: vec![true; 4],
        };
        d.eliminate(1);
        assert_eq!(d.children[0], vec![2]);
        assert_eq!(d.predecessors(3), &[2]);
    }
}
