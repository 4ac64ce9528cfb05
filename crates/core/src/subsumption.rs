//! Subsumption graphs and tuple-binding graphs (§2.1, §3.3).
//!
//! "For a relation, a subsumption graph is obtained by eliminating all
//! nodes in the hierarchy graph for which no tuples have been asserted."
//! Because the (product) item hierarchy is exponential, we never run the
//! elimination literally; instead the surviving edge set is computed in
//! closed form, which the hierarchy crate property-tests against the
//! literal node-elimination procedure:
//!
//! * **off-path**: edge `x → y` iff `x` reaches `y` and either the item
//!   hierarchy has a *direct* edge `x → y`, or no other tuple item lies
//!   strictly between;
//! * **on-path**: edge `x → y` iff some hierarchy path `x → y` has no
//!   tuple item in its interior;
//! * **no-preemption**: edge `x → y` iff `x` reaches `y`.
//!
//! §3.3.1's **universal negated tuple** is included as a virtual node
//! (index [`SubsumptionGraph::UNIVERSAL`]) "defined over D*", with an
//! arc to every tuple node that has no other predecessor — this is what
//! makes parentless negated tuples detectably redundant.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use hrdm_hierarchy::topo::kahn_order;
use hrdm_obs::attrib::{self, AttribKey};

use crate::binding::path_avoiding;
use crate::item::Item;
use crate::preemption::Preemption;
use crate::relation::HRelation;
use crate::stats;
use crate::truth::Truth;

/// The immutable node/edge data of a subsumption graph, shared via
/// `Arc` between the cache and every [`SubsumptionGraph`] handle so a
/// cache hit is a pointer copy, never a rebuild.
struct SubsumptionCore {
    items: Vec<Item>,
    truths: Vec<Truth>,
    children: Vec<Vec<usize>>,
    parents: Vec<Vec<usize>>,
}

/// Upper bound on cached subsumption cores, FIFO-evicted.
const MAX_CACHED: usize = 64;

/// Cache key: per-attribute domain stamps (see
/// [`hrdm_hierarchy::graph::HierarchyGraph::version`]), the preemption
/// mode (it changes the edge set), and a fingerprint of the tuple set.
/// A hit additionally verifies the stored items/truths byte-for-byte,
/// so a fingerprint collision can never alias two relations.
#[derive(PartialEq, Eq, Hash, Clone)]
struct CacheKey {
    domains: Vec<u64>,
    preemption: Preemption,
    fingerprint: u64,
}

#[derive(Default)]
struct CacheStore {
    map: HashMap<CacheKey, Arc<SubsumptionCore>>,
    order: Vec<CacheKey>,
}

fn cache() -> &'static Mutex<CacheStore> {
    static CACHE: OnceLock<Mutex<CacheStore>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(CacheStore::default()))
}

fn fingerprint(items: &[Item], truths: &[Truth]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for (item, truth) in items.iter().zip(truths) {
        for &c in item.components() {
            eat(c.index() as u64 + 1);
        }
        eat(matches!(truth, Truth::Positive) as u64 + 0x10);
    }
    eat(items.len() as u64);
    h
}

/// Drop every cached subsumption core. Exposed so parity tests and
/// benchmarks can measure cold builds deliberately.
pub fn clear_cache() {
    let mut s = cache().lock().unwrap();
    s.map.clear();
    s.order.clear();
}

/// The subsumption graph of a relation (optionally extended with one
/// extra item, which turns it into that item's tuple-binding graph).
///
/// Node indexes: 0 is the virtual universal negated tuple; `1..` are the
/// relation's stored tuples in deterministic item order (plus the extra
/// item, if any, at the returned position).
///
/// Whole-relation graphs ([`SubsumptionGraph::build`]) are cached by
/// (domain versions, preemption, tuple set): consolidate, explicate,
/// and conflict detection over the same unchanged relation share one
/// construction. Binding graphs
/// ([`SubsumptionGraph::build_for_item`]) are query-specific and always
/// built fresh.
pub struct SubsumptionGraph {
    core: Arc<SubsumptionCore>,
    /// Index of the extra (query) item, when built as a tuple-binding
    /// graph for an item with no stored tuple.
    extra: Option<usize>,
}

impl SubsumptionGraph {
    /// Index of the virtual universal negated tuple.
    pub const UNIVERSAL: usize = 0;

    /// Build the subsumption graph of `relation` (§3.3.1), reusing the
    /// shared cache when the relation's domains, preemption mode, and
    /// tuple set are unchanged.
    pub fn build(relation: &HRelation) -> SubsumptionGraph {
        let (items, truths, _) = collect_nodes(relation, None);
        let key = CacheKey {
            domains: (0..relation.schema().arity())
                .map(|i| relation.schema().domain(i).version())
                .collect(),
            preemption: relation.preemption(),
            fingerprint: fingerprint(&items, &truths),
        };
        if let Some(hit) = cache().lock().unwrap().map.get(&key) {
            // Verify content, not just the fingerprint.
            if hit.items == items && hit.truths == truths {
                stats::record_subsumption_hit();
                attrib::bump(AttribKey::SubsumptionHit);
                return SubsumptionGraph {
                    core: Arc::clone(hit),
                    extra: None,
                };
            }
        }
        attrib::bump(AttribKey::SubsumptionMiss);
        let mut span = hrdm_obs::span!("core.subsumption.build");
        if span.is_active() {
            span.field_u64("tuples", items.len() as u64);
        }
        let start = Instant::now();
        let core = Arc::new(build_core(relation, items, truths));
        stats::record_subsumption_miss(start.elapsed());
        drop(span);
        let mut s = cache().lock().unwrap();
        if !s.map.contains_key(&key) {
            s.map.insert(key.clone(), Arc::clone(&core));
            s.order.push(key);
            while s.map.len() > MAX_CACHED {
                let victim = s.order.remove(0);
                s.map.remove(&victim);
            }
        }
        SubsumptionGraph { core, extra: None }
    }

    /// Build the tuple-binding graph for `item` (§2.1): the subsumption
    /// graph restricted to tuples that reach `item`, with `item` added.
    ///
    /// Returns the graph and the node index of `item`.
    pub fn build_for_item(relation: &HRelation, item: &Item) -> (SubsumptionGraph, usize) {
        let (items, truths, extra) = collect_nodes(relation, Some(item));
        let core = Arc::new(build_core(relation, items, truths));
        let idx = core
            .items
            .iter()
            .position(|i| i == item)
            .expect("query item always present");
        (SubsumptionGraph { core, extra }, idx)
    }

    /// Whether two graphs share one cached core (observability hook for
    /// the cache tests — `Arc` identity, not structural equality).
    #[cfg(test)]
    pub(crate) fn shares_core(&self, other: &SubsumptionGraph) -> bool {
        Arc::ptr_eq(&self.core, &other.core)
    }

    /// Total nodes including the universal virtual node.
    pub fn node_count(&self) -> usize {
        self.core.items.len()
    }

    /// The item at a node (the universal node maps to `D*` itself).
    pub fn item(&self, i: usize) -> &Item {
        &self.core.items[i]
    }

    /// The truth value at a node (the universal node is negative).
    pub fn truth(&self, i: usize) -> Truth {
        self.core.truths[i]
    }

    /// Immediate successors.
    pub fn children(&self, i: usize) -> &[usize] {
        &self.core.children[i]
    }

    /// Immediate predecessors.
    pub fn parents(&self, i: usize) -> &[usize] {
        &self.core.parents[i]
    }

    /// The node index of a stored item, if present.
    pub fn index_of(&self, item: &Item) -> Option<usize> {
        self.core.items[1..]
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
        let mut order = kahn_order(self.node_count(), |x| self.core.children[x].iter().copied());
        order.retain(|&x| x != Self::UNIVERSAL);
        order
    }

    /// Decompose into a mutable [`SmallDigraph`] for consolidation.
    pub(crate) fn to_digraph(&self) -> SmallDigraph {
        SmallDigraph {
            children: self.core.children.clone(),
            parents: self.core.parents.clone(),
            alive: vec![true; self.node_count()],
        }
    }
}

/// Node set of the (binding-)graph: the universal virtual node + stored
/// tuples (restricted to those reaching the query item when building a
/// binding graph) + the query item itself.
fn collect_nodes(
    relation: &HRelation,
    query: Option<&Item>,
) -> (Vec<Item>, Vec<Truth>, Option<usize>) {
    let product = relation.schema().product();
    let mut items: Vec<Item> = vec![relation.schema().universal_item()];
    let mut truths: Vec<Truth> = vec![Truth::Negative];
    let mut extra = None;
    for (i, t) in relation.iter() {
        if let Some(q) = query {
            if !product.reaches(i.components(), q.components()) {
                continue;
            }
        }
        items.push(i.clone());
        truths.push(t);
    }
    if let Some(q) = query {
        if !items[1..].contains(q) {
            items.push(q.clone());
            // Truth placeholder; the query node's truth is what the
            // binding computes, not an assertion.
            truths.push(Truth::Negative);
            extra = Some(items.len() - 1);
        }
    }
    (items, truths, extra)
}

/// Closed-form edge construction over the collected nodes: one successor
/// row per node, then the predecessor lists in one pass over the rows.
fn build_core(relation: &HRelation, items: Vec<Item>, truths: Vec<Truth>) -> SubsumptionCore {
    let product = relation.schema().product();
    let preemption = relation.preemption();
    let n = items.len();
    let items_ref = &items;
    let reaches =
        |a: usize, b: usize| product.reaches(items_ref[a].components(), items_ref[b].components());

    // Edges among real nodes (indexes 1..n), one row per source.
    let row_of = |x: usize| {
        let mut row = Vec::new();
        if x == SubsumptionGraph::UNIVERSAL {
            return row;
        }
        for y in 1..n {
            if x == y || !reaches(x, y) || items_ref[x] == items_ref[y] {
                continue;
            }
            let edge = match preemption {
                Preemption::NoPreemption => true,
                Preemption::OffPath => {
                    product
                        .direct_edge(items_ref[x].components(), items_ref[y].components())
                        .is_some()
                        || !(1..n).any(|z| z != x && z != y && reaches(x, z) && reaches(z, y))
                }
                Preemption::OnPath => {
                    let kept: Vec<&Item> =
                        (1..n).filter(|&z| z != y).map(|z| &items_ref[z]).collect();
                    path_avoiding(product, &items_ref[x], &items_ref[y], &kept)
                }
            };
            if edge {
                row.push(y);
            }
        }
        row
    };
    let mut children: Vec<Vec<usize>> = (0..n).map(row_of).collect();
    let mut parents: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (x, row) in children.iter().enumerate().skip(1) {
        for &y in row {
            parents[y].push(x);
        }
    }

    // Universal negated tuple: arc to every parentless real node.
    for (y, preds) in parents.iter_mut().enumerate().skip(1) {
        if preds.is_empty() {
            children[SubsumptionGraph::UNIVERSAL].push(y);
            preds.push(SubsumptionGraph::UNIVERSAL);
        }
    }

    SubsumptionCore {
        items,
        truths,
        children,
        parents,
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

    #[test]
    fn repeated_builds_share_one_cached_core() {
        let mut r = flying();
        let g1 = SubsumptionGraph::build(&r);
        let g2 = SubsumptionGraph::build(&r);
        assert!(g1.shares_core(&g2), "unchanged relation must hit");

        // A tuple change invalidates (the fingerprint differs).
        r.assert_fact(&["Pamela"], Truth::Negative).unwrap();
        let g3 = SubsumptionGraph::build(&r);
        assert!(!g3.shares_core(&g1));
        assert!(g3.shares_core(&SubsumptionGraph::build(&r)));

        // Preemption mode is part of the key.
        r.set_preemption(crate::preemption::Preemption::OnPath);
        let g4 = SubsumptionGraph::build(&r);
        assert!(!g4.shares_core(&g3));

        // Binding graphs are query-specific: never cached.
        let peter = r.item(&["Peter"]).unwrap();
        let (b1, _) = SubsumptionGraph::build_for_item(&r, &peter);
        let (b2, _) = SubsumptionGraph::build_for_item(&r, &peter);
        assert!(!b1.shares_core(&b2));
    }

    #[test]
    fn identical_twin_relations_do_not_cross_hit() {
        // Two structurally identical relations over *different* graph
        // instances have different domain versions: no false sharing.
        let r1 = flying();
        let r2 = flying();
        let g1 = SubsumptionGraph::build(&r1);
        let g2 = SubsumptionGraph::build(&r2);
        assert!(!g1.shares_core(&g2));
    }
}
