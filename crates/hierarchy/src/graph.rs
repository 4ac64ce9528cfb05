//! The hierarchy graph: a rooted DAG of classes and instances.
//!
//! §2.1 of the paper: "The hierarchy graph for a domain is a rooted
//! directed acyclic graph, with the domain itself being the root and with
//! edges from each more general class to its derived more specific
//! classes. Instances form the leaves of this graph."
//!
//! The Appendix adds a second kind of edge: *preference edges*, which "do
//! not represent set inclusion in the way that the other links in the
//! hierarchy do, but are used to induce the proper tuple binding graph".
//! Both kinds live in one adjacency structure, tagged by [`EdgeKind`], so
//! membership queries can ignore preference edges while binding-graph
//! construction honours them.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use hrdm_obs::attrib::{self, AttribKey};
use hrdm_obs::metrics::{self, Counter};

use crate::error::{HierarchyError, Result};
use crate::node::{NodeId, NodeName};
use crate::reach::{ClosureKind, Reachability};
use crate::spill::SpillVec;

struct ClosureMetrics {
    misses: Counter,
    build_ns: Counter,
}

fn obs() -> &'static ClosureMetrics {
    static M: OnceLock<ClosureMetrics> = OnceLock::new();
    M.get_or_init(|| ClosureMetrics {
        misses: metrics::counter("hierarchy.closure.misses"),
        build_ns: metrics::counter("hierarchy.closure.build_ns"),
    })
}

/// What a node stands for in the taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// The attribute domain itself — the unique root.
    Domain,
    /// A class: a named subset of the domain, possibly with children.
    Class,
    /// An instance: an atomic element, always a leaf ("level 0 class").
    Instance,
}

/// Discriminates genuine subset edges from Appendix preference edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// A set-inclusion edge from a more general class to a more specific
    /// class or instance.
    Subset,
    /// A preference edge (Appendix): induces binding strength without
    /// asserting set inclusion.
    Preference,
}

#[derive(Debug, Clone)]
struct NodeData {
    name: NodeName,
    kind: NodeKind,
    /// Outgoing edges: toward more specific nodes.
    children: Vec<(NodeId, EdgeKind)>,
    /// Incoming edges: toward more general nodes.
    parents: Vec<(NodeId, EdgeKind)>,
}

/// One row of the node table [`HierarchyGraph::from_parts`] takes: a
/// node's name, its kind and its children in order.
pub type NodeParts = (NodeName, NodeKind, Vec<(NodeId, EdgeKind)>);

/// How many nodes [`HierarchyGraph::binding_ancestors_into`] finds
/// before it stops checking repeats against its list and builds a
/// bitmap.
const LINEAR_SEEN: usize = 32;

/// Binding ancestors a list holds in place before it moves to the heap:
/// [`HierarchyGraph::binding_ancestors`]' working list, and a point
/// read's walk in `hrdm-core`, which holds every component's ancestors
/// in one list of this capacity.
pub const ANCESTORS_INLINE: usize = 32;

/// A rooted DAG of classes with instances at the leaves.
///
/// The graph enforces, at mutation time, the invariants the paper's model
/// depends on:
///
/// * **acyclicity** (the §3.1 *type-irredundancy* constraint),
/// * a single root ([`NodeId::ROOT`]) of kind [`NodeKind::Domain`],
/// * instances are leaves (§2.1),
/// * node names are unique (names are how the relational layer and query
///   surface refer to classes),
/// * no duplicate edges.
///
/// It deliberately does **not** forbid redundant (transitive) edges —
/// the Appendix uses them to switch between off-path and on-path
/// preemption — but [`crate::reach::redundant_edge_list`] detects them and
/// [`crate::reach::transitive_reduction`] removes them.
///
/// A clone is the same structure: it shares the source's memoized
/// closures until its first structural edit, which touches only the
/// clone.
#[derive(Clone)]
pub struct HierarchyGraph {
    nodes: Vec<NodeData>,
    by_name: HashMap<NodeName, NodeId>,
    edge_count: usize,
    /// The memoized closures, one slot per [`ClosureKind`]; see
    /// [`HierarchyGraph::closure_ref`].
    closures: [OnceLock<Arc<Reachability>>; 2],
}

impl HierarchyGraph {
    /// Create a graph containing only the root domain node.
    pub fn new(domain_name: impl Into<NodeName>) -> HierarchyGraph {
        let name = domain_name.into();
        let mut by_name = HashMap::new();
        by_name.insert(name.clone(), NodeId::ROOT);
        HierarchyGraph {
            nodes: vec![NodeData {
                name,
                kind: NodeKind::Domain,
                children: Vec::new(),
                parents: Vec::new(),
            }],
            by_name,
            edge_count: 0,
            closures: Default::default(),
        }
    }

    /// Build a graph from its node table in one O(V + E) pass: per node
    /// in id order its name, its kind and its children in order, as
    /// [`children_with_kind`](HierarchyGraph::children_with_kind) lists
    /// them. This is how a decoded image becomes a graph.
    ///
    /// The children lists are kept as given. Each node's parents are
    /// listed in the order nodes then edges would have been added: its
    /// first subset parent (the lowest id with a subset edge to it)
    /// first, then the rest by parent id and position.
    ///
    /// The table is refused with the error the one-by-one constructors
    /// raise for the same defect: a duplicate name, an endpoint out of
    /// range, a self, duplicate or instance edge, a cycle over either
    /// edge kind. A node with no subset parent is
    /// [`HierarchyError::NoParent`]; a table not in creation order —
    /// node 0 not the domain, another domain node, a node before its
    /// first subset parent, no node at all — is
    /// [`HierarchyError::OutOfOrder`].
    pub fn from_parts(parts: Vec<NodeParts>) -> Result<HierarchyGraph> {
        use std::collections::hash_map::Entry;
        let n = parts.len();
        if n == 0 {
            return Err(HierarchyError::OutOfOrder(NodeId::ROOT));
        }
        let mut by_name = HashMap::with_capacity(n);
        let mut nodes = Vec::with_capacity(n);
        for (i, (name, kind, children)) in parts.into_iter().enumerate() {
            let id = NodeId::from_index(i);
            if (kind == NodeKind::Domain) != (i == 0) {
                return Err(HierarchyError::OutOfOrder(id));
            }
            let name = match by_name.entry(name) {
                Entry::Occupied(taken) => {
                    return Err(HierarchyError::DuplicateName(taken.key().clone()))
                }
                Entry::Vacant(free) => {
                    let name = free.key().clone();
                    free.insert(id);
                    name
                }
            };
            nodes.push(NodeData {
                name,
                kind,
                children,
                parents: Vec::new(),
            });
        }
        // `listed[c]` is one more than the last parent whose list held
        // `c`: a repeat within one list is a duplicate edge.
        let mut listed = vec![0usize; n];
        let mut edge_count = 0;
        for from in 0..n {
            let children = std::mem::take(&mut nodes[from].children);
            let from_id = NodeId::from_index(from);
            if !children.is_empty() && nodes[from].kind == NodeKind::Instance {
                return Err(HierarchyError::InstanceHasChildren(from_id));
            }
            for &(to, kind) in &children {
                let Some(seen) = listed.get_mut(to.index()) else {
                    return Err(HierarchyError::UnknownNode(to));
                };
                if to == from_id {
                    return Err(HierarchyError::SelfEdge(to));
                }
                if *seen == from + 1 {
                    return Err(HierarchyError::DuplicateEdge { from: from_id, to });
                }
                *seen = from + 1;
                // The first subset parent goes first, ahead of any
                // preference parent listed before it.
                let parents = &mut nodes[to.index()].parents;
                let first_subset = kind == EdgeKind::Subset
                    && parents.first().is_none_or(|&(_, k)| k != EdgeKind::Subset);
                if first_subset {
                    parents.insert(0, (from_id, kind));
                } else {
                    parents.push((from_id, kind));
                }
            }
            edge_count += children.len();
            nodes[from].children = children;
        }
        for (i, node) in nodes.iter().enumerate().skip(1) {
            match node.parents.first() {
                Some(&(p, EdgeKind::Subset)) if p.index() < i => {}
                Some(&(_, EdgeKind::Subset)) => {
                    return Err(HierarchyError::OutOfOrder(NodeId::from_index(i)))
                }
                _ => return Err(HierarchyError::NoParent),
            }
        }
        // One Kahn pass over both edge kinds: what it never frees lies
        // on a cycle or below one.
        let mut waiting: Vec<usize> = nodes.iter().map(|d| d.parents.len()).collect();
        let mut free: Vec<usize> = (0..n).filter(|&i| waiting[i] == 0).collect();
        let mut freed = 0;
        while let Some(i) = free.pop() {
            freed += 1;
            for &(c, _) in &nodes[i].children {
                waiting[c.index()] -= 1;
                if waiting[c.index()] == 0 {
                    free.push(c.index());
                }
            }
        }
        if freed < n {
            // Climb unfreed parents from an unfreed node until one
            // repeats: the edge from the repeated node down to where it
            // was reached from closes a cycle.
            let unfreed_parent = |i: usize| {
                nodes[i]
                    .parents
                    .iter()
                    .map(|&(p, _)| p.index())
                    .find(|&p| waiting[p] > 0)
                    .expect("an unfreed node has an unfreed parent")
            };
            let mut climbed = vec![false; n];
            let mut to = (0..n).find(|&i| waiting[i] > 0).expect("freed < n");
            climbed[to] = true;
            loop {
                let from = unfreed_parent(to);
                if climbed[from] {
                    return Err(HierarchyError::WouldCreateCycle {
                        from: NodeId::from_index(from),
                        to: NodeId::from_index(to),
                    });
                }
                climbed[from] = true;
                to = from;
            }
        }
        Ok(HierarchyGraph {
            nodes,
            by_name,
            edge_count,
            closures: Default::default(),
        })
    }

    /// A structural edit happened: the closures describe the old
    /// structure.
    fn edited(&mut self) {
        self.closures = Default::default();
    }

    /// The transitive closure of this graph over both edge kinds, as a
    /// shared handle.
    ///
    /// Built on first request and memoized in the graph itself, so it
    /// is shared by every holder of the graph (and by its clones) and
    /// freed with the last of them; a structural edit clears it.
    /// Probes that only read the matrix borrow it through
    /// [`closure_ref`](HierarchyGraph::closure_ref) instead.
    pub fn closure(&self) -> Arc<Reachability> {
        Arc::clone(self.memo(ClosureKind::Both))
    }

    /// The subset-edge-only closure (membership queries), memoized like
    /// [`closure`](HierarchyGraph::closure).
    pub fn subset_closure(&self) -> Arc<Reachability> {
        Arc::clone(self.memo(ClosureKind::SubsetOnly))
    }

    /// The memoized closure of `kind`, borrowed from the graph.
    ///
    /// This is what every reachability probe reads — the product's
    /// `reaches`/`subsumes`/`interval` and this graph's intersection
    /// queries — so nothing builds a closure until the first probe
    /// needs one. A memo hit is one acquire load: it clones no `Arc`
    /// and bumps no counter. Only a build is counted, here and for a
    /// shared handle alike.
    #[inline]
    pub fn closure_ref(&self, kind: ClosureKind) -> &Reachability {
        self.memo(kind)
    }

    /// The memo slot of `kind`, filled on first use. The build is
    /// counted inside the initializer, so readers racing an empty slot
    /// count the one build that happens, not one each.
    #[inline]
    fn memo(&self, kind: ClosureKind) -> &Arc<Reachability> {
        self.closures[kind as usize].get_or_init(|| self.build_closure(kind))
    }

    #[cold]
    fn build_closure(&self, kind: ClosureKind) -> Arc<Reachability> {
        obs().misses.incr();
        attrib::bump(AttribKey::ClosureMiss);
        let mut span = hrdm_obs::span!("hierarchy.closure.build");
        span.field_u64("nodes", self.len() as u64);
        let start = Instant::now();
        let built = Arc::new(Reachability::build(self, kind));
        let elapsed = start.elapsed().as_nanos() as u64;
        obs().build_ns.add(elapsed);
        span.field_u64("build_ns", elapsed);
        built
    }

    /// The root node (the domain).
    #[inline]
    pub fn root(&self) -> NodeId {
        NodeId::ROOT
    }

    /// Number of nodes, including the root.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when only the root exists.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Number of edges of both kinds.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    fn check(&self, id: NodeId) -> Result<()> {
        if id.index() < self.nodes.len() {
            Ok(())
        } else {
            Err(HierarchyError::UnknownNode(id))
        }
    }

    fn add_node(&mut self, name: NodeName, kind: NodeKind, parents: &[NodeId]) -> Result<NodeId> {
        if parents.is_empty() {
            return Err(HierarchyError::NoParent);
        }
        if self.by_name.contains_key(&name) {
            return Err(HierarchyError::DuplicateName(name));
        }
        for &p in parents {
            self.check(p)?;
            if self.kind(p) == NodeKind::Instance {
                return Err(HierarchyError::InstanceHasChildren(p));
            }
        }
        let id = NodeId::from_index(self.nodes.len());
        self.by_name.insert(name.clone(), id);
        self.nodes.push(NodeData {
            name,
            kind,
            children: Vec::new(),
            parents: Vec::new(),
        });
        for &p in parents {
            // A fresh node cannot create a cycle or duplicate edge.
            self.nodes[p.index()].children.push((id, EdgeKind::Subset));
            self.nodes[id.index()].parents.push((p, EdgeKind::Subset));
            self.edge_count += 1;
        }
        self.edited();
        Ok(id)
    }

    /// Add a class under a single parent.
    pub fn add_class(&mut self, name: impl Into<NodeName>, parent: NodeId) -> Result<NodeId> {
        self.add_node(name.into(), NodeKind::Class, &[parent])
    }

    /// Add a class under several parents at once (multiple inheritance).
    pub fn add_class_multi(
        &mut self,
        name: impl Into<NodeName>,
        parents: &[NodeId],
    ) -> Result<NodeId> {
        self.add_node(name.into(), NodeKind::Class, parents)
    }

    /// Add an instance (leaf) under a single parent class.
    pub fn add_instance(&mut self, name: impl Into<NodeName>, parent: NodeId) -> Result<NodeId> {
        self.add_node(name.into(), NodeKind::Instance, &[parent])
    }

    /// Add an instance belonging to several classes (multiple inheritance).
    pub fn add_instance_multi(
        &mut self,
        name: impl Into<NodeName>,
        parents: &[NodeId],
    ) -> Result<NodeId> {
        self.add_node(name.into(), NodeKind::Instance, parents)
    }

    fn add_edge_kind(&mut self, from: NodeId, to: NodeId, kind: EdgeKind) -> Result<()> {
        self.check(from)?;
        self.check(to)?;
        if from == to {
            return Err(HierarchyError::SelfEdge(from));
        }
        if self.kind(from) == NodeKind::Instance {
            return Err(HierarchyError::InstanceHasChildren(from));
        }
        if self.nodes[from.index()]
            .children
            .iter()
            .any(|&(c, _)| c == to)
        {
            return Err(HierarchyError::DuplicateEdge { from, to });
        }
        // Type-irredundancy (§3.1): reject edges that close a cycle. A
        // cycle through preference edges would still break every
        // topological traversal, so both kinds count.
        if self.reaches(to, from) {
            return Err(HierarchyError::WouldCreateCycle { from, to });
        }
        self.nodes[from.index()].children.push((to, kind));
        self.nodes[to.index()].parents.push((from, kind));
        self.edge_count += 1;
        self.edited();
        Ok(())
    }

    /// Add a subset edge `from -> to` (i.e. `to ⊆ from`).
    ///
    /// Rejects self edges, duplicates, edges out of instances, and edges
    /// that would create a cycle. Redundant (transitive) edges are
    /// *allowed* — the Appendix uses them deliberately; see
    /// [`crate::reach::redundant_edge_list`].
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) -> Result<()> {
        self.add_edge_kind(from, to, EdgeKind::Subset)
    }

    /// Add an Appendix *preference edge*: `to` binds less strongly than
    /// anything reachable from `from`, without `to ⊆ from` being asserted.
    pub fn add_preference_edge(&mut self, from: NodeId, to: NodeId) -> Result<()> {
        self.add_edge_kind(from, to, EdgeKind::Preference)
    }

    /// Remove a subset or preference edge. Returns an error if absent.
    pub fn remove_edge(&mut self, from: NodeId, to: NodeId) -> Result<()> {
        self.check(from)?;
        self.check(to)?;
        let children = &mut self.nodes[from.index()].children;
        let before = children.len();
        children.retain(|&(c, _)| c != to);
        if children.len() == before {
            return Err(HierarchyError::UnknownNode(to));
        }
        self.nodes[to.index()].parents.retain(|&(p, _)| p != from);
        self.edge_count -= 1;
        self.edited();
        Ok(())
    }

    /// The node's interned name.
    #[inline]
    pub fn name(&self, id: NodeId) -> &NodeName {
        &self.nodes[id.index()].name
    }

    /// The node's kind.
    #[inline]
    pub fn kind(&self, id: NodeId) -> NodeKind {
        self.nodes[id.index()].kind
    }

    /// True if `id` is an instance (a leaf atomic element).
    #[inline]
    pub fn is_instance(&self, id: NodeId) -> bool {
        self.kind(id) == NodeKind::Instance
    }

    /// Look a node up by name. A hit allocates nothing.
    pub fn node(&self, name: impl AsRef<str>) -> Result<NodeId> {
        let name = name.as_ref();
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| HierarchyError::UnknownName(NodeName::new(name)))
    }

    /// Look a node up by name, panicking when absent.
    ///
    /// Convenience for examples and tests where the name is a literal.
    pub fn expect(&self, name: &str) -> NodeId {
        self.node(name)
            .unwrap_or_else(|_| panic!("no node named {name:?}"))
    }

    /// Outgoing (more specific) neighbours with edge kinds.
    #[inline]
    pub fn children_with_kind(&self, id: NodeId) -> &[(NodeId, EdgeKind)] {
        &self.nodes[id.index()].children
    }

    /// Incoming (more general) neighbours with edge kinds.
    #[inline]
    pub fn parents_with_kind(&self, id: NodeId) -> &[(NodeId, EdgeKind)] {
        &self.nodes[id.index()].parents
    }

    /// Outgoing neighbours across both edge kinds.
    pub fn children(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes[id.index()].children.iter().map(|&(c, _)| c)
    }

    /// Incoming neighbours across both edge kinds.
    pub fn parents(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes[id.index()].parents.iter().map(|&(p, _)| p)
    }

    /// Outgoing neighbours via subset edges only.
    pub fn subset_children(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes[id.index()]
            .children
            .iter()
            .filter(|&&(_, k)| k == EdgeKind::Subset)
            .map(|&(c, _)| c)
    }

    /// Incoming neighbours via subset edges only.
    pub fn subset_parents(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes[id.index()]
            .parents
            .iter()
            .filter(|&&(_, k)| k == EdgeKind::Subset)
            .map(|&(p, _)| p)
    }

    /// All node ids, root first.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len()).map(NodeId::from_index)
    }

    /// All instance (leaf atomic) nodes.
    pub fn instances(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids()
            .filter(move |&id| self.kind(id) == NodeKind::Instance)
    }

    /// All class nodes (excluding the root domain and instances).
    pub fn classes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids()
            .filter(move |&id| self.kind(id) == NodeKind::Class)
    }

    /// Nodes with no outgoing subset edges.
    ///
    /// For fully specified taxonomies these are exactly the instances, but
    /// the paper permits leaf *classes* too ("the leaves of the graph
    /// could represent classes as well rather than instances").
    pub fn leaves(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids()
            .filter(move |&id| self.subset_children(id).next().is_none())
    }

    /// Whether `to` is reachable from `from` over edges of any kind.
    ///
    /// Reflexive: every node reaches itself.
    pub fn reaches(&self, from: NodeId, to: NodeId) -> bool {
        if from == to {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![from];
        seen[from.index()] = true;
        while let Some(n) = stack.pop() {
            for &(c, _) in &self.nodes[n.index()].children {
                if c == to {
                    return true;
                }
                if !seen[c.index()] {
                    seen[c.index()] = true;
                    stack.push(c);
                }
            }
        }
        false
    }

    /// Set membership: `a ⊆ b` / `a ∈ b`, over subset edges only.
    ///
    /// Reflexive, matching the paper's deliberate conflation of `{a}` and
    /// `a` ("class membership is transitive", and each instance is a
    /// "level 0 class").
    pub fn is_descendant(&self, a: NodeId, b: NodeId) -> bool {
        if a == b {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![a];
        seen[a.index()] = true;
        while let Some(n) = stack.pop() {
            for &(p, k) in &self.nodes[n.index()].parents {
                if k != EdgeKind::Subset {
                    continue;
                }
                if p == b {
                    return true;
                }
                if !seen[p.index()] {
                    seen[p.index()] = true;
                    stack.push(p);
                }
            }
        }
        false
    }

    /// All subset ancestors of `id`, excluding `id` itself.
    pub fn ancestors(&self, id: NodeId) -> Vec<NodeId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut out = Vec::new();
        let mut stack = vec![id];
        seen[id.index()] = true;
        while let Some(n) = stack.pop() {
            for p in self.subset_parents(n) {
                if !seen[p.index()] {
                    seen[p.index()] = true;
                    out.push(p);
                    stack.push(p);
                }
            }
        }
        out
    }

    /// Every node that reaches `id` over edges of *both* kinds — `id`
    /// itself and its ancestors through subset and preference edges —
    /// in ascending id order, or `None` if there are more than `max`.
    ///
    /// These are the nodes whose tuples can bind `id` (§2.1). Binding
    /// reachability ([`ProductHierarchy::reaches`](crate::ProductHierarchy::reaches))
    /// follows preference edges too, so this is not
    /// [`ancestors`](HierarchyGraph::ancestors), which is subset-only
    /// and leaves `id` out. The list is
    /// [`binding_ancestors_into`](HierarchyGraph::binding_ancestors_into)'s,
    /// copied out.
    pub fn binding_ancestors(&self, id: NodeId, max: usize) -> Option<Vec<NodeId>> {
        let mut found = SpillVec::<NodeId, ANCESTORS_INLINE>::new();
        self.binding_ancestors_into(id, max, &mut found)
            .then(|| found.to_vec())
    }

    /// Append [`binding_ancestors`](HierarchyGraph::binding_ancestors)`(id,
    /// max)` to `out`, in ascending id order after what `out` held, and
    /// return `true`; or leave `out` as it was and return `false` if
    /// there are more than `max`.
    ///
    /// The walk visits each node it finds once and gives up as soon as
    /// it finds more than `max`, so it costs O(min(ancestors, `max`) +
    /// their parent edges): while it has found at most 32 nodes it
    /// checks a parent against the ones it appended (the few ancestors
    /// of a shallow hierarchy), past that against a bitmap over the
    /// graph's nodes, which it fills once. Into an `out` with room in
    /// place for them all, it allocates nothing up to 32 ancestors.
    pub fn binding_ancestors_into<const N: usize>(
        &self,
        id: NodeId,
        max: usize,
        out: &mut SpillVec<NodeId, N>,
    ) -> bool {
        if max == 0 {
            return false;
        }
        let start = out.len();
        out.push(id);
        let mut seen = Vec::new();
        let mut next = start;
        while let Some(&n) = out.get(next) {
            next += 1;
            for p in self.parents(n) {
                let repeat = if seen.is_empty() {
                    out[start..].contains(&p)
                } else {
                    seen[p.index()]
                };
                if repeat {
                    continue;
                }
                if out.len() - start == max {
                    out.truncate(start);
                    return false;
                }
                out.push(p);
                if !seen.is_empty() {
                    seen[p.index()] = true;
                } else if out.len() - start > LINEAR_SEEN {
                    seen = vec![false; self.nodes.len()];
                    for f in &out[start..] {
                        seen[f.index()] = true;
                    }
                }
            }
        }
        out[start..].sort_unstable();
        true
    }

    /// All subset descendants of `id`, excluding `id` itself.
    pub fn descendants(&self, id: NodeId) -> Vec<NodeId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut out = Vec::new();
        let mut stack = vec![id];
        seen[id.index()] = true;
        while let Some(n) = stack.pop() {
            for c in self.subset_children(n) {
                if !seen[c.index()] {
                    seen[c.index()] = true;
                    out.push(c);
                    stack.push(c);
                }
            }
        }
        out
    }

    /// The instance (leaf atomic) members of the set denoted by `id`.
    ///
    /// This is the *extension* of a class (§2.1): an instance `x` is a
    /// member iff `x ⊆ id`. For an instance, the extension is itself.
    pub fn extension(&self, id: NodeId) -> Vec<NodeId> {
        if self.is_instance(id) {
            return vec![id];
        }
        let mut out: Vec<NodeId> = self
            .descendants(id)
            .into_iter()
            .filter(|&d| self.is_instance(d))
            .collect();
        out.sort_unstable();
        out
    }

    /// Do the sets denoted by `a` and `b` provably intersect?
    ///
    /// §3.1's *optimistic* integrity: two sets are assumed disjoint unless
    /// (1) one subsumes the other, or (2) some node — instance *or* class,
    /// "whether or not there exist any instances of this class" — is a
    /// subset of both.
    pub fn provably_intersect(&self, a: NodeId, b: NodeId) -> bool {
        // Comparable nodes share the more specific endpoint; incomparable
        // ones need a common defined descendant. Both cases reduce to a
        // non-empty AND of the memoized subset-closure rows (reflexivity
        // puts the specific endpoint of a comparable pair in both rows).
        self.closure_ref(ClosureKind::SubsetOnly)
            .reaches_common(a, b)
    }

    /// The common descendants of `a` and `b` (instances and classes).
    ///
    /// These are the candidate members of the *complete conflict
    /// resolution set* of §3.1.
    pub fn common_descendants(&self, a: NodeId, b: NodeId) -> Vec<NodeId> {
        self.closure_ref(ClosureKind::SubsetOnly)
            .common_reachable(a, b)
            .into_iter()
            .filter(|&id| id != a && id != b)
            .collect()
    }

    /// All nodes `z` with `z ⊆ a` and `z ⊆ b`, *including* `a`/`b`
    /// themselves when they qualify (unlike [`common_descendants`],
    /// which is the paper's strict §3.1 set).
    ///
    /// This is the defined-node approximation of the set intersection
    /// `a ∩ b`; the relational operators restrict class values with it.
    ///
    /// [`common_descendants`]: HierarchyGraph::common_descendants
    pub fn intersection_candidates(&self, a: NodeId, b: NodeId) -> Vec<NodeId> {
        self.closure_ref(ClosureKind::SubsetOnly)
            .common_reachable(a, b)
    }

    /// The maximal elements of [`intersection_candidates`]: the coarsest
    /// defined classes/instances covering the intersection of `a` and
    /// `b`. For comparable `a`, `b` this is the more specific of the two;
    /// for provably disjoint classes it is empty.
    ///
    /// [`intersection_candidates`]: HierarchyGraph::intersection_candidates
    pub fn maximal_intersection(&self, a: NodeId, b: NodeId) -> Vec<NodeId> {
        let r = self.closure_ref(ClosureKind::SubsetOnly);
        let cands = r.common_reachable(a, b);
        cands
            .iter()
            .copied()
            .filter(|&z| !cands.iter().any(|&y| y != z && r.reaches(y, z)))
            .collect()
    }
}

impl fmt::Debug for HierarchyGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "HierarchyGraph({} nodes, {} edges)",
            self.len(),
            self.edge_count
        )?;
        for id in self.node_ids() {
            let d = &self.nodes[id.index()];
            write!(f, "  {id} {:?} ({:?}) ->", d.name, d.kind)?;
            for &(c, k) in &d.children {
                match k {
                    EdgeKind::Subset => write!(f, " {c}")?,
                    EdgeKind::Preference => write!(f, " {c}(pref)")?,
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fig. 1a fragment: Animal -> Bird -> {Canary, Penguin}, etc.
    fn birds() -> HierarchyGraph {
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
    fn root_is_domain() {
        let g = HierarchyGraph::new("D");
        assert_eq!(g.kind(g.root()), NodeKind::Domain);
        assert_eq!(g.len(), 1);
        assert!(g.is_empty());
        assert_eq!(*g.name(g.root()), "D");
    }

    #[test]
    fn membership_is_transitive_and_reflexive() {
        let g = birds();
        let tweety = g.expect("Tweety");
        let bird = g.expect("Bird");
        let penguin = g.expect("Penguin");
        assert!(g.is_descendant(tweety, bird));
        assert!(g.is_descendant(tweety, g.root()));
        assert!(g.is_descendant(tweety, tweety));
        assert!(!g.is_descendant(tweety, penguin));
        assert!(!g.is_descendant(bird, tweety));
    }

    #[test]
    fn multiple_inheritance_membership() {
        let g = birds();
        let patricia = g.expect("Patricia");
        assert!(g.is_descendant(patricia, g.expect("Galapagos Penguin")));
        assert!(g.is_descendant(patricia, g.expect("Amazing Flying Penguin")));
        assert!(g.is_descendant(patricia, g.expect("Penguin")));
    }

    #[test]
    fn extension_lists_instances_only() {
        let g = birds();
        let penguin = g.expect("Penguin");
        let ext = g.extension(penguin);
        let names: Vec<&str> = ext.iter().map(|&n| g.name(n).as_str()).collect();
        assert_eq!(names, vec!["Paul", "Patricia", "Pamela", "Peter"]);
        // Extension of an instance is itself.
        assert_eq!(g.extension(g.expect("Tweety")), vec![g.expect("Tweety")]);
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut g = HierarchyGraph::new("D");
        g.add_class("A", g.root()).unwrap();
        assert!(matches!(
            g.add_class("A", g.root()),
            Err(HierarchyError::DuplicateName(_))
        ));
        // Root name is also reserved.
        assert!(matches!(
            g.add_class("D", g.root()),
            Err(HierarchyError::DuplicateName(_))
        ));
    }

    #[test]
    fn cycle_rejected() {
        let mut g = HierarchyGraph::new("D");
        let a = g.add_class("A", g.root()).unwrap();
        let b = g.add_class("B", a).unwrap();
        let c = g.add_class("C", b).unwrap();
        assert!(matches!(
            g.add_edge(c, a),
            Err(HierarchyError::WouldCreateCycle { .. })
        ));
        assert!(matches!(g.add_edge(a, a), Err(HierarchyError::SelfEdge(_))));
    }

    #[test]
    fn duplicate_edge_rejected_but_redundant_edge_allowed() {
        let mut g = HierarchyGraph::new("D");
        let a = g.add_class("A", g.root()).unwrap();
        let b = g.add_class("B", a).unwrap();
        let c = g.add_class("C", b).unwrap();
        assert!(matches!(
            g.add_edge(a, b),
            Err(HierarchyError::DuplicateEdge { .. })
        ));
        // a -> c is redundant (path a -> b -> c exists) but allowed: the
        // Appendix uses redundant edges to obtain on-path semantics.
        g.add_edge(a, c).unwrap();
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn instances_are_leaves() {
        let mut g = HierarchyGraph::new("D");
        let a = g.add_class("A", g.root()).unwrap();
        let i = g.add_instance("i", a).unwrap();
        assert!(matches!(
            g.add_class("B", i),
            Err(HierarchyError::InstanceHasChildren(_))
        ));
        assert!(matches!(
            g.add_edge(i, a),
            Err(HierarchyError::InstanceHasChildren(_))
        ));
        // ...but an instance may gain additional parents.
        let b = g.add_class("B", g.root()).unwrap();
        g.add_edge(b, i).unwrap();
        assert!(g.is_descendant(i, b));
    }

    #[test]
    fn no_parent_rejected() {
        let mut g = HierarchyGraph::new("D");
        assert!(matches!(
            g.add_class_multi("A", &[]),
            Err(HierarchyError::NoParent)
        ));
    }

    #[test]
    fn unknown_node_and_name_errors() {
        let mut g = HierarchyGraph::new("D");
        let bogus = NodeId::from_index(99);
        assert!(matches!(
            g.add_class("A", bogus),
            Err(HierarchyError::UnknownNode(_))
        ));
        assert!(matches!(
            g.node("Nope"),
            Err(HierarchyError::UnknownName(_))
        ));
        assert!(matches!(
            g.add_edge(bogus, g.root()),
            Err(HierarchyError::UnknownNode(_))
        ));
    }

    #[test]
    fn remove_edge_works_and_errors_when_absent() {
        let mut g = HierarchyGraph::new("D");
        let a = g.add_class("A", g.root()).unwrap();
        let b = g.add_class("B", a).unwrap();
        g.add_edge(g.root(), b).unwrap();
        assert_eq!(g.edge_count(), 3);
        g.remove_edge(a, b).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert!(!g.is_descendant(b, a));
        assert!(g.is_descendant(b, g.root()));
        assert!(g.remove_edge(a, b).is_err());
    }

    #[test]
    fn preference_edges_do_not_imply_membership() {
        let mut g = HierarchyGraph::new("D");
        let a = g.add_class("A", g.root()).unwrap();
        let b = g.add_class("B", g.root()).unwrap();
        g.add_preference_edge(a, b).unwrap();
        assert!(
            !g.is_descendant(b, a),
            "preference edge is not set inclusion"
        );
        assert!(g.reaches(a, b), "but it does affect reachability/binding");
        assert_eq!(g.subset_parents(b).count(), 1); // just the root
        assert_eq!(g.parents(b).count(), 2);
    }

    #[test]
    fn provably_intersect_is_optimistic() {
        let mut g = HierarchyGraph::new("D");
        let a = g.add_class("A", g.root()).unwrap();
        let b = g.add_class("B", g.root()).unwrap();
        // No common descendant: optimistically disjoint.
        assert!(!g.provably_intersect(a, b));
        // Subsumption counts as intersection.
        let a1 = g.add_class("A1", a).unwrap();
        assert!(g.provably_intersect(a, a1));
        // An empty intersection *class* provides the evidence too.
        let ab = g.add_class_multi("AB", &[a, b]).unwrap();
        assert!(g.provably_intersect(a, b));
        assert_eq!(g.common_descendants(a, b), vec![ab]);
    }

    #[test]
    fn common_descendants_finds_shared_instances() {
        let g = birds();
        let gala = g.expect("Galapagos Penguin");
        let afp = g.expect("Amazing Flying Penguin");
        let common = g.common_descendants(gala, afp);
        assert_eq!(common, vec![g.expect("Patricia")]);
    }

    #[test]
    fn maximal_intersection_comparable_pair() {
        let g = birds();
        let bird = g.expect("Bird");
        let penguin = g.expect("Penguin");
        // Comparable: intersection is the more specific class.
        assert_eq!(g.maximal_intersection(bird, penguin), vec![penguin]);
        assert_eq!(g.maximal_intersection(penguin, bird), vec![penguin]);
        // Reflexive.
        assert_eq!(g.maximal_intersection(bird, bird), vec![bird]);
    }

    #[test]
    fn maximal_intersection_incomparable_pair() {
        let g = birds();
        let gala = g.expect("Galapagos Penguin");
        let afp = g.expect("Amazing Flying Penguin");
        assert_eq!(
            g.maximal_intersection(gala, afp),
            vec![g.expect("Patricia")]
        );
        // Provably disjoint classes: empty.
        let canary = g.expect("Canary");
        assert!(g.maximal_intersection(canary, gala).is_empty());
    }

    #[test]
    fn intersection_candidates_include_endpoints() {
        let g = birds();
        let bird = g.expect("Bird");
        let penguin = g.expect("Penguin");
        let c = g.intersection_candidates(bird, penguin);
        assert!(c.contains(&penguin));
        assert!(!c.contains(&bird), "Bird is not a subset of Penguin");
        // Strict §3.1 set excludes the endpoint.
        assert!(!g.common_descendants(bird, penguin).contains(&penguin));
    }

    #[test]
    fn leaves_and_kind_filters() {
        let g = birds();
        let leaves: Vec<&str> = g.leaves().map(|n| g.name(n).as_str()).collect();
        assert_eq!(
            leaves,
            vec!["Tweety", "Paul", "Patricia", "Pamela", "Peter"]
        );
        assert_eq!(g.instances().count(), 5);
        assert_eq!(g.classes().count(), 5);
        assert_eq!(g.len(), 11);
    }

    #[test]
    fn ancestors_and_descendants() {
        let g = birds();
        let patricia = g.expect("Patricia");
        let mut anc: Vec<&str> = g
            .ancestors(patricia)
            .iter()
            .map(|&n| g.name(n).as_str())
            .collect();
        anc.sort_unstable();
        assert_eq!(
            anc,
            vec![
                "Amazing Flying Penguin",
                "Animal",
                "Bird",
                "Galapagos Penguin",
                "Penguin"
            ]
        );
        let desc = g.descendants(g.expect("Penguin"));
        assert_eq!(desc.len(), 6); // 2 classes + 4 instances
    }

    #[test]
    fn binding_ancestors_follow_both_edge_kinds() {
        let mut g = birds();
        let patricia = g.expect("Patricia");
        let canary = g.expect("Canary");
        // Reflexive and ascending: Patricia and her five subset ancestors.
        let found = g.binding_ancestors(patricia, usize::MAX).unwrap();
        assert_eq!(found.len(), 6);
        assert!(found.windows(2).all(|w| w[0] < w[1]));
        // A preference edge Canary -> Penguin puts Canary above Patricia
        // for binding, though not for membership.
        g.add_preference_edge(canary, g.expect("Penguin")).unwrap();
        let found = g.binding_ancestors(patricia, usize::MAX).unwrap();
        assert!(found.contains(&canary));
        assert!(!g.ancestors(patricia).contains(&canary));
        // The cap: seven nodes reach Patricia now.
        assert_eq!(g.binding_ancestors(patricia, 7).map(|a| a.len()), Some(7));
        assert_eq!(g.binding_ancestors(patricia, 6), None);
        assert_eq!(g.binding_ancestors(patricia, 0), None);
    }

    #[test]
    fn binding_ancestors_into_appends_in_place_or_leaves_the_list_alone() {
        let g = birds();
        let patricia = g.expect("Patricia");
        let tweety = g.expect("Tweety");
        let mut out = SpillVec::<NodeId, ANCESTORS_INLINE>::new();
        assert!(g.binding_ancestors_into(tweety, usize::MAX, &mut out));
        let first = out.len();
        assert!(g.binding_ancestors_into(patricia, usize::MAX, &mut out));
        assert!(!out.spilled());
        assert_eq!(
            out[..first],
            g.binding_ancestors(tweety, usize::MAX).unwrap()
        );
        assert_eq!(
            out[first..],
            g.binding_ancestors(patricia, usize::MAX).unwrap()
        );
        let held = out.to_vec();
        assert!(!g.binding_ancestors_into(patricia, 5, &mut out));
        assert_eq!(out.to_vec(), held, "a refused walk leaves nothing behind");
    }

    #[test]
    fn binding_ancestors_past_the_list_match_the_closure() {
        let mut g = crate::gen::layered_dag(8, 10, 3, 7);
        let n = g.len();
        for i in 0..40 {
            let from = NodeId::from_index(i * 7 % n);
            let to = NodeId::from_index((i * 13 + 5) % n);
            let _ = g.add_preference_edge(from, to);
        }
        let closure = g.closure();
        let mut widest = 0;
        for x in g.node_ids() {
            let reaching: Vec<NodeId> = g.node_ids().filter(|&y| closure.reaches(y, x)).collect();
            widest = widest.max(reaching.len());
            let cap = reaching.len() - 1;
            assert_eq!(g.binding_ancestors(x, usize::MAX), Some(reaching));
            assert_eq!(g.binding_ancestors(x, cap), None);
        }
        assert!(widest > LINEAR_SEEN, "widest {widest}");
    }

    fn parts(g: &HierarchyGraph) -> Vec<NodeParts> {
        g.node_ids()
            .map(|id| {
                (
                    g.name(id).clone(),
                    g.kind(id),
                    g.children_with_kind(id).to_vec(),
                )
            })
            .collect()
    }

    #[test]
    fn from_parts_rebuilds_a_graph_with_its_children_in_order() {
        let mut g = birds();
        let canary = g.expect("Canary");
        let penguin = g.expect("Penguin");
        g.add_preference_edge(canary, penguin).unwrap();
        g.add_edge(g.root(), g.expect("Paul")).unwrap();
        let rebuilt = HierarchyGraph::from_parts(parts(&g)).unwrap();
        assert_eq!(rebuilt.len(), g.len());
        assert_eq!(rebuilt.edge_count(), g.edge_count());
        for id in g.node_ids() {
            assert_eq!(rebuilt.name(id), g.name(id));
            assert_eq!(rebuilt.node(g.name(id).as_str()).unwrap(), id);
            assert_eq!(rebuilt.children_with_kind(id), g.children_with_kind(id));
            let mut want = g.parents_with_kind(id).to_vec();
            let mut got = rebuilt.parents_with_kind(id).to_vec();
            want.sort_unstable_by_key(|&(p, _)| p);
            got.sort_unstable_by_key(|&(p, _)| p);
            assert_eq!(got, want);
        }
        assert!(rebuilt.is_descendant(g.expect("Patricia"), penguin));
        assert!(rebuilt.reaches(canary, g.expect("Peter")));
        assert!(!rebuilt.is_descendant(g.expect("Peter"), canary));
    }

    /// A node's first subset parent leads its parent list, ahead of a
    /// preference parent with a lower id; the rest follow by id.
    #[test]
    fn from_parts_lists_the_first_subset_parent_first() {
        let mut g = HierarchyGraph::new("D");
        let a = g.add_class("A", g.root()).unwrap();
        let b = g.add_class("B", g.root()).unwrap();
        let c = g.add_class("C", b).unwrap();
        g.add_preference_edge(a, c).unwrap();
        g.add_edge(g.root(), c).unwrap();
        let rebuilt = HierarchyGraph::from_parts(parts(&g)).unwrap();
        assert_eq!(
            rebuilt.parents_with_kind(c),
            [
                (g.root(), EdgeKind::Subset),
                (a, EdgeKind::Preference),
                (b, EdgeKind::Subset)
            ]
        );
    }

    /// Every table the one-by-one constructors could not have built is
    /// refused, with their error.
    #[test]
    fn from_parts_refuses_what_the_constructors_refuse() {
        let n = NodeId::from_index;
        let sub = |i| (n(i), EdgeKind::Subset);
        let pref = |i| (n(i), EdgeKind::Preference);
        // D -> {A, i}, A -> B: the table each case below edits.
        let base = || -> Vec<NodeParts> {
            vec![
                ("D".into(), NodeKind::Domain, vec![sub(1), sub(2)]),
                ("A".into(), NodeKind::Class, vec![sub(3)]),
                ("i".into(), NodeKind::Instance, vec![]),
                ("B".into(), NodeKind::Class, vec![]),
            ]
        };
        assert!(HierarchyGraph::from_parts(base()).is_ok());
        let refused = |edit: &dyn Fn(&mut Vec<NodeParts>)| {
            let mut table = base();
            edit(&mut table);
            HierarchyGraph::from_parts(table).unwrap_err()
        };
        use HierarchyError as E;
        assert_eq!(
            HierarchyGraph::from_parts(Vec::new()).unwrap_err(),
            E::OutOfOrder(n(0))
        );
        assert_eq!(refused(&|t| t[0].1 = NodeKind::Class), E::OutOfOrder(n(0)));
        assert_eq!(refused(&|t| t[3].1 = NodeKind::Domain), E::OutOfOrder(n(3)));
        assert_eq!(
            refused(&|t| t[3].0 = "A".into()),
            E::DuplicateName("A".into())
        );
        assert_eq!(refused(&|t| t[1].2.push(sub(4))), E::UnknownNode(n(4)));
        assert_eq!(refused(&|t| t[1].2.push(sub(1))), E::SelfEdge(n(1)));
        assert_eq!(
            refused(&|t| t[1].2.push(pref(3))),
            E::DuplicateEdge {
                from: n(1),
                to: n(3)
            }
        );
        assert_eq!(
            refused(&|t| t[2].2.push(pref(3))),
            E::InstanceHasChildren(n(2))
        );
        // B under A by preference only, or under nothing.
        assert_eq!(refused(&|t| t[1].2 = vec![pref(3)]), E::NoParent);
        assert_eq!(refused(&|t| t[1].2.clear()), E::NoParent);
        // B's only subset parent is a node after it.
        let after = |t: &mut Vec<NodeParts>| {
            t[1].2.clear();
            t.push(("C".into(), NodeKind::Class, vec![sub(3)]));
            t[0].2.push(sub(4));
        };
        assert_eq!(refused(&after), E::OutOfOrder(n(3)));
        // Cycles over subset edges, through a preference edge, and into
        // the root.
        assert!(matches!(
            refused(&|t| t[3].2.push(sub(1))),
            E::WouldCreateCycle { .. }
        ));
        assert!(matches!(
            refused(&|t| t[3].2.push(pref(1))),
            E::WouldCreateCycle { .. }
        ));
        assert!(matches!(
            refused(&|t| t[3].2.push(sub(0))),
            E::WouldCreateCycle { .. }
        ));
    }

    /// The rejected cycle edge lies on the cycle, not below it.
    #[test]
    fn from_parts_names_an_edge_on_the_cycle() {
        let n = NodeId::from_index;
        let sub = |i| (n(i), EdgeKind::Subset);
        let table: Vec<NodeParts> = vec![
            ("D".into(), NodeKind::Domain, vec![sub(1)]),
            ("A".into(), NodeKind::Class, vec![sub(2)]),
            ("B".into(), NodeKind::Class, vec![sub(3)]),
            ("C".into(), NodeKind::Class, vec![sub(2), sub(4)]),
            ("E".into(), NodeKind::Class, vec![]),
        ];
        let HierarchyError::WouldCreateCycle { from, to } =
            HierarchyGraph::from_parts(table).unwrap_err()
        else {
            panic!("a cycle")
        };
        assert!(
            [(n(2), n(3)), (n(3), n(2))].contains(&(from, to)),
            "{from} -> {to}"
        );
    }

    #[test]
    fn debug_output_mentions_nodes() {
        let g = birds();
        let s = format!("{g:?}");
        assert!(s.contains("Penguin"));
        assert!(s.contains("11 nodes"));
    }
}
