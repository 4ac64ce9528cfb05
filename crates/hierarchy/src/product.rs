//! Cartesian products of hierarchy graphs (§2.2).
//!
//! "An item hierarchy is obtained as the cartesian product of the
//! hierarchy graphs for the individual attribute domains. ... there
//! exists a directed edge from uᵢ = (vᵢ, wᵢ) to uⱼ = (vⱼ, wⱼ) iff there
//! exists an edge from vᵢ to vⱼ with wᵢ = wⱼ, or an edge from wᵢ to wⱼ
//! with vᵢ = vⱼ."
//!
//! The product graph has `∏ |Vᵢ|` nodes, so it is **never materialized**
//! by the relational operators (§2.1 boasts exactly this: inheritance
//! over multi-attribute relations "without having an attendant geometric
//! growth"). [`ProductHierarchy`] answers the queries the relational
//! layer needs — reachability, direct-edge tests, neighbour enumeration,
//! extension iteration — componentwise in O(arity) per probe. An explicit
//! [`ProductHierarchy::materialize`] exists solely for the B6 growth
//! benchmark and for tests that pin the Fig. 2c product graph exactly.

use std::sync::Arc;

use crate::error::Result;
use crate::graph::{EdgeKind, HierarchyGraph};
use crate::node::NodeId;
use crate::reach::Reachability;

/// A node of the product hierarchy: one node per attribute domain.
pub type ProductNode = Vec<NodeId>;

/// A lazy Cartesian product of per-attribute hierarchy graphs.
///
/// Holds `Arc`s so a relation schema and its operators can share the
/// component graphs without cloning, plus cached reachability matrices
/// (binding reachability, over both edge kinds) per component.
#[derive(Clone)]
pub struct ProductHierarchy {
    components: Vec<Arc<HierarchyGraph>>,
    reach: Vec<Arc<Reachability>>,
    subset_reach: Vec<Arc<Reachability>>,
}

impl ProductHierarchy {
    /// Build from shared component graphs.
    ///
    /// The per-component closures come from each graph's own memo
    /// ([`HierarchyGraph::closure`]), so constructing many products over
    /// the same domains — as the relational operators do for every
    /// derived schema — builds each closure once.
    pub fn new(components: Vec<Arc<HierarchyGraph>>) -> ProductHierarchy {
        let reach = components.iter().map(|g| g.closure()).collect();
        let subset_reach = components.iter().map(|g| g.subset_closure()).collect();
        ProductHierarchy {
            components,
            reach,
            subset_reach,
        }
    }

    /// Number of attribute domains (the arity).
    #[inline]
    pub fn arity(&self) -> usize {
        self.components.len()
    }

    /// The component graphs.
    #[inline]
    pub fn components(&self) -> &[Arc<HierarchyGraph>] {
        &self.components
    }

    /// One component graph.
    #[inline]
    pub fn component(&self, i: usize) -> &HierarchyGraph {
        &self.components[i]
    }

    /// Total number of product nodes (may overflow for huge components;
    /// saturates).
    pub fn node_count(&self) -> u128 {
        self.components
            .iter()
            .map(|g| g.len() as u128)
            .fold(1u128, |a, b| a.saturating_mul(b))
    }

    /// Number of edges the materialized product graph would have:
    /// `Σᵢ |Eᵢ| · ∏_{j≠i} |Vⱼ|`.
    pub fn edge_count(&self) -> u128 {
        let mut total = 0u128;
        for i in 0..self.arity() {
            let mut others = 1u128;
            for (j, g) in self.components.iter().enumerate() {
                if j != i {
                    others = others.saturating_mul(g.len() as u128);
                }
            }
            total = total
                .saturating_add(others.saturating_mul(self.components[i].edge_count() as u128));
        }
        total
    }

    /// The root product node `(root, …, root)` — the relation's domain
    /// `D*`.
    pub fn root(&self) -> ProductNode {
        vec![NodeId::ROOT; self.arity()]
    }

    /// Does `a` reach `b` in the product graph (over both edge kinds)?
    ///
    /// A product path exists iff every component reaches componentwise
    /// (moves in distinct components commute). Reflexive.
    pub fn reaches(&self, a: &[NodeId], b: &[NodeId]) -> bool {
        debug_assert_eq!(a.len(), self.arity());
        debug_assert_eq!(b.len(), self.arity());
        a.iter()
            .zip(b)
            .zip(&self.reach)
            .all(|((&x, &y), r)| r.reaches(x, y))
    }

    /// Set inclusion `b ⊆ a` over subset edges only (ignores preference
    /// edges). Reflexive.
    pub fn subsumes(&self, a: &[NodeId], b: &[NodeId]) -> bool {
        a.iter()
            .zip(b)
            .zip(&self.subset_reach)
            .all(|((&x, &y), r)| r.reaches(x, y))
    }

    /// Is there a *direct* product edge `a → b`, and of what kind?
    ///
    /// Exists iff exactly one component differs, by a direct edge of that
    /// component; the edge inherits the component edge's kind.
    ///
    /// The component edge is looked up in `b`'s *parent* list rather than
    /// `a`'s child list: binding queries probe `direct_edge(class, atom)`
    /// where the class may have an enormous out-degree while the atom's
    /// in-degree is small, and this choice keeps point lookups
    /// independent of class extension size (measured in B2).
    pub fn direct_edge(&self, a: &[NodeId], b: &[NodeId]) -> Option<EdgeKind> {
        let mut found: Option<EdgeKind> = None;
        for ((&x, &y), g) in a.iter().zip(b).zip(&self.components) {
            if x == y {
                continue;
            }
            if found.is_some() {
                return None; // two components differ
            }
            let kind = g
                .parents_with_kind(y)
                .iter()
                .find(|&&(p, _)| p == x)
                .map(|&(_, k)| k)?;
            found = Some(kind);
        }
        found
    }

    /// Immediate product successors of `a` (children).
    pub fn children(&self, a: &[NodeId]) -> Vec<ProductNode> {
        let mut out = Vec::new();
        for (i, (&x, g)) in a.iter().zip(&self.components).enumerate() {
            for c in g.children(x) {
                let mut n = a.to_vec();
                n[i] = c;
                out.push(n);
            }
        }
        out
    }

    /// Immediate product predecessors of `a` (parents).
    pub fn parents(&self, a: &[NodeId]) -> Vec<ProductNode> {
        let mut out = Vec::new();
        for (i, (&x, g)) in a.iter().zip(&self.components).enumerate() {
            for p in g.parents(x) {
                let mut n = a.to_vec();
                n[i] = p;
                out.push(n);
            }
        }
        out
    }

    /// Is the product node atomic (every component an instance)?
    pub fn is_atomic(&self, a: &[NodeId]) -> bool {
        a.iter()
            .zip(&self.components)
            .all(|(&x, g)| g.is_instance(x))
    }

    /// The atomic extension of a product node: the Cartesian product of
    /// the per-component extensions (§2.1's equivalent flat relation is
    /// made of exactly these).
    ///
    /// Returned lazily; the caller decides how much to consume.
    pub fn extension(&self, a: &[NodeId]) -> ExtensionIter {
        let axes: Vec<Vec<NodeId>> = a
            .iter()
            .zip(&self.components)
            .map(|(&x, g)| g.extension(x))
            .collect();
        ExtensionIter::new(axes)
    }

    /// Size of the atomic extension without enumerating it.
    pub fn extension_size(&self, a: &[NodeId]) -> u128 {
        a.iter()
            .zip(&self.components)
            .map(|(&x, g)| g.extension(x).len() as u128)
            .fold(1u128, |p, n| p.saturating_mul(n))
    }

    /// The interval `{z : a ⊒ z ⊒ b}` in binding reachability, as the
    /// product of component intervals. Used by on-path tuple-binding
    /// derivation, where "path avoiding kept nodes" queries need the
    /// interior nodes explicitly.
    pub fn interval(&self, a: &[NodeId], b: &[NodeId]) -> Vec<ProductNode> {
        let axes: Vec<Vec<NodeId>> = a
            .iter()
            .zip(b)
            .zip(self.components.iter().zip(&self.reach))
            .map(|((&x, &y), (g, r))| {
                g.node_ids()
                    .filter(|&z| r.reaches(x, z) && r.reaches(z, y))
                    .collect()
            })
            .collect();
        ExtensionIter::new(axes).collect()
    }

    /// Materialize the product as an explicit [`HierarchyGraph`].
    ///
    /// Node names are `"(a, b, …)"`. Fails if a name collision occurs
    /// (it cannot, since component names are unique) and is intended for
    /// tests and the B6 growth benchmark only — the node count is the
    /// product of the component sizes.
    pub fn materialize(&self) -> Result<HierarchyGraph> {
        let name_of = |node: &[NodeId]| -> String {
            let parts: Vec<&str> = node
                .iter()
                .zip(&self.components)
                .map(|(&x, g)| g.name(x).as_str())
                .collect();
            format!("({})", parts.join(", "))
        };
        // Enumerate all product nodes in a topological-friendly order:
        // the Cartesian product of component id orders works because
        // component ids are themselves compatible with… not guaranteed;
        // instead add nodes by BFS from the root, then edges.
        let root = self.root();
        let mut g = HierarchyGraph::new(name_of(&root));
        let mut index: std::collections::HashMap<ProductNode, NodeId> =
            std::collections::HashMap::new();
        index.insert(root.clone(), g.root());
        // BFS layer by layer; a child may be seen before all its parents,
        // so create nodes first (under any one discovered parent), then
        // fill in remaining edges in a second pass.
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(root);
        while let Some(node) = queue.pop_front() {
            let id = index[&node];
            for child in self.children(&node) {
                if !index.contains_key(&child) {
                    let atomic = self.is_atomic(&child);
                    let cid = if atomic {
                        g.add_instance(name_of(&child), id)?
                    } else {
                        g.add_class(name_of(&child), id)?
                    };
                    index.insert(child.clone(), cid);
                    queue.push_back(child);
                }
            }
        }
        // Second pass: add the remaining edges.
        for (node, &id) in &index {
            for child in self.children(node) {
                let cid = index[&child];
                let kind = self.direct_edge(node, &child);
                let exists = g.children(id).any(|c| c == cid);
                if !exists {
                    match kind {
                        Some(EdgeKind::Preference) => g.add_preference_edge(id, cid)?,
                        _ => g.add_edge(id, cid)?,
                    }
                }
            }
        }
        Ok(g)
    }

    /// Human-readable name of a product node, for printing tables.
    pub fn display(&self, node: &[NodeId]) -> String {
        let parts: Vec<&str> = node
            .iter()
            .zip(&self.components)
            .map(|(&x, g)| g.name(x).as_str())
            .collect();
        if parts.len() == 1 {
            parts[0].to_string()
        } else {
            format!("({})", parts.join(", "))
        }
    }
}

/// Iterator over the Cartesian product of per-component node lists.
pub struct ExtensionIter {
    axes: Vec<Vec<NodeId>>,
    cursor: Vec<usize>,
    done: bool,
}

impl ExtensionIter {
    fn new(axes: Vec<Vec<NodeId>>) -> ExtensionIter {
        let done = axes.iter().any(|a| a.is_empty());
        let cursor = vec![0; axes.len()];
        ExtensionIter { axes, cursor, done }
    }
}

impl Iterator for ExtensionIter {
    type Item = ProductNode;

    fn next(&mut self) -> Option<ProductNode> {
        if self.done {
            return None;
        }
        let item: ProductNode = self
            .cursor
            .iter()
            .zip(&self.axes)
            .map(|(&i, axis)| axis[i])
            .collect();
        // Odometer increment.
        let mut pos = self.axes.len();
        loop {
            if pos == 0 {
                self.done = true;
                break;
            }
            pos -= 1;
            self.cursor[pos] += 1;
            if self.cursor[pos] < self.axes[pos].len() {
                break;
            }
            self.cursor[pos] = 0;
        }
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig. 2a: Student hierarchy.
    fn students() -> Arc<HierarchyGraph> {
        let mut g = HierarchyGraph::new("Student");
        let ob = g.add_class("Obsequious Student", g.root()).unwrap();
        g.add_instance("John", ob).unwrap();
        g.add_instance("Mary", ob).unwrap();
        Arc::new(g)
    }

    /// Fig. 2b: Teacher hierarchy.
    fn teachers() -> Arc<HierarchyGraph> {
        let mut g = HierarchyGraph::new("Teacher");
        g.add_class("Incoherent Teacher", g.root()).unwrap();
        Arc::new(g)
    }

    fn respects_product() -> ProductHierarchy {
        ProductHierarchy::new(vec![students(), teachers()])
    }

    #[test]
    fn fig2c_product_shape() {
        // Fig. 2c with the instances trimmed: the 2×2 grid of
        // {Student, Obsequious Student} × {Teacher, Incoherent Teacher}.
        let mut s = HierarchyGraph::new("Student");
        s.add_class("Obsequious Student", s.root()).unwrap();
        let mut t = HierarchyGraph::new("Teacher");
        t.add_class("Incoherent Teacher", t.root()).unwrap();
        let p = ProductHierarchy::new(vec![Arc::new(s), Arc::new(t)]);
        assert_eq!(p.node_count(), 4);
        assert_eq!(p.edge_count(), 4); // each component edge × 2 positions of the other
        let root = p.root();
        assert_eq!(p.children(&root).len(), 2);
        // (ObsStudent, IncoTeacher) has two parents.
        let os = p.component(0).expect("Obsequious Student");
        let it = p.component(1).expect("Incoherent Teacher");
        let corner = vec![os, it];
        assert_eq!(p.parents(&corner).len(), 2);
        assert!(p.reaches(&root, &corner));
        assert!(!p.reaches(&corner, &root));
    }

    #[test]
    fn direct_edge_requires_exactly_one_component_step() {
        let p = respects_product();
        let root = p.root();
        let os = p.component(0).expect("Obsequious Student");
        let it = p.component(1).expect("Incoherent Teacher");
        assert_eq!(
            p.direct_edge(&root, &[os, NodeId::ROOT]),
            Some(EdgeKind::Subset)
        );
        // Diagonal step: both components change — not a direct edge.
        assert_eq!(p.direct_edge(&root, &[os, it]), None);
        // Identity: not an edge.
        assert_eq!(p.direct_edge(&root, &root), None);
        // Two-step in one component: not direct.
        let john = p.component(0).expect("John");
        assert_eq!(p.direct_edge(&root, &[john, NodeId::ROOT]), None);
    }

    #[test]
    fn reaches_is_componentwise() {
        let p = respects_product();
        let john = p.component(0).expect("John");
        let it = p.component(1).expect("Incoherent Teacher");
        assert!(p.reaches(&p.root(), &[john, it]));
        assert!(p.subsumes(&p.root(), &[john, it]));
        let os = p.component(0).expect("Obsequious Student");
        assert!(p.reaches(&[os, NodeId::ROOT], &[john, it]));
        assert!(!p.reaches(&[john, it], &[os, NodeId::ROOT]));
        // Incomparable: (John, Teacher) vs (Mary, Teacher).
        let mary = p.component(0).expect("Mary");
        assert!(!p.reaches(&[john, NodeId::ROOT], &[mary, NodeId::ROOT]));
    }

    #[test]
    fn atomicity_and_extension() {
        let p = respects_product();
        let john = p.component(0).expect("John");
        let mary = p.component(0).expect("Mary");
        let it = p.component(1).expect("Incoherent Teacher");
        assert!(!p.is_atomic(&p.root()));
        assert!(!p.is_atomic(&[john, it])); // Incoherent Teacher is a class
                                            // Teacher component has no instances, so extension is empty.
        assert_eq!(p.extension(&p.root()).count(), 0);
        assert_eq!(p.extension_size(&p.root()), 0);
        // Student-only product.
        let sp = ProductHierarchy::new(vec![students()]);
        let os = sp.component(0).expect("Obsequious Student");
        let ext: Vec<ProductNode> = sp.extension(&[os]).collect();
        assert_eq!(ext, vec![vec![john], vec![mary]]);
        assert_eq!(sp.extension_size(&[os]), 2);
    }

    #[test]
    fn extension_iter_is_full_cartesian_product() {
        let mut a = HierarchyGraph::new("A");
        let ca = a.add_class("CA", a.root()).unwrap();
        a.add_instance("a1", ca).unwrap();
        a.add_instance("a2", ca).unwrap();
        let mut b = HierarchyGraph::new("B");
        let cb = b.add_class("CB", b.root()).unwrap();
        b.add_instance("b1", cb).unwrap();
        b.add_instance("b2", cb).unwrap();
        b.add_instance("b3", cb).unwrap();
        let p = ProductHierarchy::new(vec![Arc::new(a), Arc::new(b)]);
        let ext: Vec<ProductNode> = p.extension(&p.root()).collect();
        assert_eq!(ext.len(), 6);
        assert_eq!(p.extension_size(&p.root()), 6);
        // All distinct.
        let set: std::collections::HashSet<_> = ext.iter().cloned().collect();
        assert_eq!(set.len(), 6);
    }

    #[test]
    fn interval_is_product_of_component_intervals() {
        let p = respects_product();
        let root = p.root();
        let john = p.component(0).expect("John");
        let it = p.component(1).expect("Incoherent Teacher");
        let iv = p.interval(&root, &[john, it]);
        // Student interval {Student, Obs, John} × Teacher interval
        // {Teacher, Incoherent} = 6 nodes.
        assert_eq!(iv.len(), 6);
        assert!(iv.contains(&root));
        assert!(iv.contains(&vec![john, it]));
    }

    #[test]
    fn materialized_product_matches_lazy_counts() {
        let p = respects_product();
        let m = p.materialize().unwrap();
        assert_eq!(m.len() as u128, p.node_count());
        assert_eq!(m.edge_count() as u128, p.edge_count());
        // Spot-check one reachability fact carries over.
        let corner = m.expect("(John, Incoherent Teacher)");
        assert!(m.is_descendant(corner, m.root()));
    }

    #[test]
    fn display_names() {
        let p = respects_product();
        let john = p.component(0).expect("John");
        let it = p.component(1).expect("Incoherent Teacher");
        assert_eq!(p.display(&[john, it]), "(John, Incoherent Teacher)");
        let sp = ProductHierarchy::new(vec![students()]);
        assert_eq!(sp.display(&[john]), "John");
    }

    #[test]
    fn arity_one_product_mirrors_component() {
        let sp = ProductHierarchy::new(vec![students()]);
        assert_eq!(sp.arity(), 1);
        assert_eq!(sp.node_count(), 4);
        let os = sp.component(0).expect("Obsequious Student");
        assert!(sp.reaches(&[NodeId::ROOT], &[os]));
        assert_eq!(
            sp.direct_edge(&[NodeId::ROOT], &[os]),
            Some(EdgeKind::Subset)
        );
    }
}
