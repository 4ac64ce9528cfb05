//! Relation schemas: named attributes with hierarchy-graph domains.
//!
//! "Each attribute of a standard relation ranges over a specified
//! domain. Just as before, we can create a hierarchy of domains for each
//! attribute" (§2.2). A [`Schema`] binds attribute names to shared
//! [`HierarchyGraph`]s and caches the lazy [`ProductHierarchy`] that
//! serves as the relation's item hierarchy.

use std::sync::Arc;

use hrdm_hierarchy::{HierarchyGraph, NodeId, ProductHierarchy};

use crate::error::{CoreError, Result};
use crate::item::Item;

/// A named attribute with a hierarchy-graph domain.
#[derive(Clone)]
pub struct Attribute {
    name: String,
    domain: Arc<HierarchyGraph>,
}

impl Attribute {
    /// Build an attribute.
    pub fn new(name: impl Into<String>, domain: Arc<HierarchyGraph>) -> Attribute {
        Attribute {
            name: name.into(),
            domain,
        }
    }

    /// The attribute's name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The attribute's domain hierarchy.
    #[inline]
    pub fn domain(&self) -> &Arc<HierarchyGraph> {
        &self.domain
    }
}

/// An ordered list of attributes plus the cached product item hierarchy.
///
/// Schemas are shared (`Arc<Schema>`) by relations and operators; two
/// relations are compatible when their schemas have the same attribute
/// names (in order) and the same domain graphs (pointer equality — the
/// graphs are meant to be shared, not duplicated).
pub struct Schema {
    attributes: Vec<Attribute>,
    product: ProductHierarchy,
}

impl Schema {
    /// Build a schema from attributes.
    pub fn new(attributes: Vec<Attribute>) -> Schema {
        let product = ProductHierarchy::new(attributes.iter().map(|a| a.domain.clone()).collect());
        Schema {
            attributes,
            product,
        }
    }

    /// Single-attribute convenience constructor (§2.1 relations).
    pub fn single(name: impl Into<String>, domain: Arc<HierarchyGraph>) -> Schema {
        Schema::new(vec![Attribute::new(name, domain)])
    }

    /// Number of attributes.
    #[inline]
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// The attributes, in declaration order.
    #[inline]
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// One attribute by position.
    #[inline]
    pub fn attribute(&self, i: usize) -> &Attribute {
        &self.attributes[i]
    }

    /// The cached product item hierarchy (§2.2).
    #[inline]
    pub fn product(&self) -> &ProductHierarchy {
        &self.product
    }

    /// The domain graph of attribute `i`.
    #[inline]
    pub fn domain(&self, i: usize) -> &HierarchyGraph {
        &self.attributes[i].domain
    }

    /// Position of the attribute with this name.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.attributes
            .iter()
            .position(|a| a.name == name)
            .ok_or_else(|| CoreError::UnknownAttribute(name.to_string()))
    }

    /// Resolve per-attribute node *names* into an [`Item`].
    ///
    /// The `i`-th name is looked up in the `i`-th attribute's domain.
    /// The names are taken as given (`&[&str]`, `&[String]`, …); for an
    /// arity of at most four a resolution that succeeds allocates
    /// nothing.
    pub fn item<S: AsRef<str>>(&self, names: &[S]) -> Result<Item> {
        if names.len() != self.arity() {
            return Err(CoreError::ArityMismatch {
                expected: self.arity(),
                got: names.len(),
            });
        }
        Item::try_from_fn(names.len(), |i| {
            Ok(self.attributes[i].domain.node(names[i].as_ref())?)
        })
    }

    /// Validate that an item has the right arity and that every
    /// component id belongs to its domain graph.
    pub fn check_item(&self, item: &Item) -> Result<()> {
        if item.arity() != self.arity() {
            return Err(CoreError::ArityMismatch {
                expected: self.arity(),
                got: item.arity(),
            });
        }
        for (i, &node) in item.components().iter().enumerate() {
            if node.index() >= self.domain(i).len() {
                return Err(CoreError::Hierarchy(
                    hrdm_hierarchy::HierarchyError::UnknownNode(node),
                ));
            }
        }
        Ok(())
    }

    /// The item covering the whole relation domain `D*`:
    /// `(root, …, root)`.
    pub fn universal_item(&self) -> Item {
        Item::new(vec![NodeId::ROOT; self.arity()])
    }

    /// Human-readable rendering of an item, e.g.
    /// `(∀Obsequious Student, John)`. Classes get the paper's `∀`
    /// prefix; instances print bare.
    pub fn display_item(&self, item: &Item) -> String {
        self.display_item_with_room(item, 0)
    }

    /// [`display_item`](Schema::display_item), in a string with room
    /// for `extra` more bytes: the one allocation of a reply that
    /// appends to the item, such as `HOLDS`'s `: true`.
    pub fn display_item_with_room(&self, item: &Item, extra: usize) -> String {
        const FORALL: &str = "∀";
        let parts = || {
            item.components()
                .iter()
                .zip(&self.attributes)
                .map(|(&n, a)| (!a.domain.is_instance(n), a.domain.name(n).as_str()))
        };
        let arity = item.arity();
        let framing = if arity == 1 {
            0
        } else {
            2 + 2 * arity.saturating_sub(1)
        };
        let len = parts()
            .map(|(class, name)| name.len() + if class { FORALL.len() } else { 0 })
            .sum::<usize>();
        let mut out = String::with_capacity(len + framing + extra);
        if arity != 1 {
            out.push('(');
        }
        for (i, (class, name)) in parts().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            if class {
                out.push_str(FORALL);
            }
            out.push_str(name);
        }
        if arity != 1 {
            out.push(')');
        }
        out
    }

    /// Are two schemas compatible (same names, same shared graphs)?
    pub fn compatible(&self, other: &Schema) -> bool {
        self.arity() == other.arity()
            && self
                .attributes
                .iter()
                .zip(&other.attributes)
                .all(|(a, b)| a.name == b.name && Arc::ptr_eq(&a.domain, &b.domain))
    }
}

impl std::fmt::Debug for Schema {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Schema(")?;
        for (i, a) in self.attributes.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", a.name, a.domain.name(a.domain.root()))?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn animals() -> Arc<HierarchyGraph> {
        let mut g = HierarchyGraph::new("Animal");
        let bird = g.add_class("Bird", g.root()).unwrap();
        g.add_instance("Tweety", bird).unwrap();
        Arc::new(g)
    }

    fn colors() -> Arc<HierarchyGraph> {
        let mut g = HierarchyGraph::new("Color");
        g.add_instance("Grey", g.root()).unwrap();
        g.add_instance("White", g.root()).unwrap();
        Arc::new(g)
    }

    #[test]
    fn item_resolution_by_name() {
        let s = Schema::new(vec![
            Attribute::new("Animal", animals()),
            Attribute::new("Color", colors()),
        ]);
        let item = s.item(&["Tweety", "Grey"]).unwrap();
        assert_eq!(item.arity(), 2);
        assert!(s.check_item(&item).is_ok());
        assert!(matches!(
            s.item(&["Nobody", "Grey"]),
            Err(CoreError::Hierarchy(_))
        ));
        assert!(matches!(
            s.item(&["Tweety"]),
            Err(CoreError::ArityMismatch {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn index_of_and_accessors() {
        let s = Schema::new(vec![
            Attribute::new("Animal", animals()),
            Attribute::new("Color", colors()),
        ]);
        assert_eq!(s.index_of("Color").unwrap(), 1);
        assert!(matches!(
            s.index_of("Size"),
            Err(CoreError::UnknownAttribute(_))
        ));
        assert_eq!(s.arity(), 2);
        assert_eq!(s.attribute(0).name(), "Animal");
        assert_eq!(s.product().arity(), 2);
    }

    #[test]
    fn display_item_uses_forall_for_classes() {
        let s = Schema::new(vec![
            Attribute::new("Animal", animals()),
            Attribute::new("Color", colors()),
        ]);
        let item = s.item(&["Bird", "Grey"]).unwrap();
        assert_eq!(s.display_item(&item), "(∀Bird, Grey)");
        let single = Schema::single("Animal", animals());
        let item = single.item(&["Bird"]).unwrap();
        assert_eq!(single.display_item(&item), "∀Bird");
        let item = single.item(&["Tweety"]).unwrap();
        assert_eq!(single.display_item(&item), "Tweety");
    }

    #[test]
    fn universal_item_is_all_roots() {
        let s = Schema::new(vec![
            Attribute::new("Animal", animals()),
            Attribute::new("Color", colors()),
        ]);
        let u = s.universal_item();
        assert_eq!(u.components(), &[NodeId::ROOT, NodeId::ROOT]);
        assert_eq!(s.display_item(&u), "(∀Animal, ∀Color)");
    }

    #[test]
    fn compatibility_requires_shared_graphs() {
        let a = animals();
        let s1 = Schema::single("Animal", a.clone());
        let s2 = Schema::single("Animal", a);
        assert!(s1.compatible(&s2));
        let s3 = Schema::single("Animal", animals()); // different Arc
        assert!(!s1.compatible(&s3));
        let s4 = Schema::single("Beast", s1.attribute(0).domain().clone());
        assert!(!s1.compatible(&s4));
    }

    #[test]
    fn check_item_rejects_foreign_node_ids() {
        let s = Schema::single("Animal", animals());
        let bogus = Item::new(vec![NodeId::from_index(999)]);
        assert!(s.check_item(&bogus).is_err());
    }

    #[test]
    fn debug_lists_attributes() {
        let s = Schema::new(vec![
            Attribute::new("Animal", animals()),
            Attribute::new("Color", colors()),
        ]);
        let d = format!("{s:?}");
        assert!(d.contains("Animal"));
        assert!(d.contains("Color"));
    }
}
