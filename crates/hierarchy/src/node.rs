//! Node identifiers and interned node names.
//!
//! Every node in a [`HierarchyGraph`](crate::graph::HierarchyGraph) is
//! identified by a dense [`NodeId`] (an index into the graph's node table)
//! and carries an interned [`NodeName`]. Dense ids keep all per-node side
//! tables (visited bitmaps, topological numbers, truth values) allocation-
//! friendly `Vec`s instead of hash maps.

use std::fmt;
use std::sync::Arc;

/// A dense identifier for a node within a single [`HierarchyGraph`](crate::graph::HierarchyGraph).
///
/// Ids are only meaningful relative to the graph that created them; the
/// graph hands them out contiguously starting from the root at id 0.
/// They are `u32` rather than `usize` following the small-index guidance
/// for oft-instantiated types: an `Item` in a multi-attribute relation is a
/// vector of these.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The root of every hierarchy graph (the attribute domain itself).
    pub const ROOT: NodeId = NodeId(0);

    /// The position of this node in the graph's node table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Build a `NodeId` from a raw table index.
    ///
    /// Intended for side tables that iterate node indexes; passing an index
    /// not handed out by the owning graph yields an id that the graph's
    /// accessors will reject with [`HierarchyError::UnknownNode`]
    /// (or panic in slice-indexed internal paths).
    ///
    /// [`HierarchyError::UnknownNode`]: crate::error::HierarchyError::UnknownNode
    #[inline]
    pub fn from_index(index: usize) -> NodeId {
        debug_assert!(index <= u32::MAX as usize);
        NodeId(index as u32)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// An interned, cheaply clonable node name.
///
/// Names are shared (`Arc<str>`) because the relational layer copies them
/// into tuples, printed tables, and justification traces; cloning must not
/// allocate.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeName(Arc<str>);

impl NodeName {
    /// Intern a name from anything string-like.
    pub fn new(name: impl AsRef<str>) -> NodeName {
        NodeName(Arc::from(name.as_ref()))
    }

    /// View the name as a string slice.
    #[inline]
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Debug for NodeName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl fmt::Display for NodeName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl AsRef<str> for NodeName {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

/// Equality, order and hash are those of the string, so a name-keyed
/// map can be probed with a `&str` and no `NodeName` built for it.
impl std::borrow::Borrow<str> for NodeName {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for NodeName {
    fn from(s: &str) -> NodeName {
        NodeName::new(s)
    }
}

impl From<String> for NodeName {
    fn from(s: String) -> NodeName {
        NodeName(Arc::from(s))
    }
}

impl PartialEq<str> for NodeName {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for NodeName {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_root_is_zero() {
        assert_eq!(NodeId::ROOT.index(), 0);
        assert_eq!(NodeId::from_index(0), NodeId::ROOT);
    }

    #[test]
    fn node_id_round_trips_through_index() {
        for i in [0usize, 1, 7, 1000, u32::MAX as usize] {
            assert_eq!(NodeId::from_index(i).index(), i);
        }
    }

    #[test]
    fn node_id_orders_by_index() {
        assert!(NodeId::from_index(1) < NodeId::from_index(2));
        assert!(NodeId::ROOT < NodeId::from_index(1));
    }

    #[test]
    fn node_name_interns_and_compares() {
        let a = NodeName::new("Bird");
        let b = NodeName::from("Bird");
        let c: NodeName = String::from("Penguin").into();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, "Bird");
        assert_eq!(a.as_str(), "Bird");
    }

    #[test]
    fn node_name_clone_shares_storage() {
        let a = NodeName::new("Elephant");
        let b = a.clone();
        // Arc-backed: both point at the same allocation.
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId::from_index(3).to_string(), "n3");
        assert_eq!(
            NodeName::new("Royal Elephant").to_string(),
            "Royal Elephant"
        );
        assert_eq!(format!("{:?}", NodeName::new("x")), "\"x\"");
    }
}
