//! Error type for hierarchy-graph construction and manipulation.

use std::fmt;

use crate::node::{NodeId, NodeName};

/// Result alias used throughout the crate.
pub type Result<T, E = HierarchyError> = std::result::Result<T, E>;

/// Errors raised while building or mutating a hierarchy graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HierarchyError {
    /// A node id was used with a graph that never issued it.
    UnknownNode(NodeId),
    /// A node name was looked up but no node carries it.
    UnknownName(NodeName),
    /// Two distinct nodes may not share a name within one graph.
    DuplicateName(NodeName),
    /// Adding this edge would create a cycle, violating the paper's
    /// *type-irredundancy* constraint (§3.1).
    WouldCreateCycle {
        /// Proposed more-general endpoint.
        from: NodeId,
        /// Proposed more-specific endpoint.
        to: NodeId,
    },
    /// The edge to insert already exists.
    DuplicateEdge {
        /// More-general endpoint.
        from: NodeId,
        /// More-specific endpoint.
        to: NodeId,
    },
    /// An edge may not connect a node to itself.
    SelfEdge(NodeId),
    /// Instances are leaves of the hierarchy (§2.1); they cannot be given
    /// children or made parents of classes.
    InstanceHasChildren(NodeId),
    /// The requested parent set was empty; every non-root node needs at
    /// least one parent to keep the graph rooted.
    NoParent,
    /// A node table handed to
    /// [`HierarchyGraph::from_parts`](crate::HierarchyGraph::from_parts)
    /// is not in creation order at this node: the domain is node 0 and
    /// no other, and every other node comes after its first subset
    /// parent.
    OutOfOrder(NodeId),
}

impl fmt::Display for HierarchyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HierarchyError::UnknownNode(id) => {
                write!(f, "node {id} does not belong to this hierarchy graph")
            }
            HierarchyError::UnknownName(name) => {
                write!(f, "no node named {name:?} in this hierarchy graph")
            }
            HierarchyError::DuplicateName(name) => {
                write!(f, "a node named {name:?} already exists")
            }
            HierarchyError::WouldCreateCycle { from, to } => write!(
                f,
                "edge {from} -> {to} would create a cycle (type-irredundancy violation)"
            ),
            HierarchyError::DuplicateEdge { from, to } => {
                write!(f, "edge {from} -> {to} already exists")
            }
            HierarchyError::SelfEdge(id) => write!(f, "self edge on {id} is not allowed"),
            HierarchyError::InstanceHasChildren(id) => write!(
                f,
                "instance {id} is a leaf of the hierarchy and cannot have children"
            ),
            HierarchyError::NoParent => {
                write!(f, "a non-root node requires at least one parent")
            }
            HierarchyError::OutOfOrder(id) => write!(
                f,
                "node {id} is out of creation order: the domain is node 0 alone, \
                 and every other node comes after its first subset parent"
            ),
        }
    }
}

impl std::error::Error for HierarchyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_the_offending_parts() {
        let e = HierarchyError::WouldCreateCycle {
            from: NodeId::from_index(3),
            to: NodeId::from_index(1),
        };
        let s = e.to_string();
        assert!(s.contains("n3"), "{s}");
        assert!(s.contains("n1"), "{s}");
        assert!(s.contains("cycle"), "{s}");

        let e = HierarchyError::UnknownName(NodeName::new("Dodo"));
        assert!(e.to_string().contains("Dodo"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_error<E: std::error::Error>() {}
        assert_error::<HierarchyError>();
    }
}
