#![warn(missing_docs)]

//! Class-hierarchy DAG substrate for the hierarchical relational data model.
//!
//! This crate implements the *hierarchy graph* of Jagadish's
//! "Incorporating Hierarchy in a Relational Model of Data" (SIGMOD 1989,
//! §2.1): a rooted directed acyclic graph whose root is an attribute
//! domain, whose internal nodes are classes (sub-domains), and whose
//! leaves are instances. Edges run from each more general class to its
//! derived, more specific classes.
//!
//! On top of the DAG itself the crate provides every graph-level operation
//! the paper's model needs:
//!
//! * the one topological order, over hierarchy graphs and any DAG on
//!   `usize` ids ([`topo`]),
//! * reachability, transitive closure, and transitive reduction ([`reach`]),
//! * the paper's **node-elimination procedure** ([`elim`]), including the
//!   off-path and on-path variants from the paper's Appendix,
//! * lazy **Cartesian products** of hierarchy graphs for multi-attribute
//!   relations ([`product`], §2.2),
//! * **preference edges** (Appendix) that induce binding order without
//!   denoting set inclusion ([`preference`]),
//! * validation of the *type-irredundancy* constraint (acyclicity, §3.1)
//!   and detection of redundant (transitive) edges ([`validate`]),
//! * [`SpillVec`], the in-place list a point read's ancestor walk fills
//!   ([`spill`]),
//! * synthetic DAG generators used by the benchmark harness ([`gen`]),
//! * Graphviz export used to regenerate the paper's figures ([`dot`]).
//!
//! # Quick example
//!
//! ```
//! use hrdm_hierarchy::HierarchyGraph;
//!
//! let mut g = HierarchyGraph::new("Animal");
//! let bird = g.add_class("Bird", g.root()).unwrap();
//! let penguin = g.add_class("Penguin", bird).unwrap();
//! let tweety = g.add_instance("Tweety", bird).unwrap();
//! assert!(g.is_descendant(tweety, g.root()));
//! assert!(g.is_descendant(penguin, bird));
//! assert!(!g.is_descendant(bird, penguin));
//! ```

pub mod dot;
pub mod elim;
pub mod error;
pub mod gen;
pub mod graph;
pub mod node;
pub mod preference;
pub mod product;
pub mod reach;
pub mod spill;
pub mod topo;
pub mod validate;

pub use error::{HierarchyError, Result};
pub use graph::{EdgeKind, HierarchyGraph, NodeKind, ANCESTORS_INLINE};
pub use node::{NodeId, NodeName};
pub use product::{ProductHierarchy, ProductNode};
pub use spill::SpillVec;
