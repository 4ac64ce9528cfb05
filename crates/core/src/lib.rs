#![warn(missing_docs)]

//! The hierarchical relational data model of Jagadish (SIGMOD 1989).
//!
//! This crate is the paper's primary contribution: a relational model in
//! which **classes** from a hierarchy may appear as attribute values
//! ("∀C" tuples), tuples carry a **truth value** so that negated tuples
//! express *exceptions* to inherited facts, and two new operators —
//! [`consolidate`](consolidate::consolidate) and
//! [`explicate`](explicate::explicate) — manipulate the physical form of
//! a relation without changing its unique equivalent *flat* relation.
//!
//! # Model in one page
//!
//! * A [`Schema`] names the attributes and attaches a
//!   [`HierarchyGraph`](hrdm_hierarchy::HierarchyGraph) to each; the item
//!   hierarchy of the relation is the (lazy) Cartesian product of those
//!   graphs (§2.2).
//! * An [`Item`] picks one node — class *or* instance — per
//!   attribute; a [`Tuple`] is an item plus a
//!   [`Truth`] value (§2.1).
//! * A [`HRelation`] is a set of tuples. Its meaning
//!   is its unique flat extension ([`flat`]): the atomic items whose
//!   *strongest-binding* tuple is positive.
//! * Binding strength comes from the **tuple-binding graph** ([`binding`])
//!   derived by the paper's node-elimination procedure from the
//!   **subsumption graph** ([`subsumption`]); the Appendix's off-path /
//!   on-path / no-preemption variants are selectable per relation
//!   ([`preemption`]).
//! * Items inheriting tuples of both truth values are **conflicts**; the
//!   §3.1 *ambiguity constraint* rejects them at transaction commit
//!   ([`integrity`], [`conflict`]).
//! * The standard operators keep their flat semantics (§3.4): σ, π, ⋈ and
//!   the set operations live in [`ops`], each documented with its
//!   hierarchical evaluation strategy and property-tested against the
//!   explicated baseline.
//!
//! §4's research directions are implemented as extensions:
//! three-valued lookups over partial information ([`three_valued`]) and
//! mechanical organization of flat relations into hierarchical ones
//! ([`discover`]).
//!
//! # Quick example (the paper's Fig. 1)
//!
//! ```
//! use std::sync::Arc;
//! use hrdm_core::prelude::*;
//! use hrdm_hierarchy::HierarchyGraph;
//!
//! let mut g = HierarchyGraph::new("Animal");
//! let bird = g.add_class("Bird", g.root()).unwrap();
//! let canary = g.add_class("Canary", bird).unwrap();
//! g.add_instance("Tweety", canary).unwrap();
//! let penguin = g.add_class("Penguin", bird).unwrap();
//! g.add_instance("Paul", penguin).unwrap();
//!
//! let schema = Arc::new(Schema::new(vec![Attribute::new("Creature", Arc::new(g))]));
//! let mut flies = HRelation::new(schema.clone());
//! flies.assert_fact(&["Bird"], Truth::Positive).unwrap();    // all birds fly
//! flies.assert_fact(&["Penguin"], Truth::Negative).unwrap(); // except penguins
//!
//! assert!(flies.holds(&flies.item(&["Tweety"]).unwrap()));
//! assert!(!flies.holds(&flies.item(&["Paul"]).unwrap()));
//! ```

pub mod binding;
pub mod catalog;
pub mod conflict;
pub mod consolidate;
pub mod constraints;
pub mod delta;
pub mod derivation;
pub mod differential;
pub mod discover;
pub mod error;
pub mod explicate;
pub mod flat;
pub mod integrity;
pub mod item;
pub mod justify;
pub mod mutation;
pub mod ops;
#[doc(hidden)]
pub mod parallel;
pub mod plan;
pub mod pmap;
pub mod preemption;
pub mod relation;
pub mod render;
pub mod schema;
pub mod snapshot;
pub mod stats;
pub mod subsumption;
pub mod three_valued;
pub mod truth;
pub mod tuple;
pub mod view;

/// One-stop imports for the common API surface.
pub mod prelude {
    pub use crate::binding::{Binding, Verdict};
    pub use crate::catalog::Catalog;
    pub use crate::delta::RelationDelta;
    pub use crate::differential::{MaintainReport, MaterializedPlan};
    pub use crate::error::{CoreError, Result};
    pub use crate::item::Item;
    pub use crate::mutation::CatalogMutation;
    pub use crate::plan::LogicalPlan;
    pub use crate::preemption::Preemption;
    pub use crate::relation::HRelation;
    pub use crate::schema::{Attribute, Schema};
    pub use crate::snapshot::{Snapshot, SnapshotCell};
    pub use crate::stats::EngineStats;
    pub use crate::truth::Truth;
    pub use crate::tuple::Tuple;

    /// Runs `plan.execute()` — there is one executor. Remove together
    /// with its caller (`benchmark/src/workloads/derive.rs`, which this
    /// crate's PRs may not touch) in the follow-up `benchmark` issue
    /// recorded in ROADMAP.md ("drop the two forwards").
    #[doc(hidden)]
    pub fn execute_batch(plan: &LogicalPlan) -> Result<crate::plan::Executed> {
        plan.execute()
    }
}

pub use prelude::*;
