#![deny(missing_docs)]

//! `hrdm` — the hierarchical relational data model, assembled.
//!
//! A faithful, production-quality reproduction of H. V. Jagadish,
//! *Incorporating Hierarchy in a Relational Model of Data* (SIGMOD
//! 1989). This facade re-exports the workspace crates:
//!
//! * [`hierarchy`] — class-DAG substrate (node elimination, products,
//!   preference edges, preemption variants),
//! * [`core`] — the hierarchical relational model itself (truth-valued
//!   tuples, inheritance with exceptions, consolidate/explicate, the
//!   standard operators),
//! * [`storage`] — the from-scratch flat baseline engine (footnote 1's
//!   "traditional approach"),
//! * [`datalog`] — semi-naive Datalog with stratified negation over
//!   hierarchical EDBs (§2.1's "more powerful inference mechanism"),
//! * [`hql`] — a textual interface (DDL, assertions, queries, the
//!   consolidate/explicate operators) over the model, including the
//!   concurrent [`Engine`](hql::Engine) (snapshot reads, serialized
//!   writes) that `hrdm-server` serves over TCP,
//! * [`persist`] — a binary snapshot format plus write-ahead journal
//!   for whole catalogs,
//! * [`obs`] — spans, metrics, and query traces across all layers.
//!
//! Failures from any layer fold into one [`Error`] with stable
//! [`Error::kind`] codes (the same codes the `hrdm-server` wire
//! protocol sends in `ERR` replies).
//!
//! See `examples/` for runnable walkthroughs of the paper's scenarios
//! and `crates/bench` for the full experiment harness (every figure and
//! quantitative claim).
//!
//! ```
//! use hrdm::prelude::*;
//! use std::sync::Arc;
//!
//! let mut g = hrdm::hierarchy::HierarchyGraph::new("Animal");
//! let bird = g.add_class("Bird", g.root()).unwrap();
//! g.add_instance("Tweety", bird).unwrap();
//!
//! let schema = Arc::new(Schema::single("Creature", Arc::new(g)));
//! let mut flies = HRelation::new(schema);
//! flies.assert_fact(&["Bird"], Truth::Positive).unwrap();
//! assert!(flies.holds(&flies.item(&["Tweety"]).unwrap()));
//! ```

pub use hrdm_core as core;
pub use hrdm_datalog as datalog;
pub use hrdm_hierarchy as hierarchy;
pub use hrdm_hql as hql;
pub use hrdm_obs as obs;
pub use hrdm_persist as persist;
pub use hrdm_storage as storage;

mod error;

pub use error::{Error, Result};

/// One-stop imports: the model types, the HQL engine layer,
/// the location-transparent execution surface, persistence handles,
/// and the unified error.
///
/// Programs that execute HQL should depend on
/// [`ExecutorHandle`](hrdm_hql::ExecutorHandle) rather than a concrete
/// backend: the embedded [`Engine`](hrdm_hql::Engine), the sharded
/// coordinator ([`Router`](hrdm_hql::Router) over any of the others;
/// [`ShardedEngine`](hrdm_hql::ShardedEngine) over engines), a
/// WAL-fed read [`Replica`](hrdm_hql::Replica), and `hrdm-server`'s
/// wire `Client` all implement it with byte-identical rendered
/// responses, so the choice of deployment (embedded, sharded, remote,
/// replicated) is a wiring decision, not an API one.
pub mod prelude {
    pub use crate::error::{Error, Result};
    pub use hrdm_core::prelude::*;
    pub use hrdm_hql::{
        default_shard, render, Engine, ExecError, ExecResult, ExecutorHandle, HqlError, ReadView,
        Replica, Response, Router, ShardedEngine, Statement, StatementKind, World,
    };
    pub use hrdm_persist::{Image, Journal, PersistError, ShipEvent, WalTailer};
}
