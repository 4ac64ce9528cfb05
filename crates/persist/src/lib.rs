#![warn(missing_docs)]

//! Persistence for hierarchical relational catalogs: snapshot images
//! plus crash-safe durability.
//!
//! The paper's model is a *data model*; a system built on it needs its
//! state — domain hierarchies and hierarchical relations — to survive
//! restarts. This crate defines a self-contained binary image format
//! (`HRDM1`) and reader/writer for a whole world:
//!
//! * every domain graph, with node names, kinds, and both edge kinds
//!   (subset and Appendix preference edges), in id order so `NodeId`s
//!   round-trip verbatim;
//! * every relation, with its attribute names, per-attribute domain
//!   references (by index into the image's domain table, so relations
//!   over the same domain share one `Arc` after loading — join
//!   compatibility survives persistence), preemption mode, and tuples.
//!
//! The hierarchical representation is what gets persisted — the whole
//! point of the paper is that this is the *compact* encoding (B1); a
//! flat engine would persist the explicated extension instead.
//!
//! ```
//! use hrdm_persist::Image;
//! use hrdm_core::prelude::*;
//! use std::sync::Arc;
//!
//! let mut g = hrdm_hierarchy::HierarchyGraph::new("Animal");
//! let bird = g.add_class("Bird", g.root()).unwrap();
//! g.add_instance("Tweety", bird).unwrap();
//! let dom = Arc::new(g);
//! let schema = Arc::new(Schema::single("Creature", dom.clone()));
//! let mut flies = HRelation::new(schema);
//! flies.assert_fact(&["Bird"], Truth::Positive).unwrap();
//!
//! let mut image = Image::new();
//! image.add_domain("Animal", dom);
//! image.add_relation("Flies", flies);
//! let bytes = image.to_bytes().unwrap();
//! let restored = Image::from_bytes(&bytes).unwrap();
//! let flies = restored.relation("Flies").unwrap();
//! assert!(flies.holds(&flies.item(&["Tweety"]).unwrap()));
//! ```

//! On top of the image sits the durability subsystem ([`wal`],
//! [`store`]): an append-only write-ahead log of logical
//! [`CatalogMutation`](hrdm_core::mutation::CatalogMutation) records
//! (length-prefixed, CRC-32 framed), periodic checkpoints that write a
//! fresh `HRDM1` image and truncate the log, and a [`recover`] path
//! that loads the newest intact checkpoint, replays the WAL tail, and
//! stops cleanly at the first torn record. [`faultfs`] provides the
//! deterministic write-fault injection the crash-recovery test harness
//! sweeps kill points with.

pub mod codec;
pub mod error;
pub mod faultfs;
pub mod image;
pub mod ship;
pub mod store;
pub mod wal;

pub use error::{PersistError, Result};
pub use faultfs::{Fault, FaultFs};
pub use image::Image;
pub use ship::{ShipEvent, WalTailer};
pub use store::{recover, DurableCatalog, Journal, Recovered, RecoveryReport};
pub use wal::{Frame, FrameError, LsnMarks, WalFile, WalReader, WalRecord};
