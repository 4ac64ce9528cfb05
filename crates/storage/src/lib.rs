#![warn(missing_docs)]

//! A from-scratch flat relational storage engine: the paper's baseline.
//!
//! Footnote 1 of the paper describes the "traditional" alternative to
//! hierarchical relations: "store the class membership in a separate
//! relation and keep only a single tuple with a class name … in the
//! standard relational model. The problem then is that repeated joins
//! are required, causing a degradation in performance." §1 likewise
//! contrasts the class mechanism with "storing an extension of the class
//! membership as the set of instances …, and then in addition storing an
//! integrity constraint that ensures that the extension stored is
//! exactly the membership of the class."
//!
//! This crate implements that baseline honestly, so the benchmark
//! harness can measure both sides of the paper's comparison on equal
//! footing:
//!
//! * [`page`] — 8 KiB slotted pages,
//! * [`heap`] — heap files of encoded rows with storage accounting,
//! * [`row`] — fixed-arity row encoding,
//! * [`index`] — hash indexes,
//! * [`exec`] — volcano-style iterators (scan, filter, project, hash
//!   join),
//! * [`catalog`] — named tables,
//! * [`membership`] — the footnote-1 encoding: a membership table per
//!   domain plus the integrity constraint that it matches the hierarchy.
//!
//! Everything is deliberately in-memory (pages are `Box<[u8; 8192]>`):
//! the paper's claims are about tuple counts and join work, not disk
//! hardware, and an in-memory engine keeps the comparison apples to
//! apples with the in-memory hierarchical core.

pub mod catalog;
pub mod error;
pub mod exec;
pub mod heap;
pub mod index;
pub mod membership;
pub mod page;
pub mod row;

pub use catalog::{Database, Table};
pub use error::{Result, StorageError};
pub use heap::{HeapFile, RecordId};
pub use page::{Page, PAGE_SIZE};
pub use row::Row;
