#![warn(missing_docs)]

//! Shared workloads and fixtures for the benchmark harness.
//!
//! Two kinds of artifacts live in this crate:
//!
//! * [`figures`] — regenerates every worked figure of the paper
//!   (EX1–EX11 in DESIGN.md) as one deterministic report; the `figures`
//!   binary prints it and the golden test snapshots it;
//! * `src/bin/tables.rs` — the performance experiments (B1–B11), each
//!   reproducing one quantitative claim from the paper's prose against
//!   the flat baseline engine and asserting the counts it prints.
//!
//! The builders here construct the paper's running examples (Figs. 1–4)
//! and the synthetic scaled workloads both binaries share.

pub mod figures;
pub mod fixtures;
pub mod flatplan;
pub mod workloads;
