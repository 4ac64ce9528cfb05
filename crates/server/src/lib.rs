#![warn(missing_docs)]

//! `hrdm-server` — a concurrent TCP serving layer over the `hrdm`
//! engine.
//!
//! The server wraps one shared [`Engine`](hrdm::prelude::Engine):
//! read-only statements evaluate against epoch-stamped catalog
//! snapshots (arbitrarily many in parallel, no lock held), mutating
//! statements serialize through the engine's single writer and journal
//! through the write-ahead log of an `OPEN`ed store. Every client
//! therefore sees **snapshot-consistent** results: each reply is
//! byte-identical to executing the same statement against the state
//! after some serial prefix of the write history.
//!
//! * [`proto`] — the `HRDM/1` wire format (length-prefixed UTF-8
//!   frames, verbs, replies), an incremental [`proto::FrameReader`]
//!   for non-blocking reassembly, and a blocking [`Client`] with
//!   pipelining support ([`Client::pipeline`]).
//! * [`server`] — the event-driven server: one `poll(2)` readiness
//!   loop owning every socket in non-blocking mode and answering
//!   point-read scripts (`HOLDS`/`HOLDS3`/`WHY`) itself, a worker pool
//!   executing every other request against engine snapshots,
//!   per-connection request pipelining (in-order execution and
//!   replies, whichever side runs a request), admission
//!   control (`BUSY` past the connection cap), write backpressure
//!   keyed off the engine's writer-queue depth, idle/slow-client
//!   timeouts, and graceful shutdown.
//! * [`sys`] — the thin `libc` shim behind the loop (`poll`, the
//!   self-wake pipe, fd-limit control); std-only, no external crates.
//!
//! Every request is telemetered end to end: per-verb latency
//! histograms, bytes-in/out and frame-size counters, and
//! admission/timeout/protocol-error counters land in the `hrdm-obs`
//! registry, readable over the wire via the `METRICS` verb (Prometheus
//! text or JSON) and summarized by `STATS`. Requests slower than
//! [`ServerConfig::slowlog_threshold`] are captured — with their
//! rendered `QueryTrace` trees — into a bounded slow-query log served
//! by the `SLOWLOG` verb.
//!
//! The `hrdm-serve` binary wires both to a command line:
//!
//! ```text
//! hrdm-serve --addr 127.0.0.1:7878 --store ./data --max-conn 64
//! ```

pub mod proto;
pub mod server;
pub mod shard;
pub mod sys;

pub use proto::{Client, FrameReader, MetricsFormat, Reply, Request};
pub use server::{Server, ServerConfig, ServerHandle};
pub use shard::WireRouter;
