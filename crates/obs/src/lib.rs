//! `hrdm-obs`: structured tracing and metrics for the engine, with no
//! external dependencies.
//!
//! The crate replaces the two disconnected ad-hoc mechanisms the engine
//! grew earlier — process-global `EngineStats` counters and the
//! plan-local `NodeProfile` tree — with one layered subsystem:
//!
//! * [`metrics`] — typed registries of named counters, gauges and
//!   log-scaled latency histograms (p50/p95/p99). Each engine, server
//!   and WAL tailer owns a scope whose records also land in the process
//!   registry. Handles are `Arc`s over relaxed atomics, so recording
//!   costs a few nanoseconds and is safe from any thread.
//!   [`metrics::reset_all`] zeroes every process metric in one sweep
//!   under the registry lock, so benchmark harnesses get an atomic
//!   reset instead of chasing per-crate counter sets.
//! * [`mod@span`] — `span!("consolidate", rel = name)` guards with
//!   monotonic timing, recorded on a thread-local stack of open spans:
//!   a closing guard hands its node to the span below it. A guard on a
//!   thread with no capture open is inert — one thread-local read.
//! * [`trace`] — per-query execution traces:
//!   [`trace::capture`] roots that stack and returns the spans the
//!   closure opened on its thread as a [`trace::QueryTrace`] tree with
//!   per-node rows, wall time, and cache-attribution fields.
//! * [`attrib`] — thread-local attribution slots (closure and
//!   subsumption-graph builds, heap I/O) that let a plan node report
//!   *its own* work deterministically even while other threads run.
//! * [`chrome`] — `chrome://tracing`-loadable JSON export of a trace.
//! * [`slowlog`] — a bounded buffer of the N slowest requests (wall
//!   time, epoch, rendered trace tree); each server owns one, feeds it
//!   and exposes it over the wire via its `SLOWLOG` verb.
//!
//! The instrumentation is always compiled in. Its cost outside a capture
//! is a relaxed atomic per counter bump or histogram observation and one
//! thread-local read per span guard.

pub mod attrib;
pub mod chrome;
mod json;
pub mod metrics;
pub mod slowlog;
pub mod span;
pub mod trace;

pub use span::SpanGuard;
pub use trace::QueryTrace;

/// Open a span guard, optionally attaching `key = value` fields.
///
/// ```
/// let name = "Flying";
/// let _g = hrdm_obs::span!("consolidate", rel = name);
/// ```
///
/// Fields are only rendered (and only allocate) when a capture is open
/// on this thread; otherwise the guard is inert.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::span($name)
    };
    ($name:expr, $($key:ident = $val:expr),+ $(,)?) => {{
        let mut guard = $crate::span::span($name);
        if guard.is_active() {
            $(guard.field_str(stringify!($key), $val.to_string());)+
        }
        guard
    }};
}
