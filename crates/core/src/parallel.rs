//! Every stage of the engine executes on the calling thread; this module
//! holds one name, kept for `benchmark/src/workloads/derive.rs`, which
//! this crate's PRs may not touch.

/// Runs `f`. Remove together with its caller in the follow-up
/// `benchmark` issue recorded in ROADMAP.md ("drop the two forwards").
#[doc(hidden)]
pub fn run_serial<R>(f: impl FnOnce() -> R) -> R {
    f()
}
