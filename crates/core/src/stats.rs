//! `EngineStats`: a typed view over the process-wide `core.*` and
//! `hierarchy.closure.*` metrics of the `hrdm-obs` registry.
//!
//! [`snapshot`] gathers them into one [`EngineStats`];
//! [`hrdm_obs::metrics::reset_all`] zeroes them, with the rest of the
//! process registry, in one sweep. [`EngineStats`] holds counts only —
//! wall times and latency quantiles stay in the registry for the
//! exports — so [`EngineStats::render_stable`] is free of wall-clock
//! noise.

use std::sync::OnceLock;
use std::time::Duration;

use hrdm_obs::metrics::{self, Counter, Histogram};

struct CoreMetrics {
    subsumption_builds: Counter,
    subsumption_build_ns: Counter,
    tuples_eliminated: Counter,
    tuples_expanded: Counter,
    consolidate_latency: Histogram,
    explicate_latency: Histogram,
    conflict_calls: Counter,
    conflict_ns: Counter,
    join_latency: Histogram,
    plan_execs: Counter,
    plan_rows: Counter,
    plan_node_latency: Histogram,
}

fn obs() -> &'static CoreMetrics {
    static M: OnceLock<CoreMetrics> = OnceLock::new();
    M.get_or_init(|| CoreMetrics {
        subsumption_builds: metrics::counter("core.subsumption.builds"),
        subsumption_build_ns: metrics::counter("core.subsumption.build_ns"),
        tuples_eliminated: metrics::counter("core.consolidate.eliminated"),
        tuples_expanded: metrics::counter("core.explicate.expanded"),
        consolidate_latency: metrics::histogram("core.consolidate.latency_ns"),
        explicate_latency: metrics::histogram("core.explicate.latency_ns"),
        conflict_calls: metrics::counter("core.conflict.calls"),
        conflict_ns: metrics::counter("core.conflict.ns"),
        join_latency: metrics::histogram("core.join.latency_ns"),
        plan_execs: metrics::counter("core.plan.execs"),
        plan_rows: metrics::counter("core.plan.rows"),
        plan_node_latency: metrics::histogram("core.plan.node_latency_ns"),
    })
}

/// A point-in-time snapshot of every engine counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Reachability matrices built.
    pub closure_misses: u64,
    /// Whole-relation subsumption graphs built.
    pub subsumption_builds: u64,
    /// Tuples removed by `consolidate` since the last reset.
    pub tuples_eliminated: u64,
    /// Tuples emitted by `explicate` since the last reset.
    pub tuples_expanded: u64,
    /// `consolidate` invocations.
    pub consolidate_calls: u64,
    /// `explicate` invocations.
    pub explicate_calls: u64,
    /// `find_conflicts` invocations.
    pub conflict_calls: u64,
    /// `join` invocations.
    pub join_calls: u64,
    /// Logical-plan executions ([`crate::plan::LogicalPlan::execute`]).
    pub plan_execs: u64,
    /// Plan operator nodes evaluated across all plan executions.
    pub plan_nodes: u64,
    /// Rows produced by plan operator nodes (summed over all nodes).
    pub plan_rows: u64,
}

impl EngineStats {
    /// Render every field — counts and tuple totals, no wall times —
    /// one per line. This is what the figure report's trailer embeds:
    /// re-running the engine gives byte-identical output as long as the
    /// *work* is identical, no matter how fast the machine is.
    pub fn render_stable(&self) -> String {
        format!(
            "closure memo      {} built\n\
             subsumption graph {} built\n\
             consolidate       {} calls, {} tuples eliminated\n\
             explicate         {} calls, {} tuples expanded\n\
             conflict check    {} calls\n\
             join              {} calls\n\
             plan exec         {} plan(s), {} node(s), {} row(s)",
            self.closure_misses,
            self.subsumption_builds,
            self.consolidate_calls,
            self.tuples_eliminated,
            self.explicate_calls,
            self.tuples_expanded,
            self.conflict_calls,
            self.join_calls,
            self.plan_execs,
            self.plan_nodes,
            self.plan_rows,
        )
    }
}

/// Snapshot every counter, merging the hierarchy crate's closure
/// counter with the core-side operator counters. An operator's calls
/// (and the plan's nodes) are the observation counts of its latency
/// histogram, recorded by the same call.
pub fn snapshot() -> EngineStats {
    let m = obs();
    EngineStats {
        closure_misses: metrics::counter("hierarchy.closure.misses").get(),
        subsumption_builds: m.subsumption_builds.get(),
        tuples_eliminated: m.tuples_eliminated.get(),
        tuples_expanded: m.tuples_expanded.get(),
        consolidate_calls: m.consolidate_latency.count(),
        explicate_calls: m.explicate_latency.count(),
        conflict_calls: m.conflict_calls.get(),
        join_calls: m.join_latency.count(),
        plan_execs: m.plan_execs.get(),
        plan_nodes: m.plan_node_latency.count(),
        plan_rows: m.plan_rows.get(),
    }
}

pub(crate) fn record_subsumption_build(build: Duration) {
    let m = obs();
    m.subsumption_builds.incr();
    m.subsumption_build_ns.add(build.as_nanos() as u64);
}

pub(crate) fn record_consolidate(elapsed: Duration, eliminated: usize) {
    let m = obs();
    m.consolidate_latency.observe_ns(elapsed.as_nanos() as u64);
    m.tuples_eliminated.add(eliminated as u64);
}

pub(crate) fn record_explicate(elapsed: Duration, expanded: usize) {
    let m = obs();
    m.explicate_latency.observe_ns(elapsed.as_nanos() as u64);
    m.tuples_expanded.add(expanded as u64);
}

pub(crate) fn record_conflict(elapsed: Duration) {
    let m = obs();
    m.conflict_calls.incr();
    m.conflict_ns.add(elapsed.as_nanos() as u64);
}

pub(crate) fn record_join(elapsed: Duration) {
    obs().join_latency.observe_ns(elapsed.as_nanos() as u64);
}

pub(crate) fn record_plan_exec() {
    obs().plan_execs.incr();
}

pub(crate) fn record_plan_node(rows: usize, wall_ns: u64) {
    let m = obs();
    m.plan_rows.add(rows as u64);
    m.plan_node_latency.observe_ns(wall_ns);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        // Counters are global; only check deltas and monotonicity.
        let before = snapshot();
        record_consolidate(Duration::from_nanos(500), 3);
        record_explicate(Duration::from_nanos(200), 7);
        record_subsumption_build(Duration::from_nanos(300));
        let after = snapshot();
        assert!(after.consolidate_calls > before.consolidate_calls);
        assert!(after.tuples_eliminated >= before.tuples_eliminated + 3);
        assert!(after.tuples_expanded >= before.tuples_expanded + 7);
        assert!(after.subsumption_builds > before.subsumption_builds);
    }

    #[test]
    fn latency_histograms_feed_the_registry() {
        record_join(Duration::from_micros(10));
        let h = metrics::histogram("core.join.latency_ns");
        assert!(h.count() >= 1);
        assert!(h.quantile_ns(0.5).is_some());
    }
}
