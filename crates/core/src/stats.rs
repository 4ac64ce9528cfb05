//! `EngineStats`: a typed view over the engine's metrics registry.
//!
//! The counters themselves now live in the shared `hrdm-obs` registry
//! (`core.*` namespace here, `hierarchy.closure.*` for the closure
//! memo, `storage.heap.*` in the storage crate), so recording stays a
//! relaxed atomic op — but resets, exports (Prometheus text,
//! `BENCH_obs.json`) and latency quantiles come from one place instead
//! of per-crate static sets.
//!
//! [`snapshot`] gathers the registry values into one [`EngineStats`]
//! struct; [`reset`] is **atomic** across every registered metric
//! ([`hrdm_obs::metrics::reset_all`] zeroes the whole registry in one
//! sweep under the registry lock), which closes the old bench-harness
//! race where caches were cleared while per-op wall-time accumulators
//! kept the previous run's totals. [`EngineStats::render_stable`]
//! renders only the timing-free fields, so golden snapshots can embed
//! an engine-stats trailer without depending on wall-clock noise.

use std::sync::OnceLock;
use std::time::Duration;

use hrdm_obs::metrics::{self, Counter, Histogram};

struct CoreMetrics {
    subsumption_hits: Counter,
    subsumption_misses: Counter,
    subsumption_build_ns: Counter,
    tuples_eliminated: Counter,
    tuples_expanded: Counter,
    consolidate_calls: Counter,
    consolidate_ns: Counter,
    consolidate_latency: Histogram,
    explicate_calls: Counter,
    explicate_ns: Counter,
    explicate_latency: Histogram,
    conflict_calls: Counter,
    conflict_ns: Counter,
    join_calls: Counter,
    join_ns: Counter,
    join_latency: Histogram,
    plan_execs: Counter,
    plan_nodes: Counter,
    plan_rows: Counter,
    plan_ns: Counter,
    plan_node_latency: Histogram,
}

fn obs() -> &'static CoreMetrics {
    static M: OnceLock<CoreMetrics> = OnceLock::new();
    M.get_or_init(|| CoreMetrics {
        subsumption_hits: metrics::counter("core.subsumption.hits"),
        subsumption_misses: metrics::counter("core.subsumption.misses"),
        subsumption_build_ns: metrics::counter("core.subsumption.build_ns"),
        tuples_eliminated: metrics::counter("core.consolidate.eliminated"),
        tuples_expanded: metrics::counter("core.explicate.expanded"),
        consolidate_calls: metrics::counter("core.consolidate.calls"),
        consolidate_ns: metrics::counter("core.consolidate.ns"),
        consolidate_latency: metrics::histogram("core.consolidate.latency_ns"),
        explicate_calls: metrics::counter("core.explicate.calls"),
        explicate_ns: metrics::counter("core.explicate.ns"),
        explicate_latency: metrics::histogram("core.explicate.latency_ns"),
        conflict_calls: metrics::counter("core.conflict.calls"),
        conflict_ns: metrics::counter("core.conflict.ns"),
        join_calls: metrics::counter("core.join.calls"),
        join_ns: metrics::counter("core.join.ns"),
        join_latency: metrics::histogram("core.join.latency_ns"),
        plan_execs: metrics::counter("core.plan.execs"),
        plan_nodes: metrics::counter("core.plan.nodes"),
        plan_rows: metrics::counter("core.plan.rows"),
        plan_ns: metrics::counter("core.plan.ns"),
        plan_node_latency: metrics::histogram("core.plan.node_latency_ns"),
    })
}

/// A point-in-time snapshot of every engine counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Shared closure handles served from a graph's memo (a probe
    /// borrows the matrix and is not counted).
    pub closure_hits: u64,
    /// Reachability matrices built.
    pub closure_misses: u64,
    /// Total closure build wall time, nanoseconds.
    pub closure_build_ns: u64,
    /// Subsumption-graph cache lookups served from cache.
    pub subsumption_hits: u64,
    /// Subsumption-graph cache lookups that built the graph.
    pub subsumption_misses: u64,
    /// Total subsumption-graph build wall time, nanoseconds.
    pub subsumption_build_ns: u64,
    /// Tuples removed by `consolidate` since the last reset.
    pub tuples_eliminated: u64,
    /// Tuples emitted by `explicate` since the last reset.
    pub tuples_expanded: u64,
    /// `consolidate` invocations.
    pub consolidate_calls: u64,
    /// Total `consolidate` wall time, nanoseconds.
    pub consolidate_ns: u64,
    /// `explicate` invocations.
    pub explicate_calls: u64,
    /// Total `explicate` wall time, nanoseconds.
    pub explicate_ns: u64,
    /// `find_conflicts` invocations.
    pub conflict_calls: u64,
    /// Total conflict-detection wall time, nanoseconds.
    pub conflict_ns: u64,
    /// `join` invocations.
    pub join_calls: u64,
    /// Total `join` wall time, nanoseconds.
    pub join_ns: u64,
    /// Logical-plan executions ([`crate::plan::LogicalPlan::execute`]).
    pub plan_execs: u64,
    /// Plan operator nodes evaluated across all plan executions.
    pub plan_nodes: u64,
    /// Rows produced by plan operator nodes (summed over all nodes).
    pub plan_rows: u64,
    /// Total plan-node wall time, nanoseconds.
    pub plan_ns: u64,
}

impl EngineStats {
    /// Render only the timing-free fields — counts, hit rates, tuple
    /// totals — one per line. This is what golden snapshots and figure
    /// reports embed: re-running the engine gives byte-identical output
    /// as long as the *work* is identical, no matter how fast the
    /// machine is.
    pub fn render_stable(&self) -> String {
        fn rate(hits: u64, misses: u64) -> String {
            let total = hits + misses;
            if total == 0 {
                "n/a".to_string()
            } else {
                format!("{:.0}%", 100.0 * hits as f64 / total as f64)
            }
        }
        let mut out = String::new();
        out.push_str(&format!(
            "closure memo      {} hits / {} misses ({} hit rate)\n",
            self.closure_hits,
            self.closure_misses,
            rate(self.closure_hits, self.closure_misses),
        ));
        out.push_str(&format!(
            "subsumption cache {} hits / {} misses ({} hit rate)\n",
            self.subsumption_hits,
            self.subsumption_misses,
            rate(self.subsumption_hits, self.subsumption_misses),
        ));
        out.push_str(&format!(
            "consolidate       {} calls, {} tuples eliminated\n",
            self.consolidate_calls, self.tuples_eliminated,
        ));
        out.push_str(&format!(
            "explicate         {} calls, {} tuples expanded\n",
            self.explicate_calls, self.tuples_expanded,
        ));
        out.push_str(&format!(
            "conflict check    {} calls\n",
            self.conflict_calls
        ));
        out.push_str(&format!("join              {} calls\n", self.join_calls));
        out.push_str(&format!(
            "plan exec         {} plan(s), {} node(s), {} row(s)",
            self.plan_execs, self.plan_nodes, self.plan_rows,
        ));
        out
    }
}

/// Snapshot every counter, merging the hierarchy crate's closure
/// counters with the core-side operator counters.
pub fn snapshot() -> EngineStats {
    let closure = hrdm_hierarchy::closure_stats();
    let m = obs();
    EngineStats {
        closure_hits: closure.hits,
        closure_misses: closure.misses,
        closure_build_ns: closure.build_ns,
        subsumption_hits: m.subsumption_hits.get(),
        subsumption_misses: m.subsumption_misses.get(),
        subsumption_build_ns: m.subsumption_build_ns.get(),
        tuples_eliminated: m.tuples_eliminated.get(),
        tuples_expanded: m.tuples_expanded.get(),
        consolidate_calls: m.consolidate_calls.get(),
        consolidate_ns: m.consolidate_ns.get(),
        explicate_calls: m.explicate_calls.get(),
        explicate_ns: m.explicate_ns.get(),
        conflict_calls: m.conflict_calls.get(),
        conflict_ns: m.conflict_ns.get(),
        join_calls: m.join_calls.get(),
        join_ns: m.join_ns.get(),
        plan_execs: m.plan_execs.get(),
        plan_nodes: m.plan_nodes.get(),
        plan_rows: m.plan_rows.get(),
        plan_ns: m.plan_ns.get(),
    }
}

/// Zero every counter — atomically, across all crates.
///
/// This is one sweep over the shared metrics registry under its lock,
/// so there is no window where (say) the closure counters read
/// zero but the consolidate wall-time accumulator still holds the
/// previous run: either a reader sees the old totals or the new zeros.
/// Memoized closures and cached subsumption cores are kept.
pub fn reset() {
    metrics::reset_all();
}

pub(crate) fn record_subsumption_hit() {
    obs().subsumption_hits.incr();
}

pub(crate) fn record_subsumption_miss(build: Duration) {
    let m = obs();
    m.subsumption_misses.incr();
    m.subsumption_build_ns.add(build.as_nanos() as u64);
}

pub(crate) fn record_consolidate(elapsed: Duration, eliminated: usize) {
    let m = obs();
    let ns = elapsed.as_nanos() as u64;
    m.consolidate_calls.incr();
    m.consolidate_ns.add(ns);
    m.consolidate_latency.observe_ns(ns);
    m.tuples_eliminated.add(eliminated as u64);
}

pub(crate) fn record_explicate(elapsed: Duration, expanded: usize) {
    let m = obs();
    let ns = elapsed.as_nanos() as u64;
    m.explicate_calls.incr();
    m.explicate_ns.add(ns);
    m.explicate_latency.observe_ns(ns);
    m.tuples_expanded.add(expanded as u64);
}

pub(crate) fn record_conflict(elapsed: Duration) {
    let m = obs();
    m.conflict_calls.incr();
    m.conflict_ns.add(elapsed.as_nanos() as u64);
}

pub(crate) fn record_join(elapsed: Duration) {
    let m = obs();
    let ns = elapsed.as_nanos() as u64;
    m.join_calls.incr();
    m.join_ns.add(ns);
    m.join_latency.observe_ns(ns);
}

pub(crate) fn record_plan_exec() {
    obs().plan_execs.incr();
}

pub(crate) fn record_plan_node(rows: usize, wall_ns: u64) {
    let m = obs();
    m.plan_nodes.incr();
    m.plan_rows.add(rows as u64);
    m.plan_ns.add(wall_ns);
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
        record_subsumption_hit();
        let after = snapshot();
        assert!(after.consolidate_calls > before.consolidate_calls);
        assert!(after.tuples_eliminated >= before.tuples_eliminated + 3);
        assert!(after.tuples_expanded >= before.tuples_expanded + 7);
        assert!(after.subsumption_hits > before.subsumption_hits);
    }

    #[test]
    fn latency_histograms_feed_the_registry() {
        record_join(Duration::from_micros(10));
        let h = metrics::histogram("core.join.latency_ns");
        assert!(h.count() >= 1);
        assert!(h.quantile_ns(0.5).is_some());
    }

    #[test]
    fn stable_render_has_no_wall_times() {
        let s = EngineStats {
            closure_hits: 3,
            closure_misses: 1,
            closure_build_ns: 123_456,
            consolidate_calls: 2,
            consolidate_ns: 987_654,
            tuples_eliminated: 9,
            ..EngineStats::default()
        };
        let stable = s.render_stable();
        assert!(stable.contains("3 hits / 1 misses"), "{stable}");
        assert!(stable.contains("9 tuples eliminated"), "{stable}");
        // "misses" contains the letter "s", so probe for duration
        // units and the timing values instead.
        for timing in [" ns", "µs", " ms", "building", "123", "987"] {
            assert!(
                !stable.contains(timing),
                "stable render leaked timing token {timing:?}: {stable}"
            );
        }
    }
}
