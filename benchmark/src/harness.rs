//! What every workload shares: the round loop, the set-up timing, the
//! aggregation of rounds into metrics, and the output.

use std::collections::BTreeMap;
use std::time::Instant;

use hrdm_hql::{ExecResult, ExecutorHandle};
use hrdm_obs::metrics as registry;

use crate::gen::{Op, OpClass};
use crate::span::Tracer;
use crate::stats::{median, percentile, tail_quantile};
use crate::sys;
use crate::workloads::{engine_stage_metrics, medians_by_name};

/// Complete set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Timed rounds a run never goes below, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;
/// Spans one traced run keeps in memory.
const TRACE_CAPACITY: usize = 2_000_000;
/// What [`sys::calibration_ms`] takes on this box in a quiet minute:
/// the speed the gated timings are stated at (see [`run`]).
const NOMINAL_CALIBRATION_MS: f64 = 30.0;
/// Room kept free in the tracer for [`Workload::probe_layers`] (the
/// largest probe, the wire replay, records about 70 000 spans): rounds
/// stop being traced before they would eat into it.
const PROBE_SPANS: usize = 200_000;

/// Metric values by name; [`crate::metrics`] holds the units.
pub type Metrics = BTreeMap<&'static str, f64>;

/// FNV-1a over a reply's rendered statements; what the oracle compares.
pub fn reply_hash(parts: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for b in part.bytes().chain([0x1e]) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Hash of an execution result: the rendered statements, or the error
/// kind and message (which never equals a success hash in practice and
/// is counted as a failure by the caller anyway).
pub fn result_hash(result: &ExecResult<Vec<String>>) -> u64 {
    match result {
        Ok(parts) => reply_hash(parts),
        Err(e) => reply_hash(&[format!("ERR {e}")]),
    }
}

/// What the reference executor answers to each operation, in order.
pub fn expected_hashes(reference: &dyn ExecutorHandle, ops: &[Op]) -> Vec<u64> {
    ops.iter()
        .map(|op| {
            let result = reference.execute(&op.text);
            assert!(
                result.is_ok(),
                "the generator must not produce a failing statement: {} -> {result:?}",
                op.text
            );
            result_hash(&result)
        })
        .collect()
}

/// One round's raw measurements.
#[derive(Default)]
pub struct Round {
    /// Wall-clock seconds of the timed section.
    pub wall_s: f64,
    /// Process CPU seconds over the same section.
    pub cpu_s: f64,
    /// Latencies in nanoseconds, indexed by `OpClass as usize`.
    pub samples: [Vec<u64>; OpClass::COUNT],
    /// Operations that failed, were refused, or answered differently
    /// from the reference.
    pub failed: u64,
    /// Order-sensitive fold of every reply hash of the round.
    pub output_hash: u64,
    /// The calibration kernel's time around the round: the mean of a
    /// run of it just before and one just after.
    pub calibration_ms: f64,
    /// Per-round side measurements (checkpoint time, tailer poll, …):
    /// the layer metric each feeds and its value this round.
    pub side: Vec<(&'static str, f64)>,
}

impl Round {
    /// Record one operation's latency and outcome.
    pub fn record(&mut self, class: OpClass, latency_ns: u64, reply: u64, expected: Option<u64>) {
        self.samples[class as usize].push(latency_ns);
        if expected.is_some_and(|e| e != reply) {
            self.failed += 1;
        }
        self.output_hash = (self.output_hash ^ reply).wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Fold another connection's round into this one (hashes combine
    /// in call order, so merge connections in a fixed order).
    pub fn merge(&mut self, other: Round) {
        for (mine, theirs) in self.samples.iter_mut().zip(other.samples) {
            mine.extend(theirs);
        }
        self.failed += other.failed;
        self.output_hash =
            (self.output_hash ^ other.output_hash).wrapping_mul(0x0000_0100_0000_01b3);
        self.side.extend(other.side);
    }

    fn ops(&self) -> usize {
        self.samples.iter().map(Vec::len).sum()
    }
}

/// A span of wall-clock and CPU time.
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    /// Start timing.
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall: Instant::now(),
            cpu: sys::cpu_seconds(),
        }
    }

    /// Add the time since the start to `round`.
    pub fn stop_into(self, round: &mut Round) {
        round.wall_s += self.wall.elapsed().as_secs_f64();
        round.cpu_s += sys::cpu_seconds() - self.cpu;
    }
}

/// A workload: how to set it up, run one round of its fixed operation
/// stream, and check and measure what only it knows about.
pub trait Workload: Sized {
    /// The name `--workload` selects it by.
    const NAME: &'static str;

    /// True when a schedule, not the machine, sets when operations
    /// start: the rate such a run achieves is the schedule's and is
    /// reported as measured, whatever the machine's speed.
    const OPEN_LOOP: bool = false;

    /// Everything a user pays before the first operation: generate the
    /// inputs, build the catalog from HQL, start servers, connect.
    fn build(seed: u64) -> Self;

    /// Prepare the expected answers (untimed; only the set-up that is
    /// measured on keeps an oracle).
    fn prepare_oracle(&mut self);

    /// One round of the fixed operation stream. With a tracer the same
    /// operations run with spans around each call into the program.
    fn round(&mut self, tracer: Option<&mut Tracer>) -> Round;

    /// Checks that need the finished run (state comparisons, flat
    /// identities) and the catalog's size. Returns mismatches found.
    fn finish(&mut self, metrics: &mut Metrics) -> u64;

    /// Per-layer measurements that are not part of a round; only a
    /// traced run makes them.
    fn probe_layers(&mut self, _tracer: &mut Tracer, _metrics: &mut Metrics) {}
}

/// Registry counters the harness reads before and after the rounds.
const COUNTERS: [&str; 22] = [
    "core.conflict.ns",
    "core.parallel.fanouts",
    "core.subsumption.hits",
    "core.subsumption.misses",
    "engine.snapshot_clone",
    "hierarchy.closure.build_ns",
    "hierarchy.closure.evictions",
    "hierarchy.closure.hits",
    "hierarchy.closure.misses",
    "ivm.fallback",
    "ivm.nodes_localized",
    "ivm.nodes_recomputed",
    "ivm.nodes_reused",
    "server.busy",
    "server.backpressure.shed",
    "server.bytes_in",
    "server.bytes_out",
    "server.loop.tick",
    "server.requests",
    "server.snapshot.shared_read",
    "wal.appends",
    "wal.fsyncs",
];

/// A reading of [`COUNTERS`] plus the writer-wait histogram.
pub struct Reading {
    counters: Vec<u64>,
    write_wait_count: u64,
    write_wait_ns: u64,
}

impl Reading {
    /// Read the registry now.
    pub fn take() -> Reading {
        let wait = registry::histogram("engine.write_wait");
        Reading {
            counters: COUNTERS
                .iter()
                .map(|n| registry::counter(n).get())
                .collect(),
            write_wait_count: wait.count(),
            write_wait_ns: wait.sum_ns(),
        }
    }

    /// How much `name` grew since `earlier`.
    pub fn delta(&self, earlier: &Reading, name: &str) -> f64 {
        let k = COUNTERS
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a tracked counter"));
        (self.counters[k] - earlier.counters[k]) as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Layer metrics that are ratios of registry counters over the rounds.
///
/// `core.conflict_ns_share` is conflict-detection time over the rounds'
/// timed wall clock: the `core.plan.ns` denominator the issue named is
/// only fed by the tuple executor, which no HQL statement runs.
fn registry_metrics(before: &Reading, after: &Reading, rounds: &[(bool, Round)], m: &mut Metrics) {
    let d = |name: &str| after.delta(before, name);
    let sum = |f: fn(&Round) -> f64| rounds.iter().map(|(_, r)| f(r)).sum::<f64>();
    let ops = sum(|r| r.ops() as f64);
    let writes = sum(|r| r.samples[OpClass::Write as usize].len() as f64);
    let wall_s = sum(|r| r.wall_s);
    m.insert(
        "core.parallel_fanouts_per_op",
        ratio(d("core.parallel.fanouts"), ops),
    );
    let hits = d("core.subsumption.hits");
    let closure_hits = d("hierarchy.closure.hits");
    let ivm_nodes = d("ivm.nodes_localized") + d("ivm.nodes_reused") + d("ivm.nodes_recomputed");
    let requests = d("server.requests");
    m.insert(
        "core.conflict_ns_share",
        ratio(d("core.conflict.ns"), wall_s * 1e9),
    );
    m.insert(
        "core.subsumption_hit_share",
        ratio(hits, hits + d("core.subsumption.misses")),
    );
    m.insert(
        "hierarchy.closure_hit_share",
        ratio(closure_hits, closure_hits + d("hierarchy.closure.misses")),
    );
    m.insert(
        "hierarchy.closure_build_us",
        d("hierarchy.closure.build_ns") / 1e3,
    );
    m.insert(
        "hierarchy.closure_evictions",
        d("hierarchy.closure.evictions"),
    );
    m.insert(
        "hql.snapshot_clones_per_write",
        ratio(d("engine.snapshot_clone"), writes),
    );
    m.insert(
        "hql.write_wait_us",
        ratio(
            (after.write_wait_ns - before.write_wait_ns) as f64 / 1e3,
            (after.write_wait_count - before.write_wait_count) as f64,
        ),
    );
    m.insert(
        "core.ivm_localized_share",
        ratio(d("ivm.nodes_localized"), ivm_nodes),
    );
    m.insert("core.ivm_fallbacks", d("ivm.fallback"));
    m.insert(
        "persist.fsyncs_per_write",
        ratio(d("wal.fsyncs"), d("wal.appends")),
    );
    m.insert(
        "server.loop_ticks_per_req",
        ratio(d("server.loop.tick"), requests),
    );
    m.insert(
        "server.shared_read_share",
        ratio(d("server.snapshot.shared_read"), requests),
    );
    m.insert(
        "server.bytes_in_per_req",
        ratio(d("server.bytes_in"), requests),
    );
    m.insert(
        "server.bytes_out_per_req",
        ratio(d("server.bytes_out"), requests),
    );
    m.insert(
        "server.busy_share",
        ratio(d("server.busy") + d("server.backpressure.shed"), requests),
    );
}

/// The per-round statistics the end-to-end metrics are medians of, as
/// measured, and how much slower than nominal the machine was then.
struct RoundStat {
    ops_per_s: f64,
    p50_us: f64,
    tail_us: f64,
    cpu_us_per_op: f64,
    slowness: f64,
}

fn round_stat(round: &Round) -> RoundStat {
    let mut all: Vec<u64> = round.samples.iter().flatten().copied().collect();
    all.sort_unstable();
    let tail_q = tail_quantile(all.len()).unwrap_or(0.5);
    RoundStat {
        ops_per_s: all.len() as f64 / round.wall_s,
        p50_us: percentile(&all, 0.5) as f64 / 1e3,
        tail_us: percentile(&all, tail_q) as f64 / 1e3,
        cpu_us_per_op: round.cpu_s * 1e6 / all.len() as f64,
        slowness: round.calibration_ms / NOMINAL_CALIBRATION_MS,
    }
}

/// A class's percentile over the pooled samples of `rounds`, or 0 when
/// the class is absent or the pool has fewer than ten samples beyond it.
fn pooled_percentile(rounds: &[&Round], class: OpClass, q: f64) -> f64 {
    let mut pool: Vec<u64> = rounds
        .iter()
        .flat_map(|r| r.samples[class as usize].iter().copied())
        .collect();
    let beyond = pool.len() - (q * pool.len() as f64).ceil() as usize;
    if pool.is_empty() || (q > 0.5 && beyond < 10) {
        return 0.0;
    }
    pool.sort_unstable();
    percentile(&pool, q) as f64
}

/// The result of one run of one workload.
pub struct Outcome {
    /// Every metric measured, end-to-end and per-layer.
    pub metrics: Metrics,
    /// Operations issued in the measured rounds.
    pub attempted: u64,
    /// Of those, failed or mismatched — plus end-of-run check failures.
    pub failed: u64,
    /// One line per round for the run record.
    pub rounds: Vec<String>,
    /// The hash every round produced (they must all agree).
    pub output_hash: u64,
}

/// Whether round `index` of a traced run records spans: every other
/// round, for as long as the tracer has `room` for one more round like
/// the largest so far (`round_spans`) and still for the probes after it.
fn traces_round(index: usize, room: usize, round_spans: usize) -> bool {
    index % 2 == 1 && room >= round_spans + PROBE_SPANS
}

/// Run workload `W` for about `seconds` of measured rounds.
pub fn run<W: Workload>(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut metrics = Metrics::new();

    // Set up several times; measure on the last. The calibration
    // kernel runs between set-ups; a set-up is too short, and a single
    // run of the kernel too noisy, to give each set-up a factor of its
    // own, so the median set-up is stated at nominal machine speed (see
    // below) by the median of the kernel's runs around them.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut workload = None;
    let mut kernel = vec![sys::calibration_ms()];
    for k in 0..SETUPS {
        drop(workload.take());
        let started = Instant::now();
        let mut w = W::build(seed);
        let built = started.elapsed();
        if k + 1 == SETUPS {
            w.prepare_oracle();
        }
        let warm_started = Instant::now();
        let warm = w.round(None);
        setups.push((built + warm_started.elapsed()).as_secs_f64());
        kernel.push(sys::calibration_ms());
        assert_eq!(warm.failed, 0, "warm-up round of {} had failures", W::NAME);
        workload = Some(w);
    }
    let mut w = workload.expect("at least one set-up");
    metrics.insert(
        "setup_s",
        median(&setups) * NOMINAL_CALIBRATION_MS / median(&kernel),
    );

    // Measured rounds. A traced run alternates untraced and traced
    // rounds, so it carries its own baseline for the tracing overhead;
    // it stops tracing rounds when another one might not leave the
    // probes their room in the tracer (a long `--seconds`, a fast box).
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin, TRACE_CAPACITY);
    let mut round_spans = 0;
    let mut kernel_before = kernel[SETUPS];
    let before = Reading::take();
    let mut rounds: Vec<(bool, Round)> = Vec::new();
    while rounds.len() < MIN_ROUNDS * if trace { 2 } else { 1 }
        || origin.elapsed().as_secs_f64() < seconds
    {
        let traced = trace && traces_round(rounds.len(), tracer.room(), round_spans);
        let recorded = tracer.spans().len();
        let mut round = w.round(traced.then_some(&mut tracer));
        round_spans = round_spans.max(tracer.spans().len() - recorded);
        let kernel_after = sys::calibration_ms();
        round.calibration_ms = (kernel_before + kernel_after) / 2.0;
        kernel_before = kernel_after;
        rounds.push((traced, round));
        if rounds.len() == MIN_ROUNDS {
            // Peak memory is read after a fixed amount of work, not at
            // the end: the program's count-bounded caches keep growing
            // with every recovery and checkpoint, so a run that fits
            // more rounds into its seconds would look fatter.
            metrics.insert("rss_mb", sys::peak_rss_mb());
        }
    }
    assert_eq!(tracer.dropped, 0, "traced rounds must fit the tracer");
    let after = Reading::take();
    let measured_s = origin.elapsed().as_secs_f64();
    // The sizing check: rounds are sized to about a second here, so a
    // run this far over its budget means the counts do not fit the box.
    assert!(
        measured_s < 3.0 * seconds + 15.0,
        "{}: {} rounds took {measured_s:.1} s for a {seconds} s budget; the round size does not fit this machine",
        W::NAME,
        rounds.len()
    );

    let stats: Vec<RoundStat> = rounds.iter().map(|(_, r)| round_stat(r)).collect();
    // The median over the rounds that were (or were not) traced.
    let med = |traced: bool, f: &dyn Fn(&RoundStat) -> f64| {
        let picked = rounds.iter().zip(&stats).filter(|((t, _), _)| *t == traced);
        median(&picked.map(|(_, s)| f(s)).collect::<Vec<_>>())
    };
    // The gated timings are stated at nominal machine speed.
    // This shared VM runs everything memory-bound up to 1.4 times
    // slower for minutes at a time, and by other factors for seconds:
    // over ten runs the raw medians of `durable_write` and
    // `durable_restart` spread (Q3 - Q1) / median = 0.31-0.33, more
    // than any bound a benchmark may set, while the calibration kernel,
    // which calls nothing of the program, moved with them (log-log
    // slope 0.9-1.2). So each round's value is divided by the kernel's
    // time around that round relative to nominal (a rate is multiplied)
    // before the median over rounds is taken. The per-layer metrics
    // stay as measured, so that they add up.
    let rate = |s: &RoundStat| s.ops_per_s * if W::OPEN_LOOP { 1.0 } else { s.slowness };
    metrics.insert("ops_per_s", med(false, &rate));
    metrics.insert("op_p50_us", med(false, &|s| s.p50_us / s.slowness));
    let cpu = |s: &RoundStat| s.cpu_us_per_op / s.slowness;
    metrics.insert("cpu_us_per_op", med(false, &cpu));
    metrics.insert("op_tail_us", med(false, &|s| s.tail_us));
    let per_round = rounds[0].1.ops();
    let untraced = rounds.iter().filter(|(t, _)| !t).count();
    let calibrations: Vec<f64> = rounds.iter().map(|(_, r)| r.calibration_ms).collect();
    metrics.insert("bench.calibration_ms", median(&calibrations));
    metrics.insert("bench.rounds", untraced as f64);
    metrics.insert("bench.ops_per_round", per_round as f64);
    metrics.insert(
        "bench.tail_percentile",
        100.0 * tail_quantile(per_round).unwrap_or(0.5),
    );

    // The class metrics, pooled over every round of the run so that
    // the few-sample classes reach the tail rule (a traced run's
    // traced rounds included; the end-to-end metrics above never are).
    let every: Vec<&Round> = rounds.iter().map(|(_, r)| r).collect();
    for (name, class, q, scale) in [
        ("read_p50_us", OpClass::Read, 0.50, 1e3),
        ("read_p99_us", OpClass::Read, 0.99, 1e3),
        ("write_p50_us", OpClass::Write, 0.50, 1e3),
        ("write_p99_us", OpClass::Write, 0.99, 1e3),
        ("derive_p50_ms", OpClass::Derive, 0.50, 1e6),
        ("derive_p95_ms", OpClass::Derive, 0.95, 1e6),
        ("recover_ms", OpClass::Restart, 0.50, 1e6),
        ("replica_sync_ms", OpClass::CatchUp, 0.50, 1e6),
    ] {
        metrics.insert(name, pooled_percentile(&every, class, q) / scale);
    }
    metrics.insert("hql.replica_sync_ms", metrics["replica_sync_ms"]);
    // Side measurements: the median of each over all rounds.
    let mut side: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (_, round) in &rounds {
        for (name, value) in &round.side {
            side.entry(name).or_default().push(*value);
        }
    }
    for (name, values) in side {
        metrics.insert(name, median(&values));
    }
    registry_metrics(&before, &after, &rounds, &mut metrics);

    if trace {
        let share = 1.0 - med(true, &|s| s.ops_per_s) / med(false, &|s| s.ops_per_s);
        metrics.insert("bench.trace_overhead_share", share);
        // The engine stages as the traced rounds saw them; a workload
        // whose rounds go over a wire or a coordinator replaces them by
        // an in-process replay in its probe.
        engine_stage_metrics(&medians_by_name(tracer.spans()), &mut metrics);
        w.probe_layers(&mut tracer, &mut metrics);
        let path = sys::out_dir().join(format!("trace-{}.json", W::NAME));
        std::fs::write(&path, crate::span::render_json(W::NAME, &tracer))
            .expect("write the trace file");
    }

    let mut failed: u64 = rounds.iter().map(|(_, r)| r.failed).sum();
    let output_hash = rounds[0].1.output_hash;
    failed += rounds
        .iter()
        .filter(|(_, r)| r.output_hash != output_hash)
        .count() as u64;
    failed += w.finish(&mut metrics);

    let round_lines = rounds
        .iter()
        .zip(&stats)
        .map(|((traced, r), s)| {
            format!(
                "{{\"traced\": {traced}, \"calibration_ms\": {}, \"ops\": {}, \"wall_s\": {}, \"ops_per_s\": {}, \"op_p50_us\": {}, \"op_tail_us\": {}, \"cpu_us_per_op\": {}, \"failed\": {}, \"output_hash\": \"{:016x}\"}}",
                r.calibration_ms, r.ops(), r.wall_s, s.ops_per_s, s.p50_us, s.tail_us, s.cpu_us_per_op, r.failed, r.output_hash
            )
        })
        .collect();
    Outcome {
        metrics,
        attempted: rounds.iter().map(|(_, r)| r.ops() as u64).sum(),
        failed,
        rounds: round_lines,
        output_hash,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_long_traced_run_leaves_the_probes_their_room() {
        // sharded_mixed records 100 000 spans a round; run it for far
        // more rounds than the tracer holds.
        let (mut recorded, mut round_spans, mut traced_rounds) = (0, 0, 0);
        for index in 0..1000 {
            if traces_round(index, TRACE_CAPACITY - recorded, round_spans) {
                recorded += 100_000;
                round_spans = 100_000;
                traced_rounds += 1;
            }
        }
        assert_eq!(traced_rounds, 18);
        assert!(TRACE_CAPACITY - recorded >= PROBE_SPANS);
    }
}
