//! The typed metrics registry: named counters, gauges, and log-scaled
//! latency histograms.
//!
//! Handles returned by [`counter`], [`gauge`] and [`histogram`] are
//! cheap clones of `Arc`-shared atomics; callers cache them in
//! `OnceLock` statics so the registry lock is only taken once per name
//! per process. Recording is a relaxed atomic op.
//!
//! [`reset_all`] zeroes every registered metric in one sweep while
//! holding the registry lock — the single reset point the bench
//! fixtures use so back-to-back runs cannot leak accumulators into each
//! other.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::json::escape;

/// Number of log2 buckets a histogram keeps; bucket `i` holds values
/// `v` with `floor(log2(v)) + 1 == i` (bucket 0 holds zero), so the
/// top bucket covers everything from ~2^46 ns (≈ 20 hours) up.
pub const HISTOGRAM_BUCKETS: usize = 48;

/// A monotonically increasing counter.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn zero(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A settable gauge (current size, resident entries, …).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the gauge to `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn zero(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

struct HistogramInner {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

/// A log2-bucketed latency histogram over nanosecond observations.
///
/// Quantile estimates return the *upper bound* of the bucket holding
/// the requested rank — within 2x of the true value, which is the
/// right resolution for latency regression tracking without any
/// allocation on the record path.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

fn bucket_of(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Upper bound (inclusive) of bucket `i`, in nanoseconds.
fn bucket_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// Record one observation of `ns` nanoseconds.
    #[inline]
    pub fn observe_ns(&self, ns: u64) {
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(ns, Ordering::Relaxed);
        self.0.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Record one dimensionless observation (queue depths, batch
    /// sizes, ready-event counts, frame bytes, …).
    ///
    /// Histograms are unit-agnostic log2 buckets; this alias exists so
    /// call sites recording non-latency values don't claim nanoseconds.
    #[inline]
    pub fn observe(&self, value: u64) {
        self.observe_ns(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations, nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Estimated value at quantile `q` in `[0, 1]`; `None` before any
    /// observation.
    pub fn quantile_ns(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, b) in self.0.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return Some(bucket_bound(i));
            }
        }
        Some(bucket_bound(HISTOGRAM_BUCKETS - 1))
    }

    fn zero(&self) {
        self.0.count.store(0, Ordering::Relaxed);
        self.0.sum.store(0, Ordering::Relaxed);
        for b in &self.0.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

fn registry() -> &'static Mutex<BTreeMap<&'static str, Metric>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<&'static str, Metric>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Get or register the counter called `name`.
///
/// Panics if `name` is already registered as a different metric type
/// (a programming error, caught at the first lookup).
pub fn counter(name: &'static str) -> Counter {
    let mut r = registry().lock().unwrap();
    match r
        .entry(name)
        .or_insert_with(|| Metric::Counter(Counter(Arc::new(AtomicU64::new(0)))))
    {
        Metric::Counter(c) => c.clone(),
        _ => panic!("metric {name} already registered with a different type"),
    }
}

/// Get or register the gauge called `name`.
pub fn gauge(name: &'static str) -> Gauge {
    let mut r = registry().lock().unwrap();
    match r
        .entry(name)
        .or_insert_with(|| Metric::Gauge(Gauge(Arc::new(AtomicU64::new(0)))))
    {
        Metric::Gauge(g) => g.clone(),
        _ => panic!("metric {name} already registered with a different type"),
    }
}

/// Get or register the histogram called `name`.
pub fn histogram(name: &'static str) -> Histogram {
    let mut r = registry().lock().unwrap();
    match r.entry(name).or_insert_with(|| {
        Metric::Histogram(Histogram(Arc::new(HistogramInner {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        })))
    }) {
        Metric::Histogram(h) => h.clone(),
        _ => panic!("metric {name} already registered with a different type"),
    }
}

/// Zero every registered metric in one sweep under the registry lock.
///
/// Cached handles stay valid — they share the same atomics. This is the
/// engine's single reset point: counters, gauges, and histograms across
/// all crates go back to zero together, so a bench harness cannot
/// observe a half-reset state where caches were cleared but wall-time
/// accumulators still carry the previous run.
pub fn reset_all() {
    let r = registry().lock().unwrap();
    for m in r.values() {
        match m {
            Metric::Counter(c) => c.zero(),
            Metric::Gauge(g) => g.zero(),
            Metric::Histogram(h) => h.zero(),
        }
    }
}

/// Names currently registered, in sorted order.
pub fn metric_names() -> Vec<&'static str> {
    registry().lock().unwrap().keys().copied().collect()
}

fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("hrdm_");
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    out
}

/// Escape a string for use as a Prometheus label *value* (the
/// exposition format: backslash, double quote, and line feed must be
/// escaped inside the surrounding quotes).
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escape a string for a `# HELP` line (backslash and line feed).
fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Render the whole registry as Prometheus text exposition.
///
/// Every series gets a `# HELP` and a `# TYPE` line before its
/// samples. Counters and gauges become single samples; histograms
/// become a summary (`_count`, `_sum`, and `quantile` samples for
/// p50/p95/p99) whose label values are escaped per the exposition
/// format.
pub fn render_prometheus() -> String {
    use std::fmt::Write as _;
    let r = registry().lock().unwrap();
    let mut out = String::new();
    for (name, m) in r.iter() {
        let p = prom_name(name);
        let help = escape_help(name);
        match m {
            Metric::Counter(c) => {
                let _ = writeln!(out, "# HELP {p} hrdm counter {help}");
                let _ = writeln!(out, "# TYPE {p} counter");
                let _ = writeln!(out, "{p} {}", c.get());
            }
            Metric::Gauge(g) => {
                let _ = writeln!(out, "# HELP {p} hrdm gauge {help}");
                let _ = writeln!(out, "# TYPE {p} gauge");
                let _ = writeln!(out, "{p} {}", g.get());
            }
            Metric::Histogram(h) => {
                let _ = writeln!(out, "# HELP {p} hrdm latency histogram {help} (ns)");
                let _ = writeln!(out, "# TYPE {p} summary");
                for q in [0.5, 0.95, 0.99] {
                    let v = h.quantile_ns(q).unwrap_or(0);
                    let _ = writeln!(
                        out,
                        "{p}{{quantile=\"{}\"}} {v}",
                        escape_label_value(&q.to_string())
                    );
                }
                let _ = writeln!(out, "{p}_sum {}", h.sum_ns());
                let _ = writeln!(out, "{p}_count {}", h.count());
            }
        }
    }
    out
}

/// Render the registry as machine-readable JSON (the `BENCH_obs.json`
/// format): `{"schema_version":1,"label":…,"metrics":{name:{…}}}`.
pub fn export_json(label: &str) -> String {
    use std::fmt::Write as _;
    let r = registry().lock().unwrap();
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"schema_version\":1,\"label\":\"{}\",\"metrics\":{{",
        escape(label)
    );
    for (k, (name, m)) in r.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":", escape(name));
        match m {
            Metric::Counter(c) => {
                let _ = write!(out, "{{\"type\":\"counter\",\"value\":{}}}", c.get());
            }
            Metric::Gauge(g) => {
                let _ = write!(out, "{{\"type\":\"gauge\",\"value\":{}}}", g.get());
            }
            Metric::Histogram(h) => {
                let _ = write!(
                    out,
                    "{{\"type\":\"histogram\",\"count\":{},\"sum_ns\":{},\
                     \"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{}}}",
                    h.count(),
                    h.sum_ns(),
                    h.quantile_ns(0.5).unwrap_or(0),
                    h.quantile_ns(0.95).unwrap_or(0),
                    h.quantile_ns(0.99).unwrap_or(0),
                );
            }
        }
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_record() {
        let c = counter("test.metrics.counter");
        let before = c.get();
        c.add(3);
        c.incr();
        assert_eq!(c.get(), before + 4);
        // A second lookup shares the same atomic.
        counter("test.metrics.counter").incr();
        assert_eq!(c.get(), before + 5);

        let g = gauge("test.metrics.gauge");
        g.set(42);
        assert_eq!(g.get(), 42);
    }

    #[test]
    fn histogram_quantiles_are_log_bounded() {
        let h = histogram("test.metrics.histo");
        h.zero();
        for _ in 0..99 {
            h.observe_ns(1_000); // bucket upper bound 1023
        }
        h.observe_ns(1_000_000);
        assert_eq!(h.count(), 100);
        let p50 = h.quantile_ns(0.5).unwrap();
        assert!((1_000..2_048).contains(&p50), "{p50}");
        let p99 = h.quantile_ns(0.99).unwrap();
        assert!(p99 < 2_048, "p99 still in the small bucket: {p99}");
        let p100 = h.quantile_ns(1.0).unwrap();
        assert!(p100 >= 1_000_000, "{p100}");
    }

    #[test]
    fn zero_observation_quantile_is_none() {
        let h = histogram("test.metrics.empty");
        assert_eq!(h.quantile_ns(0.5), None);
    }

    #[test]
    fn reset_all_zeroes_everything_in_one_sweep() {
        let c = counter("test.metrics.reset");
        let h = histogram("test.metrics.reset_histo");
        c.add(7);
        h.observe_ns(5);
        reset_all();
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum_ns(), 0);
    }

    #[test]
    fn exports_render() {
        let c = counter("test.metrics.export");
        c.incr();
        let prom = render_prometheus();
        assert!(prom.contains("hrdm_test_metrics_export"), "{prom}");
        assert!(prom.contains("# TYPE"), "{prom}");
        let json = export_json("unit");
        assert!(json.starts_with("{\"schema_version\":1"), "{json}");
        assert!(json.contains("\"test.metrics.export\""), "{json}");
        assert!(json.contains("\"label\":\"unit\""), "{json}");
    }

    /// Line-by-line exposition-format check: every line is a `# HELP`,
    /// a `# TYPE`, or a sample `name[{labels}] value`; metric names are
    /// legal; every sampled family is preceded by its own HELP and TYPE
    /// lines; label values are well-formed quoted strings.
    #[test]
    fn prometheus_output_parses_against_the_exposition_format() {
        use std::collections::BTreeSet;

        counter("test.metrics.prom.counter").incr();
        gauge("test.metrics.prom.gauge").set(3);
        histogram("test.metrics.prom.histo").observe_ns(500);

        fn legal_name(s: &str) -> bool {
            let mut chars = s.chars();
            let ok_first = |c: char| c.is_ascii_alphabetic() || c == '_' || c == ':';
            match chars.next() {
                Some(c) if ok_first(c) => {}
                _ => return false,
            }
            chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        }

        // A sample's base family: `name_sum`/`name_count` fold into
        // `name` only when `name` itself was announced.
        let text = render_prometheus();
        let mut helped: BTreeSet<String> = BTreeSet::new();
        let mut typed: BTreeSet<String> = BTreeSet::new();
        for line in text.lines() {
            assert!(!line.is_empty(), "no blank lines in the exposition");
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let (name, help) = rest.split_once(' ').expect("HELP has text");
                assert!(legal_name(name), "bad HELP name {name:?}");
                assert!(!help.is_empty(), "empty HELP text for {name}");
                helped.insert(name.to_string());
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (name, kind) = rest.split_once(' ').expect("TYPE has a kind");
                assert!(legal_name(name), "bad TYPE name {name:?}");
                assert!(
                    ["counter", "gauge", "summary"].contains(&kind),
                    "unknown TYPE {kind:?}"
                );
                assert!(
                    helped.contains(name),
                    "# TYPE {name} appears before its # HELP"
                );
                typed.insert(name.to_string());
                continue;
            }
            assert!(!line.starts_with('#'), "unknown comment line {line:?}");
            // Sample line: name[{labels}] value
            let (series, value) = line.rsplit_once(' ').expect("sample has a value");
            value
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("sample value {value:?} is not a number in {line:?}"));
            let name = match series.split_once('{') {
                None => series,
                Some((name, labels)) => {
                    let labels = labels.strip_suffix('}').expect("labels close");
                    for pair in labels.split(',') {
                        let (k, v) = pair.split_once('=').expect("label has a value");
                        assert!(legal_name(k), "bad label name {k:?}");
                        let v = v
                            .strip_prefix('"')
                            .and_then(|v| v.strip_suffix('"'))
                            .unwrap_or_else(|| panic!("label value {v:?} is not quoted"));
                        // Inside the quotes, every `"` and `\` must be
                        // escaped and no raw newline can appear.
                        let mut chars = v.chars();
                        while let Some(c) = chars.next() {
                            match c {
                                '\\' => {
                                    let e = chars.next().expect("dangling escape");
                                    assert!(
                                        matches!(e, '\\' | '"' | 'n'),
                                        "bad escape \\{e} in label value {v:?}"
                                    );
                                }
                                '"' => panic!("unescaped quote in label value {v:?}"),
                                '\n' => panic!("raw newline in label value {v:?}"),
                                _ => {}
                            }
                        }
                    }
                    name
                }
            };
            assert!(legal_name(name), "bad sample name {name:?}");
            let family = ["_sum", "_count"]
                .iter()
                .find_map(|suffix| {
                    let base = name.strip_suffix(suffix)?;
                    typed.contains(base).then_some(base)
                })
                .unwrap_or(name);
            assert!(helped.contains(family), "{name} sampled without # HELP");
            assert!(typed.contains(family), "{name} sampled without # TYPE");
        }
        assert!(
            helped.contains("hrdm_test_metrics_prom_counter"),
            "registered counter missing from the exposition"
        );
    }

    #[test]
    fn label_values_escape_per_the_exposition_format() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\"b"), "a\\\"b");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("a\nb"), "a\\nb");
    }

    #[test]
    fn bucket_mapping_is_monotone() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        let mut prev = 0;
        for shift in 0..60 {
            let b = bucket_of(1u64 << shift);
            assert!(b >= prev);
            prev = b;
        }
    }
}
