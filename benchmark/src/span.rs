//! In-memory spans recorded by the benchmark around its calls into the
//! program, and the self-time accounting over them.
//!
//! A span is a name, a start and an end (nanoseconds since the tracer's
//! origin), the span that caused it, and the request it belongs to.
//! Spans stay in memory until the run ends and are then written as one
//! JSON file; nothing here touches the program's own `hrdm-obs` spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span within its [`Tracer`].
pub type SpanId = u32;

/// Parent of a root span.
pub const NO_PARENT: SpanId = SpanId::MAX;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Stage name, e.g. `hql.parse`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// The span this one ran inside, or [`NO_PARENT`].
    pub parent: SpanId,
    /// The request (operation index) all spans of one operation share.
    pub request: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span recorder. Recording stops silently at `capacity`
/// spans so a long traced run cannot exhaust memory; `dropped` says how
/// many were not kept.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    capacity: usize,
    /// Spans not recorded because the tracer was full.
    pub dropped: u64,
}

impl Tracer {
    /// A tracer whose clock starts at `origin` (share one origin across
    /// threads so their spans line up).
    pub fn new(origin: Instant, capacity: usize) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// The instant this tracer's clock counts from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; children opened by `f` name the returned
    /// id as their parent through the closure's argument.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce(&mut Tracer, SpanId) -> T,
    ) -> T {
        if self.spans.len() >= self.capacity {
            self.dropped += 1;
            return f(self, NO_PARENT);
        }
        let id = self.spans.len() as SpanId;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        let out = f(self, id);
        self.spans[id as usize].end_ns = self.now();
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans that still fit before recording stops.
    pub fn room(&self) -> usize {
        self.capacity.saturating_sub(self.spans.len())
    }

    /// Append another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as SpanId;
        self.dropped += other.dropped;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children are clipped to the parent
/// and overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let (start, end) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if start < end {
                children.entry(s.parent).or_default().push((start, end));
            }
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let mut covered = 0;
            if let Some(intervals) = children.get_mut(&(id as SpanId)) {
                intervals.sort_unstable();
                let mut reach = 0;
                for &(start, end) in intervals.iter() {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Per-name totals over a span set.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct StageTotal {
    /// Spans of this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// Aggregate spans by name.
pub fn stage_totals(spans: &[Span]) -> BTreeMap<&'static str, StageTotal> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, StageTotal> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration();
        t.self_ns += self_ns;
    }
    out
}

/// Raw spans written to the trace file; the per-stage summary always
/// covers every recorded span.
const MAX_SPANS_IN_FILE: usize = 20_000;

/// Render the trace file: a per-stage summary (count, total, self time)
/// followed by the first [`MAX_SPANS_IN_FILE`] raw spans.
pub fn render_json(workload: &str, tracer: &Tracer) -> String {
    let spans = tracer.spans();
    let selfs = self_times(spans);
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\": \"{workload}\", \"unit\": \"ns\", \"recorded\": {}, \"dropped\": {}, \"stages\": {{",
        spans.len(),
        tracer.dropped
    );
    for (k, (name, t)) in stage_totals(spans).iter().enumerate() {
        let sep = if k == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
            t.count, t.total_ns, t.self_ns
        );
    }
    out.push_str("}, \"spans\": [\n");
    for (id, (s, self_ns)) in spans.iter().zip(&selfs).take(MAX_SPANS_IN_FILE).enumerate() {
        let sep = if id == 0 { "" } else { ",\n" };
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        let _ = write!(
            out,
            "{sep}{{\"id\": {id}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \"self\": {self_ns}, \"parent\": {parent}, \"request\": {}}}",
            s.name, s.start_ns, s.end_ns, s.request
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let spans = vec![
            span("execute", 0, 100, NO_PARENT),
            span("parse", 10, 30, 0),
            span("run", 30, 80, 0),
            span("bind", 40, 50, 2),
            span("render", 80, 95, 0),
        ];
        assert_eq!(self_times(&spans), vec![15, 20, 40, 10, 15]);
        let totals = stage_totals(&spans);
        assert_eq!(totals["execute"].total_ns, 100);
        assert_eq!(totals["execute"].self_ns, 15);
        // Self times of a tree add up to the root's duration.
        assert_eq!(totals.values().map(|t| t.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_counted_twice() {
        let spans = vec![
            span("root", 100, 200, NO_PARENT),
            span("a", 110, 150, 0),
            span("b", 140, 170, 0), // overlaps a by 10
            span("c", 190, 250, 0), // overhangs the root by 50
            span("d", 120, 130, 0), // inside a
        ];
        // Covered: [110,170) and [190,200) = 70.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn the_tracer_links_children_and_caps_memory() {
        let mut t = Tracer::new(Instant::now(), 3);
        let value = t.span("outer", NO_PARENT, 7, |t, outer| {
            t.span("inner", outer, 7, |_, _| 41) + 1
        });
        assert_eq!(value, 42);
        assert_eq!(t.spans()[1].parent, 0);
        assert_eq!(t.spans()[1].request, 7);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        t.span("third", NO_PARENT, 8, |_, _| ());
        t.span("fourth", NO_PARENT, 9, |_, _| ());
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.dropped, 1);

        let mut other = Tracer::new(Instant::now(), 8);
        other.span("x", NO_PARENT, 0, |t, x| t.span("y", x, 0, |_, _| ()));
        t.absorb(other);
        assert_eq!(t.spans()[4].parent, 3, "absorbed parents are re-based");
        assert!(render_json("w", &t).contains("\"stages\""));
    }
}
