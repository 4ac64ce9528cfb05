//! Per-query execution traces: the tree of spans a closure opens on
//! the calling thread.

use crate::span::SpanGuard;

/// One node of a trace tree; its children are in open order.
#[derive(Clone, Debug)]
pub struct TraceNode {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub fields: Vec<(&'static str, String)>,
    pub children: Vec<TraceNode>,
}

impl TraceNode {
    /// Inclusive wall time of this span (children overlap it).
    pub fn wall_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Look up a field by key (first match).
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Field parsed as an integer, if present and numeric.
    pub fn field_u64(&self, key: &str) -> Option<u64> {
        self.field(key)?.parse().ok()
    }
}

/// The tree of spans recorded during one [`capture`].
#[derive(Clone, Debug, Default)]
pub struct QueryTrace {
    /// The capture's root span, with every span closed under it.
    pub root: Option<TraceNode>,
}

impl QueryTrace {
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// All nodes in pre-order (root first).
    pub fn nodes(&self) -> Vec<&TraceNode> {
        fn walk<'a>(n: &'a TraceNode, out: &mut Vec<&'a TraceNode>) {
            out.push(n);
            for c in &n.children {
                walk(c, out);
            }
        }
        let mut out = Vec::new();
        if let Some(r) = &self.root {
            walk(r, &mut out);
        }
        out
    }

    /// First node (pre-order) whose name matches.
    pub fn find(&self, name: &str) -> Option<&TraceNode> {
        self.nodes().into_iter().find(|n| n.name == name)
    }

    /// Render the tree with wall times — the `TRACE` statement output.
    pub fn render(&self) -> String {
        self.render_inner(true)
    }

    /// Render only the stable fields: wall times are elided and any
    /// field whose key ends in `_ns` is dropped, so the output is
    /// golden-snapshot safe.
    pub fn render_stable(&self) -> String {
        self.render_inner(false)
    }

    fn render_inner(&self, with_times: bool) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        fn walk(n: &TraceNode, depth: usize, with_times: bool, out: &mut String) {
            let _ = write!(out, "{:indent$}{}", "", n.name, indent = depth * 2);
            for (k, v) in &n.fields {
                if !with_times && k.ends_with("_ns") {
                    continue;
                }
                let _ = write!(out, " {k}={v}");
            }
            if with_times {
                let _ = write!(out, " [{}]", fmt_ns(n.wall_ns()));
            }
            out.push('\n');
            for c in &n.children {
                walk(c, depth + 1, with_times, out);
            }
        }
        match &self.root {
            Some(r) => walk(r, 0, with_times, &mut out),
            None => out.push_str("(empty trace)\n"),
        }
        out
    }
}

/// Human-readable duration: ns under 1µs, then µs/ms/s with one
/// decimal.
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.1}s", ns as f64 / 1_000_000_000.0)
    }
}

/// Run `f` while recording the spans it opens on this thread; return
/// its result plus the [`QueryTrace`] rooted at a fresh span called
/// `name`.
///
/// Captures nest: an inner capture's tree is also a child of the span
/// open around it. Spans still open when `f` returns are left out.
pub fn capture<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, QueryTrace) {
    let mut root = SpanGuard::open(name, true);
    let out = f();
    let root = root.close(true);
    (out, QueryTrace { root })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_assembles_a_tree() {
        let ((), trace) = capture("test.trace.root", || {
            let a = crate::span!("test.trace.a", rows = 3);
            drop(a);
            let _b = crate::span!("test.trace.b");
        });
        let root = trace.root.as_ref().expect("root");
        assert_eq!(root.name, "test.trace.root");
        assert_eq!(root.children.len(), 2);
        // Siblings are in open order: a before b.
        assert_eq!(root.children[0].name, "test.trace.a");
        assert_eq!(root.children[0].field_u64("rows"), Some(3));
        assert!(trace.find("test.trace.b").is_some());
        assert_eq!(trace.nodes().len(), 3);
    }

    #[test]
    fn nested_captures_do_not_disturb_each_other() {
        let ((), outer) = capture("test.trace.outer", || {
            let ((), inner) = capture("test.trace.inner", || {
                let _x = crate::span!("test.trace.leaf");
            });
            assert_eq!(inner.root.as_ref().unwrap().name, "test.trace.inner");
            assert_eq!(inner.nodes().len(), 2);
        });
        // The outer capture sees the inner root as its child.
        let root = outer.root.as_ref().unwrap();
        assert_eq!(root.children.len(), 1);
        assert_eq!(root.children[0].name, "test.trace.inner");
        assert_eq!(root.children[0].children[0].name, "test.trace.leaf");
    }

    #[test]
    fn spans_left_open_are_left_out() {
        let (escaped, trace) = capture("test.trace.open", || {
            let _closed = crate::span!("test.trace.closed");
            crate::span!("test.trace.escaped")
        });
        assert!(escaped.is_active());
        assert_eq!(crate::span::thread_open_depth(), 0);
        let names: Vec<_> = trace.nodes().iter().map(|n| n.name).collect();
        assert_eq!(names, ["test.trace.open", "test.trace.closed"]);
        drop(escaped);
        assert_eq!(crate::span::thread_open_depth(), 0);
    }

    #[test]
    fn a_capture_leaves_other_threads_inert() {
        let open = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let a = s.spawn(|| {
                capture("test.trace.a", || {
                    let _own = crate::span!("test.trace.a.own", n = 1);
                    open.wait();
                    open.wait();
                })
                .1
            });
            open.wait();
            let active = (0..1_000)
                .filter(|i| crate::span!("test.trace.b", i = i).is_active())
                .count();
            open.wait();
            let trace = a.join().unwrap();
            assert_eq!(active, 0, "thread B's guards recorded with no capture");
            let names: Vec<_> = trace.nodes().iter().map(|n| n.name).collect();
            assert_eq!(names, ["test.trace.a", "test.trace.a.own"]);
        });
    }

    /// Three steps, each with fields and a nested capture.
    fn sample() -> String {
        let ((), trace) = capture("test.trace.sample", || {
            for i in 0..3u64 {
                let mut step = crate::span!("test.trace.step", i = i);
                step.field_u64("rows", i * 2);
                capture("test.trace.inner", || {
                    let _leaf = crate::span!("test.trace.leaf");
                });
            }
        });
        trace.render_stable()
    }

    #[test]
    fn concurrent_captures_render_as_if_alone() {
        let alone = sample();
        assert_eq!(alone.lines().count(), 10, "{alone}");
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..500 {
                        assert_eq!(sample(), alone);
                    }
                });
            }
        });
    }

    #[test]
    fn stable_render_elides_times() {
        let ((), trace) = capture("test.trace.stable", || {
            let mut g = crate::span!("test.trace.op");
            g.field_u64("rows", 9);
            g.field_u64("own_ns", 123_456);
        });
        let with_times = trace.render();
        assert!(with_times.contains('['), "{with_times}");
        assert!(with_times.contains("own_ns=123456"), "{with_times}");
        let stable = trace.render_stable();
        assert!(!stable.contains('['), "{stable}");
        assert!(!stable.contains("own_ns"), "{stable}");
        assert!(stable.contains("rows=9"), "{stable}");
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(12), "12ns");
        assert_eq!(fmt_ns(1_500), "1.5µs");
        assert_eq!(fmt_ns(2_500_000), "2.5ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.0s");
    }
}
