//! Per-query execution traces: capture the spans closed while a
//! closure runs and assemble them into a tree.

use crate::span::{self, SpanEvent, SpanId};
use std::collections::BTreeMap;

/// One node of an assembled trace tree.
#[derive(Clone, Debug)]
pub struct TraceNode {
    pub name: &'static str,
    pub thread: u64,
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
    /// The capture's root span, with all reachable descendants.
    pub root: Option<TraceNode>,
    /// Events recorded during the capture that were *not* reachable
    /// from the root — zero unless another capture ran concurrently or
    /// a span escaped its parent's lifetime.
    pub orphans: usize,
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

    /// Build a trace tree out of a flat event list, rooted at
    /// `root_id`. Children are ordered by `(start_ns, id)` so sibling
    /// order is deterministic even when workers race.
    pub fn assemble(events: &[SpanEvent], root_id: Option<SpanId>) -> Self {
        let Some(root_id) = root_id else {
            return QueryTrace::default();
        };
        let mut by_parent: BTreeMap<SpanId, Vec<&SpanEvent>> = BTreeMap::new();
        let mut root_event = None;
        for e in events {
            if e.id == root_id {
                root_event = Some(e);
            } else if let Some(p) = e.parent {
                by_parent.entry(p).or_default().push(e);
            }
        }
        for kids in by_parent.values_mut() {
            kids.sort_by_key(|e| (e.start_ns, e.id));
        }
        fn build(
            e: &SpanEvent,
            by_parent: &BTreeMap<SpanId, Vec<&SpanEvent>>,
        ) -> (TraceNode, usize) {
            let mut reached = 1;
            let mut children = Vec::new();
            for c in by_parent.get(&e.id).map(|v| v.as_slice()).unwrap_or(&[]) {
                let (node, n) = build(c, by_parent);
                children.push(node);
                reached += n;
            }
            (
                TraceNode {
                    name: e.name,
                    thread: e.thread,
                    start_ns: e.start_ns,
                    end_ns: e.end_ns,
                    fields: e.fields.clone(),
                    children,
                },
                reached,
            )
        }
        match root_event {
            Some(r) => {
                let (root, reached) = build(r, &by_parent);
                QueryTrace {
                    root: Some(root),
                    orphans: events.len() - reached,
                }
            }
            None => QueryTrace {
                root: None,
                orphans: events.len(),
            },
        }
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

/// Run `f` while recording spans; return its result plus the assembled
/// [`QueryTrace`] rooted at a fresh span called `name`.
///
/// Captures nest: an inner capture copies out its slice of the shared
/// buffer without disturbing the outer capture, and the buffer is
/// cleared only when the last capture ends.
pub fn capture<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, QueryTrace) {
    let start = span::begin_recording();
    let (out, root_id) = {
        let root = span::span(name);
        let id = root.id();
        (f(), id)
    };
    let events = span::end_recording(start);
    (out, QueryTrace::assemble(&events, root_id))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_assembles_a_tree() {
        let _capturing = crate::span::tests::capture_lock();
        let ((), trace) = capture("test.trace.root", || {
            let a = crate::span!("test.trace.a", rows = 3);
            drop(a);
            let _b = crate::span!("test.trace.b");
        });
        let root = trace.root.as_ref().expect("root");
        assert_eq!(root.name, "test.trace.root");
        assert_eq!(root.children.len(), 2);
        // Sibling order is by start time: a before b.
        assert_eq!(root.children[0].name, "test.trace.a");
        assert_eq!(root.children[0].field_u64("rows"), Some(3));
        assert_eq!(trace.orphans, 0);
        assert!(trace.find("test.trace.b").is_some());
        assert_eq!(trace.nodes().len(), 3);
    }

    #[test]
    fn nested_captures_do_not_disturb_each_other() {
        let _capturing = crate::span::tests::capture_lock();
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
    fn stable_render_elides_times() {
        let _capturing = crate::span::tests::capture_lock();
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
