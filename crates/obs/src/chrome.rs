//! Chrome `chrome://tracing` JSON export.
//!
//! Each trace node becomes one complete ("X") event with microsecond
//! timestamps; span fields ride along under `args`. All of a trace's
//! spans ran on the thread that captured it: every event has `tid` 1.
//! The output is a single JSON object `{"traceEvents":[...]}` that
//! loads directly in `chrome://tracing` or Perfetto.

use crate::json::escape;
use crate::trace::{QueryTrace, TraceNode};
use std::fmt::Write as _;

fn write_event(n: &TraceNode, out: &mut String, first: &mut bool) {
    if !*first {
        out.push(',');
    }
    *first = false;
    let ts_us = n.start_ns as f64 / 1_000.0;
    let dur_us = n.wall_ns() as f64 / 1_000.0;
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{ts_us:.3},\"dur\":{dur_us:.3},\
         \"pid\":1,\"tid\":1,\"args\":{{",
        escape(n.name),
    );
    for (i, (k, v)) in n.fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":\"{}\"", escape(k), escape(v));
    }
    out.push_str("}}");
    for c in &n.children {
        write_event(c, out, first);
    }
}

/// Render a [`QueryTrace`] as chrome-trace JSON.
pub fn render(trace: &QueryTrace) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    if let Some(root) = &trace.root {
        write_event(root, &mut out, &mut first);
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::capture;

    #[test]
    fn renders_one_event_per_span() {
        let ((), trace) = capture("test.chrome.root", || {
            let _a = crate::span!("test.chrome.child", rows = 4);
        });
        let json = render(&trace);
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.ends_with("\"displayTimeUnit\":\"ms\"}"), "{json}");
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2, "{json}");
        assert!(json.contains("\"name\":\"test.chrome.child\""), "{json}");
        assert!(json.contains("\"rows\":\"4\""), "{json}");
    }

    #[test]
    fn empty_trace_renders_empty_event_list() {
        let json = render(&QueryTrace::default());
        assert_eq!(json, "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}");
    }
}
