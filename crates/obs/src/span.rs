//! Span guards: scoped timing recorded on the calling thread.
//!
//! A span is opened with [`span`] (or the [`crate::span!`] macro, which
//! also attaches fields) and closed when the returned [`SpanGuard`]
//! drops. A guard records only while its own thread has a
//! [`crate::trace::capture`] open; otherwise it is inert, and opening
//! one costs a single thread-local read.
//!
//! Each thread keeps a stack of open frames: a capture's root at the
//! bottom, then every span open above it. A span's parent is the frame
//! below it, and a closing guard appends its finished [`TraceNode`] to
//! that frame's children, so a capture ends holding a finished tree.

use crate::trace::TraceNode;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the process-wide monotonic epoch (first use).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

thread_local! {
    /// The children gathered so far by each frame open on this thread.
    static STACK: RefCell<Vec<Vec<TraceNode>>> = const { RefCell::new(Vec::new()) };
}

/// How many spans are open on this thread right now, capture roots
/// included (0 once every guard has dropped — the closure property the
/// span tests assert).
pub fn thread_open_depth() -> usize {
    STACK.with(|s| s.borrow().len())
}

struct OpenSpan {
    /// This span's frame on its thread's stack.
    depth: usize,
    name: &'static str,
    start_ns: u64,
    fields: Vec<(&'static str, String)>,
}

/// RAII guard for one span; on drop it hands its [`TraceNode`] to the
/// span below it when a capture is open on this thread, and does
/// nothing otherwise. It is `!Send`: its frame lives on the stack of
/// the thread that opened it.
pub struct SpanGuard {
    open: Option<OpenSpan>,
    _not_send: PhantomData<*const ()>,
}

impl SpanGuard {
    /// Push a frame for `name`: always for a capture's root, otherwise
    /// only when a capture is open below it.
    pub(crate) fn open(name: &'static str, root: bool) -> Self {
        let depth = STACK.with(|s| {
            let mut s = s.borrow_mut();
            (root || !s.is_empty()).then(|| {
                s.push(Vec::new());
                s.len() - 1
            })
        });
        SpanGuard {
            open: depth.map(|depth| OpenSpan {
                depth,
                name,
                start_ns: now_ns(),
                fields: Vec::new(),
            }),
            _not_send: PhantomData,
        }
    }

    /// Whether this guard is actually recording (a capture was open on
    /// this thread when it was opened). Fields are only worth computing
    /// when true.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.open.is_some()
    }

    /// Attach a string field. No-op on an inert guard.
    pub fn field_str(&mut self, key: &'static str, value: String) {
        if let Some(o) = self.open.as_mut() {
            o.fields.push((key, value));
        }
    }

    /// Attach an integer field. No-op on an inert guard.
    pub fn field_u64(&mut self, key: &'static str, value: u64) {
        if let Some(o) = self.open.as_mut() {
            o.fields.push((key, value.to_string()));
        }
    }

    /// Close this span: drop the frames still open above it, pop its
    /// own and append the finished node to the frame below. A capture
    /// root also gets its node back (a copy when nested in another
    /// capture). `None` once an enclosing capture has ended.
    pub(crate) fn close(&mut self, root: bool) -> Option<TraceNode> {
        let o = self.open.take()?;
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.len() <= o.depth {
                return None;
            }
            s.truncate(o.depth + 1);
            let node = TraceNode {
                name: o.name,
                start_ns: o.start_ns,
                end_ns: now_ns(),
                fields: o.fields,
                children: s.pop()?,
            };
            match s.last_mut() {
                Some(parent) if root => {
                    parent.push(node.clone());
                    Some(node)
                }
                Some(parent) => {
                    parent.push(node);
                    None
                }
                None => Some(node),
            }
        })
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.close(false);
    }
}

/// Open a span under the span currently open on this thread.
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard::open(name, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_guard_outside_capture() {
        let g = span("test.span.inert");
        assert!(!g.is_active());
        assert_eq!(thread_open_depth(), 0);
    }

    #[test]
    fn parenting_follows_the_thread_stack() {
        let mut root = SpanGuard::open("test.span.root", true);
        {
            let _child = span("test.span.child");
            assert_eq!(thread_open_depth(), 2);
        }
        assert_eq!(thread_open_depth(), 1);
        let root = root.close(true).expect("root recorded");
        assert_eq!(thread_open_depth(), 0);
        let child = &root.children[0];
        assert_eq!(child.name, "test.span.child");
        assert!(root.start_ns <= child.start_ns);
        assert!(root.end_ns >= child.end_ns);
    }
}
