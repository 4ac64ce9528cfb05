//! Span guards: scoped timing with thread-local parenting.
//!
//! A span is opened with [`span`] (or the [`crate::span!`] macro, which
//! also attaches fields) and closed when the returned [`SpanGuard`]
//! drops. While at least one [`crate::trace::capture`] is active, every
//! closed span is appended to a process-global buffer as a
//! [`SpanEvent`]; otherwise guards are fully inert — opening one costs
//! a single relaxed atomic load.
//!
//! Parenting is a thread-local stack: the span open at the top of the
//! current thread's stack becomes the parent of the next span opened on
//! that thread.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Identifier of one span, unique within the process.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

/// One closed span, as recorded into the capture buffer.
#[derive(Clone, Debug)]
pub struct SpanEvent {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: &'static str,
    /// Process-local sequential thread index (stable per thread).
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub fields: Vec<(&'static str, String)>,
}

/// Nanoseconds since the process-wide monotonic epoch (first use).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn thread_index() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static INDEX: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    INDEX.with(|ix| *ix)
}

static CAPTURES: AtomicU64 = AtomicU64::new(0);

fn next_id() -> SpanId {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    SpanId(NEXT.fetch_add(1, Ordering::Relaxed))
}

fn buffer() -> &'static Mutex<Vec<SpanEvent>> {
    static BUF: OnceLock<Mutex<Vec<SpanEvent>>> = OnceLock::new();
    BUF.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static STACK: RefCell<Vec<SpanId>> = const { RefCell::new(Vec::new()) };
}

/// Is any capture currently recording spans?
#[inline]
pub fn recording_active() -> bool {
    CAPTURES.load(Ordering::Relaxed) > 0
}

/// Refcount a capture in. Returns the buffer index at which this
/// capture's events will start.
pub(crate) fn begin_recording() -> usize {
    // Hold the buffer lock across the refcount bump so the start index
    // is consistent with concurrent appends.
    let buf = buffer().lock().unwrap();
    CAPTURES.fetch_add(1, Ordering::Relaxed);
    buf.len()
}

/// Copy out the events recorded since `start`, then refcount the
/// capture out; the last capture to end clears the buffer.
pub(crate) fn end_recording(start: usize) -> Vec<SpanEvent> {
    let mut buf = buffer().lock().unwrap();
    let events = buf.get(start..).unwrap_or(&[]).to_vec();
    if CAPTURES.fetch_sub(1, Ordering::Relaxed) == 1 {
        buf.clear();
    }
    events
}

/// The span currently open at the top of this thread's stack, if any.
pub fn current_span() -> Option<SpanId> {
    STACK.with(|s| s.borrow().last().copied())
}

/// How many spans are open on this thread right now (0 once every
/// guard has dropped — the closure property the span tests assert).
pub fn thread_open_depth() -> usize {
    STACK.with(|s| s.borrow().len())
}

struct ActiveSpan {
    id: SpanId,
    parent: Option<SpanId>,
    name: &'static str,
    start_ns: u64,
    fields: Vec<(&'static str, String)>,
}

/// RAII guard for one span; records a [`SpanEvent`] on drop when a
/// capture is active, does nothing otherwise.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl SpanGuard {
    /// Whether this guard is actually recording (a capture was active
    /// when it was opened). Fields are only worth computing when true.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.active.is_some()
    }

    /// This span's id, if recording.
    pub fn id(&self) -> Option<SpanId> {
        self.active.as_ref().map(|a| a.id)
    }

    /// Attach a string field. No-op on an inert guard.
    pub fn field_str(&mut self, key: &'static str, value: String) {
        if let Some(a) = self.active.as_mut() {
            a.fields.push((key, value));
        }
    }

    /// Attach an integer field. No-op on an inert guard.
    pub fn field_u64(&mut self, key: &'static str, value: u64) {
        if let Some(a) = self.active.as_mut() {
            a.fields.push((key, value.to_string()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(a) = self.active.take() else { return };
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            debug_assert_eq!(s.last(), Some(&a.id), "span guards dropped out of order");
            s.pop();
        });
        let event = SpanEvent {
            id: a.id,
            parent: a.parent,
            name: a.name,
            thread: thread_index(),
            start_ns: a.start_ns,
            end_ns: now_ns(),
            fields: a.fields,
        };
        let mut buf = buffer().lock().unwrap();
        // The capture that saw this span open may have ended already
        // (guard leaked past the closure); only append while someone is
        // still recording, so the cleared buffer stays empty.
        if CAPTURES.load(Ordering::Relaxed) > 0 {
            buf.push(event);
        }
    }
}

/// Open a span parented to the span currently open on this thread.
pub fn span(name: &'static str) -> SpanGuard {
    if !recording_active() {
        return SpanGuard { active: None };
    }
    let parent = current_span();
    let id = next_id();
    STACK.with(|s| s.borrow_mut().push(id));
    SpanGuard {
        active: Some(ActiveSpan {
            id,
            parent,
            name,
            start_ns: now_ns(),
            fields: Vec::new(),
        }),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A live capture makes spans active on every thread of the
    /// process, so the test asserting that a span outside any capture
    /// is inert and the unit tests that capture take turns.
    pub(crate) fn capture_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn inert_guard_outside_capture() {
        let _no_capture = capture_lock();
        let g = span("test.span.inert");
        assert!(!g.is_active());
        assert_eq!(g.id(), None);
        assert_eq!(thread_open_depth(), 0);
    }

    #[test]
    fn parenting_follows_the_thread_stack() {
        let _capturing = capture_lock();
        let start = begin_recording();
        let root_id;
        {
            let root = span("test.span.root");
            root_id = root.id().unwrap();
            assert_eq!(current_span(), Some(root_id));
            {
                let child = span("test.span.child");
                assert_eq!(thread_open_depth(), 2);
                assert_eq!(current_span(), child.id());
            }
            assert_eq!(thread_open_depth(), 1);
        }
        assert_eq!(thread_open_depth(), 0);
        let events = end_recording(start);
        let child = events
            .iter()
            .find(|e| e.name == "test.span.child")
            .expect("child recorded");
        assert_eq!(child.parent, Some(root_id));
        let root = events
            .iter()
            .find(|e| e.id == root_id)
            .expect("root recorded");
        assert!(root.start_ns <= child.start_ns);
        assert!(root.end_ns >= child.end_ns);
    }
}
