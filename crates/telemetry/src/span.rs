//! Hierarchical spans with RAII guards.
//!
//! A [`span`] call pushes an active span onto the calling thread's stack
//! and returns a guard; dropping the guard pops the span, stamps its
//! duration, and stores a finished [`SpanRecord`] in the process-wide
//! registry. Nesting follows lexical scope per thread; attributes attach
//! to the innermost open span of the calling thread via [`set_attr`].
//!
//! ## The registry is a bounded ring
//!
//! The registry keeps the newest [`SPAN_RING_CAPACITY`] finished spans.
//! Once full, each new span overwrites the oldest and bumps the
//! `telemetry.spans_dropped` counter, so a long-lived server that opens
//! one span per batch holds a fixed amount of span memory however long it
//! runs. The evicted record's name and attribute buffers go back to the
//! thread that closed the span and back its next one: with `&'static`
//! attribute keys and non-allocating values ([`AttrValue::Int`],
//! [`AttrValue::Float`], a shared [`AttrValue::Str`]), a thread in that
//! steady state opens, annotates and closes spans without allocating.

use crate::metrics::Counter;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Most finished spans the registry holds; the newest win. 512 records
/// of the serving plane's per-batch span are about 0.25 MiB; a native
/// ladder run over every kernel records about fifty spans, a
/// `bench-report` a few hundred. (4 096 until PR 13: a serving plane
/// four times faster fills the ring four times sooner, and the ring was
/// the one part of a server's resident set that grew with its rate.)
pub const SPAN_RING_CAPACITY: usize = 512;

/// An attribute value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Signed integer.
    Int(i64),
    /// Double.
    Float(f64),
    /// String. Shared, so a caller that keeps its own `Arc<str>` (a
    /// lane's rung slug) attaches it with a reference-count bump instead
    /// of a copy.
    Str(Arc<str>),
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}
impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::Int(v as i64)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::Int(v as i64)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::Int(v as i64)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::Float(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.into())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v.into())
    }
}
impl From<Arc<str>> for AttrValue {
    fn from(v: Arc<str>) -> Self {
        AttrValue::Str(v)
    }
}

/// A span's attributes, in insertion order.
type Attrs = Vec<(&'static str, AttrValue)>;

/// A finished span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Unique id (monotonic, process-wide, starts at 1).
    pub id: u64,
    /// Id of the enclosing span, or 0 for a root span.
    pub parent: u64,
    /// Span name (dotted-path convention, e.g. `experiment.fig4`).
    pub name: String,
    /// Nesting depth on the opening thread (root = 0).
    pub depth: u32,
    /// Start time in nanoseconds since the process telemetry epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Attributes, in insertion order.
    pub attrs: Attrs,
}

struct ActiveSpan {
    id: u64,
    parent: u64,
    name: String,
    depth: u32,
    start: Instant,
    attrs: Attrs,
}

/// The finished-span registry: a ring of at most [`SPAN_RING_CAPACITY`]
/// records in completion order, `head` indexing the oldest once full.
struct Ring {
    slots: Vec<SpanRecord>,
    head: usize,
}

impl Ring {
    /// Store `rec`; once the ring is full the oldest record is evicted
    /// and handed back.
    fn push(&mut self, rec: SpanRecord) -> Option<SpanRecord> {
        if self.slots.len() < SPAN_RING_CAPACITY {
            self.slots.push(rec);
            return None;
        }
        let evicted = std::mem::replace(&mut self.slots[self.head], rec);
        self.head = (self.head + 1) % SPAN_RING_CAPACITY;
        Some(evicted)
    }

    /// Empty the ring, returning its records oldest first.
    fn take(&mut self) -> Vec<SpanRecord> {
        self.slots.rotate_left(self.head);
        self.head = 0;
        std::mem::take(&mut self.slots)
    }
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static REGISTRY: Mutex<Ring> = Mutex::new(Ring {
    slots: Vec::new(),
    head: 0,
});
static EPOCH: OnceLock<Instant> = OnceLock::new();
/// `telemetry.spans_dropped`: bumped on every span close once the ring is
/// full, so it is a handle, not a by-name lookup.
static SPANS_DROPPED: LazyLock<Counter> =
    LazyLock::new(|| Counter::named("telemetry.spans_dropped"));

thread_local! {
    static STACK: RefCell<Vec<ActiveSpan>> = const { RefCell::new(Vec::new()) };
    /// Name and attribute buffers of the record this thread's last span
    /// evicted from the full ring, reused by its next span.
    static SPARE: RefCell<Option<(String, Attrs)>> = const { RefCell::new(None) };
}

/// Lock the registry, recovering from poison: `push` and `take` leave the
/// ring valid at every step, so a panic elsewhere on a thread holding the
/// lock cannot corrupt it.
fn registry() -> MutexGuard<'static, Ring> {
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Open a span; it closes (and is recorded) when the returned guard drops.
#[must_use = "the span closes when the guard is dropped"]
pub fn span(name: impl AsRef<str>) -> SpanGuard {
    let (mut name_buf, attrs) = SPARE
        .with(|spare| spare.borrow_mut().take())
        .unwrap_or_default();
    name_buf.push_str(name.as_ref());
    let start = Instant::now();
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let (parent, depth) = match stack.last() {
            Some(top) => (top.id, top.depth + 1),
            None => (0, 0),
        };
        stack.push(ActiveSpan {
            id,
            parent,
            name: name_buf,
            depth,
            start,
            attrs,
        });
    });
    SpanGuard(())
}

/// RAII guard returned by [`span`].
pub struct SpanGuard(());

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let done = Instant::now();
        let Some(active) = STACK.with(|stack| stack.borrow_mut().pop()) else {
            return;
        };
        let record = SpanRecord {
            id: active.id,
            parent: active.parent,
            name: active.name,
            depth: active.depth,
            start_ns: active.start.duration_since(epoch()).as_nanos() as u64,
            dur_ns: done.duration_since(active.start).as_nanos() as u64,
            attrs: active.attrs,
        };
        let evicted = registry().push(record);
        if let Some(mut old) = evicted {
            SPANS_DROPPED.add(1);
            old.name.clear();
            old.attrs.clear();
            SPARE.with(|spare| *spare.borrow_mut() = Some((old.name, old.attrs)));
        }
    }
}

/// Upsert an attribute on the calling thread's innermost open span; a
/// no-op when no span is open.
pub fn set_attr(key: &'static str, value: impl Into<AttrValue>) {
    let value = value.into();
    STACK.with(|stack| {
        if let Some(top) = stack.borrow_mut().last_mut() {
            if let Some(slot) = top.attrs.iter_mut().find(|(k, _)| *k == key) {
                slot.1 = value;
            } else {
                top.attrs.push((key, value));
            }
        }
    });
}

/// Snapshot the finished spans the registry still holds (completion
/// order: children precede their parent).
pub fn snapshot() -> Vec<SpanRecord> {
    let ring = registry();
    let (newer, older) = ring.slots.split_at(ring.head);
    older.iter().chain(newer).cloned().collect()
}

/// Drain the finished spans the registry still holds (completion order),
/// leaving it empty.
pub fn drain() -> Vec<SpanRecord> {
    registry().take()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_and_order() {
        {
            let _a = span("span_test.outer");
            set_attr("k", 1i64);
            {
                let _b = span("span_test.inner");
                set_attr("x", 2.5f64);
            }
            set_attr("k", 7i64); // upsert
        }
        // Other unit tests share the process-wide registry, so assert on
        // this test's own spans instead of the whole snapshot.
        let recs = snapshot();
        let inner_pos = recs
            .iter()
            .position(|r| r.name == "span_test.inner")
            .unwrap();
        let outer_pos = recs
            .iter()
            .position(|r| r.name == "span_test.outer")
            .unwrap();
        assert!(inner_pos < outer_pos, "children complete before parents");
        let (inner, outer) = (&recs[inner_pos], &recs[outer_pos]);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.depth, outer.depth + 1);
        assert_eq!(inner.attrs, vec![("x", AttrValue::Float(2.5))]);
        assert_eq!(
            outer.attrs.iter().find(|(k, _)| *k == "k"),
            Some(&("k", AttrValue::Int(7)))
        );
    }

    #[test]
    fn attrs_without_open_span_are_ignored() {
        set_attr("orphan", 1i64); // must not panic
    }
}
