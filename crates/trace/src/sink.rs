//! Recording: the bounded drop-oldest ring and the cheap [`Tracer`]
//! handle that devices hold.

use crate::event::{Event, TracedEvent};
use bh_metrics::Nanos;
use std::cell::RefCell;
use std::rc::Rc;

/// Identifies one episode (e.g. a GC run) across its begin/end events.
///
/// Allocated by [`Tracer::begin_span`]; `NONE` marks events that belong
/// to no episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

impl SpanId {
    /// No episode.
    pub const NONE: SpanId = SpanId(0);

    /// True for real (non-`NONE`) spans.
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

/// Bounded recorder: keeps the most recent `capacity` events, dropping
/// the oldest and counting the drops.
///
/// Implemented as a flat ring over a `Vec` (grown lazily up to
/// capacity): once the buffer is warm, every `record` is one slot store
/// and a head bump — no element shuffling and no allocation on the hot
/// path.
#[derive(Debug)]
struct RingSink {
    buf: Vec<TracedEvent>,
    /// Index of the oldest retained event once the buffer is full;
    /// always 0 while it is still filling.
    head: usize,
    capacity: usize,
    dropped: u64,
}

impl RingSink {
    /// Creates a ring retaining at most `capacity` events (min 1).
    fn new(capacity: usize) -> Self {
        RingSink {
            buf: Vec::new(),
            head: 0,
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Records one event. Never panics, even at capacity.
    fn record(&mut self, event: TracedEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Events currently retained.
    fn len(&self) -> usize {
        self.buf.len()
    }

    /// Events dropped because of capacity limits.
    fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Snapshot of retained events, oldest first.
    fn events(&self) -> Vec<TracedEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

struct Shared {
    sink: RingSink,
    seq: u64,
    next_span: u64,
}

/// The handle every instrumented component holds.
///
/// Cloning is cheap (an `Option<Rc>`); all clones record into the same
/// ring, which gives one globally ordered event stream across layers.
/// The disabled handle ([`Tracer::disabled`], also `Default`) makes
/// every [`Tracer::emit`] a branch on `None` — no allocation, no
/// formatting, no envelope.
#[derive(Clone, Default)]
pub struct Tracer {
    shared: Option<Rc<RefCell<Shared>>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.shared {
            None => write!(f, "Tracer(disabled)"),
            Some(s) => {
                let s = s.borrow();
                write!(
                    f,
                    "Tracer({} events, {} dropped)",
                    s.sink.len(),
                    s.sink.dropped()
                )
            }
        }
    }
}

/// Default ring capacity when an experiment runs with `--trace` and
/// without `BH_TRACE_CAP`.
pub const DEFAULT_CAPACITY: usize = 1 << 20;

impl Tracer {
    /// A tracer that records nothing at (near-)zero cost.
    pub fn disabled() -> Self {
        Tracer { shared: None }
    }

    /// A tracer recording into a fresh drop-oldest ring.
    pub fn ring(capacity: usize) -> Self {
        Tracer {
            shared: Some(Rc::new(RefCell::new(Shared {
                sink: RingSink::new(capacity),
                seq: 0,
                next_span: 0,
            }))),
        }
    }

    /// True when events are being recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Records an event outside any episode.
    #[inline]
    pub fn emit(&self, at: Nanos, event: impl Into<Event>) {
        if self.shared.is_some() {
            self.record(at, SpanId::NONE, event.into());
        }
    }

    /// Records an event belonging to span `span`.
    #[inline]
    pub fn emit_span(&self, at: Nanos, span: SpanId, event: impl Into<Event>) {
        if self.shared.is_some() {
            self.record(at, span, event.into());
        }
    }

    #[inline(never)]
    fn record(&self, at: Nanos, span: SpanId, event: Event) {
        let shared = self.shared.as_ref().expect("checked by callers");
        let mut s = shared.borrow_mut();
        let seq = s.seq;
        s.seq += 1;
        s.sink.record(TracedEvent {
            seq,
            at,
            span,
            event,
        });
    }

    /// Allocates a fresh episode span. Returns [`SpanId::NONE`] when
    /// disabled, so callers can thread it unconditionally.
    pub fn begin_span(&self) -> SpanId {
        match &self.shared {
            None => SpanId::NONE,
            Some(shared) => {
                let mut s = shared.borrow_mut();
                s.next_span += 1;
                SpanId(s.next_span)
            }
        }
    }

    /// Snapshot of retained events, oldest first. Empty when disabled.
    pub fn events(&self) -> Vec<TracedEvent> {
        match &self.shared {
            None => Vec::new(),
            Some(shared) => shared.borrow().sink.events(),
        }
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.shared.as_ref().map_or(0, |s| s.borrow().sink.len())
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events dropped to stay within capacity.
    pub fn dropped(&self) -> u64 {
        self.shared
            .as_ref()
            .map_or(0, |s| s.borrow().sink.dropped())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, RunnerEvent};

    fn snapshot(ops_done: u64) -> Event {
        Event::Runner(RunnerEvent::Snapshot {
            ops_done,
            interval_wa: 1.0,
            cumulative_wa: 1.0,
            queue_depth: 0,
            in_flight: 0,
            host_programs: 0,
            internal_programs: 0,
            erases: 0,
        })
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        t.emit(Nanos::ZERO, snapshot(1));
        assert_eq!(t.len(), 0);
        assert!(t.events().is_empty());
        assert_eq!(t.begin_span(), SpanId::NONE);
    }

    #[test]
    fn clones_share_one_ordered_stream() {
        let t = Tracer::ring(16);
        let u = t.clone();
        t.emit(Nanos::from_nanos(1), snapshot(1));
        u.emit(Nanos::from_nanos(2), snapshot(2));
        let events = t.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].seq, 1);
    }

    #[test]
    fn ring_drops_oldest_at_capacity() {
        let t = Tracer::ring(3);
        for i in 0..10 {
            t.emit(Nanos::from_nanos(i), snapshot(i));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 7);
        let seqs: Vec<u64> = t.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9]);
    }

    #[test]
    fn spans_are_unique_and_nonzero() {
        let t = Tracer::ring(4);
        let a = t.begin_span();
        let b = t.begin_span();
        assert!(a.is_some() && b.is_some());
        assert_ne!(a, b);
    }
}
