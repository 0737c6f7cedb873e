//! Event sinks: where instrumented hardware models deliver their events.
//!
//! The cycle engine and every instrumented component are generic over
//! [`TraceSink`], and every emission site is guarded by the associated
//! constant [`TraceSink::ACTIVE`]:
//!
//! ```ignore
//! if S::ACTIVE {
//!     sink.record(now, TraceEvent::FlitDeflected { node });
//! }
//! ```
//!
//! With [`NullSink`] (`ACTIVE = false`) the guard is a compile-time
//! constant, so monomorphization deletes both the branch and the event
//! construction — the untraced hot path is bit- and instruction-identical
//! to a build without tracing. [`RingSink`] captures events into a
//! preallocated ring buffer (oldest events overwritten once full), so
//! steady-state capture allocates nothing either.

use crate::event::{EventClass, TimedEvent, TraceEvent};
use medea_sim::Cycle;

/// A destination for trace events.
///
/// Implementations must be cheap: `record` runs inside the cycle engine's
/// hot loops. Emission sites check [`TraceSink::ACTIVE`] first so an
/// inactive sink costs literally nothing.
pub trait TraceSink {
    /// Whether this sink observes events at all. `false` only for
    /// [`NullSink`]; the constant lets monomorphization delete every
    /// emission site.
    const ACTIVE: bool;

    /// Record `event` as having occurred on cycle `at`.
    fn record(&mut self, at: Cycle, event: TraceEvent);

    /// Events this sink *lost* to I/O errors (not class filtering or ring
    /// eviction — those are deliberate). Non-zero only for sinks that
    /// write externally, e.g. [`crate::FileSink`]; the engine surfaces it
    /// in `RunResult` so a silently truncated trace file is diagnosable.
    fn io_drops(&self) -> u64 {
        0
    }
}

/// The no-op sink: tracing off. All emission sites compile away.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    const ACTIVE: bool = false;

    #[inline(always)]
    fn record(&mut self, _at: Cycle, _event: TraceEvent) {}
}

/// Preallocated ring-buffer sink: keeps the most recent `capacity`
/// events of the selected classes, counting (not storing) the overwritten
/// ones.
#[derive(Debug, Clone)]
pub struct RingSink {
    classes: EventClass,
    buf: Vec<TimedEvent>,
    capacity: usize,
    /// Index of the oldest stored event once the ring has wrapped.
    start: usize,
    dropped: u64,
}

impl RingSink {
    /// Ring capturing every class, holding at most `capacity` events
    /// (minimum 1).
    pub fn new(capacity: usize) -> Self {
        RingSink::with_classes(capacity, EventClass::ALL)
    }

    /// Ring capturing only `classes`.
    pub fn with_classes(capacity: usize, classes: EventClass) -> Self {
        let capacity = capacity.max(1);
        RingSink { classes, buf: Vec::with_capacity(capacity), capacity, start: 0, dropped: 0 }
    }

    /// Number of events currently stored.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events overwritten because the ring was full.
    pub const fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The class filter.
    pub const fn classes(&self) -> EventClass {
        self.classes
    }

    /// Stored events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TimedEvent> {
        self.buf[self.start..].iter().chain(self.buf[..self.start].iter())
    }

    /// Stored events as a vector, oldest first.
    pub fn to_vec(&self) -> Vec<TimedEvent> {
        self.iter().copied().collect()
    }

    /// Forget everything captured so far (capacity retained).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.start = 0;
        self.dropped = 0;
    }
}

impl TraceSink for RingSink {
    const ACTIVE: bool = true;

    fn record(&mut self, at: Cycle, event: TraceEvent) {
        if !self.classes.intersects(event.class()) {
            return;
        }
        let timed = TimedEvent { at, event };
        if self.buf.len() < self.capacity {
            self.buf.push(timed);
        } else {
            self.buf[self.start] = timed;
            self.start = (self.start + 1) % self.capacity;
            self.dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(node: u16) -> TraceEvent {
        TraceEvent::FlitDeflected { node }
    }

    #[test]
    fn null_sink_is_inactive() {
        fn active<S: TraceSink>(_sink: &S) -> bool {
            S::ACTIVE
        }
        let mut s = NullSink;
        assert!(!active(&s), "NullSink must advertise inactivity");
        assert!(active(&RingSink::new(1)));
        s.record(0, ev(1)); // compiles to nothing, must not panic
    }

    #[test]
    fn ring_keeps_most_recent_in_order() {
        let mut s = RingSink::new(3);
        for i in 0..5u64 {
            s.record(i, ev(i as u16));
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.dropped(), 2);
        let got: Vec<Cycle> = s.iter().map(|t| t.at).collect();
        assert_eq!(got, vec![2, 3, 4], "oldest-first, newest retained");
        assert_eq!(s.to_vec().len(), 3);
    }

    #[test]
    fn ring_filters_by_class() {
        let mut s = RingSink::with_classes(8, EventClass::KERNEL);
        s.record(0, ev(1)); // NOC: filtered
        s.record(1, TraceEvent::SpanBegin { node: 1, op: crate::event::KernelOp::Barrier });
        assert_eq!(s.len(), 1);
        assert_eq!(s.dropped(), 0, "filtered events are not drops");
    }

    #[test]
    fn ring_clear_resets() {
        let mut s = RingSink::new(2);
        s.record(0, ev(0));
        s.record(1, ev(1));
        s.record(2, ev(2));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.dropped(), 0);
        s.record(3, ev(3));
        assert_eq!(s.to_vec()[0].at, 3);
    }

    #[test]
    fn zero_capacity_clamped_to_one() {
        let mut s = RingSink::new(0);
        s.record(0, ev(0));
        s.record(1, ev(1));
        assert_eq!(s.len(), 1);
        assert_eq!(s.dropped(), 1);
    }
}
