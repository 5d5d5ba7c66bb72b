//! No-op mirrors of [`crate::metrics::MetricsRegistry`],
//! [`crate::trace::Tracer`], and [`crate::flight::FlightRecorder`].
//!
//! These are what the crate root re-exports when the `obs` feature is off.
//! Every method is an empty `#[inline]` body: no `Mutex`, no `String`, no
//! heap — the overhead-guard test (`tests/noop_overhead.rs`) pins the
//! zero-allocation claim with a counting global allocator. The module is
//! compiled in *both* feature configurations so the disabled path can never
//! bit-rot while `obs` is the everyday default.

use crate::flight::{PlanEvent, QueryRecord};
use crate::metrics::MetricsSnapshot;
use crate::span::SpanRecord;
use crate::trace::TraceEvent;

/// Zero-cost stand-in for the recording registry.
#[derive(Debug, Clone, Copy, Default)]
pub struct MetricsRegistry;

impl MetricsRegistry {
    /// A fresh no-op registry.
    #[inline]
    pub fn new() -> Self {
        MetricsRegistry
    }

    /// This implementation records nothing.
    #[inline]
    pub const fn enabled(&self) -> bool {
        false
    }

    /// Discards the delta.
    #[inline]
    pub fn add(&self, _name: &str, _delta: u64) {}

    /// Discards the increment.
    #[inline]
    pub fn inc(&self, _name: &str) {}

    /// Discards the value.
    #[inline]
    pub fn gauge_set(&self, _name: &str, _v: f64) {}

    /// Discards the value.
    #[inline]
    pub fn gauge_add(&self, _name: &str, _v: f64) {}

    /// Discards the observation.
    #[inline]
    pub fn observe(&self, _name: &str, _v: u64) {}

    /// Discards the observation and the exemplar.
    #[inline]
    pub fn observe_exemplar(&self, _name: &str, _v: u64, _query_id: u64) {}

    /// Always the empty snapshot.
    #[inline]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot::default()
    }

    /// Nothing to clear.
    #[inline]
    pub fn clear(&self) {}
}

/// Zero-cost stand-in for the recording tracer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tracer;

impl Tracer {
    /// A fresh no-op tracer.
    #[inline]
    pub fn new() -> Self {
        Tracer
    }

    /// This implementation records nothing.
    #[inline]
    pub const fn enabled(&self) -> bool {
        false
    }

    /// Recording can never be switched on here.
    #[inline]
    pub const fn is_enabled(&self) -> bool {
        false
    }

    /// The toggle has nothing to toggle.
    #[inline]
    pub fn set_enabled(&self, _on: bool) {}

    /// Discards the event.
    #[inline]
    pub fn event(&self, _text: &str) {}

    /// Never invokes the closure — lazy call sites pay nothing.
    #[inline]
    pub fn event_with(&self, _f: impl FnOnce() -> String) {}

    /// Opens nothing; the guard is a unit value.
    #[inline]
    pub fn span(&self, _label: &str) -> Span<'_> {
        Span(std::marker::PhantomData)
    }

    /// The virtual clock never moves.
    #[inline]
    pub fn advance(&self, _ticks: u64) {}

    /// Always tick zero.
    #[inline]
    pub fn tick(&self) -> u64 {
        0
    }

    /// Always empty.
    #[inline]
    pub fn events(&self) -> Vec<TraceEvent> {
        Vec::new()
    }

    /// Always the zero cursor.
    #[inline]
    pub fn span_mark(&self) -> usize {
        0
    }

    /// Always empty (`Vec::new()` does not allocate).
    #[inline]
    pub fn spans(&self) -> Vec<SpanRecord> {
        Vec::new()
    }

    /// Always empty.
    #[inline]
    pub fn spans_from(&self, _mark: usize) -> Vec<SpanRecord> {
        Vec::new()
    }

    /// Always the empty string.
    #[inline]
    pub fn render(&self) -> String {
        String::new()
    }

    /// Nothing to clear.
    #[inline]
    pub fn clear(&self) {}
}

/// Unit span guard (no exit event, no `Drop` logic).
#[derive(Debug)]
pub struct Span<'a>(std::marker::PhantomData<&'a Tracer>);

impl Span<'_> {
    /// Always id zero — no record exists to point at.
    #[inline]
    pub fn id(&self) -> u64 {
        0
    }

    /// Nothing to close.
    #[inline]
    pub fn close(self) {}
}

/// Zero-cost stand-in for the recording flight recorder.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlightRecorder;

impl FlightRecorder {
    /// A fresh no-op recorder.
    #[inline]
    pub fn new() -> Self {
        FlightRecorder
    }

    /// Capacities are irrelevant here.
    #[inline]
    pub fn with_capacity(_max_queries: usize, _max_events: usize) -> Self {
        FlightRecorder
    }

    /// A disarmed recorder (indistinguishable from any other no-op one).
    #[inline]
    pub fn off() -> Self {
        FlightRecorder
    }

    /// This implementation never records.
    #[inline]
    pub fn armed(&self) -> bool {
        false
    }

    /// Never invokes the closure; the handle records nothing.
    #[inline]
    pub fn begin_with(&self, _f: impl FnOnce() -> (String, String)) -> QueryFlight<'_> {
        QueryFlight(std::marker::PhantomData)
    }

    /// Never invokes the closure.
    #[inline]
    pub fn note(&self, _id: u64, _f: impl FnOnce() -> PlanEvent) {}

    /// Nothing is ever retained.
    #[inline]
    pub fn record(&self, _id: u64) -> Option<QueryRecord> {
        None
    }

    /// Nothing is ever retained.
    #[inline]
    pub fn latest(&self) -> Option<QueryRecord> {
        None
    }

    /// Always empty.
    #[inline]
    pub fn records(&self) -> Vec<QueryRecord> {
        Vec::new()
    }

    /// Nothing is ever evicted.
    #[inline]
    pub fn evicted(&self) -> u64 {
        0
    }

    /// Nothing to clear.
    #[inline]
    pub fn clear(&self) {}
}

/// Zero-cost stand-in for the per-query recording handle.
#[derive(Debug, Clone, Copy)]
pub struct QueryFlight<'a>(std::marker::PhantomData<&'a FlightRecorder>);

impl QueryFlight<'_> {
    /// A handle that records nothing (they all do, here).
    #[inline]
    pub const fn disabled() -> Self {
        QueryFlight(std::marker::PhantomData)
    }

    /// Never active — call sites skip event construction entirely.
    #[inline]
    pub fn active(&self) -> bool {
        false
    }

    /// Always id zero.
    #[inline]
    pub fn id(&self) -> u64 {
        0
    }

    /// Never invokes the closure — lazy call sites pay nothing.
    #[inline]
    pub fn event_with(&self, _f: impl FnOnce() -> PlanEvent) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_api_mirrors_the_recorder() {
        let m = MetricsRegistry::new();
        m.inc("a");
        m.add("a", 4);
        m.gauge_set("g", 1.0);
        m.gauge_add("g", 1.0);
        m.observe("h", 9);
        assert!(!m.enabled());
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
        let t = Tracer::new();
        let span = t.span("plan");
        assert_eq!(span.id(), 0);
        t.event("x");
        t.event_with(|| unreachable!("noop tracer must not build event text"));
        t.advance(100);
        span.close();
        t.set_enabled(true);
        assert!(!t.enabled());
        assert!(!t.is_enabled(), "the noop toggle never switches recording on");
        assert_eq!(t.tick(), 0);
        assert!(t.events().is_empty());
        assert_eq!(t.span_mark(), 0);
        assert!(t.spans().is_empty());
        assert!(t.spans_from(0).is_empty());
        assert_eq!(t.render(), "");
    }

    #[test]
    fn noop_flight_recorder_never_builds_events() {
        let rec = FlightRecorder::new();
        assert!(!rec.armed());
        let q = rec.begin_with(|| unreachable!("noop recorder must not build the label"));
        assert!(!q.active());
        assert_eq!(q.id(), 0);
        q.event_with(|| unreachable!("noop recorder must not build events"));
        rec.note(0, || unreachable!("noop recorder must not build notes"));
        assert!(rec.record(0).is_none());
        assert!(rec.latest().is_none());
        assert!(rec.records().is_empty());
        assert_eq!(rec.evicted(), 0);
        rec.clear();
        let q2 = QueryFlight::disabled();
        q2.event_with(|| unreachable!("disabled handle must not build events"));
    }
}
