//! The deterministic tracer: spans and events on a virtual-tick clock.
//!
//! The clock has nothing to do with wall time. It starts at zero and
//! advances by exactly one per recorded event, plus whatever simulated
//! latency a component explicitly charges via [`Tracer::advance`] (the
//! fault layer's backoff/latency ticks). Two runs that take the same
//! logical steps therefore stamp the same ticks and render byte-identical —
//! which is what lets `EXPLAIN ANALYZE` traces be golden-tested the way
//! `tests/golden_chaos.txt` already is.
//!
//! Besides the flat event log, every [`Tracer::span`] call also appends a
//! structured [`SpanRecord`] — deterministic sequential id, parent pointer
//! from the open-span stack, start/end ticks shared with the `> label` /
//! `< label` events. The record list is what [`crate::profile`] snapshots
//! into per-query profiles; the flat log and its `render()` output are
//! unchanged by the bookkeeping.

use crate::span::SpanRecord;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// One recorded trace line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual tick at which the event was recorded.
    pub tick: u64,
    /// Span nesting depth at record time.
    pub depth: u16,
    /// Rendered text (`> label` / `< label` for span enter/exit).
    pub text: String,
}

#[derive(Debug, Default)]
struct Inner {
    tick: u64,
    depth: u16,
    events: Vec<TraceEvent>,
    spans: Vec<SpanRecord>,
    /// Indices into `spans` of the currently open spans, outermost first.
    open: Vec<usize>,
    next_span_id: u64,
}

impl Inner {
    fn record(&mut self, text: String) {
        self.events.push(TraceEvent { tick: self.tick, depth: self.depth, text });
        self.tick += 1;
    }
}

/// The tracer. Interior-mutable and `Send + Sync`; events must be
/// recorded from deterministic (sequential) program points — parallel
/// sections record into locals and flush after their deterministic merge.
#[derive(Debug, Default)]
pub struct Tracer {
    inner: Mutex<Inner>,
    /// Runtime gate: while set the tracer records nothing at all and its
    /// clock stands still — [`Tracer::off`] starts that way, and the
    /// `e18_spans` bench flips it for its recorder-only leg. Checked once
    /// (Relaxed) per event/span; determinism is unaffected because the
    /// toggle is only ever flipped between queries.
    off: AtomicBool,
}

impl Tracer {
    /// A fresh, recording tracer at tick zero.
    pub fn new() -> Self {
        Tracer::default()
    }

    /// A tracer built disabled: it stays at tick zero with no events and no
    /// spans, and renders the empty string.
    pub fn off() -> Self {
        Tracer { off: AtomicBool::new(true), ..Default::default() }
    }

    /// Whether recording is currently switched on (see [`Tracer::set_enabled`]).
    /// Call sites gate expensive formatting on this.
    pub fn is_enabled(&self) -> bool {
        !self.off.load(Ordering::Relaxed)
    }

    /// Switches recording on or off at runtime. Off, every
    /// `event`/`span`/`advance` call is a cheap early return — no lock, no
    /// allocation. Flip only between queries: toggling mid-span leaves that
    /// span unclosed.
    pub fn set_enabled(&self, on: bool) {
        self.off.store(!on, Ordering::Relaxed);
    }

    /// The log behind its lock, or `None` while disabled — the one gate
    /// `event`/`event_with`/`advance` check, before the lock.
    fn recording(&self) -> Option<std::sync::MutexGuard<'_, Inner>> {
        self.is_enabled().then(|| self.inner.lock().expect("trace lock"))
    }

    /// Records an event.
    pub fn event(&self, text: &str) {
        let Some(mut inner) = self.recording() else { return };
        inner.record(text.to_string());
    }

    /// Records an event whose text is built lazily — a disabled tracer never
    /// invokes the closure, so hot paths pay nothing when tracing is off.
    pub fn event_with(&self, f: impl FnOnce() -> String) {
        let Some(mut inner) = self.recording() else { return };
        inner.record(f());
    }

    /// Opens a span; the returned guard closes it on drop. Besides the
    /// `> label` event this appends a [`SpanRecord`] whose parent is the
    /// innermost span still open.
    pub fn span(&self, label: &str) -> Span<'_> {
        if !self.is_enabled() {
            return Span { tracer: None, label: String::new(), id: 0 };
        }
        let id = {
            let mut inner = self.inner.lock().expect("trace lock");
            let start_tick = inner.tick;
            let depth = inner.depth;
            inner.record(format!("> {label}"));
            inner.depth += 1;
            let id = inner.next_span_id;
            inner.next_span_id += 1;
            let parent = inner.open.last().map(|&i| inner.spans[i].id);
            let idx = inner.spans.len();
            inner.spans.push(SpanRecord {
                id,
                parent,
                label: label.to_string(),
                start_tick,
                end_tick: None,
                depth,
            });
            inner.open.push(idx);
            id
        };
        Span { tracer: Some(self), label: label.to_string(), id }
    }

    /// Advances the virtual clock by `ticks` (simulated latency/backoff).
    /// Ignored while disabled: a clock nothing is stamped with does not run.
    pub fn advance(&self, ticks: u64) {
        let Some(mut inner) = self.recording() else { return };
        inner.tick += ticks;
    }

    /// Current virtual tick.
    pub fn tick(&self) -> u64 {
        self.inner.lock().expect("trace lock").tick
    }

    /// Clones out every event recorded so far.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.lock().expect("trace lock").events.clone()
    }

    /// A cursor into the span list: pass it to [`Tracer::spans_from`] later
    /// to clone out only the spans recorded in between (per-query slicing).
    pub fn span_mark(&self) -> usize {
        self.inner.lock().expect("trace lock").spans.len()
    }

    /// Clones out every structured span recorded so far.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner.lock().expect("trace lock").spans.clone()
    }

    /// Clones out the spans recorded since `mark` (see [`Tracer::span_mark`]).
    pub fn spans_from(&self, mark: usize) -> Vec<SpanRecord> {
        let inner = self.inner.lock().expect("trace lock");
        inner.spans.get(mark..).unwrap_or(&[]).to_vec()
    }

    /// Renders the trace: one `[tick] indented text` line per event.
    pub fn render(&self) -> String {
        let inner = self.inner.lock().expect("trace lock");
        let mut out = String::new();
        for e in &inner.events {
            let _ = writeln!(
                out,
                "[{:>6}] {:indent$}{}",
                e.tick,
                "",
                e.text,
                indent = e.depth as usize * 2
            );
        }
        out
    }

    /// Drops all events and spans, resetting the clock, depth and span ids.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("trace lock");
        *inner = Inner::default();
    }

    fn exit(&self, label: &str, id: u64) {
        let mut inner = self.inner.lock().expect("trace lock");
        inner.depth = inner.depth.saturating_sub(1);
        let end = inner.tick;
        inner.record(format!("< {label}"));
        // Search by id rather than popping blindly: a guard dropped out of
        // open order (or after a clear()) must not close someone else's span.
        if let Some(pos) = inner.open.iter().rposition(|&i| inner.spans[i].id == id) {
            let idx = inner.open.remove(pos);
            inner.spans[idx].end_tick = Some(end);
        }
    }
}

/// RAII guard for an open span; records the exit event on drop.
#[derive(Debug)]
pub struct Span<'a> {
    tracer: Option<&'a Tracer>,
    label: String,
    id: u64,
}

impl Span<'_> {
    /// The deterministic id of this span's [`SpanRecord`] (0 if recording
    /// was disabled when the span opened).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Closes the span now instead of at end of scope.
    pub fn close(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        if let Some(t) = self.tracer.take() {
            t.exit(&self.label, self.id);
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_advance_per_event_and_by_charge() {
        let t = Tracer::new();
        t.event("a");
        t.advance(10);
        t.event("b");
        let ev = t.events();
        assert_eq!(ev[0].tick, 0);
        assert_eq!(ev[1].tick, 11);
        assert_eq!(t.tick(), 12);
    }

    #[test]
    fn spans_nest_and_render_deterministically() {
        let build = || {
            let t = Tracer::new();
            {
                let _plan = t.span("plan");
                t.event("rewrite: 3 CTs");
                {
                    let _ipg = t.span("ipg");
                    t.event_with(|| format!("memo hits: {}", 2));
                }
            }
            t.render()
        };
        let one = build();
        assert_eq!(one, build(), "same steps render byte-identical");
        let lines: Vec<&str> = one.lines().collect();
        assert_eq!(lines.len(), 6);
        assert!(lines[0].ends_with("> plan"));
        assert!(lines[1].contains("  rewrite: 3 CTs"));
        assert!(lines[2].ends_with("> ipg"));
        assert!(lines[3].contains("memo hits: 2"));
        assert!(lines[4].ends_with("< ipg"));
        assert!(lines[5].ends_with("< plan"));
    }

    #[test]
    fn explicit_close_matches_drop() {
        let t = Tracer::new();
        let s = t.span("x");
        s.close();
        let ev = t.events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[1].text, "< x");
        assert_eq!(ev[1].depth, 0);
    }

    #[test]
    fn span_records_mirror_the_event_pairs() {
        let t = Tracer::new();
        {
            let plan = t.span("plan");
            assert_eq!(plan.id(), 0);
            t.event("rewrite");
            {
                let _ipg = t.span("ipg");
                t.event("memo");
            }
        }
        {
            let _exec = t.span("execute");
        }
        let spans = t.spans();
        crate::span::validate(&spans).expect("well-formed");
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].label.as_str(), spans[0].parent, spans[0].depth), ("plan", None, 0));
        assert_eq!((spans[1].label.as_str(), spans[1].parent, spans[1].depth), ("ipg", Some(0), 1));
        assert_eq!(spans[2].parent, None);
        // Ticks line up with the event log: "> plan" at 0, "< ipg" at 4.
        assert_eq!(spans[0].start_tick, 0);
        assert_eq!(spans[1].end_tick, Some(4));
    }

    #[test]
    fn span_mark_slices_per_query() {
        let t = Tracer::new();
        {
            let _a = t.span("first");
        }
        let mark = t.span_mark();
        {
            let _b = t.span("second");
        }
        let tail = t.spans_from(mark);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].label, "second");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::off();
        assert!(!t.is_enabled());
        {
            let s = t.span("plan");
            assert_eq!(s.id(), 0);
            t.event("ignored");
            t.event_with(|| panic!("lazy text must not be built while disabled"));
            t.advance(100);
        }
        assert_eq!(t.tick(), 0, "a disabled clock stands still");
        assert!(t.events().is_empty());
        assert_eq!(t.span_mark(), 0);
        assert!(t.spans().is_empty());
        assert!(t.spans_from(0).is_empty());
        assert_eq!(t.render(), "");
        t.set_enabled(true);
        t.event("back");
        assert_eq!(t.events().len(), 1);
    }

    #[test]
    fn out_of_order_guard_drop_closes_the_right_span() {
        let t = Tracer::new();
        let a = t.span("a");
        let b = t.span("b");
        drop(a); // dropped before its child's guard
        drop(b);
        let spans = t.spans();
        assert_eq!(spans[0].label, "a");
        assert_eq!(spans[0].end_tick, Some(2));
        assert_eq!(spans[1].label, "b");
        assert_eq!(spans[1].end_tick, Some(3));
    }
}
