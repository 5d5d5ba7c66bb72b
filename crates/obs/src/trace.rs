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
//!
//! Both lists are unbounded by default (the CLI and the goldens trace one
//! query). A long-running process sets a retained tail with
//! [`Tracer::with_tail`]; marks count absolute positions, so trimming the
//! head never shifts a slice taken from a mark.

use crate::span::SpanRecord;
use std::collections::VecDeque;
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

#[derive(Debug)]
struct Inner {
    tick: u64,
    depth: u16,
    events: VecDeque<TraceEvent>,
    spans: VecDeque<SpanRecord>,
    /// Spans trimmed off the head of `spans` so far: a span's absolute
    /// position (what [`Tracer::span_mark`] counts) minus this is its
    /// index.
    trimmed: usize,
    /// Absolute position and id of each currently open span, outermost
    /// first.
    open: Vec<(usize, u64)>,
    next_span_id: u64,
    /// Most events, and most spans, retained; the oldest go first.
    tail: usize,
}

impl Default for Inner {
    fn default() -> Self {
        Inner {
            tick: 0,
            depth: 0,
            events: VecDeque::new(),
            spans: VecDeque::new(),
            trimmed: 0,
            open: Vec::new(),
            next_span_id: 0,
            tail: usize::MAX,
        }
    }
}

impl Inner {
    fn record(&mut self, text: String) {
        if self.events.len() >= self.tail {
            self.events.pop_front();
        }
        self.events.push_back(TraceEvent { tick: self.tick, depth: self.depth, text });
        self.tick += 1;
    }

    /// The retained span at absolute position `pos`, unless trimmed.
    fn span_at(&mut self, pos: usize) -> Option<&mut SpanRecord> {
        let i = pos.checked_sub(self.trimmed)?;
        self.spans.get_mut(i)
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

    /// This tracer, retaining only the newest `tail` events and the newest
    /// `tail` spans (at least one of each): a long-running process holds a
    /// bounded trace. Marks stay absolute, so [`Tracer::spans_from`] still
    /// slices from where its mark was taken (minus anything trimmed since).
    pub fn with_tail(self, tail: usize) -> Self {
        self.inner.lock().expect("trace lock").tail = tail.max(1);
        self
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
            let parent = inner.open.last().map(|&(_, id)| id);
            if inner.spans.len() >= inner.tail {
                inner.spans.pop_front();
                inner.trimmed += 1;
            }
            let pos = inner.trimmed + inner.spans.len();
            inner.spans.push_back(SpanRecord {
                id,
                parent,
                label: label.to_string(),
                start_tick,
                end_tick: None,
                depth,
            });
            inner.open.push((pos, id));
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

    /// Clones out every retained event.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.lock().expect("trace lock").events.iter().cloned().collect()
    }

    /// A cursor into the span list — the absolute count of spans recorded
    /// so far: pass it to [`Tracer::spans_from`] later to clone out only
    /// the spans recorded in between (per-query slicing).
    pub fn span_mark(&self) -> usize {
        let inner = self.inner.lock().expect("trace lock");
        inner.trimmed + inner.spans.len()
    }

    /// Clones out every retained structured span.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner.lock().expect("trace lock").spans.iter().cloned().collect()
    }

    /// Clones out the retained spans recorded since `mark` (see
    /// [`Tracer::span_mark`]).
    pub fn spans_from(&self, mark: usize) -> Vec<SpanRecord> {
        let inner = self.inner.lock().expect("trace lock");
        let from = mark.saturating_sub(inner.trimmed);
        if from >= inner.spans.len() {
            return Vec::new();
        }
        inner.spans.range(from..).cloned().collect()
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

    /// Drops all events and spans, resetting the clock, depth and span ids
    /// (the retained tail stays).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("trace lock");
        *inner = Inner { tail: inner.tail, ..Inner::default() };
    }

    fn exit(&self, label: &str, id: u64) {
        let mut inner = self.inner.lock().expect("trace lock");
        inner.depth = inner.depth.saturating_sub(1);
        let end = inner.tick;
        inner.record(format!("< {label}"));
        // Search by id rather than popping blindly: a guard dropped out of
        // open order (or after a clear()) must not close someone else's span.
        if let Some(i) = inner.open.iter().rposition(|&(_, open)| open == id) {
            let (pos, _) = inner.open.remove(i);
            if let Some(span) = inner.span_at(pos) {
                span.end_tick = Some(end);
            }
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
    fn a_tail_bounds_the_trace_without_shifting_marks() {
        let t = Tracer::new().with_tail(3);
        let outer = t.span("outer");
        for i in 0..5 {
            let _s = t.span(&format!("s{i}"));
        }
        let mark = t.span_mark();
        assert_eq!(mark, 6, "marks count every span recorded");
        {
            let _late = t.span("late");
        }
        drop(outer); // trimmed while open: closing it must not panic
        let labels =
            |spans: Vec<SpanRecord>| spans.into_iter().map(|s| s.label).collect::<Vec<_>>();
        assert_eq!(labels(t.spans()), ["s3", "s4", "late"]);
        assert_eq!(labels(t.spans_from(mark)), ["late"]);
        assert_eq!(
            labels(t.spans_from(0)),
            ["s3", "s4", "late"],
            "a trimmed mark slices what is left"
        );
        assert!(t.spans_from(99).is_empty());
        assert_eq!(t.spans()[2].parent, Some(0), "parents survive their record's trimming");
        assert_eq!(t.events().len(), 3);
        assert_eq!(t.events()[2].text, "< outer");
        t.clear();
        for _ in 0..5 {
            t.event("again");
        }
        assert_eq!(t.events().len(), 3, "clear keeps the tail");
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
