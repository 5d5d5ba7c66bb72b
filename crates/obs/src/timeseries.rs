//! Windowed telemetry time-series: a fixed-capacity ring of per-window
//! [`MetricsSnapshot`] deltas.
//!
//! The registry's totals are cumulative — a `/metrics` scrape is a point
//! snapshot with no notion of "over the last minute". The registry also
//! keeps the open window: every write since the last
//! [`MetricsRegistry::cut_window`](crate::MetricsRegistry::cut_window),
//! under the lock the write takes anyway. A caller periodically cuts that
//! window and hands it to [`TimeSeries::roll`], which stores it with a
//! [`WindowStamp`]. A roll therefore costs O(series touched since the last
//! cut), never O(registry), and the ring holds no copy of the registry.
//!
//! Window semantics:
//!
//! * counters and histogram count/sum/buckets are exactly the registry's
//!   growth over the window — what diffing two snapshots taken at the
//!   boundaries would give;
//! * gauges are the ones written during the window, at their last written
//!   value; a gauge nobody wrote is absent from it;
//! * histogram min/max are the window's own observations'.
//!
//! Windows enter the ring in the order they were cut as long as the caller
//! cuts and rolls under one lock (serve's `maybe_roll` cuts while it holds
//! the ring's).
//!
//! Window boundaries follow the same quarantine discipline as
//! [`crate::LatencyKey`]: the stamp always carries the deterministic
//! virtual tick, and wall-clock microseconds only when a wall clock was
//! actually consulted (serve mode) — so golden tests roll on ticks alone and
//! stay byte-identical across CI legs.
//!
//! Windowed p50/p99 come from the log2 histograms already being recorded:
//! folding `n` windows is a [`HistogramSnapshot::merge`] and a nearest-rank
//! walk ([`quantile`]) — no new sample storage anywhere.
//!
//! Everything here is plain data (like [`crate::profile`]): fed by an off
//! registry the deltas are simply empty and the JSON schema does not change
//! shape. The ring is allocated up front and pops before pushing once full,
//! so steady-state rolling performs no ring reallocation — the property
//! the zero-allocation guard (`tests/noop_overhead.rs`) pins.

use crate::metrics::{render_json_string, HistogramSnapshot, MetricsSnapshot};
use std::collections::VecDeque;
use std::fmt::Write as _;

/// When one window closed: its sequence number and the clock readings at
/// the boundary. `wall_us` is `None` outside serve mode (quarantined from
/// goldens, exactly like [`crate::LatencyKey::wall_us`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowStamp {
    /// Monotonic window sequence number (0-based, never reused).
    pub index: u64,
    /// Virtual tick at the window boundary (deterministic).
    pub ticks: u64,
    /// Wall-clock microseconds since serve start, when a wall clock was
    /// consulted. Always `None` in library/golden contexts.
    pub wall_us: Option<u64>,
}

/// One closed window: its boundary stamp and the registry delta accumulated
/// since the previous boundary.
#[derive(Debug, Clone)]
pub struct Window {
    /// Boundary stamp of this window.
    pub stamp: WindowStamp,
    /// The registry's writes over the window (see the module docs for
    /// what a window holds).
    pub delta: MetricsSnapshot,
}

/// The fixed-capacity ring of closed windows.
#[derive(Debug)]
pub struct TimeSeries {
    cap: usize,
    windows: VecDeque<Window>,
    next_index: u64,
    /// Windows evicted from the front since creation.
    dropped: u64,
}

impl TimeSeries {
    /// An empty ring retaining at most `cap` windows (`cap` is clamped to
    /// at least 1 so a roll is never a silent no-op).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        TimeSeries { cap, windows: VecDeque::with_capacity(cap), next_index: 0, dropped: 0 }
    }

    /// Closes a window: stores `delta` (a cut of the registry's open
    /// window) stamped with the given clocks. Evicts the oldest window
    /// first when full, so the ring never grows past `cap`.
    pub fn roll(&mut self, delta: MetricsSnapshot, ticks: u64, wall_us: Option<u64>) {
        if self.windows.len() == self.cap {
            self.windows.pop_front();
            self.dropped += 1;
        }
        let stamp = WindowStamp { index: self.next_index, ticks, wall_us };
        self.next_index += 1;
        self.windows.push_back(Window { stamp, delta });
    }

    /// The retained windows, oldest first.
    pub fn windows(&self) -> impl Iterator<Item = &Window> {
        self.windows.iter()
    }

    /// Number of windows currently retained.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Whether no window has been closed yet (or all were evicted).
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Windows evicted from the front so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total windows ever closed (= the next stamp's `index`).
    pub fn closed(&self) -> u64 {
        self.next_index
    }

    /// Folds the newest `n` windows into one delta (counter/histogram sums).
    /// Gauges in the result are **meaningless** (merge sums them) — read
    /// gauge state from the registry instead.
    pub fn folded(&self, n: usize) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        let skip = self.windows.len().saturating_sub(n);
        for w in self.windows.iter().skip(skip) {
            out.merge(&w.delta);
        }
        out
    }

    /// Total counter delta of `name` over the newest `n` windows.
    pub fn counter_over(&self, name: &str, n: usize) -> u64 {
        let skip = self.windows.len().saturating_sub(n);
        self.windows.iter().skip(skip).map(|w| w.delta.counter(name)).sum()
    }

    /// Counter rate of `name` over the newest `n` windows, per window.
    pub fn counter_rate(&self, name: &str, n: usize) -> f64 {
        let k = n.min(self.windows.len());
        if k == 0 {
            return 0.0;
        }
        self.counter_over(name, n) as f64 / k as f64
    }

    /// The histogram `name` merged across the newest `n` windows.
    pub fn merged_histogram(&self, name: &str, n: usize) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::default();
        let skip = self.windows.len().saturating_sub(n);
        for w in self.windows.iter().skip(skip) {
            if let Some(h) = w.delta.histograms.get(name) {
                out.merge(h);
            }
        }
        out
    }

    /// Renders the newest `n` windows of metric `metric` as one
    /// schema-stable JSON document (the `/timeseries` endpoint). The kind is
    /// detected per window in histogram → counter → gauge order; windows
    /// where the metric is absent report `"value": null` (counters report 0
    /// only if the metric family was seen). Key order is pinned; `wall_us`
    /// renders as `null` when quarantined.
    pub fn render_json(&self, metric: &str, n: usize) -> String {
        let mut out = String::from("{\n  \"metric\": ");
        render_json_string(&mut out, metric);
        let _ = write!(
            out,
            ",\n  \"retained\": {},\n  \"dropped\": {},\n  \"windows\": [",
            self.windows.len(),
            self.dropped
        );
        let skip = self.windows.len().saturating_sub(n);
        for (i, w) in self.windows.iter().skip(skip).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ =
                write!(out, "\n    {{\"index\": {}, \"ticks\": {}, ", w.stamp.index, w.stamp.ticks);
            out.push_str("\"wall_us\": ");
            match w.stamp.wall_us {
                Some(us) => {
                    let _ = write!(out, "{us}");
                }
                None => out.push_str("null"),
            }
            out.push_str(", ");
            if let Some(h) = w.delta.histograms.get(metric) {
                let _ = write!(
                    out,
                    "\"count\": {}, \"sum\": {}, \"p50\": {}, \"p99\": {}}}",
                    h.count,
                    h.sum,
                    quantile(h, 0.50),
                    quantile(h, 0.99)
                );
            } else if let Some(&c) = w.delta.counters.get(metric) {
                let _ = write!(out, "\"value\": {c}}}");
            } else if let Some(&g) = w.delta.gauges.get(metric) {
                out.push_str("\"value\": ");
                crate::metrics::render_f64(&mut out, g);
                out.push('}');
            } else {
                out.push_str("\"value\": null}");
            }
        }
        if self.windows.len() > skip {
            out.push_str("\n  ");
        }
        out.push_str("]\n}");
        out
    }
}

/// Nearest-rank quantile over a log2 histogram snapshot: walks the sorted
/// buckets to the one containing rank `⌈q·count⌉` and reports its inclusive
/// upper bound (the same bound the Prometheus `le` label exposes). Zero for
/// an empty histogram. The result is an upper bound on the true quantile
/// with log2 resolution — good enough for dashboards, free to compute.
pub fn quantile(h: &HistogramSnapshot, q: f64) -> u64 {
    if h.count == 0 {
        return 0;
    }
    let rank = ((q * h.count as f64).ceil() as u64).clamp(1, h.count);
    let mut seen = 0u64;
    for &(_, hi, n) in &h.buckets {
        seen += n;
        if seen >= rank {
            return hi.min(h.max);
        }
    }
    h.max
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    #[test]
    fn rolling_stores_deltas_not_cumulatives() {
        let reg = MetricsRegistry::new();
        let mut ts = TimeSeries::new(4);
        reg.add("c", 3);
        ts.roll(reg.cut_window(), 10, None);
        reg.add("c", 2);
        ts.roll(reg.cut_window(), 20, None);
        let w: Vec<&Window> = ts.windows().collect();
        assert_eq!(w[0].delta.counter("c"), 3);
        assert_eq!(w[1].delta.counter("c"), 2);
        assert_eq!(w[0].stamp, WindowStamp { index: 0, ticks: 10, wall_us: None });
        assert_eq!(ts.counter_over("c", 2), 5);
        assert_eq!(ts.counter_rate("c", 2), 2.5);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let reg = MetricsRegistry::new();
        let mut ts = TimeSeries::new(2);
        for i in 0..5u64 {
            reg.inc("c");
            ts.roll(reg.cut_window(), i, None);
        }
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.dropped(), 3);
        assert_eq!(ts.closed(), 5);
        let first = ts.windows().next().unwrap();
        assert_eq!(first.stamp.index, 3, "oldest retained window is #3");
    }

    #[test]
    fn the_open_window_is_what_the_next_roll_stores() {
        let reg = MetricsRegistry::new();
        let mut ts = TimeSeries::new(4);
        reg.add("c", 1);
        ts.roll(reg.cut_window(), 1, None);
        reg.add("c", 7);
        let open = reg.peek_window();
        assert_eq!(open.counter("c"), 7);
        ts.roll(reg.cut_window(), 2, None);
        assert_eq!(ts.windows().last().map(|w| &w.delta), Some(&open));
    }

    #[test]
    fn windows_carry_only_the_gauges_written_in_them() {
        let reg = MetricsRegistry::new();
        let mut ts = TimeSeries::new(4);
        reg.gauge_set("g", 1.0);
        reg.gauge_set("g", 2.0);
        ts.roll(reg.cut_window(), 1, None);
        reg.inc("c");
        ts.roll(reg.cut_window(), 2, None);
        let w: Vec<&Window> = ts.windows().collect();
        assert_eq!(w[0].delta.gauges.get("g"), Some(&2.0), "last written value");
        assert!(w[1].delta.gauges.is_empty(), "an unwritten gauge is absent");
    }

    #[test]
    fn folded_merges_counters_and_histograms() {
        let reg = MetricsRegistry::new();
        let mut ts = TimeSeries::new(8);
        for v in [3u64, 900] {
            reg.observe("lat", v);
            reg.inc("q");
            ts.roll(reg.cut_window(), v, None);
        }
        let folded = ts.folded(2);
        assert_eq!(folded.counter("q"), 2);
        let h = ts.merged_histogram("lat", 2);
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 903);
        // Only the newest window.
        assert_eq!(ts.merged_histogram("lat", 1).count, 1);
    }

    #[test]
    fn quantile_is_nearest_rank_on_log2_buckets() {
        let reg = MetricsRegistry::new();
        for v in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 900] {
            reg.observe("h", v);
        }
        let h = &reg.cut_window().histograms["h"];
        assert_eq!(quantile(h, 0.50), 1);
        assert_eq!(quantile(h, 0.99), 900, "p99 capped at observed max");
        assert_eq!(quantile(&HistogramSnapshot::default(), 0.99), 0);
    }

    #[test]
    fn render_json_is_schema_stable_and_kind_aware() {
        let reg = MetricsRegistry::new();
        let mut ts = TimeSeries::new(4);
        reg.observe("lat", 3);
        reg.inc("q");
        reg.gauge_set("g", 1.5);
        ts.roll(reg.cut_window(), 5, None);
        let hist = ts.render_json("lat", 8);
        assert!(hist.contains("\"metric\": \"lat\""));
        assert!(hist.contains("\"p50\": 3"));
        assert!(hist.contains("\"wall_us\": null"));
        let ctr = ts.render_json("q", 8);
        assert!(ctr.contains("\"value\": 1"));
        let gauge = ts.render_json("g", 8);
        assert!(gauge.contains("\"value\": 1.5"));
        let missing = ts.render_json("nope", 8);
        assert!(missing.contains("\"value\": null"));
        assert_eq!(hist, ts.render_json("lat", 8), "rendering is deterministic");
    }

    #[test]
    fn steady_state_roll_does_not_grow_the_ring() {
        let mut ts = TimeSeries::new(3);
        let spare = ts.windows.capacity();
        for i in 0..100u64 {
            ts.roll(MetricsSnapshot::default(), i, None);
        }
        assert_eq!(ts.windows.capacity(), spare, "pop-before-push keeps capacity fixed");
    }
}
