//! The metrics registry: counters, gauges, and power-of-two histograms.
//!
//! Everything is keyed by a flat dotted name (see [`crate::names`]) and
//! stored in `BTreeMap`s so snapshots and their JSON rendering are sorted —
//! i.e. schema-stable and independent of the order components happened to
//! record in.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of histogram buckets: bucket 0 holds exact zeros, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// The bucket index a value lands in (`0` for `0`, else `1 + ⌊log2 v⌋`).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive `[lo, hi]` value range of bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    if i == 0 {
        (0, 0)
    } else if i >= 64 {
        (1u64 << 63, u64::MAX)
    } else {
        (1u64 << (i - 1), (1u64 << i) - 1)
    }
}

/// A recording histogram (log2 buckets plus count/sum/min/max).
#[derive(Debug, Clone)]
struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; HISTOGRAM_BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl Histogram {
    fn observe(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, n)| **n > 0)
                .map(|(i, n)| {
                    let (lo, hi) = bucket_bounds(i);
                    (lo, hi, *n)
                })
                .collect(),
            exemplars: Vec::new(),
        }
    }
}

/// A point-in-time view of one histogram: only non-empty buckets, as
/// `(lo, hi, n)` inclusive ranges sorted ascending.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of observed values (saturating).
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// Non-empty buckets as `(lo, hi, n)`.
    pub buckets: Vec<(u64, u64, u64)>,
    /// Exemplars as `(bucket_hi, query_id, value)` sorted by `bucket_hi`:
    /// the most recent query id observed into that bucket via
    /// [`MetricsRegistry::observe_exemplar`]. Empty for plain `observe`
    /// traffic; deliberately *not* part of `to_json`, so the JSON schema
    /// (and its goldens) are unchanged — only the Prometheus exposition
    /// renders them, behind a flag (see [`crate::prom::render_opts`]).
    pub exemplars: Vec<(u64, u64, u64)>,
}

impl HistogramSnapshot {
    /// Merges another snapshot into this one (bucket-wise sum).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        let mut merged: BTreeMap<(u64, u64), u64> =
            self.buckets.iter().map(|&(lo, hi, n)| ((lo, hi), n)).collect();
        for &(lo, hi, n) in &other.buckets {
            *merged.entry((lo, hi)).or_insert(0) += n;
        }
        self.buckets = merged.into_iter().map(|((lo, hi), n)| (lo, hi, n)).collect();
        if !other.exemplars.is_empty() {
            // Union per bucket; the incoming (more recent) exemplar wins.
            let mut ex: BTreeMap<u64, (u64, u64)> =
                self.exemplars.iter().map(|&(hi, q, v)| (hi, (q, v))).collect();
            for &(hi, q, v) in &other.exemplars {
                ex.insert(hi, (q, v));
            }
            self.exemplars = ex.into_iter().map(|(hi, (q, v))| (hi, q, v)).collect();
        }
    }
}

#[derive(Debug, Default, Clone)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    /// Per-histogram exemplars: bucket hi bound → latest `(query_id, value)`
    /// observed into that bucket through `observe_exemplar`.
    exemplars: BTreeMap<String, BTreeMap<u64, (u64, u64)>>,
}

impl Inner {
    fn add(&mut self, name: &str, delta: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c += delta,
            None => {
                self.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Sets gauge `name` to `v`.
    fn gauge_set(&mut self, name: &str, v: f64) {
        match self.gauges.get_mut(name) {
            Some(g) => *g = v,
            None => {
                self.gauges.insert(name.to_string(), v);
            }
        }
    }

    /// Adds `v` to gauge `name` (creating it at zero); returns its new value.
    fn gauge_add(&mut self, name: &str, v: f64) -> f64 {
        match self.gauges.get_mut(name) {
            Some(g) => {
                *g += v;
                *g
            }
            None => {
                // Not `v`: a fresh gauge starts at +0.0, so -0.0 + 0.0 = 0.0.
                let g = 0.0 + v;
                self.gauges.insert(name.to_string(), g);
                g
            }
        }
    }

    fn observe(&mut self, name: &str, v: u64) {
        match self.histograms.get_mut(name) {
            Some(h) => h.observe(v),
            None => {
                let mut h = Histogram::default();
                h.observe(v);
                self.histograms.insert(name.to_string(), h);
            }
        }
    }

    /// Remembers `query_id` as the exemplar of the bucket `v` lands in.
    fn exemplar(&mut self, name: &str, v: u64, query_id: u64) {
        let (_, hi) = bucket_bounds(bucket_index(v));
        match self.exemplars.get_mut(name) {
            Some(ex) => {
                ex.insert(hi, (query_id, v));
            }
            None => {
                self.exemplars.insert(name.to_string(), BTreeMap::from([(hi, (query_id, v))]));
            }
        }
    }

    /// The window's writes as a snapshot: counters that moved, the gauges
    /// written, and every histogram observed into.
    fn into_delta(mut self) -> MetricsSnapshot {
        self.counters.retain(|_, v| *v > 0);
        MetricsSnapshot {
            counters: self.counters,
            gauges: self.gauges,
            histograms: self.histograms.into_iter().map(|(k, h)| (k, h.snapshot())).collect(),
        }
    }
}

/// What the registry's lock guards: the running totals, and the open
/// telemetry window — every write since the last
/// [`MetricsRegistry::cut_window`], kept in the same accumulator a
/// [`MetricsWindow`] uses.
#[derive(Debug, Default)]
struct Maps {
    totals: Inner,
    window: Inner,
}

/// One capture window open on the calling thread: the registry it mirrors
/// (by address — the [`MetricsWindow`] borrows it, so the address cannot be
/// reused while the window is open), its serial, and the writes so far.
#[derive(Debug)]
struct OpenWindow {
    registry: usize,
    serial: u64,
    delta: Inner,
}

thread_local! {
    /// The capture windows open on this thread, oldest first.
    static WINDOWS: RefCell<Vec<OpenWindow>> = const { RefCell::new(Vec::new()) };
}

/// Serials of capture windows, process-wide, so a window closes its own
/// entry whatever else is open on the thread.
static NEXT_WINDOW: AtomicU64 = AtomicU64::new(1);

/// The metrics registry. Interior-mutable and `Send + Sync` (a single
/// `Mutex` guards the totals and the open telemetry window — hot loops
/// keep local counters and flush once, see DESIGN.md §5c).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Maps>,
    /// Set once at construction ([`MetricsRegistry::off`]).
    off: bool,
}

impl MetricsRegistry {
    /// A fresh, empty, recording registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// A registry that records nothing: no lock, no allocation, empty
    /// snapshots.
    pub fn off() -> Self {
        MetricsRegistry { off: true, ..Default::default() }
    }

    /// Whether this registry records (false for [`MetricsRegistry::off`]).
    /// Call sites gate name formatting on this.
    pub const fn enabled(&self) -> bool {
        !self.off
    }

    /// The maps behind their lock, or `None` for an off registry — the one
    /// flag check every recording call and `snapshot` make, before the lock.
    fn recording(&self) -> Option<std::sync::MutexGuard<'_, Maps>> {
        (!self.off).then(|| self.inner.lock().expect("metrics lock"))
    }

    /// Records one write: `total` updates the running totals, and `delta`,
    /// given what `total` returned, records the same write into the open
    /// telemetry window and into every capture window the calling thread
    /// has open on this registry (usually none: one empty-vector check).
    fn record<T: Copy>(&self, total: impl FnOnce(&mut Inner) -> T, delta: impl Fn(&mut Inner, T)) {
        let Some(mut maps) = self.recording() else { return };
        let t = total(&mut maps.totals);
        delta(&mut maps.window, t);
        drop(maps);
        let registry = self as *const Self as usize;
        let _ = WINDOWS.try_with(|open| {
            for window in open.borrow_mut().iter_mut().filter(|w| w.registry == registry) {
                delta(&mut window.delta, t);
            }
        });
    }

    /// Opens a capture window on the calling thread: until it is closed
    /// (or dropped), every `add`, `gauge_set`, `gauge_add`, `observe` and
    /// `observe_exemplar` this thread makes on this registry is mirrored
    /// into it, and [`MetricsWindow::close`] returns exactly those writes.
    /// Writes from other threads never enter it, so the window is exact
    /// however many threads share the registry. Costs nothing on an off
    /// registry.
    pub fn open_window(&self) -> MetricsWindow<'_> {
        let serial = (!self.off).then(|| NEXT_WINDOW.fetch_add(1, Ordering::Relaxed));
        if let Some(serial) = serial {
            let registry = self as *const Self as usize;
            let _ = WINDOWS.try_with(|open| {
                open.borrow_mut().push(OpenWindow { registry, serial, delta: Inner::default() })
            });
        }
        MetricsWindow { serial, _thread: PhantomData }
    }

    /// Adds `delta` to counter `name` (creating it at zero).
    pub fn add(&self, name: &str, delta: u64) {
        self.record(|m| m.add(name, delta), |w, ()| w.add(name, delta));
    }

    /// Increments counter `name` by one.
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Sets gauge `name` to `v`.
    pub fn gauge_set(&self, name: &str, v: f64) {
        self.record(|m| m.gauge_set(name, v), |w, ()| w.gauge_set(name, v));
    }

    /// Adds `v` to gauge `name` (creating it at zero). Windows record the
    /// state this write left, like `gauge_set`.
    pub fn gauge_add(&self, name: &str, v: f64) {
        self.record(|m| m.gauge_add(name, v), |w, now| w.gauge_set(name, now));
    }

    /// Records `v` into histogram `name`.
    pub fn observe(&self, name: &str, v: u64) {
        self.record(|m| m.observe(name, v), |w, ()| w.observe(name, v));
    }

    /// Records `v` into histogram `name` and remembers `query_id` as the
    /// exemplar for the bucket `v` lands in (latest observation wins). Used
    /// by serve mode so a tail-latency bucket names a query that landed
    /// there — the id joins against `/profile/<id>` and the flight recorder.
    pub fn observe_exemplar(&self, name: &str, v: u64, query_id: u64) {
        let total = |m: &mut Inner| {
            m.observe(name, v);
            m.exemplar(name, v, query_id);
        };
        self.record(total, |w, ()| w.observe(name, v));
    }

    /// A sorted point-in-time snapshot of everything recorded so far:
    /// O(registry). `/metrics` is its serve-mode reader; telemetry windows
    /// use [`MetricsRegistry::cut_window`] instead.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(maps) = self.recording() else { return MetricsSnapshot::default() };
        let inner = &maps.totals;
        MetricsSnapshot {
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| {
                    let mut snap = h.snapshot();
                    if let Some(ex) = inner.exemplars.get(k) {
                        snap.exemplars = ex.iter().map(|(&hi, &(q, v))| (hi, q, v)).collect();
                    }
                    (k.clone(), snap)
                })
                .collect(),
        }
    }

    /// Closes the open telemetry window and starts the next: returns every
    /// write since the previous cut (from any thread), O(series touched).
    /// Counters and histogram count/sum/buckets equal what diffing two
    /// snapshots taken at the cuts would give; gauges are the ones written
    /// during the window, at their last written value; histogram min/max
    /// are the window's own; no exemplars. Empty for an off registry.
    pub fn cut_window(&self) -> MetricsSnapshot {
        let Some(mut maps) = self.recording() else { return MetricsSnapshot::default() };
        let window = std::mem::take(&mut maps.window);
        drop(maps);
        window.into_delta()
    }

    /// The open telemetry window as [`MetricsRegistry::cut_window`] would
    /// return it, without cutting it.
    pub fn peek_window(&self) -> MetricsSnapshot {
        let Some(maps) = self.recording() else { return MetricsSnapshot::default() };
        let window = maps.window.clone();
        drop(maps);
        window.into_delta()
    }

    /// Drops every recorded value.
    pub fn clear(&self) {
        let mut maps = self.inner.lock().expect("metrics lock");
        *maps = Maps::default();
    }
}

/// A capture window on a [`MetricsRegistry`], open on the thread that
/// opened it (the handle is not `Send`): see
/// [`MetricsRegistry::open_window`]. Dropping it without
/// [`MetricsWindow::close`] discards what it saw, so an early return
/// leaves nothing behind for the thread's next window.
#[derive(Debug)]
pub struct MetricsWindow<'a> {
    /// `None` for an off registry's window, and once closed.
    serial: Option<u64>,
    _thread: PhantomData<(&'a MetricsRegistry, *const ())>,
}

impl MetricsWindow<'_> {
    /// Closes the window and returns the writes it saw: counters as the
    /// sum of this thread's adds (zero sums dropped), each gauge at the
    /// state this thread's last write left, and histograms over this
    /// thread's observations alone (count, sum, buckets and min/max; no
    /// exemplars). O(series touched), independent of the registry's size.
    pub fn close(mut self) -> MetricsSnapshot {
        self.take().map_or_else(MetricsSnapshot::default, Inner::into_delta)
    }

    /// Unregisters the window from its thread, handing back its writes.
    fn take(&mut self) -> Option<Inner> {
        let serial = self.serial.take()?;
        WINDOWS
            .try_with(|open| {
                let mut open = open.borrow_mut();
                let pos = open.iter().position(|w| w.serial == serial)?;
                Some(open.remove(pos).delta)
            })
            .ok()
            .flatten()
    }
}

impl Drop for MetricsWindow<'_> {
    fn drop(&mut self) {
        self.take();
    }
}

/// A sorted, schema-stable view of a registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Last-set / accumulated gauges.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms (non-empty buckets only).
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter value, zero when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, zero when absent.
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }

    /// Merges another snapshot into this one: counters and gauges sum,
    /// histograms merge bucket-wise. Used to aggregate per-run registries
    /// (e.g. the `--chaos` storm loop).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            *self.gauges.entry(k.clone()).or_insert(0.0) += v;
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// The delta from `before` (an earlier snapshot of the same registry)
    /// to `self`: counters subtract (entries whose delta is zero are
    /// dropped), gauges keep their current values (they are states, not
    /// accumulations), histograms subtract count/sum/per-bucket tallies
    /// (empty deltas dropped; min/max are kept from `self` since deltas for
    /// extremes are not recoverable). O(registry) on both sides: a
    /// [`crate::TimeSeries`] window comes from
    /// [`MetricsRegistry::cut_window`], and one query's own writes from a
    /// [`MetricsWindow`], instead.
    pub fn diff(&self, before: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = MetricsSnapshot { gauges: self.gauges.clone(), ..Default::default() };
        for (k, &v) in &self.counters {
            let d = v.saturating_sub(before.counter(k));
            if d > 0 {
                out.counters.insert(k.clone(), d);
            }
        }
        for (k, h) in &self.histograms {
            let prev = before.histograms.get(k);
            let d_count = h.count.saturating_sub(prev.map_or(0, |p| p.count));
            if d_count == 0 {
                continue;
            }
            let prev_buckets: BTreeMap<(u64, u64), u64> = prev
                .map(|p| p.buckets.iter().map(|&(lo, hi, n)| ((lo, hi), n)).collect())
                .unwrap_or_default();
            out.histograms.insert(
                k.clone(),
                HistogramSnapshot {
                    count: d_count,
                    sum: h.sum.saturating_sub(prev.map_or(0, |p| p.sum)),
                    min: h.min,
                    max: h.max,
                    buckets: h
                        .buckets
                        .iter()
                        .filter_map(|&(lo, hi, n)| {
                            let d =
                                n.saturating_sub(prev_buckets.get(&(lo, hi)).copied().unwrap_or(0));
                            (d > 0).then_some((lo, hi, d))
                        })
                        .collect(),
                    exemplars: Vec::new(),
                },
            );
        }
        out
    }

    /// Renders the snapshot in Prometheus text exposition format (the
    /// `/metrics` endpoint of `csqp serve` and `--metrics prom`). See
    /// [`crate::prom`] for the name-mapping conventions.
    pub fn to_prometheus(&self) -> String {
        crate::prom::render(self)
    }

    /// Renders the snapshot as JSON with sorted keys. Floats use Rust's
    /// shortest-roundtrip formatting, so equal inputs render identically on
    /// every platform.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        render_map(&mut out, &self.counters, |out, v| {
            let _ = write!(out, "{v}");
        });
        out.push_str("},\n  \"gauges\": {");
        render_map(&mut out, &self.gauges, |out, v| render_f64(out, *v));
        out.push_str("},\n  \"histograms\": {");
        render_map(&mut out, &self.histograms, |out, h| {
            let _ = write!(
                out,
                "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [",
                h.count, h.sum, h.min, h.max
            );
            for (i, (lo, hi, n)) in h.buckets.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "[{lo}, {hi}, {n}]");
            }
            out.push_str("]}");
        });
        out.push_str("}\n}");
        out
    }
}

fn render_map<V>(
    out: &mut String,
    map: &BTreeMap<String, V>,
    mut render: impl FnMut(&mut String, &V),
) {
    let mut first = true;
    for (k, v) in map {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n    ");
        render_json_string(out, k);
        out.push_str(": ");
        render(out, v);
    }
    if !map.is_empty() {
        out.push_str("\n  ");
    }
}

pub(crate) fn render_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{:?}` is shortest-roundtrip and always keeps a decimal point.
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

pub(crate) fn render_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(bucket_index(lo), i, "lo bound of bucket {i}");
            assert_eq!(bucket_index(hi), i, "hi bound of bucket {i}");
        }
    }

    #[test]
    fn off_registry_records_nothing() {
        let reg = MetricsRegistry::off();
        reg.inc("a");
        reg.add("a", 4);
        reg.gauge_set("g", 1.0);
        reg.gauge_add("g", 1.0);
        reg.observe("h", 9);
        reg.observe_exemplar("h", 9, 7);
        assert!(!reg.enabled());
        assert_eq!(reg.snapshot(), MetricsSnapshot::default());
        assert!(MetricsRegistry::new().enabled());
    }

    #[test]
    fn histogram_observes_into_bounds() {
        let reg = MetricsRegistry::new();
        for v in [0, 1, 1, 3, 900] {
            reg.observe("h", v);
        }
        let h = &reg.snapshot().histograms["h"];
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 905);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 900);
        assert_eq!(h.buckets, vec![(0, 0, 1), (1, 1, 2), (2, 3, 1), (512, 1023, 1)]);
    }

    #[test]
    fn counters_and_gauges() {
        let reg = MetricsRegistry::new();
        reg.inc("a");
        reg.add("a", 4);
        reg.gauge_set("g", 2.5);
        reg.gauge_add("g", 1.0);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a"), 5);
        assert_eq!(snap.counter("missing"), 0);
        assert_eq!(snap.gauge("g"), 3.5);
    }

    #[test]
    fn snapshot_merge_sums() {
        let a = MetricsRegistry::new();
        a.add("c", 2);
        a.gauge_add("g", 1.5);
        a.observe("h", 3);
        let b = MetricsRegistry::new();
        b.add("c", 5);
        b.add("only_b", 1);
        b.gauge_add("g", 0.5);
        b.observe("h", 900);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.counter("c"), 7);
        assert_eq!(merged.counter("only_b"), 1);
        assert_eq!(merged.gauge("g"), 2.0);
        let h = &merged.histograms["h"];
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 903);
        assert_eq!(h.min, 3);
        assert_eq!(h.max, 900);
        assert_eq!(h.buckets, vec![(2, 3, 1), (512, 1023, 1)]);
        // Merging into an empty snapshot copies.
        let mut empty = MetricsSnapshot::default();
        empty.merge(&b.snapshot());
        assert_eq!(empty.counter("c"), 5);
    }

    #[test]
    fn diff_attributes_one_querys_activity() {
        let reg = MetricsRegistry::new();
        reg.add("planner.checks", 3);
        reg.observe("exec.rows", 10);
        let before = reg.snapshot();
        reg.add("planner.checks", 2);
        reg.add("exec.queries", 1);
        reg.gauge_set("breaker.state.a", 1.0);
        reg.observe("exec.rows", 3);
        let delta = reg.snapshot().diff(&before);
        assert_eq!(delta.counter("planner.checks"), 2);
        assert_eq!(delta.counter("exec.queries"), 1);
        assert!(!delta.counters.contains_key("missing"));
        assert_eq!(delta.gauge("breaker.state.a"), 1.0);
        let h = &delta.histograms["exec.rows"];
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 3);
        assert_eq!(h.buckets, vec![(2, 3, 1)]);
        // Untouched histograms drop out entirely.
        let noop = reg.snapshot().diff(&reg.snapshot());
        assert!(noop.counters.is_empty());
        assert!(noop.histograms.is_empty());
    }

    #[test]
    fn windows_hold_this_threads_writes_on_this_registry() {
        let reg = MetricsRegistry::new();
        let other = MetricsRegistry::new();
        reg.add("before", 1);
        reg.gauge_set("untouched", 9.0);
        reg.observe("h", 900);
        let before = reg.snapshot();
        let outer = reg.open_window();
        reg.add("c", 2);
        reg.add("zero", 0);
        other.add("c", 50);
        let inner = reg.open_window();
        reg.gauge_add("g", 1.5);
        reg.gauge_add("g", 1.0);
        reg.observe_exemplar("h", 3, 7);
        let inner = inner.close();
        assert!(inner.counters.is_empty());
        assert_eq!(inner.gauges, BTreeMap::from([("g".to_string(), 2.5)]));
        assert_eq!(inner.histograms["h"].count, 1);
        let after = reg.snapshot().diff(&before);
        let outer = outer.close();
        // Counters and histogram tallies agree with the whole-registry diff.
        assert_eq!(outer.counters, after.counters);
        assert_eq!(outer.counters, BTreeMap::from([("c".to_string(), 2)]));
        let (h, d) = (&outer.histograms["h"], &after.histograms["h"]);
        assert_eq!((h.count, h.sum, &h.buckets), (d.count, d.sum, &d.buckets));
        // Gauges are the ones written; min/max span this window's
        // observations only; exemplars stay with the registry.
        assert_eq!(outer.gauges.keys().collect::<Vec<_>>(), ["g"]);
        assert_eq!((h.min, h.max), (3, 3));
        assert!(h.exemplars.is_empty());
        // Closed windows unregister, and an off registry opens none.
        assert!(WINDOWS.with_borrow(Vec::is_empty));
        let off = MetricsRegistry::off();
        let window = off.open_window();
        assert!(WINDOWS.with_borrow(Vec::is_empty));
        off.inc("a");
        assert_eq!(window.close(), MetricsSnapshot::default());
    }

    #[test]
    fn cut_windows_partition_the_registrys_writes() {
        let reg = MetricsRegistry::new();
        reg.add("c", 3);
        reg.gauge_set("untouched", 9.0);
        reg.observe_exemplar("h", 900, 1);
        let first = reg.cut_window();
        assert_eq!(first.counter("c"), 3);
        assert_eq!(first.histograms["h"].count, 1);
        assert!(first.histograms["h"].exemplars.is_empty());
        let before = reg.snapshot();
        reg.add("c", 2);
        reg.add("zero", 0);
        reg.gauge_add("g", 1.5);
        reg.observe("h", 3);
        // Peeking leaves the window open.
        assert_eq!(reg.peek_window(), reg.peek_window());
        let second = reg.cut_window();
        let diff = reg.snapshot().diff(&before);
        assert_eq!(second.counters, diff.counters);
        let (w, d) = (&second.histograms["h"], &diff.histograms["h"]);
        assert_eq!((w.count, w.sum, &w.buckets), (d.count, d.sum, &d.buckets));
        // Only the gauges written in the window, and the window's own
        // extremes.
        assert_eq!(second.gauges, BTreeMap::from([("g".to_string(), 1.5)]));
        assert_eq!((w.min, w.max), (3, 3));
        assert_eq!(reg.peek_window(), MetricsSnapshot::default());
        // `clear` empties the window too; an off registry has none.
        reg.inc("c");
        reg.clear();
        assert_eq!(reg.cut_window(), MetricsSnapshot::default());
        let off = MetricsRegistry::off();
        off.inc("c");
        assert_eq!(off.cut_window(), MetricsSnapshot::default());
        assert_eq!(off.peek_window(), MetricsSnapshot::default());
    }

    #[test]
    fn exemplars_tag_buckets_with_query_ids() {
        let reg = MetricsRegistry::new();
        reg.observe_exemplar("lat", 3, 7);
        reg.observe_exemplar("lat", 2, 8); // same bucket [2,3] — latest wins
        reg.observe_exemplar("lat", 900, 9);
        reg.observe("lat", 1); // plain observation leaves no exemplar
        let h = &reg.snapshot().histograms["lat"];
        assert_eq!(h.count, 4);
        assert_eq!(h.exemplars, vec![(3, 8, 2), (1023, 9, 900)]);
        // Exemplars stay out of the JSON schema.
        assert!(!reg.snapshot().to_json().contains("exemplar"));
        // Snapshot merge unions, incoming side wins per bucket.
        let other = MetricsRegistry::new();
        other.observe_exemplar("lat", 3, 42);
        let mut merged = reg.snapshot();
        merged.merge(&other.snapshot());
        assert_eq!(merged.histograms["lat"].exemplars, vec![(3, 42, 3), (1023, 9, 900)]);
    }

    #[test]
    fn json_is_sorted_and_stable() {
        let reg = MetricsRegistry::new();
        reg.add("z.last", 1);
        reg.add("a.first", 2);
        reg.gauge_set("mid", 62.0);
        reg.observe("rows", 15);
        let one = reg.snapshot().to_json();
        let two = reg.snapshot().to_json();
        assert_eq!(one, two, "snapshot rendering is deterministic");
        let a = one.find("a.first").unwrap();
        let z = one.find("z.last").unwrap();
        assert!(a < z, "keys render sorted");
        assert!(one.contains("\"mid\": 62.0"));
        assert!(one.contains("[8, 15, 1]"));
        // Empty snapshot still renders the full schema.
        let empty = MetricsSnapshot::default().to_json();
        assert!(empty.contains("\"counters\""));
        assert!(empty.contains("\"gauges\""));
        assert!(empty.contains("\"histograms\""));
    }
}
