//! Per-query profiles: the "query black box".
//!
//! A [`QueryProfile`] is one schema-stable JSON document that ties a single
//! query's whole life together — the hierarchical span tree, the metrics
//! the query itself wrote on the shared registry, the flight-recorder
//! decision trail, the adaptive splice/breaker summary, and est-vs-observed
//! cardinalities per subquery. The CLI renders it for `--explain=profile`,
//! serve mode exposes it at `/profile/<id>`, and the slowlog keeps the N
//! worst profiles in a [`ProfileRing`] so a p99 outlier can be post-mortemed
//! after the fact.
//!
//! Everything here is plain data: captured from an off recorder
//! ([`crate::Obs::off`]) the span/metric sections are simply empty, and the
//! JSON schema — pinned byte-for-byte by `tests/query_profile.rs` — does
//! not change shape.

use crate::flight::QueryRecord;
use crate::metrics::{render_f64, render_json_string, MetricsSnapshot, MetricsWindow};
use crate::span::{render_json as render_spans_json, SpanRecord};
use crate::Obs;
use std::fmt::Write as _;

/// One est-vs-observed cardinality row (a subquery of the executed plan).
#[derive(Debug, Clone, PartialEq)]
pub struct CardRow {
    /// Rendered subquery / plan-leaf label.
    pub label: String,
    /// Planner-estimated result cardinality.
    pub est_rows: f64,
    /// Rows actually observed.
    pub observed_rows: u64,
}

/// The latency a profile is ranked by: wall-clock microseconds when a clock
/// is available (serve mode), otherwise virtual ticks — so one-shot runs
/// rank the slowlog deterministically instead of not at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyKey {
    /// Wall-clock latency in microseconds, if a wall clock was consulted.
    /// Always `None` outside serve mode, keeping goldens quarantined.
    pub wall_us: Option<u64>,
    /// Virtual ticks elapsed over the query (deterministic).
    pub ticks: u64,
}

impl LatencyKey {
    /// The ranking value: wall microseconds when present, else ticks.
    pub fn value(&self) -> u64 {
        self.wall_us.unwrap_or(self.ticks)
    }
}

/// The unified per-query profile document. See the module docs; field order
/// here is the JSON key order of [`QueryProfile::to_json`].
#[derive(Debug, Clone, Default)]
pub struct QueryProfile {
    /// Query id (the flight-recorder id in serve mode, 0 for one-shots).
    pub id: u64,
    /// The query text as submitted.
    pub query: String,
    /// Plan-generation scheme used (`GenCompact` / `GenModular`).
    pub scheme: String,
    /// Rows the query returned.
    pub rows: u64,
    /// Ranking latency (wall µs in serve mode, virtual ticks otherwise).
    pub latency: Option<LatencyKey>,
    /// Planner-estimated total plan cost.
    pub est_cost: f64,
    /// Observed total cost after execution.
    pub observed_cost: f64,
    /// Adaptive sub-plan splices performed mid-query.
    pub splices: u64,
    /// Drift-band replan triggers observed mid-query.
    pub drift_triggers: u64,
    /// How the prepared-plan cache answered this query: `hit` / `miss` /
    /// `rejected` / `bypass` (empty for one-shot profiles with no cache in
    /// the stack).
    pub plan_cache: String,
    /// The members whose breaker was not closed when the query finished,
    /// as `(member, state)` pairs in member order (empty when every breaker
    /// is closed).
    pub breakers: Vec<(String, String)>,
    /// Est-vs-observed cardinalities per executed subquery.
    pub cardinalities: Vec<CardRow>,
    /// The hierarchical span tree (empty from an off tracer).
    pub spans: Vec<SpanRecord>,
    /// Rendered flight-recorder events, in decision order.
    pub flight: Vec<String>,
    /// This query's own metric writes (empty from an off registry):
    /// counters it moved, the gauges it set, and histograms over its own
    /// observations (min/max included) — exact under concurrency.
    pub metrics: MetricsSnapshot,
}

impl QueryProfile {
    /// Renders the profile as one schema-stable JSON document. Key order is
    /// fixed, floats use shortest-roundtrip formatting, and every section
    /// renders even when empty — byte-identical input state yields
    /// byte-identical output on every platform.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"id\": ");
        let _ = write!(out, "{}", self.id);
        out.push_str(",\n  \"query\": ");
        render_json_string(&mut out, &self.query);
        out.push_str(",\n  \"scheme\": ");
        render_json_string(&mut out, &self.scheme);
        let _ = write!(out, ",\n  \"rows\": {}", self.rows);
        out.push_str(",\n  \"latency\": ");
        match &self.latency {
            Some(l) => {
                out.push_str("{\"wall_us\": ");
                match l.wall_us {
                    Some(us) => {
                        let _ = write!(out, "{us}");
                    }
                    None => out.push_str("null"),
                }
                let _ = write!(out, ", \"ticks\": {}}}", l.ticks);
            }
            None => out.push_str("null"),
        }
        out.push_str(",\n  \"est_cost\": ");
        render_f64(&mut out, self.est_cost);
        out.push_str(",\n  \"observed_cost\": ");
        render_f64(&mut out, self.observed_cost);
        let _ = write!(out, ",\n  \"splices\": {}", self.splices);
        let _ = write!(out, ",\n  \"drift_triggers\": {}", self.drift_triggers);
        out.push_str(",\n  \"plan_cache\": ");
        render_json_string(&mut out, &self.plan_cache);
        out.push_str(",\n  \"breakers\": [");
        for (i, (member, state)) in self.breakers.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str("{\"member\": ");
            render_json_string(&mut out, member);
            out.push_str(", \"state\": ");
            render_json_string(&mut out, state);
            out.push('}');
        }
        out.push_str("],\n  \"cardinalities\": [");
        for (i, c) in self.cardinalities.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str("{\"label\": ");
            render_json_string(&mut out, &c.label);
            out.push_str(", \"est_rows\": ");
            render_f64(&mut out, c.est_rows);
            let _ = write!(out, ", \"observed_rows\": {}}}", c.observed_rows);
        }
        out.push_str("],\n  \"spans\": ");
        out.push_str(&render_spans_json(&self.spans));
        out.push_str(",\n  \"flight\": [");
        for (i, line) in self.flight.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            render_json_string(&mut out, line);
        }
        out.push_str("],\n  \"metrics\": ");
        out.push_str(&self.metrics.to_json());
        out.push_str("\n}");
        out
    }
}

/// One query's capture window on a shared [`Obs`]: everything the calling
/// thread records on the registry, and every span the tracer opens, between
/// [`ProfileCapture::begin`] and [`ProfileCapture::finish`] is attributed to
/// that query.
///
/// The metrics section is exact under concurrent writers: it comes from a
/// [`MetricsWindow`] that mirrors only this thread's writes, and a query
/// runs on one thread (neither the planners nor the engine spawn any).
/// Span slices and flight
/// trails stay exact because they key on marks and flight ids. Dropping a
/// capture without `finish` (a failed query) discards its window.
#[derive(Debug)]
pub struct ProfileCapture<'a> {
    obs: &'a Obs,
    metrics: MetricsWindow<'a>,
    span_mark: usize,
    tick0: u64,
}

impl<'a> ProfileCapture<'a> {
    /// Opens the window: this thread's metrics window, span mark, clock
    /// reading.
    pub fn begin(obs: &'a Obs) -> Self {
        ProfileCapture {
            obs,
            metrics: obs.metrics.open_window(),
            span_mark: obs.tracer.span_mark(),
            tick0: obs.tracer.tick(),
        }
    }

    /// Virtual ticks elapsed since the window opened.
    pub fn ticks(&self) -> u64 {
        self.obs.tracer.tick().saturating_sub(self.tick0)
    }

    /// Closes only the metrics window and returns this query's own metric
    /// writes — for a caller that needs them but will keep no profile
    /// (serve, when the worst-N ring would not admit it): no span slice,
    /// no flight rendering.
    pub fn close(self) -> MetricsSnapshot {
        self.metrics.close()
    }

    /// Closes the window into the profile skeleton for everything recorded
    /// since `begin`: tick latency, this query's own metric writes, the
    /// spans since the mark, and the trail (and id) of `flight`, the
    /// query's own flight record. The caller fills in what only it knows —
    /// query text, scheme, outcome.
    pub fn finish(self, flight: Option<&QueryRecord>) -> QueryProfile {
        QueryProfile {
            id: flight.map_or(0, |rec| rec.id),
            latency: Some(LatencyKey { wall_us: None, ticks: self.ticks() }),
            spans: self.obs.tracer.spans_from(self.span_mark),
            metrics: self.metrics.close(),
            flight: flight
                .map(|rec| rec.events.iter().map(|e| e.to_string()).collect())
                .unwrap_or_default(),
            ..Default::default()
        }
    }
}

/// A bounded ring keeping the N *worst* profiles by [`LatencyKey::value`]
/// (descending; ties break by ascending query id). This is the slowlog's
/// tail-sampling store: cheap to push, and the victims of a p99 spike stay
/// resident with their full profile until N worse queries displace them.
#[derive(Debug, Default)]
pub struct ProfileRing {
    cap: usize,
    entries: Vec<QueryProfile>,
}

impl ProfileRing {
    /// An empty ring retaining at most `cap` profiles.
    pub fn new(cap: usize) -> Self {
        ProfileRing { cap, entries: Vec::new() }
    }

    /// Where a profile with this latency and id would rank among the
    /// retained ones; `cap` or beyond means the ring would not keep it.
    /// Descending by value; ties break ascending by query id, so the
    /// ranking is a pure function of the retained set — identical across
    /// serial and parallel legs regardless of arrival order.
    fn rank(&self, latency: Option<LatencyKey>, id: u64) -> usize {
        let v = latency.map_or(0, |l| l.value());
        self.entries
            .iter()
            .position(|e| {
                let ev = e.latency.map_or(0, |l| l.value());
                ev < v || (ev == v && e.id > id)
            })
            .unwrap_or(self.entries.len())
    }

    /// Whether [`ProfileRing::push`] would retain a profile of query `id`
    /// at `latency` right now — so a caller can skip building one the
    /// ring would drop.
    pub fn admits(&self, latency: &LatencyKey, id: u64) -> bool {
        self.rank(Some(*latency), id) < self.cap
    }

    /// Offers a profile; it is retained iff it ranks among the `cap` worst
    /// seen so far. Profiles without a latency key rank as zero.
    pub fn push(&mut self, profile: QueryProfile) {
        let pos = self.rank(profile.latency, profile.id);
        if pos >= self.cap {
            return;
        }
        self.entries.insert(pos, profile);
        self.entries.truncate(self.cap);
    }

    /// The retained profiles, worst first.
    pub fn worst(&self) -> &[QueryProfile] {
        &self.entries
    }

    /// Number of profiles currently retained.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keyed(id: u64, wall_us: Option<u64>, ticks: u64) -> QueryProfile {
        QueryProfile { id, latency: Some(LatencyKey { wall_us, ticks }), ..Default::default() }
    }

    #[test]
    fn empty_profile_renders_full_schema() {
        let json = QueryProfile::default().to_json();
        for key in [
            "\"id\"",
            "\"query\"",
            "\"scheme\"",
            "\"rows\"",
            "\"latency\"",
            "\"est_cost\"",
            "\"observed_cost\"",
            "\"splices\"",
            "\"drift_triggers\"",
            "\"breakers\"",
            "\"cardinalities\"",
            "\"spans\"",
            "\"flight\"",
            "\"metrics\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.contains("\"latency\": null"));
        assert_eq!(json, QueryProfile::default().to_json(), "rendering is deterministic");
    }

    #[test]
    fn latency_key_prefers_wall_clock() {
        assert_eq!(LatencyKey { wall_us: Some(900), ticks: 4 }.value(), 900);
        assert_eq!(LatencyKey { wall_us: None, ticks: 4 }.value(), 4);
    }

    #[test]
    fn ring_keeps_the_worst_n_stable_on_ties() {
        let mut ring = ProfileRing::new(3);
        for (id, ticks) in [(1, 10), (2, 50), (3, 10), (4, 99), (5, 20)] {
            ring.push(keyed(id, None, ticks));
        }
        let ids: Vec<u64> = ring.worst().iter().map(|p| p.id).collect();
        // 99, 50, 20 survive; the tied 10s fell off the tail.
        assert_eq!(ids, vec![4, 2, 5]);
        // Ties order by query id regardless of arrival order.
        let mut tied = ProfileRing::new(2);
        tied.push(keyed(2, None, 7));
        tied.push(keyed(1, None, 7));
        let ids: Vec<u64> = tied.worst().iter().map(|p| p.id).collect();
        assert_eq!(ids, vec![1, 2]);
        // Wall-clock outranks ticks when present.
        let mut mixed = ProfileRing::new(2);
        mixed.push(keyed(1, None, 1000));
        mixed.push(keyed(2, Some(2000), 1));
        assert_eq!(mixed.worst()[0].id, 2);
    }

    #[test]
    fn admitting_first_keeps_the_ring_building_always_keeps() {
        let sequence = [(1, 40), (2, 10), (3, 40), (4, 90), (5, 5), (6, 60), (7, 40), (8, 99)];
        let (mut always, mut admit_first) = (ProfileRing::new(3), ProfileRing::new(3));
        let mut built = 0;
        for (id, us) in sequence {
            always.push(keyed(id, Some(us), 0));
            if admit_first.admits(&LatencyKey { wall_us: Some(us), ticks: 0 }, id) {
                built += 1;
                admit_first.push(keyed(id, Some(us), 0));
            }
        }
        let ids = |ring: &ProfileRing| ring.worst().iter().map(|p| p.id).collect::<Vec<_>>();
        assert_eq!(ids(&admit_first), ids(&always));
        assert_eq!(ids(&always), vec![8, 4, 6]);
        assert_eq!(built, 6, "queries 5 and 7 ranked out of a full ring: never built");
        assert!(!ProfileRing::new(0).admits(&LatencyKey { wall_us: Some(1), ticks: 0 }, 0));
    }

    #[test]
    fn tied_rankings_are_arrival_order_independent() {
        // Regression for the serial-vs-parallel divergence: any permutation
        // of the same tied profiles must retain the same set in the same
        // order.
        let perms: [[u64; 4]; 4] = [[1, 2, 3, 4], [4, 3, 2, 1], [3, 1, 4, 2], [2, 4, 1, 3]];
        let mut renderings = Vec::new();
        for perm in perms {
            let mut ring = ProfileRing::new(3);
            for id in perm {
                ring.push(keyed(id, None, 7));
            }
            renderings.push(ring.worst().iter().map(|p| p.id).collect::<Vec<_>>());
        }
        for r in &renderings {
            assert_eq!(r, &vec![1, 2, 3], "ties resolve by id: {renderings:?}");
        }
    }
}
