//! Query-profile ("query black box") stability suite.
//!
//! The [`QueryProfile`] JSON document is the post-mortem artifact for a
//! single query: span tree, metrics delta, flight trail, splice/breaker
//! summary and est-vs-observed cardinalities. Two things are pinned here:
//!
//! 1. **Schema stability** — a hand-built profile with every section
//!    populated renders byte-for-byte identically to
//!    `tests/golden_query_profile.json`: the profile is plain data, so the
//!    document's shape cannot depend on what the recorders held.
//! 2. **Live capture** — `Mediator::plan_profiled` / `run_profiled`
//!    populate the sections they promise (well-formed span tree, flight
//!    trail, metrics delta, cardinalities) and do so deterministically —
//!    and leave exactly those sections empty under `Obs::off()`.
//!
//! Regenerate the golden after an intentional schema change with:
//! `QUERY_PROFILE_BLESS=1 cargo test -p csqp-core --test query_profile`.

use csqp_obs::span::validate;
use csqp_obs::{CardRow, LatencyKey, MetricsSnapshot, QueryProfile, SpanRecord};

const GOLDEN_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden_query_profile.json");

fn span(id: u64, parent: Option<u64>, label: &str, start: u64, end: u64, depth: u16) -> SpanRecord {
    SpanRecord {
        id,
        parent,
        label: label.to_string(),
        start_tick: start,
        end_tick: Some(end),
        depth,
    }
}

/// A profile with every section non-empty, built from plain data only — no
/// recorder, no clock. Byte-stability of its rendering is exactly the
/// schema guarantee the serve endpoints and the CLI rely on.
fn synthetic_profile() -> QueryProfile {
    let mut metrics = MetricsSnapshot::default();
    metrics.counters.insert("exec.source_queries".to_string(), 2);
    metrics.counters.insert("planner.check_calls".to_string(), 7);
    metrics.gauges.insert("exec.est_cost".to_string(), 104.5);
    metrics.histograms.insert(
        "exec.rows_per_subquery".to_string(),
        csqp_obs::HistogramSnapshot {
            count: 2,
            sum: 31,
            min: 12,
            max: 19,
            buckets: vec![(8, 15, 1), (16, 31, 1)],
            exemplars: Vec::new(),
        },
    );
    QueryProfile {
        id: 42,
        query: "price < 40000 ^ make = \"BMW\"".to_string(),
        scheme: "GenCompact".to_string(),
        rows: 19,
        latency: Some(LatencyKey { wall_us: None, ticks: 23 }),
        est_cost: 104.5,
        observed_cost: 98.0,
        splices: 1,
        drift_triggers: 1,
        plan_cache: "hit".to_string(),
        breakers: vec![
            ("car_dealer".to_string(), "open".to_string()),
            ("dump".to_string(), "closed".to_string()),
        ],
        cardinalities: vec![
            CardRow {
                label: "SP(make = \"BMW\", {model}, R)".to_string(),
                est_rows: 12.5,
                observed_rows: 12,
            },
            CardRow {
                label: "SP(price < 40000, {model}, R)".to_string(),
                est_rows: 20.0,
                observed_rows: 19,
            },
        ],
        spans: vec![
            span(0, None, "plan", 0, 9, 0),
            span(1, Some(0), "rewrite", 1, 2, 1),
            span(2, Some(0), "ipg", 3, 6, 1),
            span(3, Some(2), "mcsc", 4, 5, 2),
            span(4, Some(0), "rank", 7, 8, 1),
            span(5, None, "execute (adaptive)", 10, 22, 0),
            span(6, Some(5), "segment 0", 11, 15, 1),
            span(7, Some(5), "replan", 16, 17, 1),
            span(8, Some(5), "segment 1", 18, 21, 1),
        ],
        flight: vec![
            "CT 0: price < 40000 ^ make = \"BMW\"".to_string(),
            "[replan] splice at segment 1 (drift)".to_string(),
            "winner (cost 104.5): SP(...)".to_string(),
        ],
        metrics,
    }
}

/// The synthetic profile renders byte-identically to the golden on every
/// feature leg — the schema is feature-independent plain data.
#[test]
fn synthetic_profile_matches_golden() {
    let profile = synthetic_profile();
    validate(&profile.spans).expect("the synthetic span tree must be well-formed");
    let got = profile.to_json();
    if std::env::var_os("QUERY_PROFILE_BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, &got).expect("write golden query profile");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN_PATH)
        .expect("tests/golden_query_profile.json missing — regenerate with QUERY_PROFILE_BLESS=1");
    assert_eq!(
        got, want,
        "QueryProfile JSON diverged from tests/golden_query_profile.json; if the schema \
         change is intentional, regenerate with QUERY_PROFILE_BLESS=1 cargo test -p \
         csqp-core --test query_profile (the golden must match on every feature leg)"
    );
}

/// Key order is part of the schema: consumers diff profiles textually.
#[test]
fn profile_key_order_is_pinned() {
    let json = synthetic_profile().to_json();
    let keys = [
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
    ];
    let mut last = 0;
    for key in keys {
        let pos = json.find(key).unwrap_or_else(|| panic!("{key} missing from profile JSON"));
        assert!(pos > last, "{key} out of order in profile JSON");
        last = pos;
    }
}

/// An empty (default) profile still renders every section — "no data"
/// must be distinguishable from "schema changed".
#[test]
fn empty_profile_renders_every_section() {
    let json = QueryProfile::default().to_json();
    for key in ["\"breakers\": []", "\"cardinalities\": []", "\"spans\": []", "\"flight\": []"] {
        assert!(json.contains(key), "missing empty section {key} in {json}");
    }
    assert!(json.contains("\"latency\": null"));
}

mod live {
    use csqp_core::mediator::Mediator;
    use csqp_core::types::TargetQuery;
    use csqp_obs::span::validate;
    use csqp_obs::{FlightRecorder, MetricsSnapshot, Obs, QueryProfile};
    use csqp_relation::datagen;
    use csqp_source::{CostParams, Source};
    use csqp_ssdl::templates;
    use std::sync::Arc;

    /// A mediator over recording recorders (`recording`) or over the off
    /// values; every live test runs under both.
    fn profiled_mediator(recording: bool) -> Mediator {
        let source = Arc::new(Source::new(
            datagen::cars(3, 400),
            templates::car_dealer(),
            CostParams::default(),
        ));
        let (obs, flight) = if recording {
            (Obs::new(), FlightRecorder::new())
        } else {
            (Obs::off(), FlightRecorder::off())
        };
        Mediator::new(source).with_obs(Arc::new(obs)).with_flight_recorder(Arc::new(flight))
    }

    fn q() -> TargetQuery {
        TargetQuery::parse("make = \"BMW\" ^ price < 40000", &["model", "year"]).unwrap()
    }

    /// `run_profiled` fills the sections it promises; the span tree is
    /// well-formed; the capture is deterministic (two fresh mediators
    /// produce byte-identical documents modulo nothing — no wall clock is
    /// consulted outside serve mode).
    #[test]
    fn run_profiled_populates_and_replays() {
        for recording in [true, false] {
            let capture = || -> (QueryProfile, usize) {
                let m = profiled_mediator(recording);
                let (out, profile) = m.run_profiled(&q()).unwrap();
                (profile, out.outcome.rows.len())
            };
            let (profile, rows) = capture();
            assert_eq!(profile.rows as usize, rows);
            assert_eq!(profile.scheme, "GenCompact");
            assert!(profile.est_cost > 0.0, "planner cost recorded");
            assert!(profile.observed_cost > 0.0, "observed cost recorded");
            assert!(!profile.cardinalities.is_empty(), "est-vs-observed rows recorded");
            validate(&profile.spans).expect("live span tree must be well-formed");
            let latency = profile.latency.expect("one-shot profiles carry a tick latency");
            assert_eq!(latency.wall_us, None, "wall clock stays quarantined outside serve mode");
            // Recording sees spans/flight/metrics; the off value renders the
            // same schema with those sections empty.
            if recording {
                assert!(latency.ticks > 0);
                assert!(profile.spans.iter().any(|s| s.label == "plan"), "plan span present");
                assert!(!profile.flight.is_empty(), "flight trail replayed into the profile");
                assert!(
                    profile.metrics.counter("profile.captured") >= 1,
                    "capture counts itself in the metrics delta"
                );
                assert!(profile.metrics.counter("exec.source_queries") >= 1);
            } else {
                assert_eq!(latency.ticks, 0);
                assert!(profile.spans.is_empty() && profile.flight.is_empty());
                assert_eq!(profile.metrics, MetricsSnapshot::default());
            }
            let (again, _) = capture();
            assert_eq!(profile.to_json(), again.to_json(), "capture must replay identically");
        }
    }

    /// Without `--run` the profile covers planning only: no rows, no
    /// observed cost, but the plan span tree and flight trail are there.
    #[test]
    fn plan_profiled_covers_planning_only() {
        for recording in [true, false] {
            let m = profiled_mediator(recording);
            let (planned, profile) = m.plan_profiled(&q()).unwrap();
            assert_eq!(profile.rows, 0);
            assert_eq!(profile.observed_cost, 0.0);
            assert_eq!(profile.est_cost, planned.est_cost);
            validate(&profile.spans).expect("plan-only span tree must be well-formed");
            if recording {
                assert!(profile.spans.iter().any(|s| s.label == "plan"));
                assert!(profile.spans.iter().all(|s| !s.label.starts_with("execute")));
                assert!(!profile.flight.is_empty());
            } else {
                assert!(profile.spans.is_empty() && profile.flight.is_empty());
            }
        }
    }

    /// Back-to-back captures on one mediator stay attributed: the second
    /// profile's metrics delta does not double-count the first run.
    #[test]
    fn metrics_delta_is_per_query() {
        for recording in [true, false] {
            let m = profiled_mediator(recording);
            let (_, first) = m.run_profiled(&q()).unwrap();
            let (_, second) = m.run_profiled(&q()).unwrap();
            assert_eq!(
                first.metrics.counter("exec.source_queries"),
                second.metrics.counter("exec.source_queries"),
                "the delta window must isolate each capture"
            );
            // The capture counter needs a recording registry; an off one
            // snapshots empty (the delta equality above still holds: both
            // deltas are zero).
            let captured = u64::from(recording);
            assert_eq!(first.metrics.counter("profile.captured"), captured);
            assert_eq!(second.metrics.counter("profile.captured"), captured);
        }
    }
}
