//! Golden `EXPLAIN WHY` snapshot and flight-recorder guarantees:
//!
//! 1. **Golden output** — the decision trail for the worked car-dealer
//!    example (DESIGN.md §4) is byte-identical across runs and core counts
//!    (CI replays this file pinned to one core against the same golden);
//!    over the off values (`Obs::off()`, `FlightRecorder::off()`) the
//!    report is the "recorder disabled" notice instead.
//! 2. **Every loser is named** — each entry in the losing-candidates
//!    section carries an eliminating-rule tag, and the trail names the
//!    pruning rules (PR1/PR2/PR3/MCSC) where they fired.
//! 3. **Ring behavior** — the per-recorder query ring evicts oldest-first
//!    and counts evictions; the per-record event cap drops loudly.
//! 4. **Isolation** — mediators sharing one recorder (including from
//!    parallel threads) produce per-query records that never bleed into
//!    each other, post-planning notes included.
//!
//! Regenerate the golden after an intentional change with:
//! `EXPLAIN_WHY_BLESS=1 cargo test -p csqp-core --test explain_why`.

use csqp_core::mediator::{Mediator, Scheme, StreamOptions};
use csqp_core::types::TargetQuery;
use csqp_obs::{FlightRecorder, Obs};
use csqp_relation::datagen;
use csqp_source::{CostParams, Source};
use csqp_ssdl::templates;
use std::sync::Arc;

const GOLDEN_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden_explain_why.txt");
const PROM_GOLDEN_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden_metrics_prom.txt");

/// The worked example source: the §2 car dealer (make+price and make+color
/// forms) over seeded car data.
fn dealer() -> Arc<Source> {
    Arc::new(Source::new(datagen::cars(3, 400), templates::car_dealer(), CostParams::default()))
}

/// The DESIGN.md worked query (Example 4.1 shape): a conjunction the dealer
/// cannot take in one form, forcing rewrites, pruning, and ranking.
fn worked_query() -> TargetQuery {
    TargetQuery::parse(
        "(make = \"BMW\" ^ price < 40000) ^ (color = \"red\" _ color = \"black\")",
        &["model", "year"],
    )
    .unwrap()
}

fn armed_mediator(scheme: Scheme) -> Mediator {
    Mediator::new(dealer())
        .with_scheme(scheme)
        .with_flight_recorder(Arc::new(FlightRecorder::new()))
}

/// The same mediator over the off values: nothing is recorded and every
/// report renders its "disabled" form.
fn off_mediator() -> Mediator {
    Mediator::new(dealer())
        .with_obs(Arc::new(Obs::off()))
        .with_flight_recorder(Arc::new(FlightRecorder::off()))
}

fn render_explain_why(scheme: Scheme) -> String {
    let mediator = armed_mediator(scheme);
    mediator.plan(&worked_query()).expect("worked example plans");
    mediator.explain_why()
}

#[test]
fn golden_explain_why_worked_example() {
    // Off: the report is the disabled notice — the golden does not apply.
    let off = off_mediator();
    off.plan(&worked_query()).expect("worked example plans");
    assert!(!off.flight_recorder().armed());
    let notice = off.explain_why();
    assert!(
        notice.contains("flight recorder disabled"),
        "off recorder must render the disabled notice, got:\n{notice}"
    );

    let mediator = armed_mediator(Scheme::GenCompact);
    mediator.plan(&worked_query()).expect("worked example plans");
    let got = mediator.explain_why();
    if std::env::var_os("EXPLAIN_WHY_BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, &got).expect("write golden explain-why output");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN_PATH)
        .expect("tests/golden_explain_why.txt missing — regenerate with EXPLAIN_WHY_BLESS=1");
    assert_eq!(
        got, want,
        "EXPLAIN WHY output diverged from tests/golden_explain_why.txt; if the change is \
         intentional, regenerate with EXPLAIN_WHY_BLESS=1 cargo test -p csqp-core \
         --test explain_why"
    );
}

/// Golden Prometheus text exposition (the `--metrics prom` renderer) after
/// planning and executing the worked example: every metric is a
/// deterministic function of the seeded workload — `serve.*` wall-clock
/// metrics never enter this path — so the page is byte-stable across runs.
///
/// Regenerate with `METRICS_PROM_BLESS=1 cargo test -p csqp-core --test
/// explain_why`.
#[test]
fn golden_prometheus_exposition() {
    let off = off_mediator();
    off.run(&worked_query()).expect("worked example runs");
    let page = off.metrics_snapshot().to_prometheus();
    assert!(!off.obs().enabled());
    assert!(page.is_empty(), "off registry renders an empty page, got:\n{page}");

    let mediator = armed_mediator(Scheme::GenCompact);
    mediator.run(&worked_query()).expect("worked example runs");
    let got = mediator.metrics_snapshot().to_prometheus();
    assert!(got.contains("csqp_planner_pruned_pr3"), "PR3 counter exported:\n{got}");
    assert!(got.contains("# TYPE"), "valid exposition format:\n{got}");
    if std::env::var_os("METRICS_PROM_BLESS").is_some() {
        std::fs::write(PROM_GOLDEN_PATH, &got).expect("write golden Prometheus page");
        return;
    }
    let want = std::fs::read_to_string(PROM_GOLDEN_PATH)
        .expect("tests/golden_metrics_prom.txt missing — regenerate with METRICS_PROM_BLESS=1");
    assert_eq!(
        got, want,
        "Prometheus exposition diverged from tests/golden_metrics_prom.txt; if intentional, \
         regenerate with METRICS_PROM_BLESS=1 cargo test -p csqp-core --test explain_why"
    );
}

/// The report is a pure function of the (seeded) workload: two fresh
/// mediators render byte-identical reports. Combined with the golden test
/// running in both the default and the one-core CI pass, this pins the
/// determinism guarantee.
#[test]
fn explain_why_replays_identically() {
    assert_eq!(render_explain_why(Scheme::GenCompact), render_explain_why(Scheme::GenCompact));
    assert_eq!(render_explain_why(Scheme::GenModular), render_explain_why(Scheme::GenModular));
}

/// Every losing candidate is eliminated *by name*: each entry in the
/// losing-candidates section carries a `[rule]` tag from the known rule
/// set, and the decision trail names the IPG pruning rules where they
/// fired.
#[test]
fn every_loser_names_its_eliminating_rule() {
    let mediator = armed_mediator(Scheme::GenCompact);
    mediator.plan(&worked_query()).expect("worked example plans");
    let report = mediator.explain_why();

    let losers: Vec<&str> = report
        .lines()
        .skip_while(|l| *l != "losing candidates")
        .skip(1)
        .take_while(|l| !l.is_empty())
        .collect();
    assert!(!losers.is_empty(), "worked example produces losing candidates:\n{report}");
    for line in &losers {
        let tagged = ["[PR1]", "[PR2]", "[PR3]", "[MCSC]", "[cost]", "[memo]"]
            .iter()
            .any(|tag| line.trim_start().starts_with(tag));
        assert!(tagged, "loser line lacks an eliminating-rule tag: {line:?}\n{report}");
    }
    // The §6.3 pruning rules fire on this query and the trail says so.
    for tag in ["[PR1]", "[PR3]", "[MCSC]", "winner (cost"] {
        assert!(report.contains(tag), "{tag} missing from report:\n{report}");
    }
}

/// GenModular's trail narrates the exhaustive path: per-CT EPG plan-space
/// sizes and per-CT candidates instead of pruning events.
#[test]
fn genmodular_trail_shows_epg_spaces() {
    // GenModular's exhaustive trail outgrows the default per-record event
    // cap on the worked example; raise it so the Winner survives.
    let rec = Arc::new(FlightRecorder::with_capacity(8, 1 << 16));
    let mediator =
        Mediator::new(dealer()).with_scheme(Scheme::GenModular).with_flight_recorder(rec);
    mediator.plan(&worked_query()).expect("worked example plans");
    let report = mediator.explain_why();
    assert!(report.contains("scheme: GenModular"), "{report}");
    assert!(report.contains("[EPG]"), "EPG plan-space events missing:\n{report}");
    assert!(report.contains("candidate (cost"), "per-CT candidates missing:\n{report}");
    assert!(report.contains("winner (cost"), "{report}");
}

/// The query ring is bounded: oldest records evict first and the eviction
/// is counted, never silent.
#[test]
fn recorder_ring_evicts_oldest_and_counts() {
    let rec = Arc::new(FlightRecorder::with_capacity(2, 64));
    let mediator = Mediator::new(dealer()).with_flight_recorder(rec.clone());
    for make in ["BMW", "Audi", "Toyota"] {
        let q =
            TargetQuery::parse(&format!("make = \"{make}\" ^ price < 40000"), &["model"]).unwrap();
        mediator.plan(&q).expect("plans");
    }
    let records = rec.records();
    assert_eq!(records.len(), 2, "ring capacity holds");
    assert_eq!(rec.evicted(), 1, "eviction is counted");
    assert!(records[0].query.contains("Audi"), "oldest (BMW) evicted first");
    assert!(records[1].query.contains("Toyota"));
    assert!(rec.record(records[1].id).is_some(), "records stay addressable by id");

    let off = off_mediator();
    off.plan(&worked_query()).expect("plans");
    assert!(off.flight_recorder().records().is_empty(), "off recorder keeps nothing");
}

/// The per-record event cap drops loudly: the record reports how many
/// events it lost and EXPLAIN WHY surfaces the truncation.
#[test]
fn event_cap_drops_are_reported() {
    let rec = Arc::new(FlightRecorder::with_capacity(4, 3));
    let mediator = Mediator::new(dealer()).with_flight_recorder(rec.clone());
    mediator.plan(&worked_query()).expect("plans");
    let latest = rec.latest().expect("record exists");
    assert_eq!(latest.events.len(), 3, "event cap holds");
    assert!(latest.dropped > 0, "drops are counted");
    let report = mediator.explain_why();
    assert!(report.contains("events dropped"), "truncation surfaced:\n{report}");
}

/// Mediators sharing one recorder produce isolated per-query records, even
/// when planning concurrently from several threads.
#[test]
fn shared_recorder_isolates_queries_across_threads() {
    let rec = Arc::new(FlightRecorder::with_capacity(64, 1024));
    let makes = ["BMW", "Audi", "Toyota", "Honda"];
    std::thread::scope(|s| {
        for make in makes {
            let rec = rec.clone();
            s.spawn(move || {
                let mediator = Mediator::new(dealer()).with_flight_recorder(rec);
                let q =
                    TargetQuery::parse(&format!("make = \"{make}\" ^ price < 40000"), &["model"])
                        .unwrap();
                mediator.plan(&q).expect("plans");
            });
        }
    });
    let records = rec.records();
    assert_eq!(records.len(), makes.len(), "one record per query");
    for r in &records {
        let own = makes.iter().find(|m| r.query.contains(**m)).expect("record names its make");
        for other in makes.iter().filter(|m| *m != own) {
            assert!(
                r.events.iter().all(|e| !e.to_string().contains(other)),
                "record for {own} leaked events mentioning {other}"
            );
        }
        assert!(!r.events.is_empty(), "each record captured its own trail");
    }
}

/// Post-planning notes land on the record of the query they belong to, not
/// on whichever query began last: two queries planned back-to-back on one
/// shared armed recorder and then executed in plan order each hold exactly
/// their own `streamed:` note.
#[test]
fn post_planning_notes_reach_their_own_record() {
    let rec = Arc::new(FlightRecorder::new());
    let mediator = Mediator::new(dealer()).with_flight_recorder(rec.clone());
    let planned = ["BMW", "Toyota"].map(|make| {
        let q = TargetQuery::parse(&format!("make = \"{make}\" ^ price < 40000"), &["model"]);
        mediator.plan(&q.unwrap()).expect("plans")
    });
    // Distinct batch sizes, so each run writes a distinguishable note.
    let notes: Vec<String> = planned
        .iter()
        .zip([1usize, 64])
        .map(|(planned, batch)| {
            let cfg = csqp_plan::StreamConfig::default().with_batch_size(batch);
            let run = mediator.run_stream(planned.clone(), StreamOptions::plain(&cfg), None);
            let stats = run.unwrap().stats;
            format!(
                "streamed: {} batches, peak resident {} tuples",
                stats.batches, stats.peak_resident_tuples
            )
        })
        .collect();
    assert_ne!(notes[0], notes[1], "the two runs must be told apart");
    for (record, own) in rec.records().iter().zip(&notes) {
        let streamed: Vec<String> = record
            .events
            .iter()
            .map(|e| e.to_string())
            .filter(|e| e.starts_with("streamed:"))
            .collect();
        assert_eq!(&streamed, std::slice::from_ref(own), "record of `{}`", record.query);
    }
}
