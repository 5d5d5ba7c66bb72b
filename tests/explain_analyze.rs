//! Golden `EXPLAIN ANALYZE` snapshot for an E1 (bookstore) query, plus the
//! determinism and schema-stability guarantees the observability layer
//! makes:
//!
//! 1. **Golden output** — the annotated plan tree (estimated vs observed
//!    rows/cost per source query) is byte-identical across runs (CI also
//!    replays this file pinned to one core against the same golden).
//! 2. **Trace determinism** — the virtual-tick trace for a fixed workload
//!    is byte-identical across runs, and empty under `Obs::off()`.
//! 3. **Schema stability** — the `--metrics json` snapshot always renders
//!    the same sections and sorted keys, and the counters the acceptance
//!    criteria name are present after a resilient run.
//!
//! Regenerate the golden after an intentional change with:
//! `EXPLAIN_ANALYZE_BLESS=1 cargo test -p csqp-core --test explain_analyze`.

use csqp_core::federation::{CircuitBreakerConfig, Federation};
use csqp_core::mediator::{CardKind, Mediator, StreamOptions, StreamOutcome};
use csqp_core::types::TargetQuery;
use csqp_obs::Obs;
use csqp_plan::analyze::explain_analyze;
use csqp_plan::exec::RetryPolicy;
use csqp_plan::exec_stream::StreamConfig;
use csqp_relation::datagen::{self, BookGenConfig};
use csqp_source::{CostParams, FaultProfile, Source};
use csqp_ssdl::templates;
use std::sync::Arc;

const GOLDEN_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden_explain_analyze.txt");

/// Example 1.1 on the E1 bookstore source (same generator as the chaos
/// suite's E1 workload).
fn e1_source() -> Arc<Source> {
    Arc::new(Source::new(
        datagen::books(7, &BookGenConfig { n_books: 1500, ..Default::default() }),
        templates::bookstore(),
        CostParams::default(),
    ))
}

fn e1_query() -> TargetQuery {
    TargetQuery::parse(
        "(author = \"Sigmund Freud\" _ author = \"Carl Jung\") ^ title contains \"dreams\"",
        &["isbn", "title", "author"],
    )
    .unwrap()
}

/// Plans and runs the E1 query with per-source-query observation.
fn run_analyzed(mediator: &Mediator) -> StreamOutcome {
    let options = StreamOptions::Analyzed(&StreamConfig::default());
    mediator.run_stream(&e1_query(), options, None).expect("E1 query plans and runs")
}

/// The full EXPLAIN ANALYZE page for Example 1.1: annotated tree, cost
/// summary, and drift warnings, exactly as the library renders them.
fn render_explain_analyze() -> String {
    let mediator = Mediator::new(e1_source());
    let analyzed = run_analyzed(&mediator);
    explain_analyze(&analyzed.outcome.planned.plan, &analyzed.analysis.expect("analysis"))
}

#[test]
fn golden_explain_analyze_e1() {
    let got = render_explain_analyze();
    if std::env::var_os("EXPLAIN_ANALYZE_BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, &got).expect("write golden explain-analyze output");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN_PATH).expect(
        "tests/golden_explain_analyze.txt missing — regenerate with EXPLAIN_ANALYZE_BLESS=1",
    );
    assert_eq!(
        got, want,
        "EXPLAIN ANALYZE output diverged from tests/golden_explain_analyze.txt; if the \
         change is intentional, regenerate with EXPLAIN_ANALYZE_BLESS=1 \
         cargo test -p csqp-core --test explain_analyze"
    );
}

/// The annotated output is a pure function of the (seeded) workload: two
/// fresh mediators render byte-identical pages, and so do their traces
/// (virtual ticks, no wall clock) — non-empty when recording, empty off.
#[test]
fn explain_analyze_and_trace_replay_identically() {
    assert_eq!(render_explain_analyze(), render_explain_analyze());

    for obs in [Obs::new, Obs::off] {
        let run = || {
            let mediator = Mediator::new(e1_source()).with_obs(Arc::new(obs()));
            run_analyzed(&mediator);
            mediator.obs().tracer.render()
        };
        let (t1, t2) = (run(), run());
        assert_eq!(t1, t2, "virtual-tick trace replays byte-identically");
        if obs().enabled() {
            assert!(!t1.is_empty(), "recording tracer captured the run");
        } else {
            assert!(t1.is_empty(), "off tracer keeps nothing");
        }
    }
}

/// Oracle cardinalities observe exactly what they estimated: zero drift on
/// every source query, and the observed totals equal the §6.2 meter cost.
#[test]
fn oracle_estimates_match_observations_on_e1() {
    let mediator = Mediator::new(e1_source()).with_cardinality(CardKind::Oracle);
    let analyzed = run_analyzed(&mediator);
    let analysis = analyzed.analysis.expect("an analyzed run reports its analysis");
    assert!(analysis.drift_warnings().is_empty(), "oracle never drifts");
    assert!(
        (analysis.observed_total() - analyzed.outcome.measured_cost).abs() < 1e-9,
        "per-subquery observed costs sum to the meter's measured cost"
    );
}

/// The metrics snapshot keeps a stable JSON shape — three sorted sections —
/// and, after a planning + resilient-execution workload, contains every
/// counter the acceptance criteria name: Check calls, cache hits, PR1/PR2/
/// PR3 prunes, retries, and breaker transitions.
#[test]
fn metrics_snapshot_schema_is_stable() {
    for obs in [Obs::new(), Obs::off()] {
        // A two-member federation where the cheap member is hard-down: the run
        // exercises retries, a breaker open, and a splice onto the other.
        let data = datagen::books(7, &BookGenConfig { n_books: 300, ..Default::default() });
        let flaky = Arc::new(
            Source::new(data.clone(), templates::bookstore(), CostParams::new(10.0, 1.0))
                .with_fault_profile(FaultProfile::new(0).with_outage(0, u64::MAX)),
        );
        let steady =
            Arc::new(Source::new(data, templates::bookstore(), CostParams::new(50.0, 1.0)));
        let federation = Federation::new()
            .with_member(flaky)
            .with_member(steady)
            .with_breaker(CircuitBreakerConfig { failure_threshold: 1, cooldown_ticks: 1 })
            .with_obs(Arc::new(obs));
        let policy = RetryPolicy { max_retries: 1, ..Default::default() };
        let stream = StreamConfig::default();
        federation
            .run_stream(
                &e1_query(),
                StreamOptions::Plain { stream: &stream, policy: Some(&policy) },
                None,
            )
            .expect("steady member serves");

        let snap = federation.metrics_snapshot();
        let json = snap.to_json();
        // Shape: the three sections always render, in this order, even when
        // empty — downstream parsers can rely on the keys existing.
        let (c, g) = (json.find("\"counters\"").unwrap(), json.find("\"gauges\"").unwrap());
        let h = json.find("\"histograms\"").unwrap();
        assert!(c < g && g < h, "sections in schema order:\n{json}");

        if federation.obs().enabled() {
            for key in [
                "planner.check_calls",
                "planner.check_cache_hits",
                "planner.pruned_pr1",
                "planner.pruned_pr2",
                "planner.pruned_pr3",
                "resilience.retries",
                "breaker.opened",
            ] {
                assert!(json.contains(&format!("\"{key}\"")), "{key} missing from:\n{json}");
            }
            assert!(snap.counter("resilience.retries") >= 1, "outage forced a retry");
            assert!(snap.counter("breaker.opened") >= 1, "threshold-1 breaker opened");
            // Serialization round-trips deterministically.
            assert_eq!(json, federation.metrics_snapshot().to_json());
        } else {
            assert!(snap.counters.is_empty(), "off recorder keeps nothing");
        }
    }
}
