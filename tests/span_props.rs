//! Span-tree well-formedness properties under adversity.
//!
//! The hierarchical span layer promises one structural invariant no matter
//! what the run does: the recorded spans always form a well-formed forest
//! (ids strictly increasing, every span closed inside its parent, depth =
//! parent depth + 1 — see `csqp_obs::span::validate`). The properties here
//! drive that promise through the hostile paths: seeded chaos faults with
//! retry storms, mid-stream outages that force replan splices, failed runs,
//! and interleaved captures slicing the same tracer with `span_mark`.

use csqp_core::federation::{CircuitBreakerConfig, Federation};
use csqp_core::mediator::{AdaptiveConfig, Mediator, StreamOptions};
use csqp_core::types::TargetQuery;
use csqp_expr::ValueType;
use csqp_obs::span::validate;
use csqp_obs::Obs;
use csqp_plan::exec::RetryPolicy;
use csqp_plan::exec_stream::StreamConfig;
use csqp_relation::datagen;
use csqp_source::{CostParams, FaultProfile, Source};
use csqp_ssdl::templates;
use proptest::prelude::*;
use std::sync::Arc;

fn q(cond: &str, attrs: &[&str]) -> TargetQuery {
    TargetQuery::parse(cond, attrs).unwrap_or_else(|e| panic!("bad query {cond:?}: {e}"))
}

/// A faulty dealer mediator sharing an inspectable Obs.
fn storm_mediator(seed: u64, fault_rate: f64) -> (Mediator, Arc<Obs>) {
    let obs = Arc::new(Obs::new());
    let source = Arc::new(
        Source::new(datagen::cars(3, 400), templates::car_dealer(), CostParams::default())
            .with_fault_profile(FaultProfile::storm(seed, fault_rate)),
    );
    (Mediator::new(source).with_obs(obs.clone()), obs)
}

/// The chaos-replan shape: a cheap dealer that goes dark mid-stream next
/// to a reliable but expensive dump, breaker threshold 1 — adaptive runs
/// splice the dump in for the residual.
fn replan_federation(seed: u64) -> (Federation, Arc<Obs>) {
    let obs = Arc::new(Obs::new());
    let data = datagen::cars(3, 400);
    let flaky = Arc::new(
        Source::new(data.clone(), templates::car_dealer(), CostParams::new(10.0, 1.0))
            .with_fault_profile(
                FaultProfile::new(seed).with_transient(0.25).with_outage(1, u64::MAX),
            ),
    );
    let dump = Arc::new(Source::new(
        data,
        templates::download_only(
            "dump",
            &[
                ("make", ValueType::Str),
                ("model", ValueType::Str),
                ("year", ValueType::Int),
                ("color", ValueType::Str),
                ("price", ValueType::Int),
            ],
        ),
        CostParams::new(200.0, 5.0),
    ));
    let federation = Federation::new()
        .with_member(flaky)
        .with_member(dump)
        .with_breaker(CircuitBreakerConfig { failure_threshold: 1, cooldown_ticks: 4 })
        .with_obs(obs.clone());
    (federation, obs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Seeded fault storms through the resilient mediator path: whether
    /// the run succeeds or exhausts its retries, the span slice validates.
    #[test]
    fn storm_spans_stay_well_formed(seed in 0u64..1u64 << 32, rate_pct in 0u64..90) {
        let (mediator, obs) = storm_mediator(seed, rate_pct as f64 / 100.0);
        let policy = RetryPolicy { max_retries: 3, jitter_seed: seed, ..Default::default() };
        let stream = StreamConfig::default();
        let options = StreamOptions::Plain { stream: &stream, policy: Some(&policy) };
        let query = q("make = \"BMW\" ^ price < 40000", &["model", "year"]);
        let _ = mediator.run_stream(&query, options, None);
        let _ = mediator.run_stream(&q("color = \"red\"", &["make", "model"]), options, None);
        let spans = obs.tracer.spans();
        prop_assert!(validate(&spans).is_ok(), "storm spans: {:?}", validate(&spans));
    }

    /// Mid-stream outages forcing replan splices: adaptive federation runs
    /// (including the spliced segments and the failed third query) leave a
    /// well-formed forest, and every `span_mark` window slices cleanly.
    #[test]
    fn replan_splice_spans_stay_well_formed(seed in 0u64..1u64 << 32) {
        let (federation, obs) = replan_federation(seed);
        let policy = RetryPolicy { max_retries: 2, jitter_seed: seed, ..Default::default() };
        let cfg = StreamConfig { batch_size: 16, ..StreamConfig::default() };
        let queries = [
            q("(make = \"BMW\" _ make = \"Audi\" _ make = \"Toyota\") ^ price < 40000",
              &["model", "year"]),
            q("(make = \"Honda\" _ make = \"BMW\") ^ price < 30000", &["model", "year"]),
            // Infeasible everywhere on the dealer; exercises the error path.
            q("year = 1995", &["make", "model"]),
        ];
        let mut windows = Vec::new();
        for query in &queries {
            let mark = obs.tracer.span_mark();
            let options = StreamOptions::Plain { stream: &cfg, policy: Some(&policy) };
            let _ = federation.run_stream(query, options, None);
            windows.push((mark, obs.tracer.spans_from(mark)));
        }
        let all = obs.tracer.spans();
        prop_assert!(validate(&all).is_ok(), "replan spans: {:?}", validate(&all));
        // Each capture window is the exact suffix that arrived after its
        // mark — the per-query profile slices never overlap or lose spans.
        for (mark, window) in &windows {
            prop_assert!(window.len() <= all.len() - mark);
            for (i, s) in window.iter().enumerate() {
                prop_assert_eq!(&all[mark + i], s, "window must be a contiguous slice");
            }
        }
    }

    /// The span layer obeys the kill switch under the same storms: with
    /// the tracer disabled mid-stream, no new spans are recorded and the
    /// already-recorded prefix still validates.
    #[test]
    fn disabled_tracer_records_nothing(seed in 0u64..1u64 << 32) {
        let (mediator, obs) = storm_mediator(seed, 0.3);
        let policy = RetryPolicy { max_retries: 2, jitter_seed: seed, ..Default::default() };
        let stream = StreamConfig::default();
        let options = StreamOptions::Plain { stream: &stream, policy: Some(&policy) };
        let query = q("make = \"BMW\" ^ price < 40000", &["model", "year"]);
        let _ = mediator.run_stream(&query, options, None);
        let before = obs.tracer.spans();
        obs.tracer.set_enabled(false);
        let _ = mediator.run_stream(&query, options, None);
        let after = obs.tracer.spans();
        obs.tracer.set_enabled(true);
        prop_assert_eq!(before.len(), after.len(), "disabled tracer must record no spans");
        prop_assert!(validate(&after).is_ok());
    }
}

/// Adaptive mediator runs under drift (non-random, but kept with the span
/// properties): segments spliced by the drift controller nest correctly.
#[test]
fn adaptive_segment_spans_validate() {
    let obs = Arc::new(Obs::new());
    let source = Arc::new(Source::new(
        datagen::cars(3, 400),
        templates::car_dealer(),
        CostParams::default(),
    ));
    let mediator = Mediator::new(source).with_obs(obs.clone());
    let cfg = AdaptiveConfig {
        stream: StreamConfig { batch_size: 8, ..StreamConfig::default() },
        ..Default::default()
    };
    let query = q("(make = \"BMW\" _ make = \"Audi\") ^ price < 40000", &["model", "year"]);
    let run = mediator
        .run_stream(&query, StreamOptions::Adaptive(&cfg), None)
        .expect("adaptive run succeeds");
    let spans = obs.tracer.spans();
    validate(&spans).expect("adaptive spans must be well-formed");
    assert!(
        spans.iter().any(|s| s.label.starts_with("segment")),
        "adaptive runs open per-segment spans: {spans:?}"
    );
    let parent = spans.iter().find(|s| s.label == "execute (adaptive)").unwrap();
    for seg in spans.iter().filter(|s| s.label.starts_with("segment")) {
        assert_eq!(seg.parent, Some(parent.id), "segments nest under the adaptive span");
    }
    let _ = run;
}
