//! Differential: the off recorders change nothing a query can observe.
//!
//! `Obs::off()` + `FlightRecorder::off()` is the cheaper recorder state
//! (`docs/OBSERVABILITY.md` has the measured price of recording); this
//! suite pins that it is *only* cheaper. Over every [`Scheme`] on the E1
//! (bookstore) and E2 (car-guide) corpora, over the `fedcorpus` federation,
//! and over a faulty mirror pair whose breaker opens mid-run, a stack built
//! on the off values must return the recording stack's rows **in its
//! order**, choose the same plan at the same estimated cost, leave the same
//! transfer [`csqp::source::Meter`], route to the same winner and narrate
//! the same [`csqp::core::federation::FailoverTrace`]. No run may send a
//! source a query its description does not accept.

mod common;

use csqp::core::federation::{CircuitBreakerConfig, FederatedOptions, FederatedRun, Federation};
use csqp::core::mediator::{Mediator, MediatorError, Scheme, StreamOptions, StreamOutcome};
use csqp::core::types::TargetQuery;
use csqp::expr::ValueType;
use csqp::obs::{FlightRecorder, Obs};
use csqp::plan::exec::RetryPolicy;
use csqp::plan::StreamConfig;
use csqp::relation::datagen::{self, BookGenConfig, CarGenConfig};
use csqp::source::{CostParams, FaultProfile, Source};
use csqp::ssdl::templates;
use csqp_bench::fedcorpus::{corpus_members, domain_query, FedCorpusConfig};
use std::sync::Arc;

fn q(cond: &str, attrs: &[&str]) -> TargetQuery {
    TargetQuery::parse(cond, attrs).unwrap_or_else(|e| panic!("bad corpus query {cond:?}: {e}"))
}

/// The recording pair, then the off pair.
fn recorders(recording: bool) -> (Arc<Obs>, Arc<FlightRecorder>) {
    if recording {
        (Arc::new(Obs::new()), Arc::new(FlightRecorder::new()))
    } else {
        (Arc::new(Obs::off()), Arc::new(FlightRecorder::off()))
    }
}

/// E1: Example 1.1 shapes on the bookstore source.
fn e1_corpus() -> (Arc<Source>, Vec<TargetQuery>) {
    let source = Source::new(
        datagen::books(7, &BookGenConfig { n_books: 1500, ..Default::default() }),
        templates::bookstore(),
        CostParams::default(),
    );
    let a = ["isbn", "title", "author"];
    let queries = vec![
        q("(author = \"Sigmund Freud\" _ author = \"Carl Jung\") ^ title contains \"dreams\"", &a),
        q("author = \"Sigmund Freud\"", &a),
        q("(subject = \"fiction\" _ subject = \"poetry\") ^ title contains \"sea\"", &a),
        q("title contains \"history\" ^ subject = \"science\"", &a),
    ];
    (Arc::new(source), queries)
}

/// E2: Example 1.2 shapes on the car-guide source.
fn e2_corpus() -> (Arc<Source>, Vec<TargetQuery>) {
    let source = Source::new(
        datagen::car_listings(11, &CarGenConfig { n_listings: 1500 }),
        templates::car_guide(),
        CostParams::default(),
    );
    let a = ["listing_id", "model", "price"];
    let queries = vec![
        q(
            "style = \"sedan\" ^ (size = \"compact\" _ size = \"midsize\") ^ \
             ((make = \"Toyota\" ^ price <= 20000) _ (make = \"BMW\" ^ price <= 40000))",
            &a,
        ),
        q("make = \"Toyota\" ^ price <= 15000", &a),
        q("(make = \"Honda\" _ make = \"Toyota\") ^ price <= 25000", &a),
        q("(make = \"Audi\" ^ price <= 50000) _ (make = \"BMW\" ^ price <= 45000)", &a),
    ];
    (Arc::new(source), queries)
}

/// Everything a caller can read off one mediator run, rows in order.
fn assert_same_stream(on: &StreamOutcome, off: &StreamOutcome, ctx: &str) {
    assert_eq!(on.outcome.rows.tuples(), off.outcome.rows.tuples(), "{ctx}: rows or their order");
    assert_eq!(on.outcome.planned.plan, off.outcome.planned.plan, "{ctx}: chosen plan");
    assert_eq!(on.outcome.planned.est_cost, off.outcome.planned.est_cost, "{ctx}: est_cost");
    let ranked = |s: &StreamOutcome| -> Vec<_> {
        s.outcome.planned.alternatives.iter().map(|a| (a.plan.clone(), a.est_cost)).collect()
    };
    assert_eq!(ranked(on), ranked(off), "{ctx}: ranked alternatives");
    assert_eq!(on.outcome.meter, off.outcome.meter, "{ctx}: transfer meter");
    assert_eq!(on.outcome.measured_cost, off.outcome.measured_cost, "{ctx}: measured cost");
    assert_eq!(on.resilience, off.resilience, "{ctx}: resilience meter");
    assert_eq!((on.splices, on.drift_triggers), (off.splices, off.drift_triggers), "{ctx}");
    assert_eq!(on.stats, off.stats, "{ctx}: stream stats");
}

/// Both sides of a federated run: the stream plus the routing around it.
fn assert_same_federated(
    on: Result<FederatedRun, MediatorError>,
    off: Result<FederatedRun, MediatorError>,
    ctx: &str,
) {
    match (on, off) {
        (Ok(on), Ok(off)) => {
            assert_same_stream(&on.stream, &off.stream, ctx);
            assert_eq!(on.source_name, off.source_name, "{ctx}: winner");
            assert_eq!(on.plan_rank, off.plan_rank, "{ctx}: serving plan rank");
            assert_eq!(on.trace, off.trace, "{ctx}: failover trace");
            let verdicts = |r: &FederatedRun| -> (Vec<_>, usize) {
                let planned = r.considered.verdicts.iter().map(|(n, v)| (n.clone(), v.is_ok()));
                (planned.collect(), r.considered.pruned)
            };
            assert_eq!(verdicts(&on), verdicts(&off), "{ctx}: per-member verdicts");
            assert_eq!(off.flight_id, 0, "{ctx}: a disarmed recorder hands out no flight ids");
        }
        (Err(on), Err(off)) => assert_eq!(on.to_string(), off.to_string(), "{ctx}: error"),
        (on, off) => panic!("{ctx}: recording {:?} but off {:?}", on.is_ok(), off.is_ok()),
    }
}

#[test]
fn every_scheme_on_the_e1_e2_corpora_is_blind_to_the_recorders() {
    let stream = StreamConfig::default();
    let mut ran = 0;
    for (name, (source, queries)) in [("e1", e1_corpus()), ("e2", e2_corpus())] {
        for scheme in Scheme::ALL {
            let [on, off] = [true, false].map(|recording| {
                let (obs, flight) = recorders(recording);
                Mediator::new(source.clone())
                    .with_scheme(scheme)
                    .with_obs(obs)
                    .with_flight_recorder(flight)
            });
            for (i, query) in queries.iter().enumerate() {
                let ctx = format!("{name}/q{i} {scheme}");
                // Plan once per side; both execution modes run that plan.
                let (a, b) = match (on.plan(query), off.plan(query)) {
                    (Ok(a), Ok(b)) => (a, b),
                    // Infeasible under this scheme — on both sides, alike.
                    (Err(a), Err(b)) => {
                        assert_eq!(a.to_string(), b.to_string(), "{ctx}");
                        continue;
                    }
                    (a, b) => panic!("{ctx}: recording {:?} but off {:?}", a.is_ok(), b.is_ok()),
                };
                for options in [StreamOptions::plain(&stream), StreamOptions::Analyzed(&stream)] {
                    let a = on.run_stream(a.clone(), options, None).expect(&ctx);
                    let b = off.run_stream(b.clone(), options, None).expect(&ctx);
                    assert_same_stream(&a, &b, &ctx);
                    let leaves =
                        |s: &StreamOutcome| s.analysis.as_ref().map(|a| a.subqueries.clone());
                    assert_eq!(leaves(&a), leaves(&b), "{ctx}: per-leaf analysis");
                    common::assert_no_rejections([&source]);
                    ran += 1;
                }
            }
            assert!(!off.obs().enabled() && off.metrics_snapshot().counters.is_empty());
            assert!(off.obs().tracer.render().is_empty() && !off.flight_recorder().armed());
        }
    }
    assert!(ran >= 32, "GenCompact and GenModular run all eight queries in both modes, got {ran}");
}

#[test]
fn the_fedcorpus_federation_is_blind_to_the_recorders() {
    let cfg = FedCorpusConfig { n_sources: 96, ..Default::default() };
    let members = corpus_members(&cfg);
    let [on, off] = [true, false].map(|recording| {
        let (obs, flight) = recorders(recording);
        members
            .iter()
            .fold(Federation::new(), |f, m| f.with_member(m.clone()))
            .with_obs(obs)
            .with_flight_recorder(flight)
    });
    let policy = RetryPolicy { max_retries: 1, ..Default::default() };
    let stream = StreamConfig::default();
    for d in [0usize, 5, 11] {
        for seed in 0..4u64 {
            let query = domain_query(d, seed);
            let ctx = format!("domain {d} seed {seed}");
            let (a, b) = (on.plan(&query).expect(&ctx), off.plan(&query).expect(&ctx));
            assert_eq!(a.source.name, b.source.name, "{ctx}: planned winner");
            assert_eq!(a.planned.plan, b.planned.plan, "{ctx}: winner's plan");
            assert_eq!(a.planned.est_cost, b.planned.est_cost, "{ctx}: winner's est_cost");
            for options in [
                FederatedOptions::Winner(StreamOptions::plain(&stream)),
                FederatedOptions::Failover(&policy),
                FederatedOptions::Splice { policy: &policy, stream: &stream },
            ] {
                let run = |f: &Federation| f.run_stream(&query, options, None);
                assert_same_federated(run(&on), run(&off), &ctx);
                common::assert_no_rejections(&members);
            }
        }
    }
    assert!(on.metrics_snapshot().counter("federation.served") > 0, "the recording side recorded");
    assert!(off.metrics_snapshot().counters.is_empty() && off.explain_why().contains("disabled"));
}

/// The chaos-replan shape: a cheap dealer that goes dark next to a reliable
/// dump, breaker threshold 1 — quarantines, probes, failovers and splices
/// all land in the trace, and none of them may depend on the recorders.
#[test]
fn breaker_storms_narrate_the_same_trace_without_recorders() {
    let federation = |recording: bool| {
        let data = datagen::cars(3, 400);
        let flaky = Source::new(data.clone(), templates::car_dealer(), CostParams::new(10.0, 1.0))
            .with_fault_profile(FaultProfile::new(5).with_transient(0.25).with_outage(1, 6));
        let columns = ["make", "model", "color"].map(|c| (c, ValueType::Str));
        let columns = [&columns[..], &[("year", ValueType::Int), ("price", ValueType::Int)]];
        let dump = Source::new(
            data,
            templates::download_only("dump", &columns.concat()),
            CostParams::new(200.0, 5.0),
        );
        let (obs, flight) = recorders(recording);
        Federation::new()
            .with_member(Arc::new(flaky))
            .with_member(Arc::new(dump))
            .with_breaker(CircuitBreakerConfig { failure_threshold: 1, cooldown_ticks: 2 })
            .with_obs(obs)
            .with_flight_recorder(flight)
    };
    let policy = RetryPolicy { max_retries: 1, jitter_seed: 5, ..Default::default() };
    let stream = StreamConfig { batch_size: 16, ..StreamConfig::default() };
    let queries = [
        q("(make = \"BMW\" _ make = \"Audi\" _ make = \"Toyota\") ^ price < 40000", &["model"]),
        q("(make = \"Honda\" _ make = \"BMW\") ^ price < 30000", &["model", "year"]),
        q("year = 1995", &["make", "model"]),
    ];
    for splice in [false, true] {
        let (on, off) = (federation(true), federation(false));
        let mut eventful = 0;
        for round in 0..4 {
            for (i, query) in queries.iter().enumerate() {
                let options = if splice {
                    FederatedOptions::Splice { policy: &policy, stream: &stream }
                } else {
                    FederatedOptions::Failover(&policy)
                };
                let (a, b) =
                    (on.run_stream(query, options, None), off.run_stream(query, options, None));
                eventful += a.as_ref().map_or(0, |r| r.trace.len().saturating_sub(1));
                assert_same_federated(a, b, &format!("splice={splice} r{round}q{i}"));
                common::assert_no_rejections(on.members().iter().chain(off.members()));
            }
        }
        assert!(eventful > 0, "splice={splice}: the storm must exercise the breaker");
        assert_eq!(on.breaker_states(), off.breaker_states(), "breakers end in the same state");
    }
}
