//! Per-query metrics attribution under concurrency.
//!
//! Eight threads run queries with distinct metric footprints on one shared
//! `Federation`, each inside its own `ProfileCapture`, starting every round
//! together so the capture windows overlap. The multiset of per-query
//! `metrics` sections must equal the one a serial run of the same queries
//! produces: a capture holds its own query's registry writes, never a
//! neighbour's. The profile's tick latency is left out (the shared
//! tracer's clock moves with every thread); the metrics section carries no
//! clock reading.
//!
//! Each member is the only one able to answer its domain's query, and the
//! queries of one round go to eight different members. That keeps the
//! values the queries write exact too: a run's transfer (`source.*`,
//! observed cost) is read as a delta of its member's shared meter, which
//! two concurrent queries on one member would both see.
//!
//! Every query runs once before either leg, so the members' shared `Check`
//! memos are warm and each query's footprint no longer depends on which
//! query ran first.

use csqp_core::federation::{FederatedOptions, Federation};
use csqp_core::mediator::StreamOptions;
use csqp_core::types::TargetQuery;
use csqp_expr::{Value, ValueType};
use csqp_obs::ProfileCapture;
use csqp_plan::exec_stream::StreamConfig;
use csqp_relation::{Relation, Schema};
use csqp_source::{CostParams, Source};
use csqp_ssdl::parse_ssdl;
use std::sync::{Arc, Barrier};

const THREADS: usize = 8;
const ROUNDS: usize = 4;

/// Member `d` owns domain `d`'s attributes `a{d}`, `b{d}`, `c{d}` (plus
/// the key `k`) under one of four capability shapes, over `40 + 10·d`
/// rows.
fn domain_member(d: usize) -> Arc<Source> {
    let (a, b, c) = (format!("a{d}"), format!("b{d}"), format!("c{d}"));
    let schema = Schema::new(
        format!("dom{d}"),
        vec![
            ("k", ValueType::Int),
            (a.as_str(), ValueType::Int),
            (b.as_str(), ValueType::Int),
            (c.as_str(), ValueType::Str),
        ],
        &["k"],
    )
    .expect("domain schema is valid");
    let rows = (0..40 + 10 * d as i64)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Int(i % 7),
                Value::Int(i % 5),
                Value::str(format!("c{}", i % 3)),
            ]
        })
        .collect();
    let forms = match d % 4 {
        0 => format!("s1 -> true ;\n attributes :: s1 : {{ k, {a}, {b}, {c} }} ;"),
        1 => format!(
            "s1 -> {a} = $int ;\n s2 -> {a} = $int ^ {b} = $int ;\n \
             attributes :: s1 : {{ k, {a}, {b} }} ;\n attributes :: s2 : {{ k, {a}, {b}, {c} }} ;"
        ),
        2 => format!("s1 -> {b} = $int ^ {c} = $str ;\n attributes :: s1 : {{ k, {b}, {c} }} ;"),
        _ => format!(
            "s1 -> {a} = $int _ {a} = $int ;\n s2 -> {c} = $str ;\n \
             attributes :: s1 : {{ k, {a} }} ;\n attributes :: s2 : {{ k, {a}, {c} }} ;"
        ),
    };
    let desc = parse_ssdl(&format!("source m{d} {{\n {forms}\n}}")).expect("member SSDL parses");
    Arc::new(Source::new(
        Relation::from_rows(schema, rows),
        desc,
        CostParams::new(10.0 + d as f64, 1.0),
    ))
}

/// Domain `d`'s query, shaped for its member's capability.
fn domain_query(d: usize) -> TargetQuery {
    let (a, b, c) = (format!("a{d}"), format!("b{d}"), format!("c{d}"));
    let (cond, attr) = match d % 4 {
        0 => (format!("{a} = {} ^ {c} = \"c1\"", d % 7), &b),
        1 => (format!("{a} = {} ^ {b} = {}", d % 7, d % 5), &c),
        2 => (format!("{b} = {} ^ {c} = \"c{}\"", d % 5, d % 3), &b),
        _ => (format!("{a} = {} _ {a} = {}", d % 7, (d + 3) % 7), &a),
    };
    TargetQuery::parse(&cond, &["k", attr.as_str()]).expect("domain query parses")
}

/// Runs query `q` on its winner inside a capture window; returns the
/// profile's metrics section.
fn profiled(fed: &Federation, q: &TargetQuery) -> String {
    let capture = ProfileCapture::begin(fed.obs());
    let stream = StreamConfig::default();
    let run = fed.run_stream(q, FederatedOptions::Winner(StreamOptions::plain(&stream)), None);
    assert!(run.is_ok(), "{q}: {:?}", run.err());
    capture.finish(None).metrics.to_json()
}

#[test]
fn per_query_metrics_are_the_same_on_eight_threads_as_serially() {
    let fed = (0..THREADS).map(domain_member).fold(Federation::new(), Federation::with_member);
    let queries: Vec<TargetQuery> = (0..THREADS).map(domain_query).collect();
    for q in &queries {
        profiled(&fed, q);
    }
    // Thread t runs query (t + round) % THREADS in each round, so the
    // queries of one round all differ.
    let order = |t: usize, round: usize| (t + round) % THREADS;
    let mut serial: Vec<(usize, String)> = (0..ROUNDS)
        .flat_map(|round| (0..THREADS).map(move |t| order(t, round)))
        .map(|i| (i, profiled(&fed, &queries[i])))
        .collect();
    let start = Barrier::new(THREADS);
    let mut parallel: Vec<(usize, String)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (fed, queries, start) = (&fed, &queries, &start);
                scope.spawn(move || {
                    (0..ROUNDS)
                        .map(|round| {
                            start.wait();
                            let i = order(t, round);
                            (i, profiled(fed, &queries[i]))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("query thread")).collect()
    });
    let distinct: std::collections::BTreeSet<&str> =
        serial.iter().map(|(_, m)| m.as_str()).collect();
    assert_eq!(distinct.len(), THREADS, "every query has its own footprint");
    serial.sort();
    parallel.sort();
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s, p, "query {} was attributed differently on {THREADS} threads", s.0);
    }
}
