//! Per-query metrics and transfer attribution under concurrency.
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
//! Each member is the only one able to answer its domain's queries, and
//! the eight queries of one round share four members, two to a member. The
//! values the queries write stay exact because a run meters itself: its
//! transfer (`source.*`, observed cost) is what its own leaves opened and
//! pulled, not a delta of the member's shared meter.
//!
//! Every query runs once before either leg, so the members' shared `Check`
//! memos are warm and each query's footprint no longer depends on which
//! query ran first.

use csqp_core::federation::Federation;
use csqp_core::mediator::{Mediator, StreamOptions};
use csqp_core::types::TargetQuery;
use csqp_expr::{Value, ValueType};
use csqp_obs::ProfileCapture;
use csqp_plan::exec::RetryPolicy;
use csqp_plan::exec_stream::StreamConfig;
use csqp_relation::{datagen, Relation, Schema};
use csqp_source::{CostParams, FaultProfile, Meter, Source};
use csqp_ssdl::{parse_ssdl, templates};
use std::sync::{Arc, Barrier};

const THREADS: usize = 8;
const ROUNDS: usize = 4;
/// Members of the profiled federation: each answers two of the eight
/// queries.
const MEMBERS: usize = 4;

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

/// Query `i`, on domain `i % MEMBERS` and shaped for that member's
/// capability. The first query of a domain projects the key, the second
/// does not, so the two ship different row counts.
fn domain_query(i: usize) -> TargetQuery {
    let d = i % MEMBERS;
    let (a, b, c) = (format!("a{d}"), format!("b{d}"), format!("c{d}"));
    let (cond, attr, keyless) = match d % 4 {
        0 => (format!("{a} = {} ^ {c} = \"c1\"", i % 7), &b, &a),
        1 => (format!("{a} = {} ^ {b} = {}", i % 7, i % 5), &c, &b),
        2 => (format!("{b} = {} ^ {c} = \"c{}\"", i % 5, i % 3), &b, &b),
        _ => (format!("{a} = {} _ {a} = {}", i % 7, (i + 3) % 7), &a, &a),
    };
    let attrs = if i < MEMBERS { vec!["k", attr.as_str()] } else { vec![keyless.as_str()] };
    TargetQuery::parse(&cond, &attrs).expect("domain query parses")
}

/// Runs query `q` on its winner inside a capture window; returns the
/// profile's metrics section.
fn profiled(fed: &Federation, q: &TargetQuery) -> String {
    let capture = ProfileCapture::begin(fed.obs());
    let stream = StreamConfig::default();
    let run = fed.run_stream(q, StreamOptions::plain(&stream), None);
    assert!(run.is_ok(), "{q}: {:?}", run.err());
    capture.finish(None).metrics.to_json()
}

#[test]
fn per_query_metrics_are_the_same_on_eight_threads_as_serially() {
    let fed = (0..MEMBERS).map(domain_member).fold(Federation::new(), Federation::with_member);
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

/// One run's transfer and its measured cost.
type Transfer = (Meter, f64);

/// A mirror of `data` under the car-dealer forms, named `name`.
fn dealer(name: &str, data: &Relation, cost: CostParams) -> Source {
    let mut desc = templates::car_dealer();
    desc.name = name.into();
    Source::new(data.clone(), desc, cost)
}

/// The splice run: the cheap `flaky` mirror ships its first batch, goes
/// down for good, and `shared` takes over the residual. Built fresh for
/// each leg so the fault stream and the breakers start over.
fn spliced(shared: &Arc<Source>, data: &Relation) -> Transfer {
    let flaky = dealer("flaky", data, CostParams::new(5.0, 0.5))
        .with_fault_profile(FaultProfile::new(0).with_outage(2, u64::MAX));
    let fed = Federation::new().with_member(Arc::new(flaky)).with_member(shared.clone());
    let (policy, stream) = (RetryPolicy { max_retries: 0, ..Default::default() }, small_batches());
    let q = TargetQuery::parse("make = \"BMW\" ^ price < 60000", &["model", "year"]).unwrap();
    let run =
        fed.run_stream(&q, StreamOptions::Plain { stream: &stream, policy: Some(&policy) }, None);
    let run = run.expect("the shared member rescues the run");
    assert_eq!((run.source_name.as_str(), run.stream.splices), ("shared", 1));
    (run.stream.outcome.meter, run.stream.outcome.measured_cost)
}

fn small_batches() -> StreamConfig {
    StreamConfig { batch_size: 16, ..StreamConfig::default() }
}

#[test]
fn run_meters_are_the_same_on_eight_threads_as_serially() {
    let data = datagen::cars(11, 6000);
    let shared = Arc::new(dealer("shared", &data, CostParams::new(10.0, 1.0)));
    let mediator = Mediator::new(shared.clone());
    // Mixed shapes, constants and limits, all on the one shared member.
    let queries: Vec<(TargetQuery, Option<u64>)> = [
        ("make = \"BMW\" ^ price < 40000", &["model", "year"][..], None),
        ("make = \"Toyota\" ^ price < 90000", &["model"][..], None),
        ("make = \"Ford\" ^ color = \"red\"", &["model", "year"][..], None),
        ("make = \"BMW\" ^ color = \"black\"", &["year"][..], None),
        ("(make = \"Audi\" _ make = \"BMW\") ^ price < 30000", &["model"][..], None),
        ("make = \"Honda\" ^ price < 90000", &["model", "year"][..], Some(7)),
        ("make = \"Toyota\" ^ color = \"red\"", &["make", "model"][..], None),
        ("make = \"Ford\" ^ price < 20000", &["model", "color"][..], Some(3)),
    ]
    .into_iter()
    .map(|(cond, attrs, limit)| (TargetQuery::parse(cond, attrs).unwrap(), limit))
    .collect();
    let run = |(q, limit): &(TargetQuery, Option<u64>)| -> Transfer {
        let stream = StreamConfig { limit: *limit, ..small_batches() };
        let out = mediator.run_stream(q, StreamOptions::plain(&stream), None).unwrap().outcome;
        (out.meter, out.measured_cost)
    };
    let serial: Vec<Transfer> = queries.iter().map(run).collect();
    let serial_splice = spliced(&shared, &data);
    assert!(serial.iter().all(|(m, _)| m.queries > 0 && m.tuples_shipped > 0));
    assert_eq!(serial_splice.0.queries, 2, "both members opened a stream");

    // Thread t runs query (t + round) % THREADS, the splice thread runs
    // the splice, and every round starts together.
    let start = Barrier::new(THREADS + 1);
    let (parallel, parallel_splice) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (run, queries, start) = (&run, &queries, &start);
                scope.spawn(move || {
                    (0..ROUNDS)
                        .map(|round| {
                            start.wait();
                            let i = (t + round) % THREADS;
                            (i, run(&queries[i]))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let splices: Vec<Transfer> = (0..ROUNDS)
            .map(|_| {
                start.wait();
                spliced(&shared, &data)
            })
            .collect();
        let runs: Vec<_> =
            workers.into_iter().flat_map(|w| w.join().expect("query thread")).collect();
        (runs, splices)
    });
    assert_eq!(parallel.len(), THREADS * ROUNDS);
    for (i, got) in parallel {
        assert_eq!(got, serial[i], "query {i} metered differently on {THREADS} threads");
    }
    for got in parallel_splice {
        assert_eq!(
            got, serial_splice,
            "the splice run metered differently beside {THREADS} threads"
        );
    }
}

/// A round-trip's fault-gate latency is charged to the run that made it:
/// eight runs under a retry policy, started together on one source with a
/// fixed latency and no faults, each read `L ×` their own round-trips in
/// `resilience.ticks` — exactly what the same run reads alone.
#[test]
fn retry_ticks_are_each_runs_own_on_eight_threads() {
    const L: u64 = 3;
    let data = datagen::cars(11, 6000);
    let source = dealer("slow", &data, CostParams::new(10.0, 1.0))
        .with_fault_profile(FaultProfile::new(0).with_latency(L));
    let mediator = Mediator::new(Arc::new(source));
    let policy = RetryPolicy::default();
    let stream = small_batches();
    let queries: Vec<TargetQuery> = [
        ("make = \"BMW\" ^ price < 40000", &["model", "year"][..]),
        ("make = \"Toyota\" ^ price < 90000", &["model"][..]),
        ("make = \"Ford\" ^ color = \"red\"", &["model", "year"][..]),
        ("make = \"BMW\" ^ color = \"black\"", &["year"][..]),
        ("(make = \"Audi\" _ make = \"BMW\") ^ price < 30000", &["model"][..]),
        ("make = \"Honda\" ^ price < 90000", &["model", "year"][..]),
        ("make = \"Toyota\" ^ color = \"red\"", &["make", "model"][..]),
        ("make = \"Ford\" ^ price < 20000", &["model", "color"][..]),
    ]
    .into_iter()
    .map(|(cond, attrs)| TargetQuery::parse(cond, attrs).unwrap())
    .collect();
    let ticks = |q: &TargetQuery| {
        let options = StreamOptions::Plain { stream: &stream, policy: Some(&policy) };
        let run = mediator.run_stream(q, options, None).unwrap();
        assert_eq!((run.resilience.faults(), run.resilience.retries), (0, 0));
        // Each leaf open is a round-trip, and so is each pull after it.
        assert!(run.resilience.ticks > L * run.outcome.meter.queries, "{q}");
        run.resilience.ticks
    };
    let alone: Vec<u64> = queries.iter().map(ticks).collect();
    assert!(alone.iter().all(|t| t % L == 0), "alone, a run is charged L per round-trip");

    let start = Barrier::new(THREADS);
    let together: Vec<(usize, u64)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (ticks, queries, start) = (&ticks, &queries, &start);
                scope.spawn(move || {
                    (0..ROUNDS)
                        .map(|round| {
                            start.wait();
                            let i = (t + round) % THREADS;
                            (i, ticks(&queries[i]))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("query thread")).collect()
    });
    assert_eq!(together.len(), THREADS * ROUNDS);
    for (i, got) in together {
        assert_eq!(got, alone[i], "query {i} was charged another run's round-trips");
    }
}
