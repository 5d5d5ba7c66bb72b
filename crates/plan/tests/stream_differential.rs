//! Differential property tests: the streaming executor against the
//! materialized oracle.
//!
//! Over randomized concrete plan shapes (σ/π leaves, nested LocalSp, ∪, ∩)
//! and workloads, streaming must return the same answer set as
//! [`execute`], leave the source's transfer meter with the same delta, and
//! keep both guarantees when transient faults are injected mid-stream
//! (per-batch retries must neither lose nor re-ship tuples).
//! [`request_matrix_matches_the_materialized_oracle`] extends the same
//! promise over every reachable [`StreamRequest`] value. Every run is also
//! held to the paper's safety property ([`assert_no_rejections`]).

use csqp_expr::gen::{CondGen, CondGenConfig, GenAttr};
use csqp_expr::{CondTree, Value, ValueType};
use csqp_plan::exec::{ExecError, RetryPolicy};
use csqp_plan::exec_stream::{
    execute_stream, execute_stream_collect, ReplanController, ReplanProbe, Retry, SpliceAction,
    StreamMode, StreamRequest,
};
use csqp_plan::{attrs, execute, execute_measured, OracleCard, Plan, StreamConfig};
use csqp_relation::{Relation, Schema};
use csqp_source::{CostParams, FaultProfile, ResilienceMeter, Source};
use csqp_ssdl::templates;
use proptest::prelude::*;
use std::sync::Arc;

fn gen_attrs() -> Vec<GenAttr> {
    vec![
        GenAttr::ints("a", 0, 5, 1),
        GenAttr::ints("b", 0, 3, 1),
        GenAttr::strings("c", &["s0", "s1", "s2"]),
    ]
}

fn cond(seed: u64, n: usize) -> CondTree {
    let mut g = CondGen::new(seed, gen_attrs());
    g.tree(&CondGenConfig { n_atoms: n, max_depth: 3, and_bias: 0.5, eq_bias: 0.7 })
}

/// A random **concrete** plan (no Choice): source-query leaves under
/// unions, intersections, and local σ/π wrappers, all projecting the key so
/// every shape is exact and schema-compatible.
fn concrete_plan(seed: u64, depth: usize) -> Plan {
    let mk_leaf = |s: u64| Plan::source(Some(cond(s, 1 + (s % 3) as usize)), attrs(["k"]));
    if depth == 0 {
        return mk_leaf(seed);
    }
    match seed % 4 {
        0 => Plan::local(
            Some(cond(seed / 4 + 7, 1)),
            attrs(["k"]),
            Plan::source(Some(cond(seed / 4 + 8, 1)), attrs(["k", "a", "b", "c"])),
        ),
        1 => Plan::Union(vec![
            concrete_plan(seed / 4 + 3, depth - 1),
            concrete_plan(seed / 4 + 4, depth - 1),
        ]),
        2 => Plan::Intersect(vec![
            concrete_plan(seed / 4 + 5, depth - 1),
            concrete_plan(seed / 4 + 6, depth - 1),
        ]),
        _ => mk_leaf(seed),
    }
}

fn source_data(seed: u64) -> (std::sync::Arc<Schema>, Vec<Vec<Value>>) {
    let schema = Schema::new(
        "t",
        vec![
            ("k", ValueType::Int),
            ("a", ValueType::Int),
            ("b", ValueType::Int),
            ("c", ValueType::Str),
        ],
        &["k"],
    )
    .unwrap();
    let rows: Vec<Vec<Value>> = (0..200i64)
        .map(|i| {
            let x = i.wrapping_mul(seed as i64 | 1);
            vec![
                Value::Int(i),
                Value::Int(x.rem_euclid(6)),
                Value::Int(x.rem_euclid(4)),
                Value::str(format!("s{}", x.rem_euclid(3))),
            ]
        })
        .collect();
    (schema, rows)
}

fn full_source(seed: u64) -> Source {
    let (schema, rows) = source_data(seed);
    let desc = templates::full_relational(
        "full",
        &[
            ("k", ValueType::Int),
            ("a", ValueType::Int),
            ("b", ValueType::Int),
            ("c", ValueType::Str),
        ],
    );
    Source::new(Relation::from_rows(schema, rows), desc, CostParams::new(10.0, 1.0))
}

/// The paper's safety property: the executor never sends a source a query
/// its SSDL description does not accept, so the capability gate has
/// turned nothing away since `source` was built.
fn assert_no_rejections(source: &Source) {
    assert_eq!(
        source.meter().rejected,
        0,
        "source {} was sent a query its description does not accept",
        source.name
    );
}

/// A plain collected run under `cfg`.
fn stream(plan: &Plan, source: &Source, cfg: &StreamConfig) -> Relation {
    let rows = execute_stream_collect(plan, source, StreamRequest::new(cfg)).unwrap().0;
    assert_no_rejections(source);
    rows
}

/// The mode column of the request matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    Plain,
    Analyzed,
    /// A controller that never splices.
    NeverSplices,
    /// A controller that splices the residual plan back in, once, at the
    /// first batch boundary.
    SplicesOnce,
}

/// One [`StreamRequest`] of the matrix.
#[derive(Debug, Clone, Copy)]
struct Cell {
    limit: Option<u64>,
    batch: usize,
    /// Transient faults on the source, per-batch retries on the request.
    faulty: bool,
    mode: Mode,
    traced: bool,
}

/// limit × batch size × retry × mode × tracer. (Analysis together with a
/// controller is not a [`StreamMode`] value, so the table cannot name it.)
fn cells() -> Vec<Cell> {
    let mut out = Vec::new();
    for limit in [None, Some(3)] {
        for batch in [1, 7, 64] {
            for faulty in [false, true] {
                for mode in [Mode::Plain, Mode::Analyzed, Mode::NeverSplices, Mode::SplicesOnce] {
                    for traced in [false, true] {
                        out.push(Cell { limit, batch, faulty, mode, traced });
                    }
                }
            }
        }
    }
    out
}

/// Re-splices the not-yet-drained part of the running plan against the
/// same source — a splice that changes nothing but the segment count.
struct TestController {
    source: Arc<Source>,
    splice: bool,
}

impl ReplanController for TestController {
    fn on_batch(&mut self, probe: &ReplanProbe<'_>) -> Option<SpliceAction> {
        let plan = probe.remaining_plan().filter(|_| std::mem::take(&mut self.splice))?;
        Some(SpliceAction { plan, source: self.source.clone() })
    }

    fn on_leaf_error(&mut self, _: &ReplanProbe<'_>, _: &ExecError) -> Option<SpliceAction> {
        None
    }
}

/// Bare source-query roots whose projection drops the key, so the source
/// stream really dedups: the plans where a splice must carry the leaf's
/// shipped set, because no root operator keeps one.
fn bare_lossy_leaves() -> Vec<(u64, Plan)> {
    vec![
        (11, Plan::source(Some(cond(3, 1)), attrs(["a", "b"]))),
        (23, Plan::source(Some(cond(8, 2)), attrs(["c"]))),
        (7, Plan::source(Some(cond(12, 1)), attrs(["b", "c"]))),
    ]
}

/// Bare source-query roots whose projection keeps the unique `k`: the
/// source stream keeps no seen set, so a splice rebuilds the leaf's shipped
/// set from the rows it scanned.
fn bare_key_leaves() -> Vec<(u64, Plan)> {
    vec![
        (11, Plan::source(Some(cond(3, 1)), attrs(["k", "a"]))),
        (23, Plan::source(Some(cond(8, 2)), attrs(["k"]))),
        (7, Plan::source(Some(cond(12, 1)), attrs(["k", "b", "c"]))),
    ]
}

/// Every reachable [`StreamRequest`] against the materialized oracle:
/// set-equal answers in the plain stream's order, spliced or not (a splice
/// re-covers drained ground and must emit nothing twice); the oracle's
/// meter delta when nothing splices; `splices == 0` without a controller;
/// analysis exactly when asked for; spans exactly when traced.
#[test]
fn request_matrix_matches_the_materialized_oracle() {
    let policy = RetryPolicy { max_retries: 32, ..Default::default() };
    let model = CostParams::new(10.0, 1.0);
    let mut spliced = 0;
    let shapes = [(11, 5, 2), (23, 9, 3), (7, 2, 1), (40, 14, 0)]
        .map(|(seed, plan_seed, depth)| (seed, concrete_plan(plan_seed, depth)));
    for (seed, plan) in shapes.into_iter().chain(bare_lossy_leaves()).chain(bare_key_leaves()) {
        let oracle = full_source(seed);
        let (want, want_meter) = execute_measured(&plan, &oracle).unwrap();
        assert_no_rejections(&oracle);
        let order = stream(&plan, &oracle, &StreamConfig::default());
        assert_eq!(order, want, "the order reference is the oracle's answer");
        for cell in cells() {
            let ctx = format!("plan {plan} {cell:?}");
            let faults =
                FaultProfile::new(seed).with_transient(if cell.faulty { 0.3 } else { 0.0 });
            let source = Arc::new(full_source(seed).with_fault_profile(faults));
            let cfg = StreamConfig { batch_size: cell.batch, limit: cell.limit };
            let card = OracleCard::new(source.relation());
            let mut controller =
                TestController { source: source.clone(), splice: cell.mode == Mode::SplicesOnce };
            let has_controller = matches!(cell.mode, Mode::NeverSplices | Mode::SplicesOnce);
            let mut res = ResilienceMeter::default();
            let tracer = csqp_obs::Tracer::new();
            let request = StreamRequest {
                config: &cfg,
                retry: cell.faulty.then_some(Retry { policy: &policy, meter: &mut res }),
                mode: match cell.mode {
                    Mode::Plain => StreamMode::Plain,
                    Mode::Analyzed => StreamMode::Analyzed { model: &model, card: &card },
                    Mode::NeverSplices | Mode::SplicesOnce => StreamMode::Adaptive(&mut controller),
                },
                tracer: cell.traced.then_some(&tracer),
            };
            let (got, run) = execute_stream_collect(&plan, &source, request).expect(&ctx);
            assert_no_rejections(&source);
            let n = cell.limit.map_or(want.len(), |l| want.len().min(l as usize));
            assert_eq!(got.len(), n, "{ctx}");
            assert_eq!(run.emitted as usize, n, "{ctx}");
            assert!(got.tuples().iter().all(|t| want.contains(t)), "{ctx}");
            assert_eq!(run.analysis.is_some(), cell.mode == Mode::Analyzed, "{ctx}");
            assert!(run.splices <= u64::from(cell.mode == Mode::SplicesOnce), "{ctx}");
            spliced += run.splices;
            assert_eq!(got.tuples(), &order.tuples()[..n], "{ctx}");
            if run.splices == 0 && cell.limit.is_none() {
                assert_eq!(source.meter(), want_meter, "{ctx}");
            }
            // The source is the cell's own, so the run's meter is all of it.
            assert_eq!(run.meter, source.meter(), "{ctx}");
            assert_eq!(run.measured_cost, source.meter().cost(source.cost_params()), "{ctx}");
            if cell.faulty {
                assert!(res.attempts >= source.meter().queries, "{ctx}");
            }
            let spans = tracer.spans();
            assert!(cell.traced || spans.is_empty(), "{ctx}");
            if cell.traced && tracer.is_enabled() {
                assert!(spans.iter().any(|s| s.label == "open leaf 0"), "{ctx}");
                assert_eq!(spans.iter().any(|s| s.label == "segment 0"), has_controller, "{ctx}");
            }
        }
    }
    assert!(spliced > 0, "the splices-once column must actually splice");
}

/// Splices a failed segment's plan onto a fault-free twin of its source.
struct RecoverOnLeafError {
    twin: Arc<Source>,
}

impl ReplanController for RecoverOnLeafError {
    fn on_batch(&mut self, _: &ReplanProbe<'_>) -> Option<SpliceAction> {
        None
    }

    fn on_leaf_error(&mut self, probe: &ReplanProbe<'_>, _: &ExecError) -> Option<SpliceAction> {
        Some(SpliceAction { plan: probe.plan.clone(), source: self.twin.clone() })
    }
}

/// A bare leaf that dies on its k-th pull and is spliced, by
/// `on_leaf_error`, to the same plan on an identical source: the rows it
/// emitted before dying are exactly what the recovered segment must skip,
/// whether the leaf's stream dedups through a seen set (key dropped) or
/// rebuilds its shipped set from the scan (key kept).
#[test]
fn a_leaf_spliced_after_a_mid_stream_failure_emits_each_row_once_in_order() {
    let mut recovered = 0;
    for (seed, plan) in bare_lossy_leaves().into_iter().chain(bare_key_leaves()) {
        let reference = stream(&plan, &full_source(seed), &StreamConfig::default());
        for batch in [1, 3, 16] {
            for k in 1..5 {
                let ctx = format!("{plan} batch {batch} pull {k}");
                // Attempt 0 is the open; pulls are attempts 1, 2, …
                let dying = full_source(seed)
                    .with_fault_profile(FaultProfile::new(0).with_outage(k, u64::MAX / 2));
                let twin = Arc::new(full_source(seed));
                let mut controller = RecoverOnLeafError { twin: twin.clone() };
                let cfg = StreamConfig::default().with_batch_size(batch);
                let request = StreamRequest {
                    mode: StreamMode::Adaptive(&mut controller),
                    ..StreamRequest::new(&cfg)
                };
                let mut rows = Vec::new();
                let run = execute_stream(&plan, &dying, request, &mut |b| {
                    rows.extend(b.into_tuples());
                    true
                })
                .expect(&ctx);
                assert_no_rejections(&dying);
                assert_no_rejections(&twin);
                assert_eq!(rows, reference.tuples(), "{ctx}");
                assert_eq!(run.emitted as usize, rows.len(), "{ctx}");
                recovered += run.splices;
            }
        }
    }
    assert!(recovered > 0, "some leaf must die mid-stream and be spliced");
}

/// Resilience counters reach the caller's meter on failure as well as on
/// success, in every mode.
#[test]
fn failed_runs_still_report_their_retries() {
    let plan = concrete_plan(3, 0);
    let policy = RetryPolicy { max_retries: 2, ..Default::default() };
    let cfg = StreamConfig::default();
    let model = CostParams::new(10.0, 1.0);
    for mode in 0..3 {
        let source =
            Arc::new(full_source(5).with_fault_profile(FaultProfile::new(0).with_transient(1.0)));
        let card = OracleCard::new(source.relation());
        let mut controller = TestController { source: source.clone(), splice: false };
        let mut res = ResilienceMeter::default();
        let request = StreamRequest {
            retry: Some(Retry { policy: &policy, meter: &mut res }),
            mode: match mode {
                0 => StreamMode::Plain,
                1 => StreamMode::Analyzed { model: &model, card: &card },
                _ => StreamMode::Adaptive(&mut controller),
            },
            ..StreamRequest::new(&cfg)
        };
        match execute_stream_collect(&plan, &source, request) {
            Err(ExecError::Exhausted { attempts, .. }) => assert_eq!(attempts, 3),
            other => panic!("mode {mode}: expected Exhausted, got {other:?}"),
        }
        assert_no_rejections(&source);
        assert_eq!(res.retries, 2, "mode {mode}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Serial streaming is a drop-in for the materialized executor:
    /// set-equal answer AND an identical transfer-meter delta, at any
    /// batch size.
    #[test]
    fn stream_equals_materialized_with_meter_parity(
        seed in 1u64..50_000,
        plan_seed in 0u64..100_000,
        depth in 0usize..4,
        batch in 1usize..97,
    ) {
        let plan = concrete_plan(plan_seed, depth);
        let source = full_source(seed);
        let (want, want_meter) = execute_measured(&plan, &source).unwrap();
        assert_no_rejections(&source);
        source.reset_meter();
        let cfg = StreamConfig::default().with_batch_size(batch);
        let got = stream(&plan, &source, &cfg);
        prop_assert_eq!(&got, &want, "streaming answer diverged");
        prop_assert_eq!(source.meter(), want_meter, "meter deltas diverged");
    }

    /// Early termination returns exactly the first `limit` tuples of the
    /// full stream.
    #[test]
    fn limit_is_a_prefix_of_the_full_stream(
        seed in 1u64..50_000,
        plan_seed in 0u64..100_000,
        depth in 0usize..4,
        limit in 0u64..40,
    ) {
        let plan = concrete_plan(plan_seed, depth);
        let source = full_source(seed);
        let full = stream(&plan, &source, &StreamConfig::default());
        let limited = stream(&plan, &source, &StreamConfig::default().with_limit(limit));
        let n = (limit as usize).min(full.len());
        prop_assert_eq!(limited.len(), n);
        prop_assert_eq!(limited.tuples(), &full.tuples()[..n]);
    }

    /// Under injected transient faults, resilient streaming still matches
    /// the fault-free materialized oracle — same answer set, same source
    /// queries, and no tuple ever shipped twice (the per-batch retry
    /// resumes the scan cursor instead of restarting the query).
    #[test]
    fn resilient_stream_matches_oracle_under_faults(
        seed in 1u64..20_000,
        plan_seed in 0u64..100_000,
        depth in 0usize..3,
        fault_seed in 0u64..1_000,
        batch in 1usize..41,
    ) {
        let plan = concrete_plan(plan_seed, depth);
        let oracle = full_source(seed);
        let want = execute(&plan, &oracle).unwrap();
        assert_no_rejections(&oracle);

        let faulty = full_source(seed)
            .with_fault_profile(FaultProfile::new(fault_seed).with_transient(0.3));
        let policy = RetryPolicy { max_retries: 32, ..Default::default() };
        let mut res = ResilienceMeter::default();
        let cfg = StreamConfig::default().with_batch_size(batch);
        let retry = Some(Retry { policy: &policy, meter: &mut res });
        let (got, run) =
            execute_stream_collect(&plan, &faulty, StreamRequest { retry, ..StreamRequest::new(&cfg) }).unwrap();
        assert_no_rejections(&faulty);
        let meter = faulty.meter();
        prop_assert_eq!(run.meter, meter, "the run meters exactly what its source shipped");
        prop_assert_eq!(&got, &want, "faults corrupted the streamed answer");
        prop_assert_eq!(
            meter.queries, oracle.meter().queries,
            "retries must not re-open source queries that succeeded"
        );
        prop_assert_eq!(
            meter.tuples_shipped, oracle.meter().tuples_shipped,
            "a faulted pull re-shipped (or dropped) tuples"
        );
    }
}
