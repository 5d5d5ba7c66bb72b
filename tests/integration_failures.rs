//! Failure-path integration tests: the stack must fail *loudly and
//! accurately* — typed errors with context, truncation reported, no silent
//! wrong answers — when queries are unanswerable, plans are malformed, or
//! budgets bite.

use csqp::expr::rewrite::RewriteBudget;
use csqp::prelude::*;
use csqp_core::mediator::MediatorError;
use csqp_core::types::PlanError;
use csqp_core::Federation;
use csqp_plan::exec::{ExecError, RetryPolicy};
use csqp_plan::exec_stream::{
    execute_stream, execute_stream_collect, ReplanController, ReplanProbe, SpliceAction,
    StreamConfig, StreamMode, StreamRequest,
};
use csqp_source::{FaultProfile, SourceError};
use std::sync::Arc;

fn dealer() -> Arc<Source> {
    Arc::new(Source::new(
        csqp::relation::datagen::cars(3, 200),
        csqp::ssdl::templates::car_dealer(),
        CostParams::default(),
    ))
}

#[test]
fn unsupported_source_query_error_carries_context() {
    let s = dealer();
    let q = TargetQuery::parse("year = 1995", &["model"]).unwrap();
    let err = Mediator::new(s).plan(&q).unwrap_err();
    match err {
        PlanError::NoFeasiblePlan { query, scheme } => {
            assert!(query.contains("year = 1995"), "{query}");
            assert_eq!(scheme, "GenCompact");
        }
        other => panic!("unexpected error {other:?}"),
    }
}

/// Hands a dying run, once, to a fixed fallback plan.
struct SpliceOnce(Option<SpliceAction>);

impl ReplanController for SpliceOnce {
    fn on_batch(&mut self, _: &ReplanProbe<'_>) -> Option<SpliceAction> {
        None
    }

    fn on_leaf_error(&mut self, _: &ReplanProbe<'_>, _: &ExecError) -> Option<SpliceAction> {
        self.0.take()
    }
}

#[test]
fn executor_surfaces_gate_rejections() {
    let s = dealer();
    // Hand-built plan whose source query no ordering admits (year is not
    // a grammar token at all).
    let bad = Plan::source(Some(parse_condition("year = 1995").unwrap()), attrs(["model"]));
    let cfg = StreamConfig::default();
    let streamed = execute_stream_collect(&bad, &s, StreamRequest::new(&cfg)).map(|(r, _)| r);
    for outcome in [execute(&bad, &s), streamed] {
        match outcome {
            Err(ExecError::Source(e @ SourceError::Unsupported { .. })) => assert_eq!(
                e.to_string(),
                "source `car_dealer` does not support SP(year = 1995, {model})"
            ),
            other => panic!("expected gate rejection, got {other:?}"),
        }
    }
    assert_eq!(s.meter().rejected, 0, "refused at admission: the source never saw it");
    // The run that met the refusal still counts it in its own meter.
    let good =
        Plan::source(parse_condition("make = \"BMW\" ^ price < 40000").ok(), attrs(["model"]));
    let mut ctl = SpliceOnce(Some(SpliceAction { plan: good, source: s.clone() }));
    let request =
        StreamRequest { mode: StreamMode::Adaptive(&mut ctl), ..StreamRequest::new(&cfg) };
    let run = execute_stream(&bad, &s, request, &mut |_| true).unwrap();
    assert_eq!((run.meter.rejected, run.meter.queries), (1, 1));
    assert_eq!(s.meter().rejected, 0);
}

#[test]
fn projection_beyond_exports_is_rejected_not_truncated() {
    let s = dealer();
    // s2 (make ^ color) exports {make, model, year} — price must NOT be
    // silently dropped or zero-filled.
    let plan = Plan::source(
        Some(parse_condition("make = \"BMW\" ^ color = \"red\"").unwrap()),
        attrs(["model", "price"]),
    );
    assert!(matches!(execute(&plan, &s), Err(ExecError::Source(_))));
}

#[test]
fn empty_relation_is_not_an_error() {
    let schema =
        Schema::new("empty", vec![("k", ValueType::Int), ("a", ValueType::Int)], &["k"]).unwrap();
    let s = Arc::new(Source::new(
        Relation::empty(schema),
        csqp::ssdl::templates::full_relational(
            "empty",
            &[("k", ValueType::Int), ("a", ValueType::Int)],
        ),
        CostParams::default(),
    ));
    let q = TargetQuery::parse("a = 1", &["k"]).unwrap();
    let out = Mediator::new(s).run(&q).unwrap();
    assert!(out.rows.is_empty());
    assert_eq!(out.meter.tuples_shipped, 0);
}

#[test]
fn zero_selectivity_queries_return_empty_not_error() {
    let s = dealer();
    let q =
        TargetQuery::parse("make = \"NoSuchMake\" ^ price < 40000", &["model", "year"]).unwrap();
    let out = Mediator::new(s).run(&q).unwrap();
    assert!(out.rows.is_empty());
}

#[test]
fn genmodular_budget_exhaustion_is_reported_not_silent() {
    let s = dealer();
    let q =
        TargetQuery::parse("price < 40000 ^ color = \"red\" ^ make = \"BMW\"", &["model"]).unwrap();
    let tiny = GenModularConfig {
        rewrite_budget: RewriteBudget { max_cts: 3, max_atoms: 6, max_depth: 2 },
        ..Default::default()
    };
    let m = Mediator::new(s).with_scheme(Scheme::GenModular).with_modular_config(tiny);
    match m.plan(&q) {
        Ok(p) => assert!(p.report.truncated, "must confess incompleteness"),
        Err(PlanError::NoFeasiblePlan { .. }) => {} // honest failure
        Err(other) => panic!("unexpected error {other:?}"),
    }
}

#[test]
fn huge_fanout_truncates_with_download_fallback() {
    // 20-way disjunction exceeds IPG's default per-node cap only when
    // configured low; with a download rule the planner still succeeds and
    // reports truncation.
    let desc = parse_ssdl(
        "source wide {\n\
         s1 -> a = $int ;\n\
         s_dl -> true ;\n\
         attributes :: s1 : { k, a } ;\n\
         attributes :: s_dl : { k, a } ;\n}",
    )
    .unwrap();
    let schema =
        Schema::new("t", vec![("k", ValueType::Int), ("a", ValueType::Int)], &["k"]).unwrap();
    let rows: Vec<Vec<Value>> =
        (0..100i64).map(|i| vec![Value::Int(i), Value::Int(i % 30)]).collect();
    let s = Arc::new(Source::new(Relation::from_rows(schema, rows), desc, CostParams::default()));
    let parts: Vec<String> = (0..20).map(|i| format!("a = {i}")).collect();
    let q = TargetQuery::parse(&parts.join(" _ "), &["k"]).unwrap();
    let cfg = GenCompactConfig {
        ipg: IpgConfig { max_children: 8, ..IpgConfig::default() },
        ..Default::default()
    };
    let m = Mediator::new(s.clone()).with_compact_config(cfg);
    let planned = m.plan(&q).expect("download fallback exists");
    assert!(planned.report.truncated, "fan-out cap must be confessed");
    // And the fallback plan is still exact.
    let out = m.run(&q).unwrap();
    let want = csqp::relation::ops::project(
        &csqp::relation::ops::select(s.relation(), Some(&q.cond)),
        &["k"],
    )
    .unwrap();
    assert_eq!(out.rows, want);
}

#[test]
fn degenerate_conditions_plan_fine() {
    let s = dealer();
    // Duplicate atoms, single-disjunct Or shapes after parsing, redundant
    // conjunction — all must plan and answer exactly.
    for cond in [
        "make = \"BMW\" ^ make = \"BMW\" ^ price < 40000",
        "(make = \"BMW\" _ make = \"BMW\") ^ price < 40000",
        "make = \"BMW\" ^ price < 40000 ^ price < 40000",
    ] {
        let q = TargetQuery::parse(cond, &["model"]).unwrap();
        let out = Mediator::new(s.clone()).run(&q).unwrap_or_else(|e| panic!("{cond}: {e}"));
        let want = csqp::relation::ops::project(
            &csqp::relation::ops::select(s.relation(), Some(&q.cond)),
            &["model"],
        )
        .unwrap();
        assert_eq!(out.rows, want, "{cond}");
    }
}

#[test]
fn contradictory_condition_returns_empty() {
    let s = dealer();
    let q = TargetQuery::parse("make = \"BMW\" ^ make = \"Toyota\" ^ price < 40000", &["model"])
        .unwrap();
    // GenCompact may or may not find this feasible (the 3-atom conjunction
    // isn't a form), but if it plans, the answer must be empty.
    if let Ok(out) = Mediator::new(s).run(&q) {
        assert!(out.rows.is_empty());
    }
}

#[test]
fn mediator_error_display_is_informative() {
    let s = dealer();
    let q = TargetQuery::parse("year = 1995", &["model"]).unwrap();
    let err = Mediator::new(s).run(&q).unwrap_err();
    let text = err.to_string();
    assert!(text.contains("GenCompact"), "{text}");
    assert!(text.contains("no feasible plan"), "{text}");
}

/// Every `SourceError` variant renders its context (source name, condition,
/// ticks) — nothing collapses to an anonymous "error".
#[test]
fn source_error_display_covers_every_variant() {
    let cases: Vec<(SourceError, &[&str])> = vec![
        (
            SourceError::Unsupported {
                source: "s".into(),
                condition: "year = 1995".into(),
                attrs: vec!["model".into()],
            },
            &["`s`", "year = 1995", "model"],
        ),
        (SourceError::Schema("no attribute `x`".into()), &["schema", "no attribute `x`"]),
        (SourceError::Transient { source: "s".into() }, &["`s`", "transient"]),
        (SourceError::Timeout { source: "s".into(), ticks: 20 }, &["`s`", "timed out", "20"]),
        (SourceError::RateLimited { source: "s".into() }, &["`s`", "rate limited"]),
        (SourceError::Unavailable { source: "s".into() }, &["`s`", "unavailable"]),
    ];
    for (err, needles) in cases {
        let text = err.to_string();
        for needle in needles {
            assert!(text.contains(needle), "{err:?} -> {text:?} missing {needle:?}");
        }
        // Retryability partitions exactly: injected faults retry, planning
        // and schema failures never do.
        let injected = !matches!(err, SourceError::Unsupported { .. } | SourceError::Schema(_));
        assert_eq!(err.is_retryable(), injected, "{err:?}");
    }
}

/// Every `ExecError` variant renders its context.
#[test]
fn exec_error_display_covers_every_variant() {
    let cases: Vec<(ExecError, &[&str])> = vec![
        (
            ExecError::Source(SourceError::Transient { source: "s".into() }),
            &["source error", "transient"],
        ),
        (ExecError::Schema("bad projection".into()), &["schema", "bad projection"]),
        (ExecError::Unresolved, &["unresolved", "Choice"]),
        (ExecError::Malformed("empty Union child list".into()), &["malformed", "empty Union"]),
        (
            ExecError::Exhausted {
                source: "s".into(),
                attempts: 4,
                last: SourceError::RateLimited { source: "s".into() },
            },
            &["`s`", "exhausted", "4 attempts", "rate limited"],
        ),
        (ExecError::Deadline { used: 120, budget: 100 }, &["deadline", "120", "100"]),
    ];
    for (err, needles) in cases {
        let text = err.to_string();
        for needle in needles {
            assert!(text.contains(needle), "{err:?} -> {text:?} missing {needle:?}");
        }
    }
}

/// Every `PlanError` and `MediatorError` variant renders its context, and
/// the mediator wrapper adds no noise around the inner message.
#[test]
fn plan_and_mediator_error_display_cover_every_variant() {
    let no_plan = PlanError::NoFeasiblePlan {
        query: "SP(year = 1995, {model})".into(),
        scheme: "GenCompact",
    };
    let text = no_plan.to_string();
    assert!(text.contains("GenCompact") && text.contains("year = 1995"), "{text}");

    let malformed = PlanError::MalformedQuery("empty connective".into());
    let text = malformed.to_string();
    assert!(text.contains("malformed") && text.contains("empty connective"), "{text}");

    let wrapped_plan = MediatorError::Plan(no_plan);
    assert_eq!(
        wrapped_plan.to_string(),
        "GenCompact: no feasible plan for SP(year = 1995, {model})"
    );
    let inner = ExecError::Deadline { used: 7, budget: 5 };
    let wrapped_exec = MediatorError::Exec(ExecError::Deadline { used: 7, budget: 5 });
    assert_eq!(wrapped_exec.to_string(), inner.to_string());
}

/// The cheapest federation member plans fine but dies at execution: the
/// federation must fail over to the dearer mirror, confess the failover in
/// its trace, and still answer exactly.
#[test]
fn federation_fails_over_when_cheapest_member_dies_at_execution() {
    let data = csqp::relation::datagen::cars(3, 200);
    // Cheap, capable — and hard-down for every attempt.
    let dead_dealer = Arc::new(
        Source::new(data.clone(), csqp::ssdl::templates::car_dealer(), CostParams::new(10.0, 1.0))
            .with_fault_profile(FaultProfile::new(1).with_outage(0, u64::MAX)),
    );
    // Expensive but reliable full dump.
    let dump = Arc::new(Source::new(
        data,
        csqp::ssdl::templates::download_only(
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
    let f = Federation::new().with_member(dead_dealer).with_member(dump.clone());
    let q = TargetQuery::parse("make = \"BMW\" ^ price < 40000", &["model", "year"]).unwrap();

    let policy = RetryPolicy::default();
    let stream = csqp_plan::StreamConfig::default();
    let options = csqp_core::StreamOptions::Plain { stream: &stream, policy: Some(&policy) };
    let run = f.run_stream(&q, options, None).unwrap();
    assert_eq!(run.source_name, "dump", "must fail over to the reliable mirror");
    assert!(run.stream.resilience.failovers >= 1);
    assert!(
        run.trace.iter().any(|(name, e)| name == "car_dealer"
            && matches!(e, csqp_core::MemberEvent::ExecFailed(msg) if msg.contains("unavailable"))),
        "trace must confess the dealer's execution failure: {:?}",
        run.trace
    );
    let want = csqp::relation::ops::project(
        &csqp::relation::ops::select(dump.relation(), Some(&q.cond)),
        &["model", "year"],
    )
    .unwrap();
    assert_eq!(run.stream.outcome.rows, want, "failed-over answer must still be exact");
}
