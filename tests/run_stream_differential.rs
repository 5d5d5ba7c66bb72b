//! Differential: the collecting [`Mediator::run_stream`] against the
//! reference executor.
//!
//! `csqp_plan::exec::execute_measured` is the paper-faithful materialized
//! walker (§6.1 order-fixing, then σ/π/∩/∪ at the mediator); the streaming
//! engine is the only production plan-walker. Over every [`Scheme`] on the
//! E1 (bookstore) and E2 (car-guide) corpora, and over the randomized
//! concrete plan shapes of `csqp-plan`'s `stream_differential`, a
//! collecting run must return the reference's rows **in the reference's
//! order**, leave the same transfer [`csqp_source::Meter`] delta and report
//! the same measured cost — and an [`StreamOptions::Analyzed`] run must
//! report, per source query, exactly the estimate the cost model prices
//! and the rows and cost the source really returns. No run may send a
//! source a query its description does not accept.

mod common;

use csqp_core::mediator::{Mediator, MediatorError, Scheme, StreamOptions, StreamOutcome};
use csqp_core::types::{PlannedQuery, TargetQuery};
use csqp_expr::gen::{CondGen, CondGenConfig, GenAttr};
use csqp_expr::{CondTree, Value, ValueType};
use csqp_plan::analyze::SubQueryObs;
use csqp_plan::model::CostModel;
use csqp_plan::{attrs, execute_measured, Cardinality, Plan, StatsCard, StreamConfig};
use csqp_relation::datagen::{self, BookGenConfig, CarGenConfig};
use csqp_relation::{Relation, Schema};
use csqp_source::{CostParams, Source};
use csqp_ssdl::templates;
use std::sync::Arc;

fn q(cond: &str, attrs: &[&str]) -> TargetQuery {
    TargetQuery::parse(cond, attrs).unwrap_or_else(|e| panic!("bad corpus query {cond:?}: {e}"))
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

fn cond(seed: u64, n: usize) -> CondTree {
    let gen_attrs = vec![
        GenAttr::ints("a", 0, 5, 1),
        GenAttr::ints("b", 0, 3, 1),
        GenAttr::strings("c", &["s0", "s1", "s2"]),
    ];
    CondGen::new(seed, gen_attrs).tree(&CondGenConfig {
        n_atoms: n,
        max_depth: 3,
        and_bias: 0.5,
        eq_bias: 0.7,
    })
}

/// The `stream_differential` plan generator: a random concrete plan of
/// source-query leaves under unions, intersections and local σ/π wrappers,
/// all projecting the key.
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

/// The fully relational 200-row source those plans run against.
fn full_source(seed: u64) -> Arc<Source> {
    let columns = [
        ("k", ValueType::Int),
        ("a", ValueType::Int),
        ("b", ValueType::Int),
        ("c", ValueType::Str),
    ];
    let schema = Schema::new("t", columns.to_vec(), &["k"]).unwrap();
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
    let desc = templates::full_relational("full", &columns);
    Arc::new(Source::new(Relation::from_rows(schema, rows), desc, CostParams::new(10.0, 1.0)))
}

/// A collecting plain run ≡ the reference on the plan it chose: rows in
/// order, meter delta, measured cost.
fn assert_matches_reference(source: &Source, run: &StreamOutcome, ctx: &str) {
    let out = &run.outcome;
    let (want, want_meter) = execute_measured(&out.planned.plan, source).expect(ctx);
    assert_eq!(out.rows.tuples(), want.tuples(), "{ctx}: rows or their order diverged");
    assert_eq!(out.meter, want_meter, "{ctx}: transfer meter diverged");
    assert_eq!(out.measured_cost, want_meter.cost(source.cost_params()), "{ctx}: measured cost");
}

/// An analyzed run's per-leaf record ≡ what the oracle computes for each
/// source query of the plan, in pre-order: the estimate under the
/// mediator's (default, statistics-based) cardinality model priced by the
/// source's §6.2 constants, next to the rows the source really returns.
fn assert_analysis_matches_oracle(source: &Source, run: &StreamOutcome, ctx: &str) {
    let card = StatsCard::new(source.stats());
    let model = source.cost_params();
    let want: Vec<SubQueryObs> = run
        .outcome
        .planned
        .plan
        .source_queries()
        .into_iter()
        .map(|(cond, leaf_attrs)| {
            let est_rows = card.estimate(cond.as_ref());
            let observed_rows = source.fix_and_answer(cond.as_ref(), leaf_attrs).expect(ctx).len();
            SubQueryObs {
                rendered: Plan::source(cond.clone(), leaf_attrs.clone()).to_string(),
                est_rows,
                est_cost: model.source_query_cost(cond.as_ref(), leaf_attrs.len(), est_rows),
                observed_rows: observed_rows as u64,
                observed_cost: model.source_query_cost(
                    cond.as_ref(),
                    leaf_attrs.len(),
                    observed_rows as f64,
                ),
            }
        })
        .collect();
    let got = run.analysis.as_ref().unwrap_or_else(|| panic!("{ctx}: analyzed run, no analysis"));
    assert_eq!(got.subqueries, want, "{ctx}: per-leaf analysis diverged from the oracle");
}

/// Both collecting modes of one input against the reference.
fn check<'q>(
    mediator: &Mediator,
    input: impl Fn() -> csqp_core::mediator::StreamInput<'q>,
    ctx: &str,
) -> Result<(), MediatorError> {
    let stream = StreamConfig::default();
    let plain = mediator.run_stream(input(), StreamOptions::plain(&stream), None)?;
    assert!(plain.analysis.is_none(), "{ctx}: analysis is opt-in");
    assert_matches_reference(mediator.source(), &plain, ctx);
    let analyzed = mediator.run_stream(input(), StreamOptions::Analyzed(&stream), None)?;
    assert_eq!(analyzed.outcome.planned.plan, plain.outcome.planned.plan, "{ctx}: same plan");
    assert_matches_reference(mediator.source(), &analyzed, ctx);
    assert_analysis_matches_oracle(mediator.source(), &analyzed, ctx);
    common::assert_no_rejections([mediator.source()]);
    Ok(())
}

#[test]
fn every_scheme_on_the_e1_e2_corpora_matches_the_reference() {
    let mut ran = 0;
    for (name, (source, queries)) in [("e1", e1_corpus()), ("e2", e2_corpus())] {
        for scheme in Scheme::ALL {
            let mediator = Mediator::new(source.clone()).with_scheme(scheme);
            for (i, query) in queries.iter().enumerate() {
                match check(&mediator, || query.into(), &format!("{name}/q{i} {scheme}")) {
                    Ok(()) => ran += 1,
                    // Infeasible under this scheme: nothing to execute.
                    Err(MediatorError::Plan(_)) => {}
                    Err(e) => panic!("{name}/q{i} {scheme}: {e}"),
                }
            }
        }
    }
    assert!(ran >= 16, "GenCompact and GenModular plan all eight queries, got {ran}");
}

#[test]
fn generated_plan_shapes_match_the_reference() {
    for seed in [7u64, 11, 23, 40] {
        let source = full_source(seed);
        let mediator = Mediator::new(source);
        for plan_seed in 0..24u64 {
            for depth in 0..4usize {
                let plan = concrete_plan(plan_seed, depth);
                let prepared = || {
                    PlannedQuery {
                        plan: plan.clone(),
                        est_cost: 0.0,
                        report: Default::default(),
                        alternatives: Vec::new(),
                        flight_id: 0,
                    }
                    .into()
                };
                check(&mediator, prepared, &format!("source {seed} plan {plan_seed}/{depth}"))
                    .unwrap_or_else(|e| panic!("source {seed} plan {plan_seed}/{depth}: {e}"));
            }
        }
    }
}
