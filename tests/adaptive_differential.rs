//! Differential property tests: adaptive execution against the
//! non-adaptive oracle.
//!
//! Over randomized conditions, projections, batch sizes, cardinality
//! assumptions, and fault seeds, [`Mediator::run_stream`] under
//! [`StreamOptions::Adaptive`] must return exactly the answer of the plain
//! (materialized) run — mid-query splices deduplicate against
//! already-emitted tuples, so re-planning can change the *cost* of a run
//! but never its answer set. When nothing drifts (zero splices) the
//! adaptive path must also preserve the serial stream's emission order and
//! transfer-meter delta. No run may send a source a query its description
//! does not accept.

mod common;

use csqp_core::federation::Federation;
use csqp_core::gencompact::GenCompactConfig;
use csqp_core::mediator::{AdaptiveConfig, CardKind, Mediator, StreamOptions};
use csqp_core::types::TargetQuery;
use csqp_expr::gen::{CondGen, CondGenConfig, GenAttr};
use csqp_expr::{CondTree, Value, ValueType};
use csqp_plan::exec::RetryPolicy;
use csqp_plan::model::CostModel;
use csqp_plan::{Plan, StreamConfig};
use csqp_relation::{Relation, Schema, Tuple};
use csqp_source::{CostParams, FaultProfile, Source};
use csqp_ssdl::templates;
use proptest::prelude::*;
use std::collections::BTreeSet;
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

fn query(seed: u64, n_atoms: usize) -> TargetQuery {
    let attrs = if seed.is_multiple_of(2) { ["k", "c"] } else { ["k", "a"] };
    TargetQuery::new(cond(seed, n_atoms), attrs.iter().map(|s| s.to_string()).collect())
}

fn full_source(seed: u64) -> Source {
    mirror("full", seed, CostParams::new(10.0, 1.0))
}

/// A full-relational source over 200 rows whose `k` holds the row number,
/// so the data makes `k` unique and every projection keeping it takes the
/// scan's key path (no seen set).
fn mirror(name: &str, seed: u64, cost: CostParams) -> Source {
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
    let desc = templates::full_relational(
        name,
        &[
            ("k", ValueType::Int),
            ("a", ValueType::Int),
            ("b", ValueType::Int),
            ("c", ValueType::Str),
        ],
    );
    let source = Source::new(Relation::from_rows(schema, rows), desc, cost);
    assert!(source.stats().is_unique("k"));
    source
}

/// Every row a sink saw, in order, and whether any arrived twice.
fn collect_once(rows: &[Tuple]) -> (BTreeSet<Tuple>, bool) {
    let mut set = BTreeSet::new();
    let repeated = !rows.iter().all(|t| set.insert(t.clone()));
    (set, repeated)
}

fn adaptive_cfg(batch: usize, policy: Option<RetryPolicy>) -> AdaptiveConfig {
    AdaptiveConfig {
        stream: StreamConfig { batch_size: batch, ..StreamConfig::default() },
        policy,
        ..Default::default()
    }
}

/// A deliberately perverse cost model: monotone *decreasing* in the true
/// charge, so the planner systematically prefers the worst sub-plans and
/// the drift controller has every reason to fire mid-query.
#[derive(Debug)]
struct InvertedCost(CostParams);

impl CostModel for InvertedCost {
    fn source_query_cost(&self, cond: Option<&CondTree>, n_attrs: usize, rows: f64) -> f64 {
        1.0e6 / (1.0 + self.0.source_query_cost(cond, n_attrs, rows))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Adaptive execution is answer-preserving: whatever the drift
    /// controller does (including nothing), the result is set-identical to
    /// the materialized run; with zero splices, emission order and the
    /// transfer meter match the plain serial stream exactly.
    #[test]
    fn adaptive_run_matches_plain_run(
        seed in 1u64..50_000,
        query_seed in 0u64..100_000,
        n_atoms in 1usize..5,
        batch in 1usize..97,
        sel_idx in 0usize..4,
    ) {
        let sel = [0.005, 0.05, 0.3, 0.9][sel_idx];
        let q = query(query_seed, n_atoms);
        let source = Arc::new(full_source(seed));
        // A deliberately unreliable selectivity guess: low values
        // underestimate heavily, inviting upward drift.
        let med = Mediator::new(source).with_cardinality(CardKind::Uniform { atom_selectivity: sel });
        let want = med.run(&q).unwrap();
        let cfg = adaptive_cfg(batch, None);
        let got = med.run_stream(&q, StreamOptions::Adaptive(&cfg), None).unwrap();
        prop_assert_eq!(&got.outcome.rows, &want.rows, "adaptive answer diverged (set)");
        prop_assert!(got.splices <= cfg.max_splices, "splice budget exceeded");
        prop_assert!(got.drift_triggers >= got.splices, "every splice needs a trigger");
        if got.splices == 0 {
            let plain = med.run_stream(&q, StreamOptions::plain(&cfg.stream), None).unwrap();
            prop_assert_eq!(
                got.outcome.rows.tuples(), plain.outcome.rows.tuples(),
                "no-splice adaptive run changed the emission order"
            );
            prop_assert_eq!(got.outcome.meter, plain.outcome.meter, "meter deltas diverged");
        }
        common::assert_no_rejections([med.source()]);
    }

    /// Even under an inverted cost model — the planner actively prefers
    /// expensive plans, so mid-query re-planning fires as often as it ever
    /// will — the answer stays set-identical and splices stay bounded.
    #[test]
    fn adaptive_run_survives_inverted_cost_estimates(
        seed in 1u64..50_000,
        query_seed in 0u64..100_000,
        n_atoms in 1usize..5,
        batch in 1usize..41,
    ) {
        let q = query(query_seed, n_atoms);
        let source = Arc::new(full_source(seed));
        let med = Mediator::new(source)
            .with_cost_model(Arc::new(InvertedCost(CostParams::new(10.0, 1.0))))
            .with_cardinality(CardKind::Uniform { atom_selectivity: 0.02 });
        let want = med.run(&q).unwrap();
        let cfg = adaptive_cfg(batch, None);
        let got = med.run_stream(&q, StreamOptions::Adaptive(&cfg), None).unwrap();
        prop_assert_eq!(&got.outcome.rows, &want.rows, "inverted-cost adaptive answer diverged");
        prop_assert!(got.splices <= cfg.max_splices);
        common::assert_no_rejections([med.source()]);
    }

    /// Seeded transient faults under the adaptive engine: per-batch
    /// retries absorb the noise and the answer still equals the fault-free
    /// oracle; with no splices, the meter shows no re-opened queries and
    /// no re-shipped tuples.
    #[test]
    fn adaptive_run_matches_oracle_under_faults(
        seed in 1u64..20_000,
        query_seed in 0u64..100_000,
        n_atoms in 1usize..4,
        fault_seed in 0u64..1_000,
        batch in 1usize..41,
    ) {
        let q = query(query_seed, n_atoms);
        let oracle = Arc::new(full_source(seed));
        let med_oracle = Mediator::new(oracle).with_cardinality(CardKind::Uniform { atom_selectivity: 0.05 });
        let want = med_oracle.run(&q).unwrap();

        let faulty = Arc::new(
            full_source(seed).with_fault_profile(FaultProfile::new(fault_seed).with_transient(0.3)),
        );
        let med = Mediator::new(faulty).with_cardinality(CardKind::Uniform { atom_selectivity: 0.05 });
        let policy = RetryPolicy { max_retries: 32, ..Default::default() };
        let cfg = adaptive_cfg(batch, Some(policy));
        let got = med.run_stream(&q, StreamOptions::Adaptive(&cfg), None).unwrap();
        prop_assert_eq!(&got.outcome.rows, &want.rows, "faults corrupted the adaptive answer");
        if got.splices == 0 {
            prop_assert_eq!(
                got.outcome.meter.queries, want.meter.queries,
                "retries must not re-open source queries that succeeded"
            );
            prop_assert_eq!(
                got.outcome.meter.tuples_shipped, want.meter.tuples_shipped,
                "a faulted pull re-shipped (or dropped) tuples"
            );
        }
        common::assert_no_rejections([med_oracle.source(), med.source()]);
    }

    /// The sink-driven variant is the same computation: identical splice
    /// count and the concatenated batches hold exactly the accumulated
    /// run's rows.
    #[test]
    fn adaptive_each_streams_the_accumulated_answer(
        seed in 1u64..50_000,
        query_seed in 0u64..100_000,
        n_atoms in 1usize..4,
        batch in 1usize..41,
    ) {
        let q = query(query_seed, n_atoms);
        let source = Arc::new(full_source(seed));
        let med = Mediator::new(source).with_cardinality(CardKind::Uniform { atom_selectivity: 0.02 });
        let cfg = adaptive_cfg(batch, None);
        let accumulated = med.run_stream(&q, StreamOptions::Adaptive(&cfg), None).unwrap();
        let mut streamed: Vec<String> = Vec::new();
        let each = med
            .run_stream(
                &q,
                StreamOptions::Adaptive(&cfg),
                Some(&mut |b| {
                    streamed.extend(b.rows().map(|r| r.to_string()));
                    true
                }),
            )
            .unwrap();
        prop_assert_eq!(each.splices, accumulated.splices, "splice count must be deterministic");
        let mut want: Vec<String> = accumulated.outcome.rows.rows().map(|r| r.to_string()).collect();
        want.sort();
        streamed.sort();
        prop_assert_eq!(streamed, want, "sink batches diverged from the accumulated relation");
        common::assert_no_rejections([med.source()]);
    }
}

/// A drift splice in the middle of a bare-leaf root whose projection keeps
/// the unique `k`: the leaf's stream keeps no seen set, so the segment's
/// emitted set is rebuilt from the rows it scanned. A disjunction planned
/// as one source query under a low estimate ships far more than estimated,
/// and the re-plan with the observed floor splits it into a union. (With
/// PR1 on, a supported condition only ever re-plans to the same single
/// query, so the test plans with PR1 off.) The answer must equal the plain
/// run's with no row emitted twice.
#[test]
fn a_drift_splice_mid_key_path_leaf_emits_each_row_once() {
    let mut spliced = 0;
    for seed in [1u64, 3, 7, 11] {
        let source = Arc::new(full_source(seed));
        let mut no_pr1 = GenCompactConfig::default();
        no_pr1.ipg.pr1 = false;
        let med = Mediator::new(source)
            .with_cardinality(CardKind::Uniform { atom_selectivity: 0.005 })
            .with_compact_config(no_pr1);
        for text in ["a = 1 _ a = 2 _ a = 3", "b = 0 _ c = \"s1\"", "a <= 2 _ b >= 2"] {
            for attrs in [&["k"][..], &["k", "c"]] {
                let q = TargetQuery::parse(text, attrs).unwrap();
                let want = med.run(&q).unwrap();
                for batch in [1, 4, 16] {
                    let ctx = format!("seed {seed} {text} {attrs:?} batch {batch}");
                    let cfg = adaptive_cfg(batch, None);
                    let mut rows = Vec::new();
                    let got = med
                        .run_stream(
                            &q,
                            StreamOptions::Adaptive(&cfg),
                            Some(&mut |b| {
                                rows.extend(b.into_tuples());
                                true
                            }),
                        )
                        .unwrap();
                    let (set, repeated) = collect_once(&rows);
                    assert!(!repeated, "{ctx}: a row was emitted twice");
                    let want_set: BTreeSet<Tuple> = want.rows.tuples().iter().cloned().collect();
                    assert_eq!(set, want_set, "{ctx}");
                    if matches!(got.outcome.planned.plan, Plan::SourceQuery { .. }) {
                        spliced += got.splices;
                    }
                    common::assert_no_rejections([med.source()]);
                }
            }
        }
    }
    assert!(spliced > 0, "some key-path bare leaf must drift and splice mid-stream");
}

/// A federation breaker splice after a leaf error on the key path: the
/// cheaper mirror answers with one bare source query keeping `k`, ships
/// its first batch, then goes down; the breaker re-plans the residual on
/// the dearer mirror, and the rows the dead leaf shipped (rebuilt from its
/// scan, there being no seen set) are not emitted again.
#[test]
fn a_breaker_splice_after_a_key_path_leaf_error_emits_each_row_once() {
    let mut spliced = 0;
    for seed in [1u64, 5, 9] {
        for (text, attrs) in
            [("b <= 2", &["k", "a"][..]), ("a >= 1", &["k"]), ("c = \"s0\"", &["k", "c"])]
        {
            let q = TargetQuery::parse(text, attrs).unwrap();
            let want: BTreeSet<Tuple> = Mediator::new(Arc::new(full_source(seed)))
                .run(&q)
                .unwrap()
                .rows
                .tuples()
                .iter()
                .cloned()
                .collect();
            for batch in [3, 16] {
                let ctx = format!("seed {seed} {text} {attrs:?} batch {batch}");
                // Attempt 0 opens, attempt 1 ships a batch, then an outage.
                let dying = Arc::new(
                    mirror("cheap", seed, CostParams::new(10.0, 1.0))
                        .with_fault_profile(FaultProfile::new(0).with_outage(2, u64::MAX / 2)),
                );
                let rescuer = Arc::new(mirror("dear", seed, CostParams::new(40.0, 2.0)));
                let f = Federation::new().with_member(dying.clone()).with_member(rescuer.clone());
                let policy = RetryPolicy { max_retries: 0, ..Default::default() };
                let stream = StreamConfig { batch_size: batch, ..StreamConfig::default() };
                let mut rows = Vec::new();
                let run = f
                    .run_stream(
                        &q,
                        StreamOptions::Plain { stream: &stream, policy: Some(&policy) },
                        Some(&mut |b| {
                            rows.extend(b.into_tuples());
                            true
                        }),
                    )
                    .unwrap();
                assert!(
                    matches!(run.stream.outcome.planned.plan, Plan::SourceQuery { .. }),
                    "{ctx}: the cheap mirror answers with a bare leaf"
                );
                let (set, repeated) = collect_once(&rows);
                assert!(!repeated, "{ctx}: a row was emitted twice");
                assert_eq!(set, want, "{ctx}");
                spliced += run.stream.splices;
                common::assert_no_rejections([&dying, &rescuer]);
            }
        }
    }
    assert!(spliced > 0, "the dying mirror must be spliced out mid-stream");
}
