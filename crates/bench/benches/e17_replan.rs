//! E17: mid-query adaptive re-planning — its overhead when nothing
//! drifts (DESIGN.md §5f). Both legs use exact oracle estimates, so the
//! drift controller never fires and each isolates pure controller cost:
//!
//! - **no_drift** — a union-cover workload (the shape MCSC produces for
//!   disjunctive targets, and the paper's representative plan class): the
//!   adaptive executor must track plain streaming within 5%, because its
//!   controller only peeks at per-leaf counters at batch boundaries and
//!   the root's own dedup sketch doubles as the splice-dedup record.
//! - **no_drift_scan** — the single-scan case: a bare leaf plan has no
//!   root sketch, so the set its source stream already keeps to dedup its
//!   projection doubles as the splice-dedup record; it must stay within
//!   10%.
//!
//! The payoff leg — under drift the splice ships ≥ 2× fewer tuples — is a
//! count, asserted by the `csqp_bench::floors` tests. This bench prints
//! each leg's best pass, then asserts both overhead ceilings. A breach
//! exits non-zero.
//!
//! Run with `cargo bench -p csqp-bench --bench e17_replan`.

use csqp_bench::floors::stream_source;
use csqp_core::mediator::{AdaptiveConfig, CardKind, Mediator, StreamOptions};
use csqp_core::types::TargetQuery;
use csqp_expr::{Value, ValueType};
use csqp_plan::StreamConfig;
use csqp_relation::{Relation, Schema};
use csqp_source::{CostParams, Source};
use csqp_ssdl::parse_ssdl;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Rows in each corpus.
const N: i64 = 20_000;

/// A dealer-style source whose capability forms force MCSC into a union
/// cover for disjunctive targets — the representative plan shape for the
/// gated no-drift leg (the union root's own dedup sketch is reused as the
/// adaptive splice record, so the overhead there is controller-only).
fn union_source() -> Arc<Source> {
    let schema = Schema::new(
        "cars",
        vec![
            ("make", ValueType::Str),
            ("model", ValueType::Str),
            ("price", ValueType::Int),
            ("color", ValueType::Str),
        ],
        &["model"],
    )
    .unwrap();
    let makes = ["BMW", "Audi", "Toyota", "Honda"];
    let colors = ["red", "blue", "green"];
    let rows: Vec<Vec<Value>> = (0..N)
        .map(|i| {
            vec![
                Value::str(makes[(i % 4) as usize]),
                Value::str(format!("m{i}")),
                Value::Int((i * 37) % 50_000),
                Value::str(colors[(i % 3) as usize]),
            ]
        })
        .collect();
    let desc = parse_ssdl(
        "source dealer {\n\
         s1 -> make = $str ^ price < $int ;\n\
         s2 -> make = $str ^ color = $str ;\n\
         attributes :: s1 : { make, model, price, color } ;\n\
         attributes :: s2 : { make, model, price, color } ;\n}",
    )
    .unwrap();
    Arc::new(Source::new(Relation::from_rows(schema, rows), desc, CostParams::new(10.0, 1.0)))
}

/// Times `run` with a warm-up pass and enough repeats for ~0.3 s of wall
/// clock, returning the rows it answered and its *minimum* per-pass time in
/// seconds (noise floors, not means, gate the overhead).
fn best_pass_s(mut run: impl FnMut() -> usize) -> (usize, f64) {
    let t0 = Instant::now();
    let rows = run();
    let warm = t0.elapsed().as_secs_f64();
    let passes = ((0.3 / warm.max(1e-6)).ceil() as usize).clamp(3, 200);
    let mut best = f64::INFINITY;
    for _ in 0..passes {
        let t = Instant::now();
        black_box(run());
        best = best.min(t.elapsed().as_secs_f64());
    }
    (rows, best)
}

/// Times plain streaming and the adaptive executor on `q` under exact
/// estimates, prints both, and returns the adaptive overhead in percent.
fn adaptive_overhead_pct(leg: &str, source: Arc<Source>, q: &TargetQuery) -> f64 {
    let med = Mediator::new(source).with_cardinality(CardKind::Oracle);
    let cfg = StreamConfig::default();
    let acfg = AdaptiveConfig { stream: cfg.clone(), ..Default::default() };
    let (rows, streaming_s) = best_pass_s(|| {
        med.run_stream(q, StreamOptions::plain(&cfg), None).unwrap().outcome.rows.len()
    });
    let (_, adaptive_s) = best_pass_s(|| {
        let out = med.run_stream(q, StreamOptions::Adaptive(&acfg), None).unwrap();
        assert_eq!(out.splices, 0, "the exact-estimate leg must not splice");
        out.outcome.rows.len()
    });
    let overhead = (adaptive_s / streaming_s - 1.0) * 100.0;
    println!(
        "e17_replan {leg:<13} {rows:>6} rows  streaming {streaming_s:.4}s  adaptive \
         {adaptive_s:.4}s (best passes) -> {overhead:+.1}% overhead"
    );
    overhead
}

fn main() {
    let union_query = TargetQuery::parse(
        "(make = \"BMW\" _ make = \"Audi\") ^ price < 40000",
        &["make", "model", "price"],
    )
    .unwrap();
    let no_drift = adaptive_overhead_pct("no_drift", union_source(), &union_query);
    let scan_query = TargetQuery::parse("a >= 0 ^ b >= 0", &["k", "a", "b"]).unwrap();
    let scan_source = Arc::new(stream_source(N as usize));
    let no_drift_scan = adaptive_overhead_pct("no_drift_scan", scan_source, &scan_query);

    assert!(no_drift <= 5.0, "adaptive streaming overhead too high ({no_drift:.1}% > 5%)");
    assert!(
        no_drift_scan <= 10.0,
        "bare-scan adaptive overhead too high ({no_drift_scan:.1}% > 10%)"
    );
}
