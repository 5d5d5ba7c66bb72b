//! E17: mid-query adaptive re-planning — overhead when nothing drifts,
//! payoff when the cardinality model is wrong.
//!
//! Two legs (DESIGN.md §5f):
//!
//! - **no_drift** — a union-cover workload (the shape MCSC produces for
//!   disjunctive targets, and the paper's representative plan class) with
//!   exact oracle estimates: the adaptive executor must track plain
//!   streaming within 5%, because its controller only peeks at per-leaf
//!   counters at batch boundaries and the root's own dedup sketch doubles
//!   as the splice-dedup record. A `no_drift_scan` leg covers the
//!   single-scan case: a bare leaf plan has no root sketch, so the set its
//!   source stream already keeps to dedup its projection doubles as the
//!   splice-dedup record, and CI gates it within 10%.
//! - **drift** — a corpus built so the planner's uniform-selectivity guess
//!   picks the wrong query form: the chosen form actually ships ~75% of
//!   the table, while an alternative form ships a handful of rows. The
//!   adaptive run must detect the drift mid-stream, splice to the cheap
//!   form, and finish having shipped a fraction of the non-adaptive
//!   transfer. The shipped-tuple ratio is deterministic (virtual-cost
//!   world), so CI gates on it hard; wall-clock is reported for trend.
//!
//! Like e13–e16 this is a plain harness emitting machine-readable results
//! to `BENCH_replan.json` at the repo root.
//!
//! Run with `cargo bench -p csqp-bench --bench e17_replan`.

use csqp_core::mediator::{AdaptiveConfig, CardKind, Mediator, StreamOptions};
use csqp_core::types::TargetQuery;
use csqp_expr::{Value, ValueType};
use csqp_plan::StreamConfig;
use csqp_relation::{Relation, Schema};
use csqp_source::{CostParams, Source};
use csqp_ssdl::{parse_ssdl, templates};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const OUT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_replan.json");

/// Rows in each corpus.
const N: i64 = 20_000;

/// The no-drift workload: every generated condition estimated exactly
/// (oracle cardinalities), so the drift controller never fires and the
/// leg isolates pure controller overhead.
fn exact_source() -> Arc<Source> {
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
    let rows: Vec<Vec<Value>> = (0..N)
        .map(|i| {
            let x = i.wrapping_mul(2654435761);
            vec![
                Value::Int(i),
                Value::Int(x.rem_euclid(100)),
                Value::Int(x.rem_euclid(7)),
                Value::str(format!("s{}", x.rem_euclid(3))),
            ]
        })
        .collect();
    let desc = templates::full_relational(
        "full",
        &[
            ("k", ValueType::Int),
            ("a", ValueType::Int),
            ("b", ValueType::Int),
            ("c", ValueType::Str),
        ],
    );
    Arc::new(Source::new(Relation::from_rows(schema, rows), desc, CostParams::new(10.0, 1.0)))
}

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

/// The drifting corpus: `a = 1 ^ b = 1` is estimated tiny (sel² under the
/// uniform guess) but actually matches 75% of the table; `c = 1` is
/// estimated broad but actually matches a handful of rows. Both query
/// forms cover the target condition, so the planner's pick hinges on the
/// (wrong) estimates and mid-query drift flips it.
fn drifty_source() -> Arc<Source> {
    let schema = Schema::new(
        "t",
        vec![
            ("k", ValueType::Int),
            ("a", ValueType::Int),
            ("b", ValueType::Int),
            ("c", ValueType::Int),
        ],
        &["k"],
    )
    .unwrap();
    let threshold = N * 3 / 4;
    let rows: Vec<Vec<Value>> = (0..N)
        .map(|i| {
            let ab = i64::from(i < threshold);
            let c = i64::from(i < threshold && i % 1000 == 0);
            vec![Value::Int(i), Value::Int(ab), Value::Int(ab), Value::Int(c)]
        })
        .collect();
    let desc = parse_ssdl(
        "source drifty {\n\
         s1 -> a = $int ^ b = $int ;\n\
         s2 -> c = $int ;\n\
         attributes :: s1 : { k, a, b, c } ;\n\
         attributes :: s2 : { k, a, b, c } ;\n}",
    )
    .unwrap();
    Arc::new(Source::new(Relation::from_rows(schema, rows), desc, CostParams::new(10.0, 1.0)))
}

struct Measurement {
    leg: &'static str,
    scheme: &'static str,
    rows: usize,
    tuples_shipped: u64,
    splices: u64,
    passes: usize,
    elapsed_s: f64,
    rows_per_sec: f64,
}

/// Times `run` with a warm-up pass and enough repeats for ~0.3 s of wall
/// clock, reporting the *minimum* per-pass time (noise floors, not means,
/// gate the overhead leg).
fn timed(
    leg: &'static str,
    scheme: &'static str,
    mut run: impl FnMut() -> (usize, u64, u64),
) -> Measurement {
    let t0 = Instant::now();
    let (rows, tuples_shipped, splices) = run();
    let warm = t0.elapsed().as_secs_f64();
    let passes = ((0.3 / warm.max(1e-6)).ceil() as usize).clamp(3, 200);
    let mut best = f64::INFINITY;
    for _ in 0..passes {
        let t = Instant::now();
        black_box(run());
        best = best.min(t.elapsed().as_secs_f64());
    }
    Measurement {
        leg,
        scheme,
        rows,
        tuples_shipped,
        splices,
        passes,
        elapsed_s: best,
        rows_per_sec: rows as f64 / best,
    }
}

fn main() {
    let mut results: Vec<Measurement> = Vec::new();

    // Leg 1 (gated): no drift over a union cover — adaptive must track
    // plain streaming within 5%.
    {
        let source = union_source();
        let med = Mediator::new(source).with_cardinality(CardKind::Oracle);
        let q = TargetQuery::parse(
            "(make = \"BMW\" _ make = \"Audi\") ^ price < 40000",
            &["make", "model", "price"],
        )
        .unwrap();
        let cfg = StreamConfig::default();
        let acfg = AdaptiveConfig { stream: cfg.clone(), ..Default::default() };
        results.push(timed("no_drift", "streaming", || {
            let out = med.run_stream(&q, StreamOptions::plain(&cfg), None).unwrap();
            (out.outcome.rows.len(), out.outcome.meter.tuples_shipped, 0)
        }));
        results.push(timed("no_drift", "adaptive", || {
            let out = med.run_stream(&q, StreamOptions::Adaptive(&acfg), None).unwrap();
            assert_eq!(out.splices, 0, "the exact-estimate leg must not splice");
            (out.outcome.rows.len(), out.outcome.meter.tuples_shipped, out.splices)
        }));
    }

    // Leg 1b (gated at 10%): single scan — a bare-leaf plan has no root
    // sketch, so splice-readiness reuses the set the source stream keeps
    // to dedup its projection, and costs nothing per emitted tuple.
    {
        let source = exact_source();
        let med = Mediator::new(source).with_cardinality(CardKind::Oracle);
        let q = TargetQuery::parse("a >= 0 ^ b >= 0", &["k", "a", "b"]).unwrap();
        let cfg = StreamConfig::default();
        let acfg = AdaptiveConfig { stream: cfg.clone(), ..Default::default() };
        results.push(timed("no_drift_scan", "streaming", || {
            let out = med.run_stream(&q, StreamOptions::plain(&cfg), None).unwrap();
            (out.outcome.rows.len(), out.outcome.meter.tuples_shipped, 0)
        }));
        results.push(timed("no_drift_scan", "adaptive", || {
            let out = med.run_stream(&q, StreamOptions::Adaptive(&acfg), None).unwrap();
            assert_eq!(out.splices, 0, "the exact-estimate leg must not splice");
            (out.outcome.rows.len(), out.outcome.meter.tuples_shipped, out.splices)
        }));
    }

    // Leg 2: drifting corpus — the splice must slash the transfer.
    {
        let q = TargetQuery::parse("a = 1 ^ b = 1 ^ c = 1", &["k"]).unwrap();
        let cfg = StreamConfig { batch_size: 256, ..StreamConfig::default() };
        let acfg = AdaptiveConfig { stream: cfg.clone(), ..Default::default() };
        let card = CardKind::Uniform { atom_selectivity: 0.05 };
        let plain_src = drifty_source();
        let plain = Mediator::new(plain_src).with_cardinality(card);
        results.push(timed("drift", "non_adaptive", || {
            let out = plain.run_stream(&q, StreamOptions::plain(&cfg), None).unwrap();
            (out.outcome.rows.len(), out.outcome.meter.tuples_shipped, 0)
        }));
        let adaptive_src = drifty_source();
        let adaptive = Mediator::new(adaptive_src).with_cardinality(card);
        results.push(timed("drift", "adaptive", || {
            let out = adaptive.run_stream(&q, StreamOptions::Adaptive(&acfg), None).unwrap();
            (out.outcome.rows.len(), out.outcome.meter.tuples_shipped, out.splices)
        }));
    }

    for m in &results {
        println!(
            "e17_replan {:<9} {:<13} {:>9} rows  {:>9} shipped  {} splice(s)  \
             {:>12.0} rows/s  (best of {} passes, {:.4}s)",
            m.leg,
            m.scheme,
            m.rows,
            m.tuples_shipped,
            m.splices,
            m.rows_per_sec,
            m.passes,
            m.elapsed_s
        );
    }

    let mut json = String::from("{\n  \"bench\": \"e17_replan\",\n  \"results\": [\n");
    for (i, m) in results.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"leg\": \"{}\", \"scheme\": \"{}\", \"rows\": {}, \"tuples_shipped\": {}, \
             \"splices\": {}, \"passes\": {}, \"elapsed_s\": {:.6}, \"rows_per_sec\": {:.2}}}{}",
            m.leg,
            m.scheme,
            m.rows,
            m.tuples_shipped,
            m.splices,
            m.passes,
            m.elapsed_s,
            m.rows_per_sec,
            if i + 1 < results.len() { ",\n" } else { "\n" }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(OUT_PATH, &json).expect("write BENCH_replan.json");
    println!("wrote {OUT_PATH}");
}
