//! E15: streaming vs materialized execution — throughput and peak resident
//! tuples across result sizes.
//!
//! The claim under test (DESIGN.md §5d, docs/EXECUTION.md §5): the streaming
//! engine's peak residency is bounded by `batch_size × pipeline depth`,
//! independent of result size, while the materialized executor's peak grows
//! with the result — and streaming pays no meaningful throughput tax for
//! that bound.
//!
//! Like e13/e14 this is a plain harness emitting machine-readable results,
//! here to `BENCH_stream.json` at the repo root; CI asserts the memory bound
//! and a throughput floor from that file.
//!
//! Run with `cargo bench -p csqp-bench --bench e15_stream`.

use csqp_expr::parse::parse_condition;
use csqp_expr::{Value, ValueType};
use csqp_plan::{attrs, execute, execute_stream_collect, Plan, StreamConfig, StreamRequest};
use csqp_relation::{Relation, Schema};
use csqp_source::{CostParams, Source};
use csqp_ssdl::templates;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

const OUT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_stream.json");

/// Result-set scales: the point is that `rows` spans ~40× while the
/// streaming peak stays put.
const SCALES: &[usize] = &[2_000, 20_000, 80_000];

/// Levels of the bench plan that hold live batches at once: Union root →
/// Local σ/π → source leaf, plus the driver's in-flight root batch.
const PIPELINE_DEPTH: usize = 4;

fn source_at(n: usize) -> Source {
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
    let rows: Vec<Vec<Value>> = (0..n as i64)
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
    Source::new(Relation::from_rows(schema, rows), desc, CostParams::new(10.0, 1.0))
}

/// ∪ of two broad selections (one under a local σ/π wrapper) — both sides
/// match most of the table, so the deduped union IS the table and the
/// materialized intermediates are ~2× the result.
fn bench_plan() -> Plan {
    let leaf = |cond: &str| {
        Plan::source(Some(parse_condition(cond).unwrap()), attrs(["k", "a", "b", "c"]))
    };
    Plan::Union(vec![
        Plan::local(Some(parse_condition("a >= 0").unwrap()), attrs(["k"]), leaf("b >= 0")),
        Plan::source(Some(parse_condition("a >= 1").unwrap()), attrs(["k"])),
    ])
}

struct Measurement {
    rows: usize,
    scheme: &'static str,
    passes: usize,
    elapsed_s: f64,
    rows_per_sec: f64,
    peak_resident_tuples: u64,
    batches: u64,
}

fn measure(n: usize, streaming: bool) -> Measurement {
    let plan = bench_plan();
    let source = source_at(n);
    let cfg = StreamConfig::default();

    let run = |do_count: bool| -> (usize, u64, u64) {
        if streaming {
            let (rel, run) =
                execute_stream_collect(&plan, &source, StreamRequest::new(&cfg)).unwrap();
            (black_box(rel).len(), run.stats.peak_resident_tuples, run.stats.batches)
        } else {
            let rel = execute(&plan, &source).unwrap();
            let len = black_box(rel).len();
            // The materialized engine's residency floor: the answer itself
            // (its intermediates — two whole operand relations — come on
            // top; this understates the true peak, which only strengthens
            // the comparison).
            (len, if do_count { len as u64 } else { 0 }, 1)
        }
    };

    // Warm-up (also captures rows/peak/batches), then size to ~0.3s wall.
    let t0 = Instant::now();
    let (rows_out, peak, batches) = run(true);
    let warm = t0.elapsed().as_secs_f64();
    let passes = ((0.3 / warm.max(1e-6)).ceil() as usize).clamp(3, 1_000);

    let t1 = Instant::now();
    for _ in 0..passes {
        black_box(run(false));
    }
    let elapsed_s = t1.elapsed().as_secs_f64();
    Measurement {
        rows: rows_out,
        scheme: if streaming { "streaming" } else { "materialized" },
        passes,
        elapsed_s,
        rows_per_sec: (passes * rows_out) as f64 / elapsed_s,
        peak_resident_tuples: peak,
        batches,
    }
}

fn main() {
    let batch_size = StreamConfig::default().batch_size;
    let mut results: Vec<Measurement> = Vec::new();
    for &n in SCALES {
        for streaming in [false, true] {
            let m = measure(n, streaming);
            println!(
                "e15_stream n={:<6} {:<12} {:>12.0} rows/s  peak {:>6} tuples  \
                 ({} batches, {} passes in {:.3}s)",
                n,
                m.scheme,
                m.rows_per_sec,
                m.peak_resident_tuples,
                m.batches,
                m.passes,
                m.elapsed_s
            );
            results.push(m);
        }
    }

    let mut json = String::from("{\n  \"bench\": \"e15_stream\",\n");
    let _ = write!(
        json,
        "  \"batch_size\": {batch_size},\n  \"pipeline_depth\": {PIPELINE_DEPTH},\n  \
         \"results\": [\n"
    );
    for (i, m) in results.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"rows\": {}, \"scheme\": \"{}\", \"passes\": {}, \"elapsed_s\": {:.6}, \
             \"rows_per_sec\": {:.2}, \"peak_resident_tuples\": {}, \"batches\": {}}}{}",
            m.rows,
            m.scheme,
            m.passes,
            m.elapsed_s,
            m.rows_per_sec,
            m.peak_resident_tuples,
            m.batches,
            if i + 1 < results.len() { ",\n" } else { "\n" }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(OUT_PATH, &json).expect("write BENCH_stream.json");
    println!("wrote {OUT_PATH}");
}
