//! E15: streaming vs materialized execution throughput across result sizes.
//!
//! The claim under test (DESIGN.md §5d, docs/EXECUTION.md §5): the streaming
//! engine's peak residency is bounded by `batch_size × pipeline depth`,
//! independent of result size, while the materialized executor's peak grows
//! with the result — and streaming pays no meaningful throughput tax for
//! that bound. The residency half is a count, asserted by the
//! `csqp_bench::floors` tests; this bench times the throughput half and
//! asserts that streaming keeps at least half the materialized rows/s at
//! every scale (the slack absorbs CI noise; on a 2-core host streaming
//! reads 2.6–4.6× the materialized rate).
//! A breach exits non-zero.
//!
//! Run with `cargo bench -p csqp-bench --bench e15_stream`.

use csqp_bench::floors::{stream_plan, stream_source, STREAM_SCALES};
use csqp_plan::{execute, execute_stream_collect, StreamConfig, StreamRequest};
use std::hint::black_box;
use std::time::Instant;

/// The least streaming/materialized throughput ratio at any scale.
const FLOOR: f64 = 0.5;

/// Rows per second over a run sized to ~0.3 s of wall clock, after a
/// warm-up pass.
fn rows_per_sec(n: usize, streaming: bool) -> f64 {
    let plan = stream_plan();
    let source = stream_source(n);
    let cfg = StreamConfig::default();
    let run = || {
        let rel = if streaming {
            execute_stream_collect(&plan, &source, StreamRequest::new(&cfg)).unwrap().0
        } else {
            execute(&plan, &source).unwrap()
        };
        black_box(rel).len()
    };

    let t0 = Instant::now();
    let rows = run();
    let warm = t0.elapsed().as_secs_f64();
    let passes = ((0.3 / warm.max(1e-6)).ceil() as usize).clamp(3, 1_000);

    let t1 = Instant::now();
    for _ in 0..passes {
        black_box(run());
    }
    let elapsed_s = t1.elapsed().as_secs_f64();
    let rows_per_sec = (passes * rows) as f64 / elapsed_s;
    println!(
        "e15_stream n={n:<6} {:<12} {rows_per_sec:>12.0} rows/s  ({rows} rows, {passes} passes \
         in {elapsed_s:.3}s)",
        if streaming { "streaming" } else { "materialized" }
    );
    rows_per_sec
}

fn main() {
    let mut ratios = Vec::new();
    for &n in STREAM_SCALES {
        let materialized = rows_per_sec(n, false);
        let streaming = rows_per_sec(n, true);
        ratios.push((n, streaming / materialized));
    }
    for &(n, ratio) in &ratios {
        println!("e15_stream n={n:<6} streaming/materialized {ratio:.2}x (floor {FLOOR}x)");
    }
    for (n, ratio) in ratios {
        assert!(ratio >= FLOOR, "n={n}: streaming throughput regressed ({ratio:.2}x < {FLOOR}x)");
    }
}
