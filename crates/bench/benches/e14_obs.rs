//! E14: flight-recorder overhead — planner throughput (queries/sec) on the
//! e13 workloads with the recorder disarmed (the default; every event
//! closure is skipped) vs armed (every planner decision captured into the
//! ring). The delta is the price of full provenance; the disarmed leg
//! should track e13's GenCompact numbers.
//!
//! Prints the two throughputs and the overhead per workload. It asserts
//! nothing: the armed recorder is opt-in, so its cost is informational.
//!
//! Run with `cargo bench -p csqp-bench --bench e14_obs`.

use csqp_bench::floors::{hotpath_workloads, Workload};
use csqp_core::mediator::{Mediator, Scheme};
use csqp_obs::FlightRecorder;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// One full pass: plan every query through a mediator carrying `recorder`.
fn pass(recorder: &Arc<FlightRecorder>, w: &Workload) -> usize {
    let mut n = 0;
    for query in &w.queries {
        let mediator = Mediator::new(w.source.clone())
            .with_scheme(Scheme::GenCompact)
            .with_flight_recorder(recorder.clone());
        black_box(mediator.plan(query).ok());
        n += 1;
    }
    n
}

/// Queries per second over a run sized to ~0.5 s of wall clock, after a
/// warm-up pass (the e13 protocol).
fn queries_per_sec(recorder: &Arc<FlightRecorder>, label: &str, w: &Workload) -> f64 {
    let t0 = Instant::now();
    let queries_per_pass = pass(recorder, w);
    let warm = t0.elapsed().as_secs_f64();
    let passes = ((0.5 / warm.max(1e-6)).ceil() as usize).clamp(3, 2_000);

    let t1 = Instant::now();
    for _ in 0..passes {
        black_box(pass(recorder, w));
    }
    let elapsed_s = t1.elapsed().as_secs_f64();
    let qps = (passes * queries_per_pass) as f64 / elapsed_s;
    println!(
        "e14_obs {:<10} recorder {label:<3} {qps:>9.1} queries/s  ({queries_per_pass} queries x \
         {passes} passes in {elapsed_s:.3}s)",
        w.name
    );
    qps
}

fn main() {
    let mut overheads = Vec::new();
    for w in hotpath_workloads() {
        // Disarmed: the shipping default — `begin_with` returns a disabled
        // handle and every event closure is skipped unevaluated.
        let off = queries_per_sec(&Arc::new(FlightRecorder::off()), "off", &w);
        // Armed: every decision recorded. The ring is sized so steady-state
        // planning also pays the eviction path, as a long-running `csqp
        // serve` would.
        let on = queries_per_sec(&Arc::new(FlightRecorder::new()), "on", &w);
        overheads.push((w.name, off, on));
    }
    for (workload, off, on) in overheads {
        println!(
            "e14_obs {workload:<10} overhead: {:.1}% (off {off:.1} -> on {on:.1} queries/s)",
            (off / on - 1.0) * 100.0
        );
    }
}
