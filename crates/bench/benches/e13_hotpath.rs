//! E13: end-to-end planner throughput (queries/sec) on the bookstore and
//! carguide workloads, GenCompact vs GenModular.
//!
//! Prints one line per workload and scheme, then asserts the hot-path
//! floor: GenCompact plans at least 1.6× as many queries per second as
//! GenModular on each workload, with metrics and tracing recording. A
//! breach exits non-zero.
//!
//! Run with `cargo bench -p csqp-bench --bench e13_hotpath`.

use csqp_bench::floors::{hotpath_workloads, Workload};
use csqp_core::genmodular::GenModularConfig;
use csqp_core::mediator::{Mediator, Scheme};
use csqp_expr::rewrite::RewriteBudget;
use csqp_source::Source;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// GenModular is only run on queries at or below this size; its rewrite set
/// explodes beyond it (that explosion is E3's story, not this bench's).
const MODULAR_MAX_ATOMS: usize = 4;

/// The least GenCompact/GenModular throughput ratio on any workload.
const FLOOR: f64 = 1.6;

fn mediator_for(scheme: Scheme, source: Arc<Source>, n_atoms: usize) -> Mediator {
    match scheme {
        Scheme::GenModular => Mediator::new(source)
            .with_scheme(Scheme::GenModular)
            .with_modular_config(GenModularConfig {
                rewrite_budget: RewriteBudget {
                    max_cts: 20_000,
                    max_atoms: n_atoms + 2,
                    max_depth: 6,
                },
                ..Default::default()
            }),
        scheme => Mediator::new(source).with_scheme(scheme),
    }
}

/// One full pass over the workload: plan every query, return how many were
/// planned (feasible or not, each counts as one processed query).
fn pass(scheme: Scheme, w: &Workload) -> usize {
    let mut n = 0;
    for query in &w.queries {
        if scheme == Scheme::GenModular && query.cond.n_atoms() > MODULAR_MAX_ATOMS {
            continue;
        }
        let mediator = mediator_for(scheme, w.source.clone(), query.cond.n_atoms());
        black_box(mediator.plan(query).ok());
        n += 1;
    }
    n
}

/// Queries per second over a run sized to ~0.5 s of wall clock, after a
/// warm-up pass (which fills the per-source caches shared across
/// mediators and pages in the grammar machinery).
fn queries_per_sec(scheme: Scheme, w: &Workload) -> f64 {
    let t0 = Instant::now();
    let queries_per_pass = pass(scheme, w);
    let warm = t0.elapsed().as_secs_f64();
    let passes = ((0.5 / warm.max(1e-6)).ceil() as usize).clamp(3, 2_000);

    let t1 = Instant::now();
    for _ in 0..passes {
        black_box(pass(scheme, w));
    }
    let elapsed_s = t1.elapsed().as_secs_f64();
    let qps = (passes * queries_per_pass) as f64 / elapsed_s;
    println!(
        "e13_hotpath {:<10} {:<11} {qps:>9.1} queries/s  ({queries_per_pass} queries x \
         {passes} passes in {elapsed_s:.3}s)",
        w.name,
        format!("{scheme:?}")
    );
    qps
}

fn main() {
    let mut ratios = Vec::new();
    for w in hotpath_workloads() {
        let compact = queries_per_sec(Scheme::GenCompact, &w);
        let modular = queries_per_sec(Scheme::GenModular, &w);
        ratios.push((w.name, compact / modular));
    }
    for &(workload, ratio) in &ratios {
        println!("e13_hotpath {workload:<10} GenCompact/GenModular {ratio:.2}x (floor {FLOOR}x)");
    }
    for (workload, ratio) in ratios {
        assert!(ratio >= FLOOR, "{workload}: hot-path floor broken ({ratio:.2}x < {FLOOR}x)");
    }
}
