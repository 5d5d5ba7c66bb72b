//! E18: span + profile overhead — end-to-end throughput (queries/sec) on
//! the e13 workloads with the metrics recorder compiled in on both legs:
//!
//! - **recorder** — the tracer disabled (`set_enabled(false)`): metrics
//!   record, no spans open, no profile is assembled. This is the
//!   recorder-only baseline every prior bench measures.
//! - **spans** — the tracer enabled and every query captured through
//!   `run_profiled`: hierarchical spans down the planner and executor plus
//!   the full `QueryProfile` document (metrics delta, span tree, flight
//!   trail, cardinalities) assembled per query.
//!
//! Both legs run the identical analyzed execution, so the delta isolates
//! exactly what the span layer and profile capture add. The overhead is
//! the median of paired trials (`csqp_bench::floors::paired_overhead`), and
//! the bench asserts it is at most 5% on every workload. A breach exits
//! non-zero.
//!
//! Run with `cargo bench -p csqp-bench --bench e18_spans`.

use csqp_bench::floors::{hotpath_workloads, paired_overhead, Workload};
use csqp_core::mediator::{Mediator, Scheme, StreamOptions};
use csqp_obs::Obs;
use csqp_plan::exec_stream::StreamConfig;
use std::hint::black_box;
use std::sync::Arc;

/// The most the span layer and profile capture may add, in percent.
const CEILING_PCT: f64 = 5.0;

/// One full pass: plan + analyzed-execute every query. `profiled` selects
/// the capture leg; both legs do the identical planning and execution.
fn pass(profiled: bool, w: &Workload) {
    for query in &w.queries {
        let obs = Arc::new(Obs::new());
        obs.tracer.set_enabled(profiled);
        let mediator =
            Mediator::new(w.source.clone()).with_scheme(Scheme::GenCompact).with_obs(obs);
        if profiled {
            black_box(mediator.run_profiled(query).ok());
        } else {
            let options = StreamOptions::Analyzed(&StreamConfig::default());
            black_box(mediator.run_stream(query, options, None).ok());
        }
    }
}

fn main() {
    let mut overheads = Vec::new();
    for w in hotpath_workloads() {
        let p = paired_overhead(|| pass(false, &w), || pass(true, &w));
        let queries = w.queries.len() as f64;
        println!(
            "e18_spans {:<10} recorder {:>9.1} q/s  spans {:>9.1} q/s  overhead {:>5.1}% \
             (median of {} paired trials x {} queries)",
            w.name,
            queries / p.base_best_s,
            queries / p.treated_best_s,
            p.overhead_pct,
            p.trials,
            w.queries.len()
        );
        overheads.push((w.name, p.overhead_pct));
    }
    for (workload, pct) in overheads {
        assert!(pct <= CEILING_PCT, "{workload}: span+profile overhead {pct:.1}% > {CEILING_PCT}%");
    }
}
