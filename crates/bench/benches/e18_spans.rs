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
//! exactly what the span layer and profile capture add. CI gates the
//! overhead at <= 5%.
//!
//! Emits machine-readable results to `BENCH_spans.json` at the repo root.
//! Run with `cargo bench -p csqp-bench --bench e18_spans`.

use csqp_core::mediator::{Mediator, Scheme, StreamOptions};
use csqp_core::types::TargetQuery;
use csqp_obs::Obs;
use csqp_plan::exec_stream::StreamConfig;
use csqp_source::{Catalog, Source};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const OUT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_spans.json");

struct Workload {
    name: &'static str,
    source: Arc<Source>,
    queries: Vec<TargetQuery>,
}

fn q(cond: &str, attrs: &[&str]) -> TargetQuery {
    TargetQuery::parse(cond, attrs).unwrap_or_else(|e| panic!("bad bench query {cond:?}: {e}"))
}

/// The e13 GenCompact workloads, verbatim (as e14 uses them): span cost is
/// measured on the same queries whose throughput e13 tracks.
fn workloads() -> Vec<Workload> {
    let catalog = Catalog::demo_small(7);
    let bookstore = catalog.get("bookstore").unwrap().clone();
    let car_guide = catalog.get("car_guide").unwrap().clone();

    let book_attrs = ["isbn", "title", "author"];
    let bookstore_queries = vec![
        q(
            "(author = \"Sigmund Freud\" _ author = \"Carl Jung\") ^ title contains \"dreams\"",
            &book_attrs,
        ),
        q("author = \"Sigmund Freud\"", &book_attrs),
        q("title contains \"history\" ^ subject = \"science\"", &book_attrs),
        q(
            "(author = \"A. Author\" _ author = \"B. Author\" _ author = \"C. Author\")",
            &book_attrs,
        ),
        q(
            "(subject = \"fiction\" _ subject = \"poetry\") ^ title contains \"sea\"",
            &book_attrs,
        ),
        q(
            "(author = \"X\" ^ title contains \"war\") _ (author = \"Y\" ^ title contains \"peace\")",
            &book_attrs,
        ),
        q("subject = \"history\" ^ author = \"Edward Gibbon\"", &book_attrs),
        q(
            "(title contains \"intro\" _ title contains \"primer\") ^ subject = \"math\"",
            &book_attrs,
        ),
    ];

    let car_attrs = ["listing_id", "model", "price"];
    let carguide_queries = vec![
        q(
            "style = \"sedan\" ^ (size = \"compact\" _ size = \"midsize\") ^ \
             ((make = \"Toyota\" ^ price <= 20000) _ (make = \"BMW\" ^ price <= 40000))",
            &car_attrs,
        ),
        q("make = \"Toyota\" ^ price <= 15000", &car_attrs),
        q("style = \"suv\" ^ (size = \"midsize\" _ size = \"fullsize\")", &car_attrs),
        q("(make = \"Honda\" _ make = \"Toyota\") ^ price <= 25000", &car_attrs),
        q("style = \"coupe\" ^ make = \"BMW\" ^ price <= 60000", &car_attrs),
        q("(size = \"compact\" _ size = \"subcompact\") ^ price <= 12000", &car_attrs),
        q("make = \"Ford\" ^ style = \"truck\"", &car_attrs),
        q("(make = \"Audi\" ^ price <= 50000) _ (make = \"BMW\" ^ price <= 45000)", &car_attrs),
    ];

    vec![
        Workload { name: "bookstore", source: bookstore, queries: bookstore_queries },
        Workload { name: "carguide", source: car_guide, queries: carguide_queries },
    ]
}

/// One full pass: plan + analyzed-execute every query. `profiled` selects
/// the capture leg; both legs do the identical planning and execution.
fn pass(profiled: bool, w: &Workload) -> usize {
    let mut n = 0;
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
        n += 1;
    }
    n
}

struct Measurement {
    workload: &'static str,
    queries_per_pass: usize,
    trials: usize,
    recorder_qps: f64,
    spans_qps: f64,
    /// Median of the per-trial paired `spans/recorder` time ratios, as a
    /// percentage over 1.0. This is the gated number.
    overhead_pct: f64,
}

/// Measures one workload with *paired* trials: each trial times one
/// recorder pass and one spans pass back to back (alternating which goes
/// first), and contributes one `spans/recorder` ratio. The reported
/// overhead is the median ratio. Pairing matters: machine drift (thermal
/// ramps, noisy CI neighbours) moves both halves of a trial together and
/// cancels in the ratio, where best-pass-per-leg protocols fold that drift
/// straight into the result.
fn measure(w: &Workload) -> Measurement {
    // Warm-up both legs, and size trials so the run totals a few seconds.
    let queries_per_pass = pass(false, w);
    let t0 = Instant::now();
    black_box(pass(true, w));
    let warm = t0.elapsed().as_secs_f64();
    let trials = ((1.0 / warm.max(1e-6)).ceil() as usize).clamp(9, 400) | 1; // odd, for a true median

    let mut ratios = Vec::with_capacity(trials);
    let mut best = [f64::MAX; 2];
    for trial in 0..trials {
        let mut dt = [0.0f64; 2];
        // Alternate leg order so neither systematically runs on the warmer
        // half of the trial.
        let order: [(usize, bool); 2] =
            if trial % 2 == 0 { [(0, false), (1, true)] } else { [(1, true), (0, false)] };
        for (slot, profiled) in order {
            let t = Instant::now();
            black_box(pass(profiled, w));
            dt[slot] = t.elapsed().as_secs_f64();
            best[slot] = best[slot].min(dt[slot]);
        }
        ratios.push(dt[1] / dt[0]);
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    let overhead_pct = (ratios[trials / 2] - 1.0) * 100.0;
    Measurement {
        workload: w.name,
        queries_per_pass,
        trials,
        recorder_qps: queries_per_pass as f64 / best[0],
        spans_qps: queries_per_pass as f64 / best[1],
        overhead_pct,
    }
}

fn main() {
    let mut results: Vec<Measurement> = Vec::new();
    for w in workloads() {
        let m = measure(&w);
        println!(
            "e18_spans {:<10} recorder {:>9.1} q/s  spans {:>9.1} q/s  overhead {:>5.1}% \
             (median of {} paired trials x {} queries)",
            m.workload, m.recorder_qps, m.spans_qps, m.overhead_pct, m.trials, m.queries_per_pass
        );
        results.push(m);
    }

    let mut json = String::from("{\n  \"bench\": \"e18_spans\",\n  \"results\": [\n");
    for (i, m) in results.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"workload\": \"{}\", \"queries_per_pass\": {}, \"trials\": {}, \
             \"recorder_queries_per_sec\": {:.2}, \"spans_queries_per_sec\": {:.2}, \
             \"overhead_pct\": {:.2}}}{}",
            m.workload,
            m.queries_per_pass,
            m.trials,
            m.recorder_qps,
            m.spans_qps,
            m.overhead_pct,
            if i + 1 < results.len() { ",\n" } else { "\n" }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(OUT_PATH, &json).expect("write BENCH_spans.json");
    println!("wrote {OUT_PATH}");
}
