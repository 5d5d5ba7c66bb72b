//! E19: fleet-telemetry overhead — end-to-end throughput (queries/sec) on
//! the e13 workloads with full profiling (`run_profiled`, the e18 spans
//! leg) on both legs:
//!
//! - **profiled** — spans + `QueryProfile` capture per query. This is the
//!   e18 "spans" leg, i.e. the PR-8 baseline.
//! - **telemetry** — the same, plus everything the serve loop adds per
//!   query for the fleet view: an audit-journal append (JSONL record to a
//!   real file, size-rotated) and a telemetry-window roll (the registry's
//!   open window, cut into the fixed ring: O(series touched) every
//!   `WINDOW_QUERIES` queries).
//!
//! Both legs run the identical planning and execution, so the delta
//! isolates exactly what the windowed time series + journal add. CI gates
//! the overhead at <= 5% using the e18 paired-trial median-ratio method.
//!
//! Emits machine-readable results to `BENCH_telemetry.json` at the repo
//! root. Run with `cargo bench -p csqp-bench --bench e19_telemetry`.

use csqp_core::mediator::{Mediator, Scheme};
use csqp_core::types::TargetQuery;
use csqp_obs::audit::{AuditRecord, JournalWriter};
use csqp_obs::{MetricsRegistry, Obs, TimeSeries};
use csqp_source::{Catalog, Source};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const OUT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_telemetry.json");

/// Serve's default window cadence.
const WINDOW_QUERIES: u64 = 4;

struct Workload {
    name: &'static str,
    source: Arc<Source>,
    queries: Vec<TargetQuery>,
}

fn q(cond: &str, attrs: &[&str]) -> TargetQuery {
    TargetQuery::parse(cond, attrs).unwrap_or_else(|e| panic!("bad bench query {cond:?}: {e}"))
}

/// The e13 GenCompact workloads, verbatim (as e14/e18 use them).
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

/// The per-query fleet-telemetry work the serve loop performs: one audit
/// record appended to a real journal file, one window roll per
/// `WINDOW_QUERIES` queries.
struct Telemetry {
    series: TimeSeries,
    journal: JournalWriter,
    queries: u64,
}

impl Telemetry {
    fn new(path: &std::path::Path) -> Telemetry {
        let _ = std::fs::remove_file(path);
        Telemetry {
            series: TimeSeries::new(64),
            journal: JournalWriter::open(path, 1 << 20).expect("open bench journal"),
            queries: 0,
        }
    }

    fn record(&mut self, id: u64, query: &TargetQuery, rows: u64, metrics: &MetricsRegistry) {
        self.journal
            .append(&AuditRecord {
                id,
                fingerprint: format!(
                    "{:032x}",
                    csqp_ssdl::linearize::cond_fingerprint(Some(&query.cond))
                ),
                query: query.to_string(),
                scheme: "GenCompact".to_string(),
                status: "ok".to_string(),
                rows,
                wall_us: None,
                ticks: 0,
                splices: 0,
                drift_triggers: 0,
                breaker_events: 0,
                capindex_candidates: 1,
                capindex_total: 1,
            })
            .expect("journal append");
        self.queries += 1;
        if self.queries.is_multiple_of(WINDOW_QUERIES) {
            self.series.roll(metrics.cut_window(), self.queries, None);
        }
    }
}

/// One full pass: plan + profiled-execute every query; the telemetry leg
/// additionally journals and windows each one.
fn pass(telemetry: Option<&mut Telemetry>, w: &Workload) -> usize {
    let mut n = 0;
    let mut telemetry = telemetry;
    for (i, query) in w.queries.iter().enumerate() {
        let obs = Arc::new(Obs::new());
        obs.tracer.set_enabled(true);
        let mediator =
            Mediator::new(w.source.clone()).with_scheme(Scheme::GenCompact).with_obs(obs.clone());
        let out = black_box(mediator.run_profiled(query).ok());
        if let Some(t) = telemetry.as_deref_mut() {
            let rows = out.map_or(0, |(analyzed, _)| analyzed.outcome.rows.len() as u64);
            t.record(i as u64, query, rows, &obs.metrics);
        }
        n += 1;
    }
    n
}

struct Measurement {
    workload: &'static str,
    queries_per_pass: usize,
    trials: usize,
    profiled_qps: f64,
    telemetry_qps: f64,
    /// Median of the per-trial paired `telemetry/profiled` time ratios, as
    /// a percentage over 1.0. This is the gated number.
    overhead_pct: f64,
}

/// Measures one workload with *paired* trials (the e18 protocol): each
/// trial times one profiled pass and one telemetry pass back to back
/// (alternating which goes first) and contributes one ratio; the reported
/// overhead is the median ratio, which cancels machine drift.
fn measure(w: &Workload, journal_path: &std::path::Path) -> Measurement {
    let mut telemetry = Telemetry::new(journal_path);
    // Warm-up both legs, and size trials so the run totals a few seconds.
    let queries_per_pass = pass(None, w);
    let t0 = Instant::now();
    black_box(pass(Some(&mut telemetry), w));
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
        for (slot, with_telemetry) in order {
            let t = Instant::now();
            if with_telemetry {
                black_box(pass(Some(&mut telemetry), w));
            } else {
                black_box(pass(None, w));
            }
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
        profiled_qps: queries_per_pass as f64 / best[0],
        telemetry_qps: queries_per_pass as f64 / best[1],
        overhead_pct,
    }
}

fn main() {
    let journal_path =
        std::env::temp_dir().join(format!("csqp-e19-journal-{}.jsonl", std::process::id()));
    let mut results: Vec<Measurement> = Vec::new();
    for w in workloads() {
        let m = measure(&w, &journal_path);
        println!(
            "e19_telemetry {:<10} profiled {:>9.1} q/s  telemetry {:>9.1} q/s  overhead {:>5.1}% \
             (median of {} paired trials x {} queries)",
            m.workload,
            m.profiled_qps,
            m.telemetry_qps,
            m.overhead_pct,
            m.trials,
            m.queries_per_pass
        );
        results.push(m);
    }
    let _ = std::fs::remove_file(&journal_path);
    let rotated = {
        let mut os = journal_path.into_os_string();
        os.push(".1");
        std::path::PathBuf::from(os)
    };
    let _ = std::fs::remove_file(&rotated);

    let mut json = String::from("{\n  \"bench\": \"e19_telemetry\",\n  \"results\": [\n");
    for (i, m) in results.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"workload\": \"{}\", \"queries_per_pass\": {}, \"trials\": {}, \
             \"profiled_queries_per_sec\": {:.2}, \"telemetry_queries_per_sec\": {:.2}, \
             \"overhead_pct\": {:.2}}}{}",
            m.workload,
            m.queries_per_pass,
            m.trials,
            m.profiled_qps,
            m.telemetry_qps,
            m.overhead_pct,
            if i + 1 < results.len() { ",\n" } else { "\n" }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(OUT_PATH, &json).expect("write BENCH_telemetry.json");
    println!("wrote {OUT_PATH}");
}
