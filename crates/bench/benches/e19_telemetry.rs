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
//! isolates exactly what the windowed time series + journal add. The
//! overhead is the e18 paired-trial median ratio, and the bench asserts it
//! is at most 5% on every workload. A breach exits non-zero.
//!
//! Run with `cargo bench -p csqp-bench --bench e19_telemetry`.

use csqp_bench::floors::{hotpath_workloads, paired_overhead, Workload};
use csqp_core::mediator::{Mediator, Scheme};
use csqp_core::types::TargetQuery;
use csqp_obs::audit::{AuditRecord, JournalWriter};
use csqp_obs::{MetricsRegistry, Obs, TimeSeries};
use std::hint::black_box;
use std::sync::Arc;

/// Serve's default window cadence.
const WINDOW_QUERIES: u64 = 4;

/// The most journaling and window rolls may add, in percent.
const CEILING_PCT: f64 = 5.0;

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
fn pass(telemetry: Option<&mut Telemetry>, w: &Workload) {
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
    }
}

fn main() {
    let journal_path =
        std::env::temp_dir().join(format!("csqp-e19-journal-{}.jsonl", std::process::id()));
    let mut overheads = Vec::new();
    for w in hotpath_workloads() {
        let mut telemetry = Telemetry::new(&journal_path);
        let p = paired_overhead(|| pass(None, &w), || pass(Some(&mut telemetry), &w));
        let queries = w.queries.len() as f64;
        println!(
            "e19_telemetry {:<10} profiled {:>9.1} q/s  telemetry {:>9.1} q/s  overhead {:>5.1}% \
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
    let _ = std::fs::remove_file(&journal_path);
    let rotated = {
        let mut os = journal_path.into_os_string();
        os.push(".1");
        std::path::PathBuf::from(os)
    };
    let _ = std::fs::remove_file(&rotated);

    for (workload, pct) in overheads {
        assert!(pct <= CEILING_PCT, "{workload}: telemetry overhead {pct:.1}% > {CEILING_PCT}%");
    }
}
