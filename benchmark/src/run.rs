//! One benchmark run: set every workload up, warm it, measure interleaved
//! rounds, repeat the set-up for its own timing, and reduce the rounds to
//! one median per metric.

use crate::catalog;
use crate::host;
use crate::json::Json;
use crate::layers;
use crate::loadgen::{self, Cursor, Round, Sample, Until, GENERATORS};
use crate::stats::{self, Estimate};
use crate::verify::{Expect, Failure};
use crate::workloads::{Load, Request, Spec, Workload, PLAN_CACHE_CAPACITY};
use csqp::core::plancache::CacheStats;
use csqp::serve::{ServeConfig, Server};
use csqp::source::Source;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker threads of every measured server: the box has two processors.
pub const WORKERS: usize = 2;

#[derive(Debug, Clone)]
pub struct Options {
    pub workloads: Vec<Workload>,
    pub seed: u64,
    pub rounds: usize,
    pub round_secs: f64,
    /// Timed set-ups per workload (their median is `setup_s`).
    pub setups: usize,
    pub trace: bool,
    pub out_dir: std::path::PathBuf,
}

/// An in-process server on a loopback port, serving until stopped.
pub struct Served {
    pub server: Arc<Server>,
    pub addr: SocketAddr,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Served {
    /// `Server::bind_federation` over `members` with the benchmark's fixed
    /// configuration, then the accept loop on its own thread.
    pub fn start(members: Vec<Arc<Source>>, workers: usize) -> Served {
        let cfg = ServeConfig {
            workers,
            adaptive: true,
            plan_cache_capacity: PLAN_CACHE_CAPACITY,
            journal_path: None,
            ..ServeConfig::default()
        };
        let server = Arc::new(Server::bind_federation(members, cfg).expect("bind a loopback port"));
        let addr = server.local_addr().expect("bound address");
        let accept = server.clone();
        let thread = std::thread::spawn(move || accept.run());
        Served { server, addr, thread }
    }

    /// One verified page read; panics when the server does not answer — a
    /// benchmark that cannot reach its own server has nothing to report.
    pub fn page(&self, path: &'static str) -> Sample {
        let req = Request { spec: Spec::Page(path), path: path.to_string(), expect: Expect::Page };
        let s = loadgen::send(self.addr, 0, &req, Instant::now());
        assert_eq!(s.failure, None, "GET {path} failed");
        s
    }

    /// `/shutdown`, then waits for the accept loop and its workers to end.
    pub fn stop(self) {
        self.page("/shutdown");
        self.thread.join().expect("server thread").expect("clean shutdown");
    }
}

/// One complete set-up, timed: build the members, bind, first `200` from
/// `/healthz`, first query answered and verified (which is when lazily
/// built state such as the capability index exists).
fn timed_setup(w: Workload, first: &Request) -> f64 {
    let t = Instant::now();
    let served = Served::start(w.members(), WORKERS);
    served.page("/healthz");
    let s = loadgen::send(served.addr, 0, first, Instant::now());
    let secs = t.elapsed().as_secs_f64();
    assert_eq!(s.failure, None, "{}: first query of a set-up failed", w.name());
    served.stop();
    secs
}

/// A workload set up, warmed and ready for rounds.
pub struct Prepared {
    pub workload: Workload,
    /// `None` once the measured server has been stopped.
    served: Option<Served>,
    pub members: Vec<Arc<Source>>,
    pub corpus: Vec<Request>,
    pub cursor: Cursor,
    pub warmup: Round,
    pub rss_mb: f64,
    pub source_cost_per_query: f64,
    pub source_queries_per_query: f64,
    pub tuples_shipped_per_row: f64,
    pub cache_after_warmup: CacheStats,
    pub rounds: Vec<Round>,
    /// Resident memory gained inside the rounds (the gaps between them,
    /// where set-ups are timed, do not count).
    pub rss_growth_mb: f64,
    /// Seconds each timed set-up took.
    pub setups: Vec<f64>,
}

impl Prepared {
    pub fn served(&self) -> &Served {
        self.served.as_ref().expect("the measured server is still running")
    }
}

fn prepare(w: Workload, seed: u64) -> Prepared {
    let rss0 = host::rss_mb();
    let members = w.members();
    let served = Served::start(members.clone(), WORKERS);
    served.page("/healthz");
    let rss_setup = host::rss_mb() - rss0;
    // The oracle's allocations sit between the two measured intervals.
    let corpus = w.requests(&w.specs(seed), &members);
    let rss1 = host::rss_mb();
    // Warm-up: one serial pass over the whole corpus. It fills the plan
    // cache, the check caches and the per-member metric series, and it is
    // where the exact counts are taken — serial, so they repeat.
    let meters = |ms: &[Arc<Source>]| ms.iter().map(|m| m.meter()).collect::<Vec<_>>();
    let before = meters(&members);
    let cursor = Cursor::default();
    let warmup = loadgen::run_round(
        served.addr,
        &corpus,
        Load::Closed { clients: 1 },
        Until::Requests(corpus.len()),
        &cursor,
    );
    let after = meters(&members);
    let (mut cost, mut queries, mut shipped) = (0.0, 0u64, 0u64);
    for ((m, b), a) in members.iter().zip(&before).zip(&after) {
        let delta = csqp::source::Meter {
            queries: a.queries - b.queries,
            tuples_shipped: a.tuples_shipped - b.tuples_shipped,
            rejected: a.rejected - b.rejected,
        };
        cost += delta.cost(m.cost_params());
        queries += delta.queries;
        shipped += delta.tuples_shipped;
    }
    let asked = corpus.iter().filter(|r| matches!(r.spec, Spec::Query { .. })).count() as f64;
    let rows: u64 = warmup.ok().map(|s| s.rows).sum();
    let rss_after_warmup_mb = host::rss_mb();
    Prepared {
        workload: w,
        cache_after_warmup: served.server.plan_cache().stats(),
        served: Some(served),
        members,
        corpus,
        cursor,
        rss_mb: rss_setup + (rss_after_warmup_mb - rss1),
        source_cost_per_query: cost / asked,
        source_queries_per_query: queries as f64 / asked,
        tuples_shipped_per_row: shipped as f64 / rows.max(1) as f64,
        warmup,
        rounds: Vec::new(),
        rss_growth_mb: 0.0,
        setups: Vec::new(),
    }
}

/// The per-round value of each round-based end-to-end metric.
fn round_values(r: &Round) -> [(&'static str, f64); 5] {
    let ok = r.ok().count().max(1) as f64;
    let mut latency: Vec<u64> = r.ok().map(|s| s.done_us).collect();
    let mut ttfr: Vec<u64> = r.ok().map(|s| s.first_byte_us).collect();
    latency.sort_unstable();
    ttfr.sort_unstable();
    let p50 = |v: &[u64]| if v.is_empty() { f64::NAN } else { stats::percentile(v, 0.5) as f64 };
    let rows: u64 = r.ok().map(|s| s.rows).sum();
    [
        ("qps", r.ok().count() as f64 / r.wall_s),
        ("latency_p50_us", p50(&latency)),
        ("ttfr_p50_us", p50(&ttfr)),
        ("rows_per_s", rows as f64 / r.wall_s),
        ("server_cpu_us_per_req", (r.process_cpu_s - r.generator_cpu_s).max(0.0) * 1e6 / ok),
    ]
}

/// What one workload measured.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    pub workload: Workload,
    pub attempted: usize,
    pub failed: usize,
    /// Failed requests by kind.
    pub failures: BTreeMap<String, usize>,
    pub end_to_end: Vec<(&'static str, Estimate)>,
    pub per_layer: Vec<(&'static str, f64)>,
    /// Metrics whose value is a count that repeats exactly run to run.
    pub exact: Vec<&'static str>,
    pub warnings: Vec<String>,
    pub pooled_samples: usize,
}

impl WorkloadResult {
    pub fn to_json(&self) -> Json {
        let metric = |name: &str, m: &catalog::EndToEnd, e: &Estimate| {
            let mut fields = vec![
                ("unit".to_string(), Json::str(m.unit)),
                ("what".to_string(), Json::str(m.what)),
            ];
            fields.extend(e.to_json().fields().iter().cloned());
            if self.exact.contains(&name) {
                fields.push(("exact".to_string(), Json::Bool(true)));
            }
            Json::Obj(fields)
        };
        Json::obj([
            ("workload", Json::str(self.workload.name())),
            ("why", Json::str(self.workload.why())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "failures",
                Json::obj(self.failures.iter().map(|(k, n)| (k.clone(), Json::Num(*n as f64)))),
            ),
            ("pooled_samples", Json::Num(self.pooled_samples as f64)),
            (
                "end_to_end",
                Json::obj(self.end_to_end.iter().map(|(name, e)| {
                    let m = catalog::end_to_end(name);
                    (*name, metric(name, m, e))
                })),
            ),
            (
                "per_layer",
                Json::obj(self.per_layer.iter().map(|(name, v)| {
                    let m = catalog::per_layer(name);
                    let mut fields = vec![
                        ("value", Json::Num(*v)),
                        ("unit", Json::str(m.unit)),
                        ("what", Json::str(m.what)),
                    ];
                    if self.exact.contains(name) {
                        fields.push(("exact", Json::Bool(true)));
                    }
                    fields.push(("moves", Json::str(m.moves)));
                    (*name, Json::obj(fields))
                })),
            ),
            ("warnings", Json::Arr(self.warnings.iter().map(Json::str).collect())),
        ])
    }
}

fn failure_label(f: Failure) -> String {
    match f {
        Failure::Io => "io".into(),
        Failure::Status(c) => format!("status_{c}"),
        Failure::Truncated => "truncated".into(),
        Failure::WrongAnswer => "wrong_answer".into(),
    }
}

fn reduce(p: &Prepared, traced: Option<layers::Traced>) -> WorkloadResult {
    let w = p.workload;
    let mut end_to_end: Vec<(&'static str, Estimate)> = Vec::new();
    let per_round: Vec<_> = p.rounds.iter().map(round_values).collect();
    for i in 0..5 {
        let values: Vec<f64> = per_round.iter().map(|r| r[i].1).collect();
        let name = per_round[0][i].0;
        let m = catalog::end_to_end(name);
        end_to_end.push((name, Estimate::best_of(&values, m.better == catalog::Better::Higher)));
    }
    end_to_end.push(("source_cost_per_query", Estimate::median_of(&[p.source_cost_per_query])));
    end_to_end.push(("rss_mb", Estimate::median_of(&[p.rss_mb])));
    end_to_end.push(("setup_s", Estimate::median_of(&p.setups)));

    let samples = || p.warmup.samples.iter().chain(p.rounds.iter().flat_map(|r| &r.samples));
    let mut failures: BTreeMap<String, usize> = BTreeMap::new();
    for f in samples().filter_map(|s| s.failure) {
        *failures.entry(failure_label(f)).or_default() += 1;
    }
    let pooled_samples = p.rounds.iter().map(|r| r.ok().count()).sum();

    let mut warnings = Vec::new();
    let steal = stats::median(&p.rounds.iter().map(|r| r.steal_pct).collect::<Vec<_>>());
    if steal > 2.0 {
        warnings
            .push(format!("host.steal_pct {steal:.1} > 2: the hypervisor took time from this run"));
    }
    let mut lags: Vec<u64> =
        p.rounds.iter().flat_map(|r| r.samples.iter().map(|s| s.lag_us)).collect();
    lags.sort_unstable();
    if matches!(w.load(), Load::Open { .. }) && stats::percentile(&lags, 0.99) >= 1000 {
        warnings.push(format!(
            "loadgen.lag_p99_us {} >= 1 ms: the generator ran late, latencies include its delay",
            stats::percentile(&lags, 0.99)
        ));
    }
    let generator_share = p.rounds.iter().map(|r| r.generator_cpu_s).sum::<f64>()
        / p.rounds.iter().map(|r| r.process_cpu_s).sum::<f64>().max(1e-9);
    if generator_share > 0.5 {
        warnings.push(format!(
            "loadgen.cpu_share {generator_share:.2} > 0.5: the generator is the bigger load"
        ));
    }
    if pooled_samples < 1000 {
        warnings.push(format!(
            "{pooled_samples} pooled samples back the p99: fewer than the 1000 it needs"
        ));
    }
    for (name, e) in &end_to_end {
        let bound = catalog::end_to_end(name).bound;
        if e.noise > bound {
            warnings.push(format!(
                "{name}: its odd and its even rounds read {:.1}% apart, more than its bound {:.0}%",
                100.0 * e.noise,
                100.0 * bound
            ));
        }
    }
    let mut exact = vec!["source_cost_per_query"];
    let mut per_layer = Vec::new();
    if let Some(t) = traced {
        per_layer = t.metrics;
        exact.extend(t.exact);
        warnings.extend(t.warnings);
    }
    WorkloadResult {
        workload: w,
        attempted: samples().count(),
        failed: samples().filter(|s| s.failure.is_some()).count(),
        failures,
        end_to_end,
        per_layer,
        exact,
        warnings,
        pooled_samples,
    }
}

/// The whole run's outcome.
pub struct RunResult {
    pub workloads: Vec<WorkloadResult>,
    pub wall_s: f64,
    pub json: Json,
}

pub fn run(opts: &Options) -> RunResult {
    let started = Instant::now();
    let say = |msg: &str| println!("[{:7.1}s] {msg}", started.elapsed().as_secs_f64());
    if opts.workloads.len() == 1 {
        say("one workload alone: rounds are consecutive, not interleaved with the others — less repeatable than a full run");
    }
    // Set-ups run one after another before any round.
    let mut prepared: Vec<Prepared> = Vec::new();
    for &w in &opts.workloads {
        say(&format!("{}: set-up and warm-up pass", w.name()));
        let p = prepare(w, opts.seed);
        say(&format!(
            "{}: {} members, corpus of {}, warm-up {:.1}s, {} failed",
            w.name(),
            p.members.len(),
            p.corpus.len(),
            p.warmup.wall_s,
            p.warmup.failed()
        ));
        prepared.push(p);
    }
    // Interleaved rounds: A B C D A B C D …, so a slow phase of the machine
    // falls on every workload instead of on one. Each round is followed by
    // a few timed set-ups of the same workload: spread over the run like
    // this, their median sees the machine's fast and slow phases alike.
    let per_gap = opts.setups.div_ceil(opts.rounds);
    for round in 0..opts.rounds {
        for p in &mut prepared {
            let rss_before = host::rss_mb();
            let r = loadgen::run_round(
                p.served().addr,
                &p.corpus,
                p.workload.load(),
                Until::Elapsed(Duration::from_secs_f64(opts.round_secs)),
                &p.cursor,
            );
            p.rss_growth_mb += host::rss_mb() - rss_before;
            say(&format!(
                "{} round {}/{}: {} ok, {} failed, {:.0} req/s",
                p.workload.name(),
                round + 1,
                opts.rounds,
                r.ok().count(),
                r.failed(),
                r.ok().count() as f64 / r.wall_s
            ));
            p.rounds.push(r);
            // At least `per_gap` set-ups; one that takes only milliseconds
            // is repeated for 150 ms (up to ten times) so that the run's
            // median stands on enough samples.
            let first =
                p.corpus.iter().find(|r| matches!(r.spec, Spec::Query { .. })).expect("a query");
            let budget = Instant::now() + Duration::from_millis(150);
            let mut done = 0;
            while done < per_gap || (done < 10 && Instant::now() < budget) {
                p.setups.push(timed_setup(p.workload, first));
                done += 1;
            }
        }
    }
    let mut results = Vec::new();
    for mut p in prepared {
        let traced = opts.trace.then(|| {
            say(&format!("{}: traced run", p.workload.name()));
            layers::traced(&p, &opts.out_dir)
        });
        p.served.take().expect("still running").stop();
        results.push(reduce(&p, traced));
    }
    let wall_s = started.elapsed().as_secs_f64();
    let json = Json::obj([
        ("benchmark", Json::str("csqp served-query benchmark")),
        ("claim", Json::Null),
        ("seed", Json::Num(opts.seed as f64)),
        ("rounds", Json::Num(opts.rounds as f64)),
        ("round_seconds", Json::Num(opts.round_secs)),
        ("interleaved", Json::Bool(opts.workloads.len() > 1)),
        ("traced", Json::Bool(opts.trace)),
        (
            "load_shape",
            Json::obj([
                ("nproc", Json::Num(host::nproc() as f64)),
                ("generator_threads", Json::Num(GENERATORS as f64)),
                ("workers", Json::Num(WORKERS as f64)),
                ("adaptive", Json::Bool(true)),
                ("plan_cache_capacity", Json::Num(PLAN_CACHE_CAPACITY as f64)),
                ("journal", Json::Null),
                ("timed_setups_min", Json::Num(opts.setups as f64)),
            ]),
        ),
        ("wall_s", Json::Num(wall_s)),
        ("workloads", Json::Arr(results.iter().map(WorkloadResult::to_json).collect())),
    ]);
    RunResult { workloads: results, wall_s, json }
}
