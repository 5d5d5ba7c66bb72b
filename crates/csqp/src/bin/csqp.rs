//! `csqp` — capability-sensitive query planning from the command line.
//!
//! Point it at an SSDL description and a CSV file, give it a target query,
//! and it plans (and optionally runs) the query capability-sensitively:
//!
//! ```sh
//! csqp --ssdl dealer.ssdl --csv cars.csv --key vin \
//!      --query 'price < 40000 ^ make = "BMW"' --attrs model,year --run
//! ```
//!
//! With `--scheme` you can compare the baselines the paper criticizes, and
//! `--explain` prints the plan tree and search statistics.

use csqp::core::federation::{CircuitBreakerConfig, Considered, Federation, MemberEvent};
use csqp::core::mediator::{Mediator, MediatorError, Scheme, StreamOptions};
use csqp::core::types::{PlanError, PlannedQuery, TargetQuery};
use csqp::plan::exec::RetryPolicy;
use csqp::plan::exec_stream::{explain_analyze_streamed, StreamConfig};
use csqp::plan::explain::explain;
use csqp::prelude::*;
use csqp::serve::{ServeConfig, Server};
use csqp_obs::{audit, names, FlightRecorder, Obs};
use csqp_source::FaultProfile;
use std::process::ExitCode;
use std::sync::Arc;

#[derive(Clone, Copy, PartialEq, Eq)]
enum ExplainMode {
    Off,
    /// Plan tree + planner statistics (EXPLAIN / EXPLAIN ANALYZE with --run).
    Plan,
    /// Flight-recorder provenance: the decision trail and the eliminating
    /// rule for every losing candidate.
    Why,
    /// Unified per-query profile: one JSON document with the span tree,
    /// metrics delta, flight trail and est-vs-observed cardinalities.
    Profile,
}

struct Args {
    ssdl_paths: Vec<String>,
    csv_paths: Vec<String>,
    key: Vec<String>,
    query: String,
    attrs: Vec<String>,
    scheme: Scheme,
    run: bool,
    limit: Option<u64>,
    explain: ExplainMode,
    k1: f64,
    k2: f64,
    chaos: Option<u64>,
    trace: bool,
    metrics_json: bool,
    metrics_prom: bool,
    serve: bool,
    addr: String,
    slow_ms: u64,
    adaptive: bool,
    journal: Option<String>,
    window_queries: u64,
    slo_latency_ms: u64,
    slo_error_budget: f64,
    workers: usize,
    max_inflight: u64,
    tenant_rate: f64,
    tenant_burst: f64,
}

const USAGE: &str = "\
usage: csqp --ssdl <file> --csv <file> --query <condition> --attrs <a,b,c>
            [--key <col[,col]>] [--scheme <name>] [--run] [--limit <n>]
            [--explain[=why|=profile]] [--k1 <f64>] [--k2 <f64>] [--trace]
            [--metrics json|prom]
       csqp serve --ssdl <file> --csv <file> [--key <col[,col]>]
            [--addr <host:port>] [--scheme <name>] [--slow-ms <n>]
            [--k1 <f64>] [--k2 <f64>] [--no-adaptive] [--journal <path>]
            [--window-queries <n>] [--slo-latency-ms <n>]
            [--slo-error-budget <f64>] [--workers <n>] [--max-inflight <n>]
            [--tenant-rate <qps>] [--tenant-burst <n>]
       csqp audit <journal> [<journal2>] [--diff]
       csqp --chaos <seed> [--trace] [--metrics json|prom]

  --ssdl     SSDL source description (see README for the syntax); repeat
             --ssdl/--csv pairs to federate: queries route through the
             compiled capability index and the cheapest feasible member wins
  --csv      data file; header row names the columns, types are inferred
  --query    target condition, e.g. 'price < 40000 ^ make = \"BMW\"'
  --attrs    projected attributes, comma-separated
  --key      key column(s) of the data (recommended: makes ∩-plans exact)
  --scheme   gencompact (default) | genmodular | cnf | dnf | disco | naive
  --run      execute the plan and print the rows; with --explain, prints an
             EXPLAIN ANALYZE tree (estimated vs observed rows and cost per
             source query) plus cost-model drift warnings
  --limit    with --run: stop after <n> answer rows — the pipeline
             terminates early, so sources stop shipping (not just a
             display truncation)
  --explain  print the plan tree and planner statistics; `--explain=why`
             replays the flight recorder instead: the full decision trail
             (PR1/PR2/PR3 prunes, MCSC covers, ranking) and the eliminating
             rule for every losing candidate; `--explain=profile` emits the
             unified query profile as JSON (span tree, metrics delta,
             flight trail, est-vs-observed cardinalities)
  --k1/--k2  cost-model constants (default 50 / 1)
  --trace    print the deterministic virtual-tick trace to stderr
  --metrics  print a metrics snapshot on stdout: `json` or `prom`
             (Prometheus text exposition)
  --chaos    standalone demo: run a seeded fault storm against a federation
             of unreliable car-data mirrors and print the failover trace
  --no-adaptive  serve mode: disable mid-query adaptive re-planning (served
             pipelines then never splice; the trailer reports `0 replans`)
  --journal  serve mode: append one flat JSONL audit record per completed
             query to <path> (size-rotated to <path>.1); analyze later with
             `csqp audit`
  --window-queries   serve mode: close a telemetry window every <n>
             completed queries (default 4)
  --slo-latency-ms / --slo-error-budget   serve mode: the latency objective
             and breach budget behind the /status burn-rate gauges
             (default 100 ms / 0.01)
  --workers  serve mode: worker threads serving connections (default 4);
             each accepts on the listener and serves its connection
  --max-inflight     serve mode: global concurrent-query ceiling — queries
             beyond it shed with a fast 429 before planning (default 64;
             0 disables)
  --tenant-rate / --tenant-burst   serve mode: per-tenant token-bucket
             admission (queries/sec refill + burst capacity; rate 0
             disables quotas). Tenants identify via the `tenant=` query
             param or the `X-Tenant` header; anonymous traffic pools
             under `anon`

serve mode keeps the federation warm behind a tiny keep-alive HTTP
listener (worker-pool accept loop, per-tenant admission, a federation-wide
prepared-plan cache) with /healthz, /metrics (Prometheus; `?exemplars=1`
adds query-id exemplars), /query, /flightrecorder (EXPLAIN WHY), /slowlog,
/profile (worst retained query profiles), /profile/<id>, /spans, /status
(health scoreboard; `?format=json`),
/timeseries?metric=<name>[&windows=<n>], and /shutdown (drains in-flight
connections); see docs/SERVING.md and docs/OBSERVABILITY.md.

`csqp audit` summarizes a serve-mode journal; with two journals and --diff
it reports the latency shift, error-rate shift, and plan-scheme churn by
condition fingerprint between the two runs.";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        ssdl_paths: Vec::new(),
        csv_paths: Vec::new(),
        key: Vec::new(),
        query: String::new(),
        attrs: Vec::new(),
        scheme: Scheme::GenCompact,
        run: false,
        limit: None,
        explain: ExplainMode::Off,
        k1: 50.0,
        k2: 1.0,
        chaos: None,
        trace: false,
        metrics_json: false,
        metrics_prom: false,
        serve: false,
        addr: "127.0.0.1:0".to_string(),
        slow_ms: 100,
        adaptive: true,
        journal: None,
        window_queries: 4,
        slo_latency_ms: 100,
        slo_error_budget: 0.01,
        workers: 4,
        max_inflight: 64,
        tenant_rate: 0.0,
        tenant_burst: 8.0,
    };
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve") {
        args.serve = true;
        argv.remove(0);
    }
    if argv.first().map(String::as_str) == Some("audit") {
        // `csqp audit` never reaches the planner; handled entirely here.
        std::process::exit(match audit_main(&argv[1..]) {
            Ok(()) => 0,
            Err(msg) => {
                if msg.is_empty() {
                    eprintln!("{USAGE}");
                } else {
                    eprintln!("error: audit: {msg}");
                }
                1
            }
        });
    }
    let mut i = 0;
    let value = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        argv.get(*i).cloned().ok_or_else(|| format!("{} needs a value", argv[*i - 1]))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--ssdl" => args.ssdl_paths.push(value(&mut i)?),
            "--csv" => args.csv_paths.push(value(&mut i)?),
            "--query" => args.query = value(&mut i)?,
            "--attrs" => {
                args.attrs = value(&mut i)?.split(',').map(|s| s.trim().to_string()).collect()
            }
            "--key" => args.key = value(&mut i)?.split(',').map(|s| s.trim().to_string()).collect(),
            "--scheme" => {
                args.scheme = match value(&mut i)?.to_ascii_lowercase().as_str() {
                    "gencompact" => Scheme::GenCompact,
                    "genmodular" => Scheme::GenModular,
                    "cnf" | "garlic" => Scheme::Cnf,
                    "dnf" => Scheme::Dnf,
                    "disco" => Scheme::Disco,
                    "naive" | "naivepush" => Scheme::NaivePush,
                    other => return Err(format!("unknown scheme {other:?}")),
                }
            }
            "--run" => args.run = true,
            "--limit" => {
                args.limit = Some(value(&mut i)?.parse().map_err(|e| format!("--limit: {e}"))?)
            }
            "--explain" | "--explain=plan" => args.explain = ExplainMode::Plan,
            "--explain=why" => args.explain = ExplainMode::Why,
            "--explain=profile" => args.explain = ExplainMode::Profile,
            "--k1" => args.k1 = value(&mut i)?.parse().map_err(|e| format!("--k1: {e}"))?,
            "--k2" => args.k2 = value(&mut i)?.parse().map_err(|e| format!("--k2: {e}"))?,
            "--chaos" => {
                args.chaos = Some(value(&mut i)?.parse().map_err(|e| format!("--chaos: {e}"))?)
            }
            "--trace" => args.trace = true,
            "--metrics" => match value(&mut i)?.as_str() {
                "json" => args.metrics_json = true,
                "prom" | "prometheus" => args.metrics_prom = true,
                other => {
                    return Err(format!("--metrics: unknown format {other:?} (try json or prom)"))
                }
            },
            "--adaptive" => args.adaptive = true,
            "--no-adaptive" => args.adaptive = false,
            "--addr" => args.addr = value(&mut i)?,
            "--slow-ms" => {
                args.slow_ms = value(&mut i)?.parse().map_err(|e| format!("--slow-ms: {e}"))?
            }
            "--journal" => args.journal = Some(value(&mut i)?),
            "--window-queries" => {
                args.window_queries =
                    value(&mut i)?.parse().map_err(|e| format!("--window-queries: {e}"))?
            }
            "--slo-latency-ms" => {
                args.slo_latency_ms =
                    value(&mut i)?.parse().map_err(|e| format!("--slo-latency-ms: {e}"))?
            }
            "--slo-error-budget" => {
                args.slo_error_budget =
                    value(&mut i)?.parse().map_err(|e| format!("--slo-error-budget: {e}"))?
            }
            "--workers" => {
                args.workers = value(&mut i)?.parse().map_err(|e| format!("--workers: {e}"))?
            }
            "--max-inflight" => {
                args.max_inflight =
                    value(&mut i)?.parse().map_err(|e| format!("--max-inflight: {e}"))?
            }
            "--tenant-rate" => {
                args.tenant_rate =
                    value(&mut i)?.parse().map_err(|e| format!("--tenant-rate: {e}"))?
            }
            "--tenant-burst" => {
                args.tenant_burst =
                    value(&mut i)?.parse().map_err(|e| format!("--tenant-burst: {e}"))?
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    // --chaos is a self-contained demo; the planning flags don't apply.
    // serve mode takes queries over the wire, not on the command line.
    if args.chaos.is_none() {
        for (flag, val) in [("--ssdl", &args.ssdl_paths), ("--csv", &args.csv_paths)] {
            if val.is_empty() {
                return Err(format!("{flag} is required"));
            }
        }
        if args.ssdl_paths.len() != args.csv_paths.len() {
            return Err(format!(
                "--ssdl and --csv come in pairs: got {} descriptions for {} data files",
                args.ssdl_paths.len(),
                args.csv_paths.len()
            ));
        }
        if !args.serve {
            if args.query.is_empty() {
                return Err("--query is required".into());
            }
            if args.attrs.is_empty() {
                return Err("--attrs is required".into());
            }
            if args.limit.is_some() && !args.run {
                return Err("--limit only applies with --run".into());
            }
        }
    }
    Ok(args)
}

/// `csqp audit <journal> [<journal2>] [--diff]`: summarize one serve-mode
/// audit journal, or compare two (latency shift, error-rate shift, and
/// plan-scheme churn by condition fingerprint).
fn audit_main(argv: &[String]) -> Result<(), String> {
    let mut paths: Vec<&String> = Vec::new();
    let mut diff = false;
    for arg in argv {
        match arg.as_str() {
            "--diff" => diff = true,
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with("--") => return Err(format!("unknown argument {other:?}")),
            _ => paths.push(arg),
        }
    }
    if paths.is_empty() {
        return Err("a journal path is required".into());
    }
    if paths.len() > 2 {
        return Err(format!("at most two journals, got {}", paths.len()));
    }
    if diff && paths.len() != 2 {
        return Err("--diff needs exactly two journals".into());
    }
    let mut loaded = Vec::with_capacity(paths.len());
    for path in &paths {
        let (records, errors) = audit::read_journal(std::path::Path::new(path))?;
        for e in &errors {
            eprintln!("warning: {path}: {e}");
        }
        loaded.push(audit::summarize(&records));
    }
    if diff {
        print!("{}", audit::render_diff(&loaded[0], &loaded[1]));
    } else {
        for (path, summary) in paths.iter().zip(&loaded) {
            print!("{}", audit::render_summary(path, summary));
        }
    }
    Ok(())
}

/// `csqp --chaos <seed>`: a seeded fault storm against a federation of two
/// unreliable mirrors of the same car data, showing retries, splices onto
/// the other mirror, and circuit-breaker quarantine. Fully deterministic per
/// seed.
fn chaos_demo(seed: u64, args: &Args) -> ExitCode {
    let data = csqp::relation::datagen::cars(3, 400);
    let dealer = Arc::new(
        Source::new(data.clone(), csqp::ssdl::templates::car_dealer(), CostParams::new(10.0, 1.0))
            .with_fault_profile(FaultProfile::storm(seed, 0.8)),
    );
    let dump = Arc::new(
        Source::new(
            data,
            csqp::ssdl::templates::download_only(
                "dump",
                &[
                    ("make", ValueType::Str),
                    ("model", ValueType::Str),
                    ("year", ValueType::Int),
                    ("color", ValueType::Str),
                    ("price", ValueType::Int),
                ],
            ),
            CostParams::new(200.0, 5.0),
        )
        .with_fault_profile(FaultProfile::storm(seed.wrapping_add(7), 0.4)),
    );
    let obs = Arc::new(Obs::new());
    let federation = Federation::new()
        .with_member(dealer)
        .with_member(dump)
        .with_breaker(CircuitBreakerConfig { failure_threshold: 2, cooldown_ticks: 2 })
        .with_obs(obs.clone());
    let policy = RetryPolicy { max_retries: 2, jitter_seed: seed, ..Default::default() };
    let stream = StreamConfig::default();
    let options = StreamOptions::Plain { stream: &stream, policy: Some(&policy) };

    println!("chaos storm, seed {seed}: 2 mirrors (cheap flaky form, dear steadier dump)");
    let queries = [
        ("make = \"BMW\" ^ price < 40000", vec!["model", "year"]),
        ("make = \"Toyota\" ^ price < 20000", vec!["model", "year"]),
        ("make = \"Honda\" ^ price < 30000", vec!["model", "year"]),
    ];
    for round in 0..3 {
        for (cond, attrs) in &queries {
            let attr_refs: Vec<&str> = attrs.to_vec();
            let query = TargetQuery::parse(cond, &attr_refs).expect("demo query parses");
            print!("r{round} {cond}: ");
            match federation.run_stream(&query, options, None) {
                Ok(run) => {
                    let resilience = run.stream.resilience;
                    println!(
                        "{} rows from `{}` (attempts {}, retries {}, failovers {})",
                        run.stream.outcome.rows.len(),
                        run.source_name,
                        resilience.attempts,
                        resilience.retries,
                        resilience.failovers,
                    );
                    for (member, event) in &run.trace {
                        let what = match event {
                            MemberEvent::Quarantined => "quarantined by circuit breaker".into(),
                            MemberEvent::Infeasible => "no feasible plan".into(),
                            MemberEvent::Probed => "half-open probe".into(),
                            MemberEvent::ExecFailed(e) => format!("failed: {e}"),
                            MemberEvent::Served => "served the answer".into(),
                            MemberEvent::Spliced(from) => {
                                format!("spliced in mid-stream for {from}")
                            }
                        };
                        println!("    {member}: {what}");
                    }
                }
                Err(MediatorError::Plan(e)) => println!("infeasible everywhere: {e}"),
                Err(MediatorError::Exec(e)) => println!("all members down: {e}"),
            }
        }
    }
    // The storm summary is printed FROM the metrics registry (which the
    // federation fed during the runs), so this line and `--metrics json`
    // can never disagree.
    let snap = federation.metrics_snapshot();
    let [attempts, retries, transients, timeouts, rate_limited, outages, failovers, ticks] = [
        names::RESILIENCE_ATTEMPTS,
        names::RESILIENCE_RETRIES,
        names::RESILIENCE_TRANSIENTS,
        names::RESILIENCE_TIMEOUTS,
        names::RESILIENCE_RATE_LIMITED,
        names::RESILIENCE_OUTAGES,
        names::RESILIENCE_FAILOVERS,
        names::RESILIENCE_BACKOFF_TICKS,
    ]
    .map(|name| snap.counter(name));
    println!(
        "storm totals: {attempts} attempts, {retries} retries, {} faults ({transients} \
         transient, {timeouts} timeout, {rate_limited} rate-limited, {outages} outage), \
         {failovers} failovers, {ticks} virtual ticks",
        transients + timeouts + rate_limited + outages,
    );
    print_telemetry(args, &obs, &snap);
    ExitCode::SUCCESS
}

/// `--trace` and `--metrics`: the deterministic trace on stderr, the
/// registry snapshot on stdout.
fn print_telemetry(args: &Args, obs: &Obs, snap: &csqp_obs::MetricsSnapshot) {
    if args.trace {
        eprint!("{}", obs.tracer.render());
    }
    if args.metrics_json {
        println!("{}", snap.to_json());
    }
    if args.metrics_prom {
        print!("{}", snap.to_prometheus());
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprintln!("{USAGE}");
            return if msg.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
        }
    };

    if let Some(seed) = args.chaos {
        return chaos_demo(seed, &args);
    }

    // Load inputs: each --ssdl/--csv pair becomes one source; two or more
    // pairs federate behind the compiled capability index.
    let cost = match std::panic::catch_unwind(|| CostParams::new(args.k1, args.k2)) {
        Ok(c) => c,
        Err(_) => {
            eprintln!("error: cost constants must be finite and non-negative");
            return ExitCode::FAILURE;
        }
    };
    let key_refs: Vec<&str> = args.key.iter().map(String::as_str).collect();
    let mut sources: Vec<Arc<Source>> = Vec::with_capacity(args.ssdl_paths.len());
    for (ssdl_path, csv_path) in args.ssdl_paths.iter().zip(&args.csv_paths) {
        match load_source(ssdl_path, csv_path, &key_refs, cost) {
            Ok(s) => sources.push(s),
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }

    if args.serve {
        let cfg = ServeConfig {
            addr: args.addr.clone(),
            scheme: args.scheme,
            slow_ms: args.slow_ms,
            adaptive: args.adaptive,
            journal_path: args.journal.clone(),
            window_queries: args.window_queries,
            slo_latency_ms: args.slo_latency_ms,
            slo_error_budget: args.slo_error_budget,
            workers: args.workers,
            max_inflight: args.max_inflight,
            tenant_rate: args.tenant_rate,
            tenant_burst: args.tenant_burst,
            ..Default::default()
        };
        return match Server::bind_federation(sources, cfg).and_then(|s| s.run()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: serve: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let attr_refs: Vec<&str> = args.attrs.iter().map(String::as_str).collect();
    let query = match TargetQuery::parse(&args.query, &attr_refs) {
        Ok(q) => q,
        Err(e) => {
            eprintln!("error: --query: {e}");
            return ExitCode::FAILURE;
        }
    };
    if sources.len() > 1 {
        return federated_query(&args, sources, &query);
    }
    let source = sources.into_iter().next().expect("one --ssdl/--csv pair loaded");

    let obs = Arc::new(Obs::new());
    let mut mediator = Mediator::new(source.clone()).with_scheme(args.scheme).with_obs(obs.clone());
    if matches!(args.explain, ExplainMode::Why | ExplainMode::Profile) {
        // EXPLAIN WHY and the query profile both need an armed recorder;
        // armed only on demand so the default planning path stays
        // provenance-free.
        mediator = mediator.with_flight_recorder(Arc::new(FlightRecorder::new()));
    }

    // Each mode plans exactly once (a run plans internally), so the metrics
    // snapshot reflects a single planning pass. `--explain=profile` is the
    // query black box: it captures the same plan or (analyzed) run window
    // into one schema-stable JSON document.
    let profiled = args.explain == ExplainMode::Profile;
    let status = if args.run {
        // --limit is a value of the one run, not a different engine: the
        // pipeline stops as soon as enough answer rows exist.
        let stream_cfg = StreamConfig { limit: args.limit, ..StreamConfig::default() };
        let options = if args.explain == ExplainMode::Plan {
            StreamOptions::Analyzed(&stream_cfg)
        } else {
            StreamOptions::plain(&stream_cfg)
        };
        let result = if profiled {
            mediator.run_profiled(&query).map(|(run, profile)| (run, Some(profile)))
        } else {
            mediator.run_stream(&query, options, None).map(|run| (run, None))
        };
        match result {
            Ok((run, profile)) => {
                let out = &run.outcome;
                print_plan_header(&args, &out.planned);
                if args.explain == ExplainMode::Why {
                    print!("\n{}", mediator.explain_why());
                }
                if let (ExplainMode::Plan, Some(analysis)) = (args.explain, &run.analysis) {
                    // EXPLAIN ANALYZE: the plan tree re-rendered with
                    // observed cardinality and cost next to the estimates,
                    // then the batch/peak-memory footer.
                    let rendered =
                        explain_analyze_streamed(&out.planned.plan, analysis, &run.stats);
                    print!("\nexplain analyze:\n{rendered}");
                    for w in analysis.drift_warnings() {
                        eprintln!("warning: {w}");
                    }
                    print_planner_stats(&out.planned);
                }
                print_rows(out);
                print_profile(profile);
                ExitCode::SUCCESS
            }
            Err(MediatorError::Plan(e)) => plan_failure(&source, &e),
            Err(e) => {
                eprintln!("execution error: {e}");
                ExitCode::FAILURE
            }
        }
    } else {
        let result = if profiled {
            mediator.plan_profiled(&query).map(|(planned, profile)| (planned, Some(profile)))
        } else {
            mediator.plan(&query).map(|planned| (planned, None))
        };
        match result {
            Ok((planned, profile)) => {
                print_plan_header(&args, &planned);
                match args.explain {
                    ExplainMode::Plan => {
                        print!("\nplan tree:\n{}", explain(&planned.plan));
                        print_planner_stats(&planned);
                    }
                    ExplainMode::Why => print!("\n{}", mediator.explain_why()),
                    ExplainMode::Profile | ExplainMode::Off => {}
                }
                print_profile(profile);
                ExitCode::SUCCESS
            }
            Err(e) => plan_failure(&source, &e),
        }
    };

    print_telemetry(&args, &obs, &mediator.metrics_snapshot());
    status
}

/// Loads one `--ssdl`/`--csv` pair into a source.
fn load_source(
    ssdl_path: &str,
    csv_path: &str,
    key: &[&str],
    cost: CostParams,
) -> Result<Arc<Source>, String> {
    let ssdl_text =
        std::fs::read_to_string(ssdl_path).map_err(|e| format!("cannot read {ssdl_path}: {e}"))?;
    let desc = parse_ssdl(&ssdl_text).map_err(|e| format!("{ssdl_path}: {e}"))?;
    let csv_text =
        std::fs::read_to_string(csv_path).map_err(|e| format!("cannot read {csv_path}: {e}"))?;
    let relation = csqp::relation::csv::load_csv(&desc.name.clone(), &csv_text, key)
        .map_err(|e| format!("{csv_path}: {e}"))?;
    eprintln!(
        "loaded {} rows into {} ({} supported query forms)",
        relation.len(),
        relation.schema(),
        desc.exports.len()
    );
    Ok(Arc::new(Source::new(relation, desc, cost)))
}

/// One-shot federated query: plans across all sources behind the compiled
/// capability index, reports the index's prune decision, and (with `--run`)
/// executes on the winning member.
fn federated_query(args: &Args, sources: Vec<Arc<Source>>, query: &TargetQuery) -> ExitCode {
    let obs = Arc::new(Obs::new());
    let mut federation = Federation::new().with_scheme(args.scheme).with_obs(obs.clone());
    if args.explain == ExplainMode::Why {
        federation = federation.with_flight_recorder(Arc::new(FlightRecorder::new()));
    }
    let federation = sources.into_iter().fold(federation, Federation::with_member);

    let print_header = |winner: &str, planned: &PlannedQuery, considered: &Considered| {
        println!(
            "federated plan: member `{winner}` wins at est cost {:.1} ({} members considered):",
            planned.est_cost,
            considered.members()
        );
        println!("  {}", planned.plan);
        if federation.capability_index().is_some() {
            println!(
                "capability index: {} of {} members remained ({} pruned without planning)",
                considered.verdicts.len(),
                considered.members(),
                considered.pruned
            );
        }
        match args.explain {
            ExplainMode::Plan => {
                print!("\nplan tree:\n{}", explain(&planned.plan));
                for (member, outcome) in &considered.verdicts {
                    match outcome {
                        Ok(cost) => println!("  member {member}: est cost {cost:.1}"),
                        Err(e) => println!("  member {member}: infeasible ({e})"),
                    }
                }
                if considered.pruned > 0 {
                    println!("  {} members pruned by the capability index", considered.pruned);
                }
                print_planner_stats(planned);
            }
            ExplainMode::Why => print!("\n{}", federation.explain_why()),
            ExplainMode::Profile => eprintln!(
                "note: --explain=profile is per-mediator; federated profiles are served via \
                 `csqp serve` at /profile and /profile/<id>"
            ),
            ExplainMode::Off => {}
        }
    };

    let status = if args.run {
        let stream_cfg = StreamConfig { limit: args.limit, ..StreamConfig::default() };
        match federation.run_stream(query, StreamOptions::plain(&stream_cfg), None) {
            Ok(run) => {
                let out = &run.stream.outcome;
                print_header(&run.source_name, &out.planned, &run.considered);
                print_rows(out);
                ExitCode::SUCCESS
            }
            Err(MediatorError::Plan(e)) => {
                eprintln!("error: no member can serve the query: {e}");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("execution error: {e}");
                ExitCode::FAILURE
            }
        }
    } else {
        match federation.plan(query) {
            Ok(fp) => {
                print_header(&fp.source.name, &fp.planned, &fp.considered);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: no member can serve the query: {e}");
                ExitCode::FAILURE
            }
        }
    };

    print_telemetry(args, &obs, &federation.metrics_snapshot());
    status
}

fn print_plan_header(args: &Args, planned: &PlannedQuery) {
    println!("plan ({}, est. cost {:.1}):", args.scheme.name(), planned.est_cost);
    println!("  {}", planned.plan);
}

/// The `--explain=profile` document, when one was captured.
fn print_profile(profile: Option<csqp_obs::QueryProfile>) {
    if let Some(profile) = profile {
        print!("\nquery profile:\n{}", profile.to_json());
    }
}

/// The answer under its transfer summary.
fn print_rows(out: &csqp::core::mediator::RunOutcome) {
    println!(
        "\n{} rows ({} source queries, {} tuples shipped, measured cost {:.1}):",
        out.rows.len(),
        out.meter.queries,
        out.meter.tuples_shipped,
        out.measured_cost
    );
    for row in out.rows.rows() {
        println!("  {row}");
    }
}

fn print_planner_stats(planned: &PlannedQuery) {
    let r = planned.report;
    println!(
        "planner stats: {} CTs, {} generator calls, {} Check calls, max Q {}, {:?}{}",
        r.cts_processed,
        r.generator_calls,
        r.checks,
        r.max_q,
        r.elapsed,
        if r.truncated { " (budget-truncated)" } else { "" }
    );
    let s = r.stats;
    println!(
        "cache stats: {}/{} CheckCache hits, {} IPG memo hits; pruned {} (PR1) / {} (PR2) / \
         {} (PR3), {} MCSC covers examined",
        s.check_cache_hits,
        s.check_calls,
        s.ipg_memo_hits,
        s.pr1_prunes,
        s.pr2_prunes,
        s.pr3_prunes,
        s.mcsc_covers_examined,
    );
}

/// Reports a planning failure along with what the source CAN do, to help
/// the user reformulate.
fn plan_failure(source: &Source, e: &PlanError) -> ExitCode {
    eprintln!("error: {e}");
    eprintln!("\nthe source supports these query forms:");
    for rule in &source.gate_view().desc.rules {
        eprintln!("  {rule}");
    }
    ExitCode::FAILURE
}
