//! The traced run: the per-layer numbers, measured from outside.
//!
//! Nothing here is inside the program. The benchmark builds a second,
//! in-process copy of what `Server::bind_federation` wires up (fresh
//! members, a federation with its own registry, flight recorder and plan
//! cache, one mediator per winning member) and replays the workload's own
//! corpus through the public calls the served path makes, each wrapped in a
//! span the benchmark records itself. Around that it times single public
//! functions on the same corpus, reads the public counters of the measured
//! server, and runs a few short socket experiments against it. Spans inside
//! the program are a later change (ROADMAP [2]).

use crate::loadgen::{self, Cursor, Round, Sample, Until};
use crate::run::{Prepared, Served};
use crate::stats::{self, Span};
use crate::workloads::{Load, Request, Spec, Workload, PLAN_CACHE_CAPACITY};
use csqp::core::mediator::{AdaptiveConfig, Mediator};
use csqp::core::plancache::{Lookup, PlanCache};
use csqp::core::types::{PlannedQuery, TargetQuery};
use csqp::core::{CapabilityIndex, Federation};
use csqp::obs::{names, FlightRecorder, Obs};
use csqp::plan::exec_stream::StreamConfig;
use csqp::plan::Plan;
use csqp::relation::stream::{select_batch, RelationScan};
use csqp::relation::{datagen, DedupSketch, TupleBatch, TupleStream};
use csqp::source::{CostParams, Source};
use csqp::ssdl::{parse_ssdl, CompiledSource};
use csqp_bench::fedcorpus::{corpus_members, FedCorpusConfig};
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Corpus requests replayed in process and re-sent over the socket with
/// spans. More than the plan cache holds, so `plan_cold` keeps missing.
const REPLAY_REQUESTS: usize = 320;
/// Queries each single-function timing loops over.
const MICRO_QUERIES: usize = 160;
/// Length of each short socket experiment (one-worker server, two-worker
/// reference, each ladder step).
const SOCKET_STEP: Duration = Duration::from_secs(2);
/// Queries per telemetry window (`ServeConfig::default().window_queries`).
const WINDOW_QUERIES: u64 = 4;
/// The latency limit the rate ladder is judged against (p99 from due time).
const LADDER_LIMIT_US: u64 = 100_000;

pub struct Traced {
    pub metrics: Vec<(&'static str, f64)>,
    /// Names whose value is a count that repeats exactly.
    pub exact: Vec<&'static str>,
    pub warnings: Vec<String>,
}

/// The benchmark's own span recorder: spans are kept in memory and written
/// out when the traced run ends.
struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id (ids are 1-based positions).
    fn open(&mut self, req: u64, parent: Option<u64>, name: &'static str) -> u64 {
        let id = self.spans.len() as u64 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span { req, id, parent, name, start_ns, end_ns: start_ns });
        id
    }

    fn close(&mut self, id: u64) {
        self.spans[id as usize - 1].end_ns = self.now_ns();
    }

    fn timed<T>(&mut self, req: u64, parent: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(req, Some(parent), name);
        let out = f();
        self.close(id);
        out
    }

    /// A span known only by its offsets from `start` (client-side socket
    /// spans are reconstructed from a [`Sample`]).
    fn push(
        &mut self,
        req: u64,
        parent: Option<u64>,
        name: &'static str,
        start: Instant,
        from_us: u64,
        to_us: u64,
    ) -> u64 {
        let base = start.saturating_duration_since(self.t0).as_nanos() as u64;
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            req,
            id,
            parent,
            name,
            start_ns: base + from_us * 1000,
            end_ns: base + to_us * 1000,
        });
        id
    }
}

/// One corpus query, parsed.
struct Query {
    /// Position in the corpus (the request id spans carry).
    index: usize,
    cond: String,
    attrs: Vec<String>,
    limit: Option<u64>,
    parsed: TargetQuery,
}

fn queries(corpus: &[Request], take: usize) -> Vec<Query> {
    corpus
        .iter()
        .enumerate()
        .take(take)
        .filter_map(|(index, r)| match &r.spec {
            Spec::Query { cond, attrs, limit, .. } => {
                let attrs: Vec<String> = attrs.split(',').map(str::to_string).collect();
                let refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
                let parsed = TargetQuery::parse(cond, &refs).expect("corpus query parses");
                Some(Query { index, cond: cond.clone(), attrs, limit: *limit, parsed })
            }
            Spec::Page(_) => None,
        })
        .collect()
}

/// What `Server::bind_federation` wires up, rebuilt from public parts.
struct Stack {
    members: Vec<Arc<Source>>,
    federation: Federation,
    obs: Arc<Obs>,
    flight: Arc<FlightRecorder>,
    cache: Arc<PlanCache>,
    mediators: HashMap<usize, Mediator>,
    /// Queries replayed so far (telemetry windows close on multiples).
    replayed: u64,
}

impl Stack {
    fn new(members: Vec<Arc<Source>>) -> Stack {
        let obs = Arc::new(Obs::new());
        let flight = Arc::new(FlightRecorder::new());
        let cache = Arc::new(PlanCache::with_capacity(PLAN_CACHE_CAPACITY));
        let federation = members
            .iter()
            .fold(Federation::new(), |f, m| f.with_member(m.clone()))
            .with_obs(obs.clone())
            .with_flight_recorder(flight.clone())
            .with_plan_cache(cache.clone());
        Stack { members, federation, obs, flight, cache, mediators: HashMap::new(), replayed: 0 }
    }

    /// The warm mediator of member `i`, built on first use (the server
    /// builds all of them at bind time; only winners are ever used).
    fn mediator(&mut self, i: usize) -> &Mediator {
        let (members, obs, cache) = (&self.members, &self.obs, &self.cache);
        self.mediators.entry(i).or_insert_with(|| {
            Mediator::new(members[i].clone()).with_obs(obs.clone()).with_plan_cache(cache.clone())
        })
    }
}

fn stream_config(limit: Option<u64>) -> AdaptiveConfig {
    let stream = match limit {
        Some(n) => StreamConfig::default().with_limit(n),
        None => StreamConfig::default(),
    };
    AdaptiveConfig { stream, ..Default::default() }
}

/// Replays one query through the calls the served path makes, under spans.
/// Returns the rows it produced.
fn replay_one(stack: &mut Stack, rec: &mut Recorder, q: &Query) -> u64 {
    let req = q.index as u64;
    let root = rec.open(req, None, "replay.request");
    let refs: Vec<&str> = q.attrs.iter().map(String::as_str).collect();
    let query =
        rec.timed(req, root, "expr.parse", || TargetQuery::parse(&q.cond, &refs).expect("parses"));
    rec.timed(req, root, "expr.lift", || black_box(PlanCache::key(&query)));
    // The profile window opens: registry snapshot, span mark.
    let (before, mark) = rec.timed(req, root, "obs.epilogue", || {
        (stack.obs.metrics.snapshot(), stack.obs.tracer.span_mark())
    });
    let prepared = rec
        .timed(req, root, "core.prepare", || stack.federation.prepare(&query))
        .expect("corpus query is plannable");
    // After `prepare` the served path asks the index once more, for the
    // candidate count its trailer and audit record carry: a call of the
    // request's own, beside the prepare and not inside it.
    rec.timed(req, root, "core.capindex.select", || {
        black_box(stack.federation.capability_index().map(|idx| idx.candidates(&query)))
    });
    let exec = rec.open(req, Some(root), "plan.exec");
    let acfg = stream_config(q.limit);
    let mut rows = 0u64;
    let mut chunk = String::new();
    {
        let mediator = stack.mediator(prepared.member);
        let mut sink = |batch: TupleBatch| {
            let render = rec.open(req, Some(exec), "relation.render");
            rows += batch.len() as u64;
            chunk.clear();
            for row in batch.rows() {
                let _ = writeln!(chunk, "{row}");
            }
            black_box(&chunk);
            rec.close(render);
            true
        };
        mediator
            .run_adaptive_each_planned(&query, prepared.planned, &acfg, &mut sink)
            .expect("corpus query executes");
    }
    rec.close(exec);
    // The epilogue: what the served path does after the last row — breaker
    // states for the trailer, the registry delta, this query's spans and
    // flight trail for its profile.
    stack.replayed += 1;
    let roll = stack.replayed.is_multiple_of(WINDOW_QUERIES);
    rec.timed(req, root, "obs.epilogue", || {
        black_box(stack.federation.breaker_states());
        black_box(stack.obs.metrics.snapshot().diff(&before));
        black_box(stack.obs.tracer.spans_from(mark));
        black_box(stack.flight.record(prepared.flight_id));
        if roll {
            // The telemetry window closes every few queries: the
            // federation-wide snapshot (it refreshes every member's breaker
            // gauge, which is also what gives the registry its real size).
            black_box(stack.federation.metrics_snapshot());
        }
    });
    rec.close(root);
    rows
}

/// `None` for an empty sample: a metric nothing was measured for is left
/// out of the results, never reported as 0.
fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Microseconds `f` took, and its result.
fn time_us<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64() * 1e6, out)
}

fn percentile_us(values: &mut [u64], q: f64) -> Option<f64> {
    values.sort_unstable();
    (!values.is_empty()).then(|| stats::percentile(values, q) as f64)
}

/// `a / b`, or `None` when nothing was counted below the line.
fn ratio(a: f64, b: f64) -> Option<f64> {
    (b > 0.0).then(|| a / b)
}

/// The source queries (condition, attributes) at the leaves of a plan.
fn leaves(plan: &Plan, out: &mut Vec<(Option<csqp::expr::CondTree>, Arc<csqp::plan::AttrSet>)>) {
    match plan {
        Plan::SourceQuery { cond, attrs } => out.push((cond.clone(), attrs.clone())),
        Plan::LocalSp { input, .. } => leaves(input, out),
        Plan::Intersect(children) | Plan::Union(children) | Plan::Choice(children) => {
            children.iter().for_each(|c| leaves(c, out))
        }
    }
}

/// Service time of a socket sample: from when the request really started.
fn service_us(s: &Sample) -> u64 {
    s.done_us.saturating_sub(s.lag_us)
}

pub fn traced(p: &Prepared, out_dir: &Path) -> Traced {
    let w = p.workload;
    let served = p.served();
    let mut warnings = Vec::new();
    let mut rec = Recorder { t0: Instant::now(), spans: Vec::new() };

    // ---- Counters of the measured server and the untraced rounds --------
    let rounds_ok: Vec<&Sample> = p.rounds.iter().flat_map(|r| r.ok()).collect();
    let attempted: usize = p.rounds.iter().map(|r| r.samples.len()).sum();
    let cache_now = served.server.plan_cache().stats();
    let c0 = p.cache_after_warmup;
    let probes = ((cache_now.hits + cache_now.misses + cache_now.rejected)
        - (c0.hits + c0.misses + c0.rejected)) as f64;
    let served_queries = rounds_ok.iter().filter(|s| s.trailer_bytes > 0).count() as f64;
    let mut latency: Vec<u64> = rounds_ok.iter().map(|s| s.done_us).collect();
    let mut ttfr: Vec<u64> = rounds_ok.iter().map(|s| s.first_byte_us).collect();
    let untraced_p50 = percentile_us(&mut latency, 0.5);
    let shed = p
        .rounds
        .iter()
        .flat_map(|r| &r.samples)
        .filter(|s| s.failure == Some(crate::verify::Failure::Status(429)))
        .count();
    let registry = &served.server.federation().obs().metrics;
    let snapshot = registry.snapshot();
    let series = snapshot.counters.len() + snapshot.gauges.len() + snapshot.histograms.len();
    let snapshot_diff: Vec<f64> = (0..20)
        .map(|_| {
            time_us(|| {
                let before = registry.snapshot();
                black_box(registry.snapshot().diff(&before))
            })
            .0
        })
        .collect();
    let scrape = |path: &'static str| {
        mean(&(0..10).map(|_| served.page(path).done_us as f64).collect::<Vec<_>>())
    };
    let (scrape_metrics, scrape_status) = (scrape("/metrics"), scrape("/status"));
    let ping = ping_us(served, 200);
    let rss_growth_kb = p.rss_growth_mb * 1024.0;

    // ---- A fresh in-process stack over fresh members --------------------
    let members = w.members();
    let compile: Vec<f64> = members
        .iter()
        .take(64)
        .map(|s| {
            let text = s.gate_view().desc.to_text();
            time_us(|| {
                black_box(CompiledSource::new(parse_ssdl(&text).expect("description round-trips")))
            })
            .0
        })
        .collect();
    let source_new: Vec<f64> = members
        .iter()
        .take(if w == Workload::StreamBig { 2 } else { 16 })
        .map(|s| {
            let (rel, desc, cost) =
                (s.relation().clone(), s.gate_view().desc.clone(), *s.cost_params());
            time_us(|| black_box(Source::new(rel, desc, cost))).0
        })
        .collect();
    // Facts are compiled on first use: this build is the cold one.
    let (build_us, _) = time_us(|| black_box(CapabilityIndex::build(&members)));
    let mut stack = Stack::new(members.clone());
    let replayed = queries(&p.corpus, REPLAY_REQUESTS);
    let micro = &replayed[..replayed.len().min(MICRO_QUERIES)];

    // Warm the stack as the served one was warmed, then replay under spans.
    let mut scratch = Recorder { t0: Instant::now(), spans: Vec::new() };
    for q in &replayed {
        replay_one(&mut stack, &mut scratch, q);
    }
    drop(scratch);
    let (mut spans_per_query, mut events_per_query) = (Vec::new(), Vec::new());
    let replay_from = rec.spans.len();
    for q in &replayed {
        let mark = stack.obs.tracer.span_mark();
        replay_one(&mut stack, &mut rec, q);
        spans_per_query.push(stack.obs.tracer.spans_from(mark).len() as f64);
        let events = stack.flight.latest().map_or(0, |r| r.events.len());
        events_per_query.push(events as f64);
    }
    let replay_spans = rec.spans[replay_from..].to_vec();
    let span_us = |name: &str| -> Vec<f64> {
        replay_spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    };
    let mut replay_total: Vec<u64> = replay_spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.end_ns - s.start_ns) / 1000)
        .collect();
    let replay_p50 = percentile_us(&mut replay_total, 0.5);
    let replay_mean = mean(&replay_total.iter().map(|&v| v as f64).collect::<Vec<_>>());
    let self_ns = stats::self_times(&replay_spans);
    assert!(!replayed.is_empty(), "{}: the corpus prefix holds queries to replay", w.name());
    let self_us = |names: &[&str]| -> f64 {
        self_ns.iter().filter(|(n, _)| names.contains(n)).map(|(_, t)| *t as f64).sum::<f64>()
            / 1e3
            / replayed.len() as f64
    };

    // ---- Single public functions on the same corpus ----------------------
    let index = stack.federation.capability_index().expect("index is on");
    let mut select_us = Vec::new();
    let (mut candidates, mut pruned, mut total) = (0usize, 0usize, 0usize);
    for q in micro {
        let (us, d) = time_us(|| index.candidates(&q.parsed));
        select_us.push(us);
        candidates += d.candidates.len();
        pruned += d.pruned;
        total += d.total;
    }
    // Cold federation plans, no cache: the planner's own counters land in
    // this federation's registry.
    let cold_obs = Arc::new(Obs::new());
    let cold = members
        .iter()
        .fold(Federation::new(), |f, s| f.with_member(s.clone()))
        .with_obs(cold_obs.clone());
    cold.capability_index();
    let counters_before = cold_obs.metrics.snapshot();
    let (mut plan_us, mut winners) = (Vec::new(), Vec::new());
    for q in micro {
        let (us, fp) = time_us(|| cold.plan(&q.parsed).expect("plannable"));
        plan_us.push(us);
        let member =
            members.iter().position(|s| Arc::ptr_eq(s, &fp.source)).expect("winner is a member");
        winners.push((member, fp.planned));
    }
    let planner = cold_obs.metrics.snapshot().diff(&counters_before);
    let check_calls = planner.counter(names::PLANNER_CHECK_CALLS) as f64;
    let check_hits = planner.counter(names::PLANNER_CHECK_CACHE_HITS) as f64;
    let check_misses = planner.counter(names::PLANNER_CHECK_CACHE_MISSES) as f64;
    let n_micro = micro.len() as f64;
    let (mut check_us, mut mediator_plan_us) = (Vec::new(), Vec::new());
    for (q, (member, _)) in micro.iter().zip(&winners) {
        let source = &members[*member];
        check_us.push(time_us(|| black_box(source.planning_view().check(Some(&q.parsed.cond)))).0);
        let mediator = Mediator::new(source.clone());
        mediator_plan_us.push(time_us(|| black_box(mediator.plan(&q.parsed))).0);
    }
    let ipg_calls =
        mean(&winners.iter().map(|(_, pq)| pq.report.generator_calls as f64).collect::<Vec<_>>());
    let mcsc_covers = mean(
        &winners
            .iter()
            .map(|(_, pq)| pq.report.stats.mcsc_covers_examined as f64)
            .collect::<Vec<_>>(),
    );
    // Prepare: a forced miss (the cache is wiped first), then the hit.
    let (mut miss_us, mut hit_us) = (Vec::new(), Vec::new());
    for q in micro {
        stack.cache.invalidate_all();
        miss_us.push(time_us(|| black_box(stack.federation.prepare(&q.parsed))).0);
        hit_us.push(time_us(|| black_box(stack.federation.prepare(&q.parsed))).0);
    }
    // The cache alone: insert (evicting once full), then the hit lookup.
    let private = PlanCache::with_capacity(PLAN_CACHE_CAPACITY);
    let (mut insert_us, mut lookup_us) = (Vec::new(), Vec::new());
    for (q, (member, planned)) in micro.iter().zip(&winners) {
        let planned: PlannedQuery = planned.clone();
        insert_us.push(time_us(|| private.insert(&q.parsed, *member, planned)).0);
        let (us, found) = time_us(|| private.lookup(&q.parsed, &members));
        if matches!(found, Lookup::Hit { .. }) {
            lookup_us.push(us);
        }
    }
    // Execution of the prepared plans: adaptive (as served) against plain
    // streaming, both timed under the same sink, which only counts. The
    // batches the relation operators below work on are collected by a third,
    // untimed execution, so that neither timed leg pays for keeping them.
    let (mut exec_us, mut plain_us) = (Vec::new(), Vec::new());
    let (mut exec_rows, mut batches, mut peak) = (0u64, Vec::new(), 0u64);
    let mut kept: Vec<TupleBatch> = Vec::new();
    for (q, (member, planned)) in micro.iter().zip(&winners) {
        let acfg = stream_config(q.limit);
        let mediator = stack.mediator(*member);
        let rows = Cell::new(0u64);
        let mut count = |b: TupleBatch| {
            rows.set(rows.get() + b.len() as u64);
            true
        };
        let (us, out) = time_us(|| {
            mediator.run_adaptive_each_planned(&q.parsed, planned.clone(), &acfg, &mut count)
        });
        let out = out.expect("executes");
        exec_us.push(us);
        batches.push(out.stats.batches as f64);
        peak = peak.max(out.stats.peak_resident_tuples);
        exec_rows += rows.get();
        let (us, out) = time_us(|| {
            mediator.run_streamed_each_planned(planned.clone(), &acfg.stream, &mut count)
        });
        out.expect("executes");
        plain_us.push(us);
        if kept.len() < 4096 {
            let mut keep = |b: TupleBatch| {
                kept.push(b);
                kept.len() < 4096
            };
            mediator
                .run_streamed_each_planned(planned.clone(), &acfg.stream, &mut keep)
                .expect("executes");
        }
    }
    // Source scans: drain the winner plans' source queries.
    let (mut scan_rows, mut scan_s) = (0u64, 0.0);
    for (member, planned) in &winners {
        let mut qs = Vec::new();
        leaves(&planned.plan, &mut qs);
        for (cond, attrs) in qs {
            let t = Instant::now();
            let mut stream = members[*member]
                .fix_and_answer_stream(cond.as_ref(), &attrs, 64)
                .expect("leaf is answerable");
            while let Some(b) = stream.next_batch().expect("no faults configured") {
                scan_rows += b.len() as u64;
            }
            scan_s += t.elapsed().as_secs_f64();
        }
    }
    // Relation operators over real answers and real relation batches.
    let kept_rows: u64 = kept.iter().map(|b| b.len() as u64).sum();
    let (dedup_us, _) = time_us(|| {
        let mut sketch = DedupSketch::new();
        for b in &kept {
            for t in b.tuples() {
                black_box(sketch.insert(t));
            }
        }
    });
    let (render_us, _) = time_us(|| {
        let mut chunk = String::new();
        for b in &kept {
            chunk.clear();
            for row in b.rows() {
                let _ = writeln!(chunk, "{row}");
            }
            black_box(&chunk);
        }
    });
    let (mut select_rows, mut select_s) = (0u64, 0.0);
    for q in micro.iter().take(if w == Workload::StreamBig { 8 } else { MICRO_QUERIES }) {
        let Spec::Query { domain, .. } = &p.corpus[q.index].spec else { continue };
        let mut scan = RelationScan::new(w.domain_relation(&members, *domain).clone(), 64);
        let t = Instant::now();
        while let Some(b) = scan.next_batch() {
            select_rows += b.len() as u64;
            black_box(select_batch(&b, Some(&q.parsed.cond)));
        }
        select_s += t.elapsed().as_secs_f64();
    }

    // ---- Sweeps that do not depend on the workload ----------------------
    // Measured once per process: in a full run the first workload pays for
    // them and every workload lists the same reading.
    static FEDERATION_SIZE_SWEEP: OnceLock<(f64, f64)> = OnceLock::new();
    static RESULT_SIZE_SWEEP: OnceLock<[f64; 3]> = OnceLock::new();
    let (build_ratio, plan_ratio) = *FEDERATION_SIZE_SWEEP.get_or_init(federation_size_sweep);
    let sweep = RESULT_SIZE_SWEEP.get_or_init(result_size_sweep);

    // ---- Short socket experiments against the measured server -----------
    // The corpus prefix again, over the socket, under the workload's own
    // load shape, with client-side spans under the same request ids.
    let cursor = Cursor::default();
    let socket = loadgen::run_round(
        served.addr,
        &p.corpus,
        w.load(),
        Until::Requests(REPLAY_REQUESTS),
        &cursor,
    );
    for s in socket.ok() {
        let req = s.request as u64;
        let root = rec.push(req, None, "socket.request", s.start, s.lag_us, s.done_us);
        rec.push(req, Some(root), "serve.connect", s.start, s.lag_us, s.connected_us);
        rec.push(req, Some(root), "serve.send", s.start, s.connected_us, s.sent_us);
        rec.push(req, Some(root), "serve.first_byte", s.start, s.sent_us, s.first_byte_us);
        rec.push(req, Some(root), "serve.last_byte", s.start, s.first_byte_us, s.done_us);
    }
    let mut traced_latency: Vec<u64> = socket.ok().map(|s| s.done_us).collect();
    let traced_p50 = percentile_us(&mut traced_latency, 0.5);
    let mut query_service: Vec<u64> =
        socket.ok().filter(|s| s.trailer_bytes > 0).map(service_us).collect();
    let query_service_mean = mean(&query_service.iter().map(|&v| v as f64).collect::<Vec<_>>());
    let socket_p50 = percentile_us(&mut query_service, 0.5);
    let residual_mean =
        query_service_mean.zip(replay_mean).map(|(socket, replay)| (socket - replay).max(0.0));

    // One worker against two, closed loop, same corpus: two fresh servers
    // over the same members, warmed alike, so that only the worker count
    // differs (the measured server's registry has grown for thousands of
    // requests and would not be a fair second leg).
    let closed = Load::Closed { clients: loadgen::GENERATORS };
    let leg = |workers: usize| {
        let fresh = Served::start(members.clone(), workers);
        let cursor = Cursor::default();
        let warm = Until::Requests(p.corpus.len().min(600));
        loadgen::run_round(fresh.addr, &p.corpus, Load::Closed { clients: 1 }, warm, &cursor);
        let r =
            loadgen::run_round(fresh.addr, &p.corpus, closed, Until::Elapsed(SOCKET_STEP), &cursor);
        fresh.stop();
        r
    };
    let (r1, r2) = (leg(1), leg(2));
    let qps = |r: &Round| r.ok().count() as f64 / r.wall_s;

    // The rate ladder: open loop at three fixed rates, judged against the
    // latency limit from due time.
    let mut ladder = Vec::new();
    let mut lags: Vec<u64> = p
        .rounds
        .iter()
        .filter(|_| matches!(w.load(), Load::Open { .. }))
        .flat_map(|r| r.samples.iter().map(|s| s.lag_us))
        .collect();
    let mut max_rate_ok = 0.0;
    for (step, rate) in w.ladder().into_iter().enumerate() {
        let r = loadgen::run_round(
            served.addr,
            &p.corpus,
            Load::Open { rate },
            Until::Elapsed(SOCKET_STEP),
            &cursor,
        );
        let mut lat: Vec<u64> = r.ok().map(|s| s.done_us).collect();
        let (p50, p99) = (percentile_us(&mut lat, 0.5), percentile_us(&mut lat, 0.99));
        if r.failed() == 0 && p99.is_some_and(|p99| p99 <= LADDER_LIMIT_US as f64) {
            max_rate_ok = rate;
        }
        if step < 2 {
            lags.extend(r.samples.iter().map(|s| s.lag_us));
        }
        if lat.len() < 1000 {
            warnings.push(format!(
                "loadgen.p99_us_r{}: {} samples at {rate} req/s, fewer than the 1000 a p99 needs (highest supported percentile: {})",
                step + 1,
                lat.len(),
                stats::supported_tail(lat.len()).map_or("none".to_string(), |q| format!("p{}", q * 100.0))
            ));
        }
        ladder.push((p50, p99));
    }

    // ---- Write the spans out --------------------------------------------
    let trace_path = out_dir.join(format!("trace-{}.jsonl", w.name()));
    let write = std::fs::create_dir_all(out_dir).and_then(|()| {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&trace_path)?);
        for s in &rec.spans {
            writeln!(f, "{}", s.to_json())?;
        }
        f.flush()
    });
    if let Err(e) = write {
        warnings.push(format!("could not write {}: {e}", trace_path.display()));
    }

    // ---- Shares of a served request -------------------------------------
    let layer_us = [
        ("share.expr", Some(self_us(&["expr.parse", "expr.lift"]))),
        ("share.core.prepare", Some(self_us(&["core.prepare", "core.capindex.select"]))),
        ("share.plan.exec", Some(self_us(&["plan.exec"]))),
        ("share.relation.render", Some(self_us(&["relation.render"]))),
        // Glue between the calls (the root's own self time) is the
        // benchmark's, and goes with the epilogue rather than nowhere.
        ("share.obs.epilogue", Some(self_us(&["obs.epilogue", "replay.request"]))),
        ("share.serve.residual", residual_mean),
    ];
    // Shares of a whole: without every part there is no whole to divide by.
    let whole: Option<f64> = layer_us.iter().map(|(_, us)| *us).sum();

    let rounds_mean = |f: &dyn Fn(&Sample) -> Option<f64>| {
        mean(&rounds_ok.iter().filter_map(|s| f(s)).collect::<Vec<_>>())
    };
    let mut m: Vec<(&'static str, Option<f64>)> = vec![
        ("expr.parse_us", mean(&span_us("expr.parse"))),
        ("expr.lift_us", mean(&span_us("expr.lift"))),
        ("ssdl.check_us", mean(&check_us)),
        ("ssdl.check_calls_per_query", ratio(check_calls, n_micro)),
        ("ssdl.check_cache_hit_ratio", ratio(check_hits, check_hits + check_misses)),
        ("ssdl.compile_us", mean(&compile)),
        ("core.capindex.select_us", mean(&select_us)),
        ("core.capindex.candidates_avg", ratio(candidates as f64, n_micro)),
        ("core.capindex.pruned_ratio", ratio(pruned as f64, total as f64)),
        ("core.capindex.build_ms", Some(build_us / 1e3)),
        ("core.capindex.build_10k_over_1k", Some(build_ratio)),
        ("core.plancache.lookup_us", mean(&lookup_us)),
        ("core.plancache.insert_us", mean(&insert_us)),
        ("core.plancache.hit_ratio", ratio((cache_now.hits - c0.hits) as f64, probes)),
        ("core.plancache.rejected_ratio", ratio((cache_now.rejected - c0.rejected) as f64, probes)),
        (
            "core.plancache.evictions_per_kreq",
            ratio((cache_now.evictions - c0.evictions) as f64 * 1000.0, served_queries),
        ),
        ("core.federation.prepare_hit_us", mean(&hit_us)),
        ("core.federation.prepare_miss_us", mean(&miss_us)),
        ("core.federation.plan_us", mean(&plan_us)),
        ("core.federation.plan_10k_over_1k", Some(plan_ratio)),
        ("core.mediator.plan_us", mean(&mediator_plan_us)),
        ("core.mediator.ipg_calls_per_query", ipg_calls),
        ("core.mediator.mcsc_covers_per_query", mcsc_covers),
        ("plan.exec_us", mean(&exec_us)),
        ("plan.exec_rows_per_s", ratio(exec_rows as f64, exec_us.iter().sum::<f64>() / 1e6)),
        ("plan.batches_per_query", mean(&batches)),
        ("plan.adaptive_over_plain", ratio(exec_us.iter().sum(), plain_us.iter().sum())),
        ("plan.rows_per_s_2k", Some(sweep[0])),
        ("plan.rows_per_s_20k", Some(sweep[1])),
        ("plan.rows_per_s_80k", Some(sweep[2])),
        ("plan.peak_resident_tuples", Some(peak as f64)),
        ("source.scan_rows_per_s", ratio(scan_rows as f64, scan_s)),
        ("source.new_us", mean(&source_new)),
        ("source.queries_per_query", Some(p.source_queries_per_query)),
        ("source.tuples_shipped_per_row", Some(p.tuples_shipped_per_row)),
        ("relation.dedup_rows_per_s", ratio(kept_rows as f64, dedup_us / 1e6)),
        ("relation.select_rows_per_s", ratio(select_rows as f64, select_s)),
        ("relation.render_rows_per_s", ratio(kept_rows as f64, render_us / 1e6)),
        ("obs.snapshot_diff_us", mean(&snapshot_diff)),
        ("obs.registry_series", Some(series as f64)),
        ("obs.spans_per_query", mean(&spans_per_query)),
        ("obs.events_per_query", mean(&events_per_query)),
        ("obs.scrape_metrics_us", scrape_metrics),
        ("obs.scrape_status_us", scrape_status),
        (
            "serve.connect_us",
            rounds_mean(&|s| Some((s.connected_us - s.lag_us.min(s.connected_us)) as f64)),
        ),
        ("serve.ping_us", Some(ping)),
        ("serve.residual_us", socket_p50.zip(replay_p50).map(|(socket, replay)| socket - replay)),
        ("serve.latency_p99_us", percentile_us(&mut latency, 0.99)),
        ("serve.ttfr_p99_us", percentile_us(&mut ttfr, 0.99)),
        ("serve.bytes_per_req", rounds_mean(&|s| Some(s.bytes as f64))),
        (
            "serve.trailer_bytes",
            rounds_mean(&|s| (s.trailer_bytes > 0).then_some(s.trailer_bytes as f64)),
        ),
        ("serve.shed_ratio", ratio(shed as f64, attempted as f64)),
        ("serve.qps_workers1", Some(qps(&r1))),
        ("serve.speedup_workers2", ratio(qps(&r2), qps(&r1))),
        ("serve.rss_growth_kb_per_kreq", ratio(rss_growth_kb * 1000.0, attempted as f64)),
        ("loadgen.lag_p99_us", percentile_us(&mut lags, 0.99)),
        (
            "loadgen.cpu_share",
            ratio(
                p.rounds.iter().map(|r| r.generator_cpu_s).sum(),
                p.rounds.iter().map(|r| r.process_cpu_s).sum(),
            ),
        ),
        ("loadgen.p50_us_r1", ladder[0].0),
        ("loadgen.p50_us_r2", ladder[1].0),
        ("loadgen.p50_us_r3", ladder[2].0),
        ("loadgen.p99_us_r1", ladder[0].1),
        ("loadgen.p99_us_r2", ladder[1].1),
        ("loadgen.p99_us_r3", ladder[2].1),
        ("loadgen.max_rate_ok", Some(max_rate_ok)),
        (
            "host.steal_pct",
            Some(stats::median(&p.rounds.iter().map(|r| r.steal_pct).collect::<Vec<_>>())),
        ),
        (
            "trace.overhead_pct",
            traced_p50
                .zip(untraced_p50)
                .map(|(traced, untraced)| 100.0 * (traced / untraced - 1.0)),
        ),
    ];
    m.extend(
        layer_us.iter().map(|(name, us)| (*name, us.zip(whole).map(|(us, whole)| us / whole))),
    );
    if r1.failed() + r2.failed() + socket.failed() > 0 {
        warnings.push(format!(
            "traced socket experiments had failures: {} one-worker, {} two-worker, {} spanned",
            r1.failed(),
            r2.failed(),
            socket.failed()
        ));
    }
    // A metric with nothing behind it is absent from the results, and says
    // so; it is never a 0 that reads like a measurement.
    let mut metrics = Vec::new();
    for (name, value) in m {
        match value {
            Some(v) => metrics.push((name, v)),
            None => warnings.push(format!("{name}: no sample to compute it from, left out")),
        }
    }
    Traced {
        metrics,
        exact: vec![
            "core.mediator.ipg_calls_per_query",
            "core.mediator.mcsc_covers_per_query",
            "source.queries_per_query",
            "source.tuples_shipped_per_row",
        ],
        warnings,
    }
}

/// Mean round trip of a line-protocol `ping` on one kept-alive connection.
fn ping_us(served: &Served, n: usize) -> f64 {
    let mut stream = TcpStream::connect(served.addr).expect("connect for ping");
    stream.set_nodelay(true).expect("nodelay");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    let t = Instant::now();
    for _ in 0..n {
        stream.write_all(b"ping\n").expect("send ping");
        line.clear();
        reader.read_line(&mut line).expect("read pong");
        assert_eq!(line, "pong\n", "line protocol answered ping");
    }
    t.elapsed().as_secs_f64() * 1e6 / n as f64
}

/// Index build time and cold `Federation::plan` time at 10k `fedcorpus`
/// members over the same at 1k. Returns `(build ratio, plan ratio)`. Each
/// size is measured on fresh members (facts compile inside the build) and
/// the fastest repetition counts, since a ratio of two single timings
/// doubles their noise.
fn federation_size_sweep() -> (f64, f64) {
    let at = |n: usize, reps: usize| {
        let one = || {
            let members = corpus_members(&FedCorpusConfig { n_sources: n, ..Default::default() });
            let (build_us, index) = time_us(|| CapabilityIndex::build(&members));
            drop(index);
            let fed = members.iter().fold(Federation::new(), |f, s| f.with_member(s.clone()));
            fed.capability_index();
            let domains = n / 8;
            let queries: Vec<TargetQuery> = (0..120)
                .map(|i| csqp_bench::fedcorpus::domain_query(i * domains / 120, i as u64))
                .collect();
            let (plan_us, _) = time_us(|| {
                for q in &queries {
                    black_box(fed.plan(q).expect("domain query is plannable"));
                }
            });
            (build_us, plan_us / queries.len() as f64)
        };
        (0..reps)
            .map(|_| one())
            .fold((f64::MAX, f64::MAX), |best, x| (best.0.min(x.0), best.1.min(x.1)))
    };
    let (b1, p1) = at(1_000, 5);
    let (b10, p10) = at(10_000, 2);
    (b10 / b1, p10 / p1)
}

/// Rows per second out of the adaptive pipeline for answers of 2k, 20k and
/// 80k rows: a whole-relation scan through a one-form source.
fn result_size_sweep() -> [f64; 3] {
    [2_000usize, 20_000, 80_000].map(|n| {
        let desc = parse_ssdl(
            "source sweep {\n  s1 -> year >= $int ;\n  attributes :: s1 : { make, model, year, color, price } ;\n}",
        )
        .expect("sweep SSDL parses");
        let source = Arc::new(Source::new(datagen::cars(17, n), desc, CostParams::new(50.0, 1.0)));
        let mediator = Mediator::new(source);
        let query = TargetQuery::parse("year >= 1900", &["model", "year", "color", "price"]).expect("parses");
        let planned = mediator.plan(&query).expect("plannable");
        let acfg = stream_config(None);
        let reps = (160_000 / n).max(2);
        // The fastest of three passes, as in the federation-size sweep.
        (0..3)
            .map(|_| {
                let mut rows = 0u64;
                let mut count = |b: TupleBatch| {
                    rows += b.len() as u64;
                    true
                };
                let t = Instant::now();
                for _ in 0..reps {
                    mediator
                        .run_adaptive_each_planned(&query, planned.clone(), &acfg, &mut count)
                        .expect("executes");
                }
                let secs = t.elapsed().as_secs_f64();
                assert_eq!(rows, (n * reps) as u64, "the sweep answers are whole relations");
                rows as f64 / secs
            })
            .fold(0.0, f64::max)
    })
}
