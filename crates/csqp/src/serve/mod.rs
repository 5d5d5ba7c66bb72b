//! `csqp serve` — a long-running federation behind a tiny TCP server.
//!
//! Keeps one warm [`Federation`] (compiled capability index, armed flight
//! recorder, a federation-wide prepared-plan cache, and the federation's
//! own warm mediator per member) behind a hand-rolled HTTP/1.x listener
//! built only on `std::net` — no runtime, no dependencies. Endpoints:
//!
//! | endpoint | answers |
//! |----------|---------|
//! | `GET /healthz` | `ok` |
//! | `GET /metrics` | Prometheus text exposition of the metrics registry |
//! | `GET /query?cond=<urlenc>&attrs=<a,b>[&limit=<n>][&tenant=<id>]` | plans + streams rows incrementally, summary trailer last |
//! | `GET /flightrecorder` | index of recorded query flights |
//! | `GET /flightrecorder?query=<id>` | `EXPLAIN WHY` replay of flight `id` |
//! | `GET /slowlog` | recent slow queries with their decision trails |
//! | `GET /profile` | index of the worst-N retained query profiles |
//! | `GET /profile/<id>` | full [`QueryProfile`] JSON for flight `id` |
//! | `GET /spans` | the tracer's hierarchical span tree, rendered |
//! | `GET /shutdown` | drains and stops the workers |
//!
//! A bare (non-HTTP) first line speaks the line protocol instead: `ping`,
//! `why`, or `query <attrs,csv> <condition>`.
//!
//! ## The front door
//!
//! [`Server::run`] is a **worker pool**: a fixed set of scoped worker
//! threads each accept on the shared listener and serve the connection
//! they accepted, so one slow client holds one worker, never the
//! listener, and no connection changes threads. Connections are
//! **keep-alive** (HTTP/1.1 semantics, pipelined line-protocol commands),
//! and every query passes **admission control** first — a global in-flight
//! cap sheds overload and per-tenant token buckets (`tenant=` query param
//! or `X-Tenant` header) shed quota breaches, both as fast `429`s that cost
//! no planning. `/shutdown` *drains*: workers stop accepting but every
//! connection a worker holds is served to completion.
//!
//! Served queries go through [`Federation::prepare`]: the prepared-plan
//! cache keyed on parameterized condition fingerprints rebinds constants
//! into a cached plan on a hit, skipping the planner fan-out entirely; the
//! `/query` trailer and the query profile report the decision. The winner
//! then executes through [`Federation::run_stream`] with the socket as the
//! sink — the same function every other caller runs: breaker-gated, and
//! spliced onto the next-cheapest member (the trailer's `served by`).
//!
//! `/query` responses are **incremental**: rows go out the socket as the
//! streaming executor produces batches (no `Content-Length`;
//! read-until-close framing), and the `N rows (est cost …)` summary is a
//! trailer line once the pipeline drains. `limit=` terminates the pipeline
//! early after N rows — the source stops shipping, not just the client
//! display.
//!
//! Serve mode is the **only** place wall-clock time enters the stack: the
//! `serve.*` metrics (latency histogram, slow-query counter) are real-time
//! by design and excluded from every golden test, keeping the deterministic
//! virtual-tick layer untouched.
//!
//! The implementation is a small module tree: [`self`] holds the
//! configuration and the `Server` handle plus the workers' accept loop,
//! `admission` the tenant quotas and the in-flight cap, `connection` the
//! per-connection protocol state machine, `router` the non-query
//! endpoints, and `state` the query path plus the telemetry stores every
//! worker shares.

mod admission;
mod connection;
mod http;
mod router;
mod state;

use admission::Admission;
use csqp_core::federation::Federation;
use csqp_core::mediator::Scheme;
use csqp_core::plancache::PlanCache;
use csqp_obs::{
    timeseries::TimeSeries, FlightRecorder, JournalWriter, LatencyKey, Obs, ProfileRing,
    QueryProfile, SloConfig,
};
use csqp_source::Source;
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Configuration for [`Server::bind_federation`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address; `127.0.0.1:0` picks an ephemeral port.
    pub addr: String,
    /// Planning scheme of the federation's member mediators
    /// ([`Federation::with_scheme`]).
    pub scheme: Scheme,
    /// Wall-clock threshold (milliseconds) beyond which a query enters the
    /// slow-query log with its full `EXPLAIN WHY` decision trail.
    pub slow_ms: u64,
    /// Slow-query log ring size (oldest entries evicted).
    pub slow_log_capacity: usize,
    /// Serve queries through the adaptive executor: mid-query cardinality
    /// drift pauses the pipeline and splices in a re-planned residual
    /// (answers stay set-identical; the trailer reports the splice count).
    /// On by default; off serves the plain streaming pipeline.
    pub adaptive: bool,
    /// Append an [`csqp_obs::AuditRecord`] per completed query to this
    /// JSONL path (`--journal`); `None` disables journaling.
    pub journal_path: Option<String>,
    /// Queries per telemetry window: every N completed queries the registry
    /// delta is rolled into the time-series ring.
    pub window_queries: u64,
    /// SLO latency objective in milliseconds: queries at or above it count
    /// against the latency budget (`slo.latency_burn_rate`).
    pub slo_latency_ms: u64,
    /// SLO error budget: the fraction of queries allowed to breach
    /// (latency or error) before the burn rate exceeds 1.0.
    pub slo_error_budget: f64,
    /// Worker threads serving connections (minimum 1). Each accepts on the
    /// shared listener and serves its connection to close; the kernel's
    /// listen backlog queues connections while every worker is busy.
    pub workers: usize,
    /// Global concurrent-query ceiling: queries beyond it shed with a fast
    /// `429` before any planning. `0` disables overload shedding.
    pub max_inflight: u64,
    /// Per-tenant admission rate in queries per second (token-bucket
    /// refill). `0.0` disables tenant quotas (the default, so single-user
    /// serving needs no flags).
    pub tenant_rate: f64,
    /// Token-bucket burst capacity per tenant (how far a tenant may exceed
    /// the rate momentarily).
    pub tenant_burst: f64,
    /// Prepared-plan cache capacity (distinct parameterized shapes kept).
    /// `0` disables the cache: every query plans cold, as a
    /// single-threaded pre-cache server would (the bench baseline).
    pub plan_cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            scheme: Scheme::GenCompact,
            slow_ms: 100,
            slow_log_capacity: 32,
            adaptive: true,
            journal_path: None,
            window_queries: 4,
            slo_latency_ms: 100,
            slo_error_budget: 0.01,
            workers: 4,
            max_inflight: 64,
            tenant_rate: 0.0,
            tenant_burst: 8.0,
            plan_cache_capacity: 256,
        }
    }
}

/// One slow-query log entry.
#[derive(Debug, Clone)]
pub struct SlowQuery {
    /// Wall-clock plus virtual-tick latency. Ranking and rendering prefer
    /// wall time and fall back to ticks, so builds without a wall clock
    /// still order the log deterministically.
    pub latency: LatencyKey,
    /// The query, rendered.
    pub query: String,
    /// The `EXPLAIN WHY` report captured at serve time.
    pub why: String,
}

/// Worst-latency query profiles the tail-sampling ring keeps resident for
/// `/profile` post-mortems.
const PROFILE_RING_CAPACITY: usize = 8;
/// Trace events, and spans, the serve tracer retains (the newest): `/spans`
/// shows this tail, and the trace stays bounded however long the server
/// runs.
const TRACE_TAIL: usize = 4096;
/// Windows the time-series ring retains.
const TIMESERIES_CAPACITY: usize = 64;
/// Size-based journal rotation threshold (`<path>` → `<path>.1`).
const JOURNAL_MAX_BYTES: u64 = 1 << 20;

/// The serve-mode server: one warm federation (capability index, prepared-
/// plan cache, its warm mediator per member), one TCP listener, N workers.
///
/// Everything mutable is behind its own lock or atomic so the worker pool
/// shares one `&Server`; the locks are per-store (slow log, profile ring,
/// time series, journal), never held across query execution.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    federation: Federation,
    obs: Arc<Obs>,
    flight: Arc<FlightRecorder>,
    cfg: ServeConfig,
    /// The federation-wide prepared-plan cache (installed on the federation
    /// unless `plan_cache_capacity` is 0).
    plan_cache: Arc<PlanCache>,
    /// Tenant quotas + the global in-flight cap, consulted before parsing.
    admission: Admission,
    slow_log: Mutex<VecDeque<SlowQuery>>,
    /// Tail-sampling store: the worst-N served queries by latency, each
    /// with its full profile.
    profiles: Mutex<ProfileRing>,
    /// Windowed registry deltas for `/status` and `/timeseries`.
    timeseries: Mutex<TimeSeries>,
    /// Optional on-disk audit journal (`--journal`). Without one, a query
    /// neither builds an audit record nor takes a lock for it.
    journal: Option<Mutex<JournalWriter>>,
    /// Completed queries since serve start (windows roll on multiples of
    /// `window_queries`).
    queries_done: AtomicU64,
    /// Set by `/shutdown`; workers stop accepting and drain.
    shutdown: AtomicBool,
    /// The SLO objective `/status` burn rates are computed against.
    slo: SloConfig,
    /// Serve start, the zero point of window wall-clock stamps.
    started: Instant,
}

impl Server {
    /// Binds the listener and warms up a federation over `members`: every
    /// query is routed through the compiled capability index and planned
    /// federation-wide (the index's prune counts land in the `capindex.*`
    /// metrics and the flight recorder), then streamed by the federation on
    /// the winning member's warm mediator. A shared prepared-plan cache
    /// sits in front of the planner: repeat query *shapes* skip the fan-out
    /// entirely.
    pub fn bind_federation(members: Vec<Arc<Source>>, cfg: ServeConfig) -> io::Result<Server> {
        Server::bind_observed(members, cfg, Obs::new(), FlightRecorder::new())
    }

    /// [`Server::bind_federation`] over the given recorders. A served
    /// process always records (`/metrics`, `/profile/<id>` and `/status`
    /// have nothing to read otherwise), so no flag or config field reaches
    /// this; the test suite passes [`Obs::off`] / [`FlightRecorder::off`]
    /// to pin what every endpoint renders over recorders that hold nothing.
    #[doc(hidden)]
    pub fn bind_observed(
        members: Vec<Arc<Source>>,
        cfg: ServeConfig,
        obs: Obs,
        flight: FlightRecorder,
    ) -> io::Result<Server> {
        assert!(!members.is_empty(), "serve needs at least one source");
        let listener = TcpListener::bind(&cfg.addr)?;
        let obs = Obs { tracer: obs.tracer.with_tail(TRACE_TAIL), ..obs };
        let (obs, flight) = (Arc::new(obs), Arc::new(flight));
        let plan_cache = Arc::new(PlanCache::with_capacity(cfg.plan_cache_capacity.max(1)));
        let mut federation = Federation::new()
            .with_scheme(cfg.scheme)
            .with_obs(obs.clone())
            .with_flight_recorder(flight.clone());
        federation = members.into_iter().fold(federation, Federation::with_member);
        if cfg.plan_cache_capacity > 0 {
            federation = federation.with_plan_cache(plan_cache.clone());
        }
        let profiles = Mutex::new(ProfileRing::new(PROFILE_RING_CAPACITY));
        let timeseries = Mutex::new(TimeSeries::new(TIMESERIES_CAPACITY));
        let journal = match &cfg.journal_path {
            Some(path) => Some(Mutex::new(
                JournalWriter::open(path, JOURNAL_MAX_BYTES).map_err(io::Error::other)?,
            )),
            None => None,
        };
        let slo = SloConfig {
            latency_objective_us: cfg.slo_latency_ms.saturating_mul(1000),
            error_budget: cfg.slo_error_budget,
        };
        let admission = Admission::new(cfg.max_inflight, cfg.tenant_rate, cfg.tenant_burst);
        Ok(Server {
            listener,
            federation,
            obs,
            flight,
            cfg,
            plan_cache,
            admission,
            slow_log: Mutex::new(VecDeque::new()),
            profiles,
            timeseries,
            journal,
            queries_done: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            slo,
            started: Instant::now(),
        })
    }

    /// The bound address (resolves the ephemeral port of `:0` configs).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The federation routing the served queries.
    pub fn federation(&self) -> &Federation {
        &self.federation
    }

    /// The prepared-plan cache in front of the federation planner.
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.plan_cache
    }

    /// A snapshot of the slow-query log, oldest first.
    pub fn slow_log(&self) -> Vec<SlowQuery> {
        self.slow_log.lock().expect("slow log lock").iter().cloned().collect()
    }

    /// Serves until `/shutdown`: N scoped workers each block in `accept`
    /// on the shared listener and serve what they accepted, from the first
    /// byte to close, so a connection never changes threads. On shutdown
    /// every worker finishes the connection it holds (drain), then exits.
    /// Prints the listening address on entry so scripts can scrape the
    /// ephemeral port.
    pub fn run(&self) -> io::Result<()> {
        println!("csqp serve: listening on {}", self.local_addr()?);
        std::thread::scope(|scope| {
            for _ in 0..self.cfg.workers.max(1) {
                scope.spawn(|| self.accept_and_serve());
            }
        });
        Ok(())
    }

    /// One worker: accept a connection, serve it to completion, repeat
    /// until the shutdown flag is up.
    fn accept_and_serve(&self) {
        while !self.shutdown.load(Ordering::Acquire) {
            let accepted = self.listener.accept();
            if self.shutdown.load(Ordering::Acquire) {
                // A shutdown wake (or a straggler): drop it — nothing was
                // promised to this connection yet.
                break;
            }
            match accepted.and_then(|(stream, _)| self.handle(&stream)) {
                Ok(true) => self.begin_shutdown(),
                Ok(false) => {}
                Err(e) => {
                    // A failed accept or a misbehaving client must not
                    // take a worker (let alone the server) down.
                    self.obs.metrics.inc(csqp_obs::names::SERVE_ERRORS);
                    eprintln!("csqp serve: connection error: {e}");
                }
            }
        }
    }

    /// Flips the shutdown flag and wakes every worker blocked in `accept`
    /// with one throwaway self-connection per worker: each idle worker
    /// takes one and exits, and a busy one sees the flag once its
    /// connection closes. Idempotent.
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        if let Ok(addr) = self.local_addr() {
            for _ in 0..self.cfg.workers.max(1) {
                let _ = TcpStream::connect(addr);
            }
        }
    }

    /// A retained profile by flight id, worst-first on ties.
    fn profile(&self, id: u64) -> Option<QueryProfile> {
        self.profiles
            .lock()
            .expect("profile ring lock")
            .worst()
            .iter()
            .find(|p| p.id == id)
            .cloned()
    }

    /// A snapshot of the worst-N retained profiles, worst first.
    pub fn profiles(&self) -> Vec<QueryProfile> {
        self.profiles.lock().expect("profile ring lock").worst().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::http::{http_request_target, percent_decode, query_param};
    use super::{ServeConfig, Server, TRACE_TAIL};
    use std::sync::Arc;

    /// A long-running server holds the newest `TRACE_TAIL` spans and
    /// events, not one per span ever recorded, and `/spans` still renders
    /// the tail.
    #[test]
    fn serve_tracer_keeps_a_bounded_tail() {
        let source = Arc::new(csqp_source::Source::new(
            csqp_relation::datagen::cars(3, 40),
            csqp_ssdl::templates::car_dealer(),
            csqp_source::CostParams::default(),
        ));
        let server = Server::bind_federation(vec![source], ServeConfig::default()).expect("bind");
        let attrs = ["model".to_string(), "year".to_string()];
        for i in 0..10_000u64 {
            let cond = format!("make = \"BMW\" ^ price < {}", 20_000 + i % 64 * 500);
            server
                .serve_query_streamed(&cond, &attrs, None, "t", &mut None, &mut |_| true)
                .expect("served");
        }
        let spans = server.obs.tracer.spans();
        assert!(spans.len() <= TRACE_TAIL, "{} spans retained", spans.len());
        assert!(server.obs.tracer.events().len() <= TRACE_TAIL);
        assert!(server.obs.tracer.span_mark() > TRACE_TAIL, "the tail really was trimmed");
        let (status, _, body, _) = server.route("/spans");
        assert_eq!(status, "200 OK");
        assert!(body.contains("execute"), "{body}");
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a+b"), "a b");
        assert_eq!(percent_decode("price%20%3C%2040000"), "price < 40000");
        assert_eq!(percent_decode("make%20%3D%20%22BMW%22"), "make = \"BMW\"");
        assert_eq!(percent_decode("100%"), "100%", "trailing percent is literal");
        assert_eq!(percent_decode("%zz"), "%zz", "bad hex is literal");
    }

    #[test]
    fn http_request_lines() {
        assert_eq!(http_request_target("GET /healthz HTTP/1.1"), Some("/healthz"));
        assert_eq!(http_request_target("GET /metrics HTTP/1.0"), Some("/metrics"));
        assert_eq!(http_request_target("query model,year make = \"BMW\""), None);
        assert_eq!(http_request_target("ping"), None);
        assert_eq!(http_request_target(""), None);
    }

    #[test]
    fn query_params() {
        assert_eq!(query_param("cond=a%3D1&attrs=x,y", "attrs").as_deref(), Some("x,y"));
        assert_eq!(query_param("cond=a%3D1&attrs=x,y", "cond").as_deref(), Some("a%3D1"));
        assert_eq!(query_param("cond=a", "attrs"), None);
        assert_eq!(query_param("", "cond"), None);
    }
}
