//! The multi-tenant serve front door under concurrency: worker-pool
//! keep-alive serving, `/shutdown` draining in-flight connections,
//! per-tenant token-bucket shedding (429), the prepared-plan cache
//! surfacing in trailers and `/metrics`, a mixed-tenant hammer whose audit
//! journal must come out coherent — no lost or duplicated records —
//! slow-log entries that carry their own query's decision trail, flight
//! records that receive their own query's post-planning notes, served
//! output that stays small over a 1 000-member federation, every idle
//! worker waking on `/shutdown`, a multi-flush answer that is byte-exact
//! over HTTP and the line protocol, a mid-stream disconnect that frees
//! its worker and its in-flight slot, a dark cheap member whose queries
//! fail over to its mirror until the member's breaker closes again, and a
//! line-protocol `why` that explains its own connection's last query.

use csqp::serve::{ServeConfig, Server};
use csqp_core::federation::Federation;
use csqp_core::types::TargetQuery;
use csqp_obs::{FlightRecorder, Obs};
use csqp_relation::datagen;
use csqp_source::{CostParams, Source};
use csqp_ssdl::templates;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn connect(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect to serve");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.set_write_timeout(Some(Duration::from_secs(10))).unwrap();
    s
}

/// One-shot HTTP/1.0 request (no keep-alive: the server closes after the
/// response, so reading to EOF frames it).
fn http_get(addr: SocketAddr, path: &str) -> String {
    http_get_with_header(addr, path, None)
}

fn http_get_with_header(addr: SocketAddr, path: &str, header: Option<&str>) -> String {
    let mut s = connect(addr);
    let extra = header.map(|h| format!("{h}\r\n")).unwrap_or_default();
    write!(s, "GET {path} HTTP/1.0\r\nHost: pool\r\n{extra}\r\n").unwrap();
    let mut buf = String::new();
    s.read_to_string(&mut buf).expect("read response");
    buf
}

fn dealer() -> Arc<Source> {
    Arc::new(Source::new(datagen::cars(3, 400), templates::car_dealer(), CostParams::default()))
}

/// 5 000 cars: [`EVERY_CAR`] selects all of them, an answer several
/// 32 KiB socket writes long.
fn big_dealer() -> Arc<Source> {
    Arc::new(Source::new(datagen::cars(5, 5_000), templates::car_dealer(), CostParams::default()))
}

/// Every make `datagen::cars` draws from, under a price bound no car
/// reaches.
const EVERY_CAR: &str = "(make = \"Toyota\" _ make = \"BMW\" _ make = \"Honda\" _ make = \"Ford\" \
                         _ make = \"Mercedes\" _ make = \"Chevrolet\") ^ price < 1000000";
const EVERY_CAR_ATTRS: &str = "make,model,year,color";

/// `/query` for `cond` over [`EVERY_CAR_ATTRS`], the condition
/// percent-encoded.
fn query_path(cond: &str) -> String {
    query_path_over(cond, EVERY_CAR_ATTRS)
}

/// `/query` for `cond` over `attrs`, the condition percent-encoded.
fn query_path_over(cond: &str, attrs: &str) -> String {
    let cond: String = cond
        .bytes()
        .map(|b| match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' => (b as char).to_string(),
            _ => format!("%{b:02X}"),
        })
        .collect();
    format!("/query?cond={cond}&attrs={attrs}")
}

/// Runs a telemetry-reading test over recording recorders — what
/// `Server::bind_federation` builds — then over the off values, which pins
/// what the endpoints render when the recorders hold nothing.
fn over_both_recorders(test: fn(Obs, FlightRecorder)) {
    test(Obs::new(), FlightRecorder::new());
    test(Obs::off(), FlightRecorder::off());
}

const BMW: &str = "/query?cond=make%20%3D%20%22BMW%22%20%5E%20price%20%3C%2040000&attrs=model,year";
const TOYOTA: &str =
    "/query?cond=make%20%3D%20%22Toyota%22%20%5E%20price%20%3C%2030000&attrs=model,year";

/// A persistent HTTP/1.1 connection speaking framed (Content-Length)
/// requests — the keep-alive path the worker pool serves until the client
/// closes or the server begins draining.
struct KeepAlive {
    reader: BufReader<TcpStream>,
}

impl KeepAlive {
    fn open(addr: SocketAddr) -> Self {
        KeepAlive { reader: BufReader::new(connect(addr)) }
    }

    /// Sends one framed request and returns `(status line, body)`.
    fn request(&mut self, path: &str) -> (String, String) {
        write!(self.reader.get_mut(), "GET {path} HTTP/1.1\r\nHost: pool\r\n\r\n").unwrap();
        let mut status = String::new();
        self.reader.read_line(&mut status).expect("status line");
        let mut len = 0usize;
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("header line");
            if line.trim().is_empty() {
                break;
            }
            let lower = line.to_ascii_lowercase();
            if let Some(v) = lower.strip_prefix("content-length:") {
                len = v.trim().parse().expect("content length");
            }
        }
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body).expect("framed body");
        (status.trim().to_string(), String::from_utf8(body).expect("utf-8 body"))
    }
}

/// Keep-alive serving + `/shutdown` drain: a connection opened before the
/// shutdown request keeps getting answers until it closes, and only then
/// does the accept loop return.
#[test]
fn shutdown_drains_inflight_keepalive_connections() {
    let server = Server::bind_federation(vec![dealer()], ServeConfig::default())
        .expect("bind an ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let handle = std::thread::spawn(move || server.run());

    // A long-lived pipelined connection: several requests on one socket.
    let mut ka = KeepAlive::open(addr);
    let (status, body) = ka.request("/healthz");
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    assert_eq!(body, "ok\n");
    let (status, _) = ka.request("/healthz");
    assert!(status.starts_with("HTTP/1.1 200"), "keep-alive second request: {status}");

    // Another client asks for shutdown while ka is still connected.
    let bye = http_get(addr, "/shutdown");
    assert!(bye.contains("shutting down"), "{bye}");
    std::thread::sleep(Duration::from_millis(150));

    // The draining server still answers the in-flight connection.
    let (status, body) = ka.request("/healthz");
    assert!(status.starts_with("HTTP/1.1 200"), "drained connection still served: {status}");
    assert_eq!(body, "ok\n");

    // Only once the last connection closes does the accept loop exit.
    drop(ka);
    handle.join().expect("server thread").expect("accept loop exits cleanly");
}

/// Per-tenant token buckets: a tenant that exhausts its burst gets fast
/// 429s while other tenants keep their full allowance; identity comes from
/// the `tenant=` query param or the `X-Tenant` header (param wins).
#[test]
fn tenant_quota_sheds_with_429() {
    let cfg = ServeConfig {
        // Refill is negligible within the test run: the burst is the budget.
        tenant_rate: 0.001,
        tenant_burst: 2.0,
        ..ServeConfig::default()
    };
    let server = Server::bind_federation(vec![dealer()], cfg).expect("bind an ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let handle = std::thread::spawn(move || server.run());

    let noisy = format!("{BMW}&tenant=noisy");
    for i in 0..2 {
        let resp = http_get(addr, &noisy);
        assert!(resp.starts_with("HTTP/1.1 200"), "burst query {i}: {resp}");
        assert!(resp.contains("tenant noisy"), "trailer names the tenant: {resp}");
    }
    let shed = http_get(addr, &noisy);
    assert!(shed.starts_with("HTTP/1.1 429"), "burst exhausted: {shed}");
    assert!(shed.contains("over its query rate"), "{shed}");

    // A different tenant still has its own full bucket.
    let quiet = http_get(addr, &format!("{BMW}&tenant=quiet"));
    assert!(quiet.starts_with("HTTP/1.1 200"), "tenant isolation: {quiet}");

    // Header-borne identity charges the same bucket as the param form.
    let via_header = http_get_with_header(addr, BMW, Some("X-Tenant: noisy"));
    assert!(via_header.starts_with("HTTP/1.1 429"), "X-Tenant shares the bucket: {via_header}");
    // The param outranks the header when both are present.
    let both = http_get_with_header(addr, &format!("{BMW}&tenant=fresh"), Some("X-Tenant: noisy"));
    assert!(both.starts_with("HTTP/1.1 200"), "param wins over header: {both}");
    assert!(both.contains("tenant fresh"), "{both}");

    // Non-query endpoints are never quota-shed.
    let health = http_get(addr, "/healthz?tenant=noisy");
    assert!(health.starts_with("HTTP/1.1 200"), "{health}");

    let bye = http_get(addr, "/shutdown");
    assert!(bye.contains("shutting down"), "{bye}");
    handle.join().expect("server thread").expect("accept loop exits cleanly");
}

/// The prepared-plan cache surfaces end to end: the first query of a shape
/// plans cold ("plan cache miss"), the next query of the same shape with
/// different constants is served from the cache ("plan cache hit"), and
/// the counters scrape on `/metrics`.
#[test]
fn plan_cache_decisions_surface_in_trailer_and_metrics() {
    over_both_recorders(plan_cache_decisions_surface_in_trailer_and_metrics_over);
}

fn plan_cache_decisions_surface_in_trailer_and_metrics_over(obs: Obs, flight: FlightRecorder) {
    let obs_on = obs.enabled();
    let server = Server::bind_observed(vec![dealer()], ServeConfig::default(), obs, flight)
        .expect("bind an ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let handle = std::thread::spawn(move || server.run());

    let cold = http_get(addr, BMW);
    assert!(cold.starts_with("HTTP/1.1 200"), "{cold}");
    assert!(cold.contains("plan cache miss"), "first query of a shape plans cold: {cold}");
    let warm = http_get(addr, TOYOTA);
    assert!(warm.starts_with("HTTP/1.1 200"), "{warm}");
    assert!(warm.contains("plan cache hit"), "same shape, new constants, cached: {warm}");

    // Identical answers modulo the cache: both queries return every row
    // their condition selects (the hit rebinds constants, so row *counts*
    // differ per condition, but the trailer row count matches the body).
    for resp in [&cold, &warm] {
        let body = resp.split("\r\n\r\n").nth(1).expect("body");
        let lines: Vec<&str> = body.lines().collect();
        let n: usize = lines.last().unwrap().split(' ').next().unwrap().parse().expect("row count");
        assert_eq!(lines.len() - 1, n, "one line per row plus the trailer: {body}");
    }

    if obs_on {
        let metrics = http_get(addr, "/metrics");
        assert!(metrics.contains("csqp_plancache_hits_total 1"), "{metrics}");
        assert!(metrics.contains("csqp_plancache_misses_total 1"), "{metrics}");
        assert!(metrics.contains("csqp_plancache_entries 1.0"), "{metrics}");
        assert!(metrics.contains("csqp_admission_admitted_total 2"), "{metrics}");
    }
    // The worst-N profile index reports the decision per retained query.
    let profiles = http_get(addr, "/profile");
    assert!(
        profiles.contains("plan cache hit)") || profiles.contains("plan cache miss)"),
        "profile index carries the cache decision: {profiles}"
    );

    let bye = http_get(addr, "/shutdown");
    assert!(bye.contains("shutting down"), "{bye}");
    handle.join().expect("server thread").expect("accept loop exits cleanly");
}

/// Mixed-tenant hammer across the worker pool: four client threads, each
/// its own tenant, each pushing past its quota mid-run. Afterwards the
/// books must balance exactly — one journal record per 200, none for
/// sheds, unique flight ids, and per-tenant admission counters matching
/// what the clients observed.
#[test]
fn worker_pool_hammer_keeps_journal_and_counters_coherent() {
    over_both_recorders(worker_pool_hammer_keeps_journal_and_counters_coherent_over);
}

fn worker_pool_hammer_keeps_journal_and_counters_coherent_over(obs: Obs, flight: FlightRecorder) {
    let obs_on = obs.enabled();
    let journal =
        std::env::temp_dir().join(format!("csqp-pool-hammer-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&journal);
    let cfg = ServeConfig {
        journal_path: Some(journal.to_str().unwrap().to_string()),
        window_queries: 2,
        workers: 4,
        tenant_rate: 0.001,
        tenant_burst: 2.0,
        ..ServeConfig::default()
    };
    let server =
        Server::bind_observed(vec![dealer()], cfg, obs, flight).expect("bind an ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let handle = std::thread::spawn(move || server.run());

    const THREADS: usize = 4;
    const PER_THREAD: usize = 6;
    let mut clients = Vec::new();
    for t in 0..THREADS {
        clients.push(std::thread::spawn(move || {
            let (mut ok, mut shed) = (0u64, 0u64);
            for round in 0..PER_THREAD {
                let base = if round % 2 == 0 { BMW } else { TOYOTA };
                let resp = http_get(addr, &format!("{base}&tenant=t{t}"));
                if resp.starts_with("HTTP/1.1 200") {
                    ok += 1;
                } else if resp.starts_with("HTTP/1.1 429") {
                    shed += 1;
                } else {
                    panic!("hammer t{t}/{round}: {resp}");
                }
            }
            (ok, shed)
        }));
    }
    let (mut ok_total, mut shed_total) = (0u64, 0u64);
    for c in clients {
        let (ok, shed) = c.join().expect("client thread");
        // Burst 2 with negligible refill: each tenant lands exactly its
        // burst, and every query past it sheds.
        assert_eq!(ok, 2, "each tenant gets exactly its burst");
        assert_eq!(shed, (PER_THREAD as u64) - 2);
        ok_total += ok;
        shed_total += shed;
    }

    // Admission counters agree with what the clients saw, per tenant.
    if obs_on {
        let metrics = http_get(addr, "/metrics");
        assert!(
            metrics.contains(&format!("csqp_admission_admitted_total {ok_total}")),
            "{metrics}"
        );
        assert!(
            metrics.contains(&format!("csqp_admission_shed_quota_total {shed_total}")),
            "{metrics}"
        );
        for t in 0..THREADS {
            assert!(
                metrics.contains(&format!("csqp_tenant_queries_total{{tenant=\"t{t}\"}} 2")),
                "{metrics}"
            );
            assert!(
                metrics.contains(&format!(
                    "csqp_tenant_shed_total{{tenant=\"t{t}\"}} {}",
                    (PER_THREAD as u64) - 2
                )),
                "{metrics}"
            );
        }
    }
    // The scoreboard stays sane under the mixed 200/429 storm.
    let status = http_get(addr, "/status");
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    assert!(status.contains("car_dealer"), "{status}");

    let bye = http_get(addr, "/shutdown");
    assert!(bye.contains("shutting down"), "{bye}");
    handle.join().expect("server thread").expect("accept loop exits cleanly");

    // The journal balances: exactly one record per admitted query — sheds
    // never journal — all "ok", and (with the recorder armed) no flight id
    // is lost or double-spent across workers.
    let (records, errors) = csqp_obs::audit::read_journal(&journal).expect("journal readable");
    assert!(errors.is_empty(), "torn/corrupt journal lines: {errors:?}");
    assert_eq!(records.len() as u64, ok_total, "one audit record per 200, none per 429");
    assert!(records.iter().all(|r| r.status == "ok"), "{records:?}");
    if obs_on {
        let mut ids: Vec<u64> = records.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len() as u64, ok_total, "flight ids are unique across workers");
    }
    let _ = std::fs::remove_file(&journal);
}

/// Slow-log attribution under concurrency: with every query "slow"
/// (`slow_ms: 0`) and four clients pushing distinct queries through four
/// workers, each `/slowlog` entry's `EXPLAIN WHY` trail must narrate the
/// entry's own query — not whichever query happened to plan last.
#[test]
fn slow_log_entries_carry_their_own_decision_trail() {
    over_both_recorders(slow_log_entries_carry_their_own_decision_trail_over);
}

fn slow_log_entries_carry_their_own_decision_trail_over(obs: Obs, flight: FlightRecorder) {
    let obs_on = obs.enabled();
    const THREADS: usize = 4;
    const PER_THREAD: usize = 16;
    let cfg = ServeConfig {
        slow_ms: 0,
        slow_log_capacity: THREADS * PER_THREAD,
        workers: THREADS,
        ..ServeConfig::default()
    };
    let server =
        Server::bind_observed(vec![dealer()], cfg, obs, flight).expect("bind an ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let handle = std::thread::spawn(move || server.run());

    let clients: Vec<_> = (0..THREADS)
        .map(|t| {
            std::thread::spawn(move || {
                for round in 0..PER_THREAD {
                    // Same shape, distinct constants: every query renders
                    // differently, and the plan cache keeps them quick.
                    let price = 20000 + 1000 * t + round;
                    let resp = http_get(
                        addr,
                        &format!(
                            "/query?cond=make%20%3D%20%22BMW%22%20%5E%20price%20%3C%20{price}\
                             &attrs=model,year&tenant=t{t}"
                        ),
                    );
                    assert!(resp.starts_with("HTTP/1.1 200"), "t{t}/{round}: {resp}");
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }

    let slowlog = http_get(addr, "/slowlog");
    let entries: Vec<&str> = slowlog.split("--- slow query ").skip(1).collect();
    assert_eq!(entries.len(), THREADS * PER_THREAD, "every query entered the log:\n{slowlog}");
    for entry in entries {
        let (header, trail) = entry.split_once('\n').expect("entry header line");
        let (_, query) = header.split_once("): ").expect("header ends in the query");
        if obs_on {
            assert!(
                trail.contains(&format!("query:  {query}\n")),
                "slow query `{query}` logged another query's trail:\n{trail}"
            );
        } else {
            assert!(
                trail.contains("recorder"),
                "an off recorder logs the disabled notice:\n{trail}"
            );
        }
    }

    let bye = http_get(addr, "/shutdown");
    assert!(bye.contains("shutting down"), "{bye}");
    handle.join().expect("server thread").expect("accept loop exits cleanly");
}

/// Post-planning flight notes under concurrency: four clients push distinct
/// queries through four workers, and every `/flightrecorder?query=<id>`
/// replay must narrate its own query and end in exactly one `streamed:`
/// note — the one its own execution wrote, not none (the member mediators
/// record on the served recorder) and not a neighbour's (notes are
/// addressed by flight id, never to "the latest" record).
#[test]
fn flight_records_receive_their_own_stream_notes() {
    over_both_recorders(flight_records_receive_their_own_stream_notes_over);
}

fn flight_records_receive_their_own_stream_notes_over(obs: Obs, flight: FlightRecorder) {
    let obs_on = obs.enabled();
    const THREADS: usize = 4;
    const PER_THREAD: usize = 4;
    let cfg = ServeConfig { workers: THREADS, ..ServeConfig::default() };
    let server =
        Server::bind_observed(vec![dealer()], cfg, obs, flight).expect("bind an ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let handle = std::thread::spawn(move || server.run());

    let clients: Vec<_> = (0..THREADS)
        .map(|t| {
            std::thread::spawn(move || {
                (0..PER_THREAD)
                    .map(|round| {
                        let price = 20000 + 1000 * t + round;
                        let resp = http_get(
                            addr,
                            &format!(
                                "/query?cond=make%20%3D%20%22BMW%22%20%5E%20price%20%3C%20{price}\
                                 &attrs=model,year"
                            ),
                        );
                        assert!(resp.starts_with("HTTP/1.1 200"), "t{t}/{round}: {resp}");
                        let (_, id) =
                            resp.rsplit_once("flight #").expect("trailer names the flight");
                        let id: u64 =
                            id.trim_end().trim_end_matches(')').parse().expect("flight id");
                        (id, price)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    for client in clients {
        for (id, price) in client.join().expect("client thread") {
            let replay = http_get(addr, &format!("/flightrecorder?query={id}"));
            if !obs_on {
                // A disarmed recorder hands every query flight #0 and keeps
                // no record of it: the replay is a 404, not a notice.
                assert_eq!(id, 0);
                assert!(replay.starts_with("HTTP/1.1 404"), "{replay}");
                assert!(replay.contains("no flight \"0\" recorded"), "{replay}");
                continue;
            }
            assert!(replay.contains(&format!("price < {price}")), "flight {id}:\n{replay}");
            let notes = replay.lines().filter(|l| l.contains("streamed: ")).count();
            assert_eq!(notes, 1, "flight {id} must hold exactly its own stream note:\n{replay}");
        }
    }

    let bye = http_get(addr, "/shutdown");
    assert!(bye.contains("shutting down"), "{bye}");
    handle.join().expect("server thread").expect("accept loop exits cleanly");
}

/// A line-protocol connection, read a line at a time.
struct LineConn {
    reader: BufReader<TcpStream>,
}

impl LineConn {
    fn open(addr: SocketAddr) -> Self {
        LineConn { reader: BufReader::new(connect(addr)) }
    }

    /// Sends a `query` line and reads its answer up to the trailer.
    fn query(&mut self, attrs: &str, cond: &str) -> String {
        writeln!(self.reader.get_mut(), "query {attrs} {cond}").unwrap();
        let mut reply = String::new();
        while !reply.contains(" flight #") {
            assert!(self.reader.read_line(&mut reply).expect("reply line") > 0, "{reply}");
        }
        reply
    }

    /// Sends `why`, closes its side, and reads the report to EOF.
    fn why(mut self) -> String {
        writeln!(self.reader.get_mut(), "why").unwrap();
        self.reader.get_ref().shutdown(std::net::Shutdown::Write).unwrap();
        let mut report = String::new();
        self.reader.read_to_string(&mut report).expect("why report");
        report
    }
}

/// `why` on the line protocol explains the connection's own last query,
/// not whichever query another worker planned last; a connection that
/// sent none gets the no-flight notice.
#[test]
fn line_protocol_why_explains_its_own_connections_query() {
    let server = Server::bind_federation(vec![dealer()], ServeConfig::default()).expect("bind");
    let addr = server.local_addr().expect("bound address");
    let handle = std::thread::spawn(move || server.run());

    let (mut a, mut b) = (LineConn::open(addr), LineConn::open(addr));
    let bmw = a.query("model,year", "make = \"BMW\" ^ price < 40000");
    assert!(bmw.starts_with("OK\n"), "{bmw}");
    let toyota = b.query("model,year", "make = \"Toyota\" ^ price < 30000");
    assert!(toyota.starts_with("OK\n"), "{toyota}");
    let (why_a, why_b) = (a.why(), b.why());
    assert!(why_a.contains("EXPLAIN WHY"), "{why_a}");
    assert!(why_a.contains("\"BMW\"") && !why_a.contains("Toyota"), "{why_a}");
    assert!(why_b.contains("\"Toyota\"") && !why_b.contains("BMW"), "{why_b}");
    assert!(LineConn::open(addr).why().contains("flight recorder disabled"));

    let bye = http_get(addr, "/shutdown");
    assert!(bye.contains("shutting down"), "{bye}");
    handle.join().expect("server thread").expect("accept loop exits cleanly");
}

/// Served output at federation scale: over a 1 000-member `fedcorpus`
/// federation the trailer names no closed breaker (it counts them), the
/// profile lists none, and no `breaker.state.*` series ever enters the
/// registry — yet `/metrics` still exposes one breaker gauge per member.
#[test]
fn served_output_stays_small_at_federation_scale() {
    use csqp_bench::fedcorpus::{corpus_members, domain_query, FedCorpusConfig};
    let members = corpus_members(&FedCorpusConfig { n_sources: 1000, ..Default::default() });
    let n = members.len();
    assert_eq!(n, 1000);
    let server = Server::bind_federation(members, ServeConfig::default()).expect("bind");
    let addr = server.local_addr().expect("bound address");
    std::thread::scope(|scope| {
        let running = scope.spawn(|| server.run());
        // More queries than one telemetry window, so a window rolls too.
        let mut flights = Vec::new();
        for d in [3usize, 40, 77, 101, 124, 3] {
            let q = domain_query(d, 11);
            let attrs: Vec<String> = q.attrs.iter().map(|a| a.to_string()).collect();
            let cond = q.cond.to_string();
            let cond = [(' ', "%20"), ('"', "%22"), ('=', "%3D"), ('^', "%5E")]
                .iter()
                .fold(cond, |c, (from, to)| c.replace(*from, to));
            let resp = http_get(addr, &format!("/query?cond={cond}&attrs={}", attrs.join(",")));
            assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
            let body = resp.split("\r\n\r\n").nth(1).expect("body");
            let trailer = body.lines().last().expect("trailer");
            assert!(trailer.len() < 1024, "{} trailer bytes: {trailer}", trailer.len());
            assert!(trailer.contains(&format!("breakers [{n} closed]")), "{trailer}");
            let (_, id) = trailer.rsplit_once("flight #").expect("trailer names the flight");
            flights.push(id.trim_end_matches(')').parse::<u64>().expect("flight id"));
        }
        for id in flights {
            let profile = http_get(addr, &format!("/profile/{id}"));
            assert!(profile.starts_with("HTTP/1.1 200"), "{profile}");
            assert!(profile.contains("\"breakers\": []"), "{profile}");
            assert!(!profile.contains("breaker.state."), "{profile}");
        }
        let metrics = http_get(addr, "/metrics");
        let gauges = metrics.lines().filter(|l| l.starts_with("csqp_breaker_state{")).count();
        assert_eq!(gauges, n, "one breaker gauge per member");
        assert!(http_get(addr, "/status").starts_with("HTTP/1.1 200"));
        assert!(http_get(addr, "/shutdown").contains("shutting down"));
        running.join().expect("server thread").expect("accept loop exits cleanly");
    });
    let registry = server.federation().obs().metrics.snapshot();
    assert!(registry.gauges.keys().all(|k| !k.starts_with("breaker.state.")));
    assert!(registry.counter("serve.queries") >= 6);
}

/// `/shutdown` wakes every worker blocked in `accept`: with four idle
/// workers and no other traffic, `run` returns within the deadline. A
/// single wake would leave three workers blocked and `run` with them.
#[test]
fn shutdown_wakes_every_idle_worker() {
    let cfg = ServeConfig { workers: 4, ..ServeConfig::default() };
    let server = Server::bind_federation(vec![dealer()], cfg).expect("bind an ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let (done, ran) = std::sync::mpsc::channel();
    std::thread::spawn(move || done.send(server.run().is_ok()));
    let bye = http_get(addr, "/shutdown");
    assert!(bye.contains("shutting down"), "{bye}");
    let ran = ran.recv_timeout(Duration::from_secs(10)).expect("every idle worker woke and exited");
    assert!(ran, "accept loop exits cleanly");
}

/// An answer that spans several 32 KiB flushes arrives byte-exact: the
/// HTTP body minus its trailer equals the line-protocol body, and both
/// equal `Federation::run`'s rows rendered with `Display`, in order.
#[test]
fn multi_flush_answer_is_byte_exact() {
    let source = big_dealer();
    let attrs: Vec<&str> = EVERY_CAR_ATTRS.split(',').collect();
    let query = TargetQuery::parse(EVERY_CAR, &attrs).expect("query parses");
    let reference = Federation::new().with_member(source.clone()).run(&query).expect("runs");
    let expected: String =
        reference.stream.outcome.rows.rows().map(|row| format!("{row}\n")).collect();
    assert_eq!(expected.lines().count(), 5_000, "the condition selects every car");
    assert!(expected.len() >= 4 * 32 * 1024, "{} bytes span >= 4 flushes", expected.len());

    let server = Server::bind_federation(vec![source], ServeConfig::default())
        .expect("bind an ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let handle = std::thread::spawn(move || server.run());

    let resp = http_get(addr, &query_path(EVERY_CAR));
    assert!(resp.starts_with("HTTP/1.1 200"), "{}", &resp[..resp.len().min(200)]);
    let body = resp.split_once("\r\n\r\n").expect("header ends").1;
    let (http_rows, trailer) = body.trim_end().rsplit_once('\n').expect("rows, then a trailer");
    assert!(trailer.starts_with("5000 rows"), "{trailer}");
    assert_eq!(format!("{http_rows}\n"), expected, "HTTP rows differ from Federation::run");

    let mut s = connect(addr);
    writeln!(s, "query {EVERY_CAR_ATTRS} {EVERY_CAR}").unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();
    let mut reply = String::new();
    s.read_to_string(&mut reply).expect("read reply");
    let line_body = reply.strip_prefix("OK\n").expect("line protocol answers OK");
    let (line_rows, line_trailer) = line_body.trim_end().rsplit_once('\n').expect("trailer");
    assert!(line_trailer.starts_with("5000 rows"), "{line_trailer}");
    assert_eq!(line_rows, http_rows, "line protocol and HTTP bodies differ");

    assert!(http_get(addr, "/shutdown").contains("shutting down"));
    handle.join().expect("server thread").expect("accept loop exits cleanly");
}

/// A client that drops its socket mid-answer frees the worker and the
/// in-flight slot: with one worker, a query on a new connection is then
/// answered and `admission.inflight` reads 0.
#[test]
fn mid_stream_disconnect_frees_worker_and_inflight_slot() {
    let cfg = ServeConfig { workers: 1, ..ServeConfig::default() };
    let server = Server::bind_federation(vec![big_dealer()], cfg).expect("bind an ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let handle = std::thread::spawn(move || server.run());

    let mut reader = BufReader::new(connect(addr));
    write!(reader.get_mut(), "GET {} HTTP/1.0\r\n\r\n", query_path(EVERY_CAR)).unwrap();
    let mut status = String::new();
    reader.read_line(&mut status).expect("status line");
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    let mut line = String::new();
    while reader.read_line(&mut line).expect("header line") > 2 {
        line.clear();
    }
    drop(reader);

    let next = http_get(addr, &query_path("make = \"BMW\" ^ price < 40000"));
    assert!(next.starts_with("HTTP/1.1 200"), "{next}");
    assert!(next.contains(" rows (est cost"), "{next}");
    let metrics = http_get(addr, "/metrics");
    assert!(metrics.contains("csqp_admission_inflight 0.0"), "{metrics}");

    assert!(http_get(addr, "/shutdown").contains("shutting down"));
    handle.join().expect("server thread").expect("accept loop exits cleanly");
}

/// `name`, a car dealer over `data` at `cost`, optionally faulty.
fn named_dealer(
    name: &str,
    data: &csqp_relation::Relation,
    cost: CostParams,
    faults: Option<csqp_source::FaultProfile>,
) -> Arc<Source> {
    let mut desc = templates::car_dealer();
    desc.name = name.into();
    let source = Source::new(data.clone(), desc, cost);
    Arc::new(match faults {
        Some(profile) => source.with_fault_profile(profile),
        None => source,
    })
}

/// The sorted rows of an HTTP `/query` response, and its trailer.
fn rows_and_trailer(resp: &str) -> (Vec<String>, String) {
    let body = resp.split_once("\r\n\r\n").expect("header ends").1;
    let mut lines: Vec<String> = body.lines().map(str::to_string).collect();
    let trailer = lines.pop().expect("a trailer line");
    lines.sort();
    (lines, trailer)
}

/// A cheap member that is dark for its first `failure_threshold` attempts
/// beside a dearer healthy mirror, one query shape repeated on 4 workers.
/// Every query answers with the mirror's rows: the first three are each
/// spliced onto the mirror as the cheap member dies (the last of them
/// opens its breaker), the next two plan around the quarantined member
/// without caching that decision, and once the cooldown has passed the
/// cheap member is probed on a cache hit, closes, and serves its shape
/// again. `/status` ranks the dark member below the mirror meanwhile, and
/// no breaker transition touches the plan cache.
#[test]
fn a_dark_cheap_member_fails_over_to_its_mirror_and_recovers() {
    use csqp_core::federation::CircuitBreakerConfig;
    let threshold = CircuitBreakerConfig::default().failure_threshold as usize;
    let data = datagen::cars(3, 400);
    let dark = csqp_source::FaultProfile::new(0).with_outage(0, threshold as u64);
    let cheap = named_dealer("cheap", &data, CostParams::new(10.0, 1.0), Some(dark));
    let mirror = named_dealer("mirror", &data, CostParams::new(50.0, 1.0), None);
    let alone = Federation::new().with_member(mirror.clone());
    let cfg = ServeConfig { workers: 4, ..ServeConfig::default() };
    let server = Arc::new(Server::bind_federation(vec![cheap, mirror], cfg).expect("bind"));
    let addr = server.local_addr().expect("bound address");
    let running = std::thread::spawn({
        let server = server.clone();
        move || server.run()
    });
    // (make, price, plan cache decision, breakers after the query, server):
    // the breaker opens at tick 3 and turns half-open at tick 6.
    let expected = [
        ("BMW", 90000, "miss", "2 closed", "mirror"),
        ("Toyota", 80000, "hit", "2 closed", "mirror"),
        ("Honda", 70000, "hit", "cheap:open 1 closed", "mirror"),
        ("Ford", 90000, "rejected", "cheap:open 1 closed", "mirror"),
        ("BMW", 60000, "rejected", "cheap:half-open 1 closed", "mirror"),
        ("Toyota", 50000, "hit", "2 closed", "cheap"),
        ("Honda", 90000, "hit", "2 closed", "cheap"),
    ];
    for (i, (make, price, decision, breakers, member)) in expected.into_iter().enumerate() {
        let cond = format!("make = \"{make}\" ^ price < {price}");
        let query = TargetQuery::parse(&cond, &["model", "year"]).expect("query parses");
        let alone = alone.run(&query).expect("the mirror answers alone").stream.outcome;
        let mut want: Vec<String> = alone.rows.rows().map(|row| row.to_string()).collect();
        want.sort();
        let resp = http_get(addr, &query_path_over(&cond, "model,year"));
        assert!(resp.starts_with("HTTP/1.1 200"), "query {i}: {resp}");
        let (rows, trailer) = rows_and_trailer(&resp);
        assert_eq!(rows, want, "query {i}: the mirror-alone answer");
        assert!(trailer.starts_with(&format!("{} rows (", want.len())), "{trailer}");
        assert!(trailer.contains(&format!("plan cache {decision},")), "{i}: {trailer}");
        let served = format!("breakers [{breakers}], served by {member},");
        assert!(trailer.contains(&served), "query {i}: {trailer}");
        if i + 1 == threshold {
            let metrics = http_get(addr, "/metrics");
            assert!(metrics.contains("csqp_breaker_opened_total 1"), "{metrics}");
            let status = http_get(addr, "/status");
            let at = |name: &str| status.find(&format!("\n{name} ")).expect("member row");
            assert!(at("cheap") < at("mirror"), "dark member ranks first:\n{status}");
        }
    }
    let metrics = http_get(addr, "/metrics");
    for transition in ["opened", "half_opened", "closed"] {
        let line = format!("csqp_breaker_{transition}_total 1");
        assert!(metrics.contains(&line), "{line}: {metrics}");
    }
    assert!(http_get(addr, "/shutdown").contains("shutting down"));
    running.join().expect("server thread").expect("accept loop exits cleanly");
    let stats = server.plan_cache().stats();
    assert_eq!((stats.invalidations, stats.entries), (0, 1), "{stats:?}");
    assert_eq!(stats.rejected, 2, "two hits met a quarantined member");
}

/// A lone member that is dark for its first `failure_threshold` queries:
/// they fail, the last opens its breaker, the queries of the cooldown find
/// nothing that may serve them, and once the cooldown has passed the
/// member is probed and answers again — every decision ticks the breaker
/// clock, also one that nothing can serve.
#[test]
fn a_lone_dark_member_answers_again_after_its_cooldown() {
    use csqp_core::federation::CircuitBreakerConfig;
    let breaker = CircuitBreakerConfig::default();
    let data = datagen::cars(3, 400);
    let dark = csqp_source::FaultProfile::new(0).with_outage(0, breaker.failure_threshold as u64);
    let lone = named_dealer("lone", &data, CostParams::new(10.0, 1.0), Some(dark));
    let cfg = ServeConfig { workers: 4, ..ServeConfig::default() };
    let server = Arc::new(Server::bind_federation(vec![lone], cfg).expect("bind"));
    let addr = server.local_addr().expect("bound address");
    let running = std::thread::spawn({
        let server = server.clone();
        move || server.run()
    });
    let path = query_path_over("make = \"BMW\" ^ price < 90000", "model,year");
    let mut expected = vec!["execution failed"; breaker.failure_threshold as usize];
    expected.extend(vec!["all capable members quarantined"; breaker.cooldown_ticks as usize]);
    expected.extend(["served by lone", "served by lone"]);
    for (i, want) in expected.into_iter().enumerate() {
        let resp = http_get(addr, &path);
        assert!(resp.contains(want), "query {i}: want {want:?} in {resp}");
        let status = if want.starts_with("served") { "HTTP/1.1 200" } else { "HTTP/1.1 400" };
        assert!(resp.starts_with(status), "query {i}: {resp}");
    }
    let metrics = http_get(addr, "/metrics");
    for transition in ["opened", "half_opened", "closed"] {
        let line = format!("csqp_breaker_{transition}_total 1");
        assert!(metrics.contains(&line), "{line}: {metrics}");
    }
    assert!(http_get(addr, "/shutdown").contains("shutting down"));
    running.join().expect("server thread").expect("accept loop exits cleanly");
}
