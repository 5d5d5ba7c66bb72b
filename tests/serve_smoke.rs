//! Smoke test for `csqp serve`: a real server on an ephemeral port answers
//! `/healthz` and `/metrics` (valid Prometheus text carrying the planner
//! counters) *while* serving queries over both HTTP and the line protocol,
//! exposes per-query `EXPLAIN WHY` replays via `/flightrecorder`, and shuts
//! down cleanly — the library-level twin of the CI serve-mode smoke job.

use csqp::serve::{ServeConfig, Server};
use csqp_obs::{FlightRecorder, Obs};
use csqp_relation::datagen;
use csqp_source::{CostParams, Source};
use csqp_ssdl::templates;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn connect(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect to serve");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.set_write_timeout(Some(Duration::from_secs(10))).unwrap();
    s
}

fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut s = connect(addr);
    write!(s, "GET {path} HTTP/1.0\r\nHost: smoke\r\n\r\n").unwrap();
    let mut buf = String::new();
    s.read_to_string(&mut buf).expect("read response");
    buf
}

fn line(addr: SocketAddr, cmd: &str) -> String {
    let mut s = connect(addr);
    writeln!(s, "{cmd}").unwrap();
    // The line protocol is pipelined (the server keeps reading commands),
    // so signal end-of-input before reading the reply to EOF.
    s.shutdown(std::net::Shutdown::Write).unwrap();
    let mut buf = String::new();
    s.read_to_string(&mut buf).expect("read reply");
    buf
}

/// Runs once over recording recorders — what `Server::bind_federation`
/// builds — and once over the off values, which pins what every endpoint
/// renders when the recorders hold nothing.
#[test]
fn serve_smoke() {
    serve_smoke_over(Obs::new(), FlightRecorder::new());
    serve_smoke_over(Obs::off(), FlightRecorder::off());
}

fn serve_smoke_over(obs: Obs, flight: FlightRecorder) {
    let source = Arc::new(Source::new(
        datagen::cars(3, 400),
        templates::car_dealer(),
        CostParams::default(),
    ));
    let obs_on = obs.enabled();
    let server = Server::bind_observed(vec![source], ServeConfig::default(), obs, flight)
        .expect("bind an ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let handle = std::thread::spawn(move || server.run());

    // Health while idle.
    let health = http_get(addr, "/healthz");
    assert!(health.starts_with("HTTP/1.1 200"), "{health}");
    assert!(health.ends_with("ok\n"), "{health}");

    // A query over HTTP (urlencoded condition).
    let q = http_get(
        addr,
        "/query?cond=make%20%3D%20%22BMW%22%20%5E%20price%20%3C%2040000&attrs=model,year",
    );
    assert!(q.starts_with("HTTP/1.1 200"), "{q}");
    assert!(q.contains("rows (est cost"), "{q}");

    // The same query over the line protocol, plus ping and why.
    assert_eq!(line(addr, "ping"), "pong\n");
    let lp = line(addr, "query model,year make = \"Toyota\" ^ price < 30000");
    assert!(lp.starts_with("OK\n"), "{lp}");
    let why = line(addr, "why");
    if obs_on {
        assert!(why.contains("EXPLAIN WHY"), "{why}");
        assert!(why.contains("winner (cost"), "{why}");
    } else {
        assert!(why.contains("flight recorder disabled"), "{why}");
    }

    // Rows stream incrementally with the summary as a trailer: the body is
    // row lines followed by the "N rows (est cost …)" line. The trailer
    // carries the capability-index decision (single-member federation: one
    // candidate of one member).
    let body = q.split("\r\n\r\n").nth(1).expect("response has a body");
    let lines: Vec<&str> = body.lines().collect();
    let trailer = lines.last().unwrap();
    assert!(trailer.contains("rows (est cost"), "summary is the trailer: {body}");
    assert!(trailer.contains("capindex 1/1 candidates"), "index decision in trailer: {trailer}");
    // Adaptive serve mode reports its splice count, the prepared-plan
    // cache decision, the tenant, and the live breakers in the trailer:
    // the ones not closed by name, the closed ones counted.
    assert!(trailer.contains(" replans, plan cache "), "adaptive trailer fields: {trailer}");
    assert!(trailer.contains(", tenant anon, breakers ["), "tenant in trailer: {trailer}");
    assert!(trailer.contains("breakers [1 closed]"), "live breaker state in trailer: {trailer}");
    let n: usize = trailer.split(' ').next().unwrap().parse().expect("row count leads the trailer");
    assert_eq!(lines.len() - 1, n, "one line per row plus the trailer: {body}");

    // limit=1 terminates the stream early: exactly one row plus the trailer,
    // and the trailer reports the limited count.
    let limited = http_get(
        addr,
        "/query?cond=make%20%3D%20%22BMW%22%20%5E%20price%20%3C%2040000&attrs=model,year&limit=1",
    );
    assert!(limited.starts_with("HTTP/1.1 200"), "{limited}");
    let body = limited.split("\r\n\r\n").nth(1).expect("limited response has a body");
    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(lines.len(), 2, "one row + one trailer: {body}");
    assert!(lines[1].starts_with("1 rows (est cost"), "{body}");

    // limit=0: no rows, just the trailer.
    let zero = http_get(
        addr,
        "/query?cond=make%20%3D%20%22BMW%22%20%5E%20price%20%3C%2040000&attrs=model,year&limit=0",
    );
    assert!(zero.starts_with("HTTP/1.1 200"), "{zero}");
    assert!(zero.contains("0 rows (est cost"), "{zero}");

    // A malformed limit is a 400, not a crash.
    let bad_limit = http_get(
        addr,
        "/query?cond=make%20%3D%20%22BMW%22%20%5E%20price%20%3C%2040000&attrs=model&limit=nope",
    );
    assert!(bad_limit.starts_with("HTTP/1.1 400"), "{bad_limit}");
    assert!(bad_limit.contains("limit must be"), "{bad_limit}");

    // A bad query is a 400, not a crash.
    let bad = http_get(addr, "/query?cond=make%20%3D&attrs=model");
    assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");

    // /metrics scrapes while the mediator is warm: Prometheus text with the
    // planner counters the acceptance criteria name and the serve-mode
    // wall-clock series.
    let metrics = http_get(addr, "/metrics");
    assert!(metrics.starts_with("HTTP/1.1 200"), "{metrics}");
    if obs_on {
        for series in [
            "csqp_planner_pruned_pr3",
            "csqp_planner_check_calls",
            "csqp_serve_queries_total",
            "csqp_serve_requests_total",
            "csqp_serve_latency_us_bucket",
            // Serve routes every query through the federation's compiled
            // capability index, so the scrape carries its counters too.
            "csqp_capindex_candidates_total",
            "csqp_capindex_pruned_total",
            "csqp_capindex_build_ticks_total",
            // Live per-member breaker health (closed=0 / half-open=1 /
            // open=2), refreshed on every scrape and rendered as one
            // labeled family.
            "csqp_breaker_state{member=\"car_dealer\"} 0.0",
        ] {
            assert!(metrics.contains(series), "{series} missing from scrape:\n{metrics}");
        }
        assert!(metrics.contains("# TYPE"), "{metrics}");

        // Flight recorder: index plus a per-query EXPLAIN WHY replay.
        let index = http_get(addr, "/flightrecorder");
        assert!(index.contains("recorded flights"), "{index}");
        let replay = http_get(addr, "/flightrecorder?query=0");
        assert!(replay.contains("EXPLAIN WHY — flight #0"), "{replay}");
        let missing = http_get(addr, "/flightrecorder?query=9999");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
    }

    // The query black box over HTTP: span tree, worst-N profile ring and
    // the slow-query log. Profiles are plain data, so the ring retains
    // queries even over off recorders; only the span tree and exemplars
    // need the tracer/registry.
    let spans = http_get(addr, "/spans");
    if obs_on {
        assert!(spans.contains("federation plan"), "serve queries open spans: {spans}");
        assert!(spans.contains("execute (adaptive)"), "execution spans render: {spans}");
    } else {
        assert!(spans.contains("no spans recorded"), "{spans}");
    }
    let profiles = http_get(addr, "/profile");
    assert!(profiles.contains("worst retained profiles"), "{profiles}");
    let profile = http_get(addr, "/profile/0");
    assert!(profile.starts_with("HTTP/1.1 200"), "{profile}");
    assert!(profile.contains("application/json"), "profiles serve as JSON: {profile}");
    for key in ["\"id\"", "\"latency\"", "\"breakers\"", "\"spans\"", "\"metrics\""] {
        assert!(profile.contains(key), "{key} missing from profile:\n{profile}");
    }
    let missing = http_get(addr, "/profile/9999");
    assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
    // Demo queries stay under the default slow threshold: the log is
    // reachable and empty.
    let slowlog = http_get(addr, "/slowlog");
    assert!(slowlog.starts_with("HTTP/1.1 200"), "{slowlog}");
    assert!(slowlog.contains("no queries slower than"), "{slowlog}");
    // `?exemplars=1` upgrades latency buckets with query-id exemplars that
    // link straight back to `/profile/<id>`.
    if obs_on {
        let ex = http_get(addr, "/metrics?exemplars=1");
        assert!(ex.contains("query_id="), "exemplar suffix present:\n{ex}");
    }

    // The fleet view: /status scores every member from windowed telemetry
    // (schema-stable — off recorders just yield empty signals), and
    // /timeseries exposes the windowed deltas of one metric as JSON.
    let status = http_get(addr, "/status");
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    assert!(status.contains("csqp serve status"), "{status}");
    assert!(status.contains("slo: latency objective"), "{status}");
    assert!(status.contains("car_dealer"), "every member appears on the scoreboard: {status}");
    let status_json = http_get(addr, "/status?format=json");
    assert!(status_json.contains("application/json"), "{status_json}");
    for key in ["\"slo\"", "\"sources\"", "\"member\"", "\"score\"", "\"grade\""] {
        assert!(status_json.contains(key), "{key} missing from /status json:\n{status_json}");
    }
    let ts = http_get(addr, "/timeseries?metric=serve.queries");
    assert!(ts.starts_with("HTTP/1.1 200"), "{ts}");
    assert!(ts.contains("\"metric\": \"serve.queries\""), "{ts}");
    assert!(ts.contains("\"windows\""), "{ts}");
    let ts_missing = http_get(addr, "/timeseries");
    assert!(ts_missing.starts_with("HTTP/1.1 400"), "metric param is required: {ts_missing}");

    // Unknown routes 404; unknown line commands error without killing the
    // server.
    assert!(http_get(addr, "/nope").starts_with("HTTP/1.1 404"));
    assert!(line(addr, "frobnicate").starts_with("ERR"));

    // Still healthy after the error traffic, then a clean shutdown.
    assert!(http_get(addr, "/healthz").ends_with("ok\n"));
    let bye = http_get(addr, "/shutdown");
    assert!(bye.contains("shutting down"), "{bye}");
    handle.join().expect("server thread").expect("accept loop exits cleanly");
}

/// Federated serve: two members behind one listener. The compiled
/// capability index prunes the member that cannot export the projection
/// before any planning happens, and the trailer reports the decision.
#[test]
fn serve_federation_routes_and_prunes() {
    let dealer = Arc::new(Source::new(
        datagen::cars(3, 400),
        templates::car_dealer(),
        CostParams::default(),
    ));
    // Exports only make/color: pruned by the index (rule 1) for any query
    // projecting model/year.
    let colors = Arc::new(Source::new(
        datagen::cars(3, 400),
        csqp_ssdl::parse_ssdl(
            "source colors {\n  s1 -> color = $str ;\n  attributes :: s1 : { make, color } ;\n}",
        )
        .expect("colors SSDL parses"),
        CostParams::default(),
    ));
    let server = Server::bind_federation(vec![dealer, colors], ServeConfig::default())
        .expect("bind an ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let handle = std::thread::spawn(move || server.run());

    let q = http_get(
        addr,
        "/query?cond=make%20%3D%20%22BMW%22%20%5E%20price%20%3C%2040000&attrs=model,year",
    );
    assert!(q.starts_with("HTTP/1.1 200"), "{q}");
    assert!(q.contains("rows (est cost"), "{q}");
    assert!(q.contains("capindex 1/2 candidates"), "colors member is index-pruned: {q}");
    // No drift on the demo data: the adaptive path serves without a splice,
    // and both members' breakers count as closed.
    assert!(q.contains("0 replans"), "{q}");
    assert!(q.contains("breakers [2 closed]"), "{q}");
    let metrics = http_get(addr, "/metrics");
    assert!(metrics.contains("csqp_breaker_state{member=\"colors\"} 0.0"), "{metrics}");
    // One HELP/TYPE block covers both members of the labeled family.
    assert_eq!(metrics.matches("# TYPE csqp_breaker_state gauge").count(), 1, "{metrics}");

    let bye = http_get(addr, "/shutdown");
    assert!(bye.contains("shutting down"), "{bye}");
    handle.join().expect("server thread").expect("accept loop exits cleanly");
}

/// Sends `head` followed by 64 KiB without a newline, then reads whatever
/// the server answers before it closes the connection.
fn send_unterminated(addr: SocketAddr, head: &str) -> String {
    let mut s = connect(addr);
    let mut request = head.as_bytes().to_vec();
    request.resize(request.len() + 64 * 1024, b'a');
    // The server stops reading at its line cap and may close before the
    // whole request has left: a failed write here is expected.
    let _ = s.write_all(&request);
    let mut reply = Vec::new();
    let mut chunk = [0u8; 4096];
    // The close can arrive as a reset once the reply is in: keep what came.
    while let Ok(n @ 1..) = s.read(&mut chunk) {
        reply.extend_from_slice(&chunk[..n]);
    }
    String::from_utf8(reply).expect("utf-8 reply")
}

/// A peer that never sends a newline cannot grow the server's read
/// buffer: past 8 KiB an HTTP request line answers 414, a header line 431,
/// and a line-protocol command `ERR line too long`, each closing the
/// connection. A fresh connection is served as before.
#[test]
fn serve_caps_line_length() {
    let source = Arc::new(Source::new(
        datagen::cars(3, 400),
        templates::car_dealer(),
        CostParams::default(),
    ));
    let server = Server::bind_federation(vec![source], ServeConfig::default())
        .expect("bind an ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let handle = std::thread::spawn(move || server.run());

    let uri = send_unterminated(addr, "GET /");
    assert!(uri.starts_with("HTTP/1.1 414 URI Too Long\r\n"), "{uri}");
    assert!(uri.contains("Connection: close"), "{uri}");
    let header = send_unterminated(addr, "GET /status HTTP/1.1\r\nX-Long: ");
    assert!(header.starts_with("HTTP/1.1 431 Request Header Fields Too Large\r\n"), "{header}");
    assert_eq!(send_unterminated(addr, "query "), "ERR line too long\n");

    let status = http_get(addr, "/status");
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");

    let bye = http_get(addr, "/shutdown");
    assert!(bye.contains("shutting down"), "{bye}");
    handle.join().expect("server thread").expect("accept loop exits cleanly");
}

/// `adaptive: false` serves the plain pipeline — the same engine on the
/// same schedule, minus the controller. With no drift to splice on, both
/// settings must stream the same rows in the same order and charge the
/// sources the same.
#[test]
fn serve_plain_matches_adaptive() {
    // A single-leaf plan, a two-leaf union, and the union cut short.
    const QUERIES: [&str; 3] = [
        "/query?cond=make%20%3D%20%22BMW%22%20%5E%20price%20%3C%2040000&attrs=model,year",
        "/query?cond=%28make%20%3D%20%22BMW%22%20_%20make%20%3D%20%22Toyota%22%29%20%5E%20\
         price%20%3C%2040000&attrs=model,year",
        "/query?cond=%28make%20%3D%20%22BMW%22%20_%20make%20%3D%20%22Toyota%22%29%20%5E%20\
         price%20%3C%2040000&attrs=model,year&limit=3",
    ];
    // Per query: the row lines in order, then the trailer's
    // "measured cost X, N source queries" span.
    let answers = |adaptive: bool| -> Vec<(Vec<String>, String)> {
        let source = Arc::new(Source::new(
            datagen::cars(3, 400),
            templates::car_dealer(),
            CostParams::default(),
        ));
        let cfg = ServeConfig { adaptive, ..ServeConfig::default() };
        let server = Server::bind_federation(vec![source], cfg).expect("bind an ephemeral port");
        let addr = server.local_addr().expect("bound address");
        let handle = std::thread::spawn(move || server.run());
        let out = QUERIES
            .iter()
            .map(|path| {
                let reply = http_get(addr, path);
                assert!(reply.starts_with("HTTP/1.1 200"), "adaptive={adaptive}: {reply}");
                let body = reply.split("\r\n\r\n").nth(1).expect("response has a body");
                let mut lines: Vec<String> = body.lines().map(str::to_string).collect();
                let trailer = lines.pop().expect("a trailer line");
                let from = trailer.find("measured cost").expect("trailer carries the cost");
                let to = trailer.find("source queries").expect("trailer carries the queries");
                (lines, trailer[from..to].to_string())
            })
            .collect();
        assert!(http_get(addr, "/shutdown").contains("shutting down"));
        handle.join().expect("server thread").expect("accept loop exits cleanly");
        out
    };
    let (adaptive, plain) = (answers(true), answers(false));
    assert_eq!(plain, adaptive);
    assert!(plain[1].1.contains(", 2 "), "the union runs two source queries: {:?}", plain[1].1);
    assert_eq!(plain[2].0.len(), 3, "limit=3 returns three rows");
}

/// Concurrent hammer: several clients interleave `/query`, `/metrics`,
/// `/status`, and `/timeseries` traffic against one server with the audit
/// journal armed and a tight window size, so windows roll mid-storm.
/// Afterwards the telemetry must be coherent: every health score in
/// [0, 100], windowed deltas parse as non-negative integers, and the
/// journal replays with zero torn or corrupt lines.
#[test]
fn serve_hammer_keeps_telemetry_coherent() {
    let dir = std::env::temp_dir();
    let journal = dir.join(format!("csqp-serve-hammer-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&journal);
    let dealer = Arc::new(Source::new(
        datagen::cars(3, 400),
        templates::car_dealer(),
        CostParams::default(),
    ));
    let cfg = ServeConfig {
        journal_path: Some(journal.to_str().unwrap().to_string()),
        window_queries: 2,
        ..ServeConfig::default()
    };
    let server = Server::bind_federation(vec![dealer], cfg).expect("bind an ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let handle = std::thread::spawn(move || server.run());

    let paths = [
        "/query?cond=make%20%3D%20%22BMW%22%20%5E%20price%20%3C%2040000&attrs=model,year",
        "/metrics",
        "/status",
        "/timeseries?metric=serve.queries",
        "/query?cond=make%20%3D%20%22Toyota%22%20%5E%20price%20%3C%2030000&attrs=model,year",
        "/status?format=json",
    ];
    let mut clients = Vec::new();
    for t in 0..4usize {
        let handle = std::thread::spawn(move || {
            let mut queries = 0u64;
            for round in 0..6usize {
                let path = paths[(t + round) % paths.len()];
                let resp = http_get(addr, path);
                assert!(resp.starts_with("HTTP/1.1 200"), "hammer {t}/{round} {path}: {resp}");
                queries += u64::from(path.starts_with("/query"));
            }
            queries
        });
        clients.push(handle);
    }
    let queries_sent: u64 = clients.into_iter().map(|c| c.join().expect("client thread")).sum();
    assert!(queries_sent > 0, "the mix must include queries");

    // Scores stay in [0, 100] under interleaved load.
    let status_json = http_get(addr, "/status?format=json");
    let mut scores = 0usize;
    for part in status_json.split("\"score\": ").skip(1) {
        let score: f64 = part
            .split(',')
            .next()
            .unwrap()
            .trim()
            .parse()
            .unwrap_or_else(|e| panic!("score parses ({e}): {status_json}"));
        assert!((0.0..=100.0).contains(&score), "score out of range: {status_json}");
        scores += 1;
    }
    assert!(scores > 0, "scoreboard renders every member: {status_json}");

    // Windowed deltas are non-negative integers that sum to at most the
    // queries sent (the live window holds the remainder).
    let ts = http_get(addr, "/timeseries?metric=serve.queries");
    let mut windowed = 0u64;
    for part in ts.split("\"value\": ").skip(1) {
        let raw = part.split([',', '\n', '}']).next().unwrap().trim();
        if raw == "null" {
            continue;
        }
        windowed += raw.parse::<u64>().unwrap_or_else(|e| panic!("delta parses ({e}): {ts}"));
    }
    assert!(windowed <= queries_sent, "windows cannot hold more than was sent: {ts}");

    let bye = http_get(addr, "/shutdown");
    assert!(bye.contains("shutting down"), "{bye}");
    handle.join().expect("server thread").expect("accept loop exits cleanly");

    // The journal replays cleanly: one record per served query, no torn
    // lines, every record status "ok".
    let (records, errors) = csqp_obs::audit::read_journal(&journal).expect("journal readable");
    assert!(errors.is_empty(), "torn/corrupt journal lines: {errors:?}");
    assert_eq!(records.len() as u64, queries_sent, "one audit record per served query");
    assert!(records.iter().all(|r| r.status == "ok"), "{records:?}");
    let _ = std::fs::remove_file(&journal);
}

/// The CLI twin of the serve-mode `limit=` coverage: `--run --limit N`
/// streams the execution and stops after N answer rows.
#[test]
fn cli_limit_flag() {
    let dir = std::env::temp_dir().join(format!("csqp-cli-limit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ssdl = dir.join("dealer.ssdl");
    let csv = dir.join("cars.csv");
    std::fs::write(
        &ssdl,
        "source dealer {\n  s1 -> make = $str ^ price <= $int ;\n  \
         attributes :: s1 : { make, model, year, price } ;\n}\n",
    )
    .unwrap();
    std::fs::write(
        &csv,
        "vin,make,model,year,price\n\
         1,BMW,330i,2020,39000\n\
         2,BMW,X5,2021,61000\n\
         3,Toyota,Camry,2019,24000\n\
         4,BMW,320i,2018,28000\n",
    )
    .unwrap();
    let run = |extra: &[&str]| {
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_csqp"));
        cmd.args([
            "--ssdl",
            ssdl.to_str().unwrap(),
            "--csv",
            csv.to_str().unwrap(),
            "--key",
            "vin",
            "--query",
            "make = \"BMW\" ^ price <= 40000",
            "--attrs",
            "model,year",
            "--run",
        ]);
        cmd.args(extra);
        cmd.output().expect("run csqp binary")
    };

    let full = run(&[]);
    assert!(full.status.success(), "{}", String::from_utf8_lossy(&full.stderr));
    let full_stdout = String::from_utf8_lossy(&full.stdout).into_owned();
    assert!(full_stdout.contains("2 rows ("), "both matching cars print:\n{full_stdout}");

    let limited = run(&["--limit", "1"]);
    assert!(limited.status.success(), "{}", String::from_utf8_lossy(&limited.stderr));
    let limited_stdout = String::from_utf8_lossy(&limited.stdout).into_owned();
    assert!(
        limited_stdout.contains("1 rows ("),
        "the stream stops at the limit:\n{limited_stdout}"
    );

    // --limit with --explain renders EXPLAIN ANALYZE with the streaming
    // memory footer.
    let analyzed = run(&["--limit", "1", "--explain"]);
    assert!(analyzed.status.success(), "{}", String::from_utf8_lossy(&analyzed.stderr));
    let analyzed_stdout = String::from_utf8_lossy(&analyzed.stdout).into_owned();
    assert!(analyzed_stdout.contains("peak resident"), "{analyzed_stdout}");

    // --limit without --run is a usage error.
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_csqp"));
    cmd.args([
        "--ssdl",
        ssdl.to_str().unwrap(),
        "--csv",
        csv.to_str().unwrap(),
        "--query",
        "make = \"BMW\"",
        "--attrs",
        "model",
        "--limit",
        "1",
    ]);
    let out = cmd.output().expect("run csqp binary");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--limit only applies with --run"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let _ = std::fs::remove_dir_all(&dir);
}
