//! E20: the multi-tenant serve front door under load — a socket-level
//! load generator drives ≥10k real TCP connections at an in-process
//! federation server and compares two architectures on the same
//! repeat-query corpus (shapes repeat, constants rotate):
//!
//! - **baseline_single_thread** — one worker, prepared-plan cache off:
//!   every request is planned cold and served serially, the seed's
//!   architecture.
//! - **worker_pool_cached** — the worker-pool accept loop plus the
//!   federation-wide prepared-plan cache: repeat shapes rebind constants
//!   and skip the planner fan-out entirely.
//!
//! Both legs execute identical queries against identical members (the
//! differential suite pins answer parity), so the throughput ratio
//! isolates what the front door buys. The bench prints both legs, then
//! asserts the front-door floors: the pooled leg served at least 10k
//! connections at ≥ 5× the baseline's throughput, hit the plan cache on
//! ≥ 90% of the repeat corpus, and kept its p99 within 500 ms (generous
//! against shared-runner noise; locally it is ~10 ms). A breach exits
//! non-zero.
//!
//! Run with `cargo bench -p csqp --bench e20_serve` (the generator lives
//! in this crate because `csqp-bench` is a dependency of `csqp`'s dev
//! tree, so the reverse edge would cycle).

use csqp::serve::{ServeConfig, Server};
use csqp_relation::datagen;
use csqp_source::{CostParams, Source};
use csqp_ssdl::parse_ssdl;
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Connections driven at the worker-pool leg (the acceptance floor is
/// 10k) and at the serial baseline (enough for stable percentiles without
/// multiplying the serial leg's wall-clock).
const POOLED_CONNECTIONS: usize = 10_000;
const BASELINE_CONNECTIONS: usize = 2_000;
const CLIENT_THREADS: usize = 8;

const MAKES: &[&str] = &["Toyota", "BMW", "Honda", "Ford", "Mercedes", "Chevrolet"];
const COLORS: &[&str] = &["red", "black", "blue", "white", "silver", "green"];

/// An eight-member federation: planning cold fans the capability check +
/// cost ranking out over every member, which is exactly the work a
/// prepared-plan hit skips.
fn members() -> Vec<Arc<Source>> {
    (0..8)
        .map(|i| {
            let desc = parse_ssdl(&format!(
                "source dealer_{i} {{\n  s1 -> make = $str ^ price < $int ;\n  \
                 s2 -> make = $str ^ color = $str ;\n  \
                 attributes :: s1 : {{ make, model, year, color }} ;\n  \
                 attributes :: s2 : {{ make, model, year }} ;\n}}"
            ))
            .expect("dealer SSDL parses");
            Arc::new(Source::new(
                datagen::cars(3 + i, 400),
                desc,
                CostParams::new(10.0 + i as f64, 1.0),
            ))
        })
        .collect()
}

/// Percent-encodes a condition for the `cond=` query param.
fn urlencode(s: &str) -> String {
    let mut out = String::with_capacity(s.len() * 3);
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => {
                let _ = write!(out, "%{b:02X}");
            }
        }
    }
    out
}

/// The repeat-query corpus: request `i` maps to one of eight condition
/// *shapes* with rotating constants, so a shape-keyed cache converges to
/// ~100% hits while the constants (and answers) keep changing. Union
/// shapes draw distinct constants per slot so prepare-time atoms never
/// alias.
fn request_path(i: usize) -> String {
    let m = MAKES[i % MAKES.len()];
    let m2 = MAKES[(i + 1) % MAKES.len()];
    let c = COLORS[i % COLORS.len()];
    let c2 = COLORS[(i + 2) % COLORS.len()];
    let p = 10_000 + (i * 37) % 50_000;
    let p2 = 12_000 + (i * 53) % 40_000;
    let (cond, attrs) = match i % 8 {
        0 => (format!("make = \"{m}\" ^ price < {p}"), "model,year"),
        1 => (format!("make = \"{m}\" ^ color = \"{c}\""), "model,year"),
        2 => (
            format!("(make = \"{m}\" ^ price < {p}) _ (make = \"{m2}\" ^ color = \"{c}\")"),
            "model,year",
        ),
        3 => (
            format!("(make = \"{m}\" ^ price < {p}) _ (make = \"{m2}\" ^ color = \"{c}\")"),
            "model",
        ),
        4 => (
            format!("(make = \"{m}\" ^ price < {p}) _ (make = \"{m2}\" ^ price < {p2})"),
            "model,year",
        ),
        5 => (
            format!("(make = \"{m}\" ^ color = \"{c}\") _ (make = \"{m2}\" ^ color = \"{c2}\")"),
            "model,year",
        ),
        6 => (format!("make = \"{m}\" ^ price < {p}"), "model"),
        _ => (format!("make = \"{m}\" ^ color = \"{c}\""), "model"),
    };
    format!("/query?cond={}&attrs={attrs}&limit=10", urlencode(&cond))
}

/// One connection: connect, one HTTP/1.0 query, read to EOF. Returns the
/// request latency in microseconds.
fn drive_one(addr: SocketAddr, path: &str) -> u64 {
    let started = Instant::now();
    let mut s = connect(addr);
    write!(s, "GET {path} HTTP/1.0\r\nHost: bench\r\n\r\n").expect("write request");
    let mut buf = String::new();
    s.read_to_string(&mut buf).expect("read response");
    assert!(buf.starts_with("HTTP/1.1 200"), "load request failed: {buf}");
    started.elapsed().as_micros() as u64
}

fn connect(addr: SocketAddr) -> TcpStream {
    // The OS may transiently refuse under connect storms; retry briefly
    // rather than aborting a 10k-connection run.
    for attempt in 0..50 {
        match TcpStream::connect(addr) {
            Ok(s) => {
                s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
                s.set_write_timeout(Some(Duration::from_secs(30))).unwrap();
                return s;
            }
            Err(_) if attempt < 49 => std::thread::sleep(Duration::from_millis(2)),
            Err(e) => panic!("connect to bench server: {e}"),
        }
    }
    unreachable!()
}

struct LegResult {
    connections: usize,
    elapsed: Duration,
    latencies_us: Vec<u64>,
    hit_rate: f64,
}

impl LegResult {
    fn qps(&self) -> f64 {
        self.connections as f64 / self.elapsed.as_secs_f64()
    }

    fn percentile(&self, q: f64) -> u64 {
        let idx = ((self.latencies_us.len() - 1) as f64 * q).round() as usize;
        self.latencies_us[idx]
    }
}

/// Boots a server under `cfg`, drives `connections` at it from
/// [`CLIENT_THREADS`] client threads, shuts it down, and returns the
/// merged latency distribution plus the plan-cache hit rate.
fn run_leg(cfg: ServeConfig, connections: usize) -> LegResult {
    let server = Server::bind_federation(members(), cfg).expect("bind bench server");
    let addr = server.local_addr().expect("bound address");
    let cache = server.plan_cache().clone();
    let handle = std::thread::spawn(move || server.run());

    // Warm-up outside the clock: first touch of each corpus shape (and
    // the lazy per-member state) is not what either leg is measuring.
    for i in 0..8 {
        drive_one(addr, &request_path(i));
    }

    let started = Instant::now();
    let mut latencies_us: Vec<u64> = Vec::with_capacity(connections);
    std::thread::scope(|scope| {
        let mut parts = Vec::new();
        for t in 0..CLIENT_THREADS {
            let lo = connections * t / CLIENT_THREADS;
            let hi = connections * (t + 1) / CLIENT_THREADS;
            parts.push(scope.spawn(move || {
                (lo..hi).map(|i| drive_one(addr, &request_path(i))).collect::<Vec<u64>>()
            }));
        }
        for part in parts {
            latencies_us.extend(part.join().expect("client thread"));
        }
    });
    let elapsed = started.elapsed();

    let mut s = connect(addr);
    write!(s, "GET /shutdown HTTP/1.0\r\nHost: bench\r\n\r\n").expect("write shutdown");
    let mut bye = String::new();
    s.read_to_string(&mut bye).expect("read shutdown");
    handle.join().expect("server thread").expect("clean shutdown");

    let stats = cache.stats();
    let probes = stats.hits + stats.misses + stats.rejected;
    let hit_rate = if probes == 0 { 0.0 } else { stats.hits as f64 / probes as f64 };
    latencies_us.sort_unstable();
    LegResult { connections, elapsed, latencies_us, hit_rate }
}

fn main() {
    let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).clamp(2, 8);

    println!(
        "e20_serve: single-threaded cold-plan baseline, {BASELINE_CONNECTIONS} connections \
         x {CLIENT_THREADS} clients"
    );
    let baseline = run_leg(
        ServeConfig { workers: 1, plan_cache_capacity: 0, ..ServeConfig::default() },
        BASELINE_CONNECTIONS,
    );
    println!(
        "  {:.0} q/s, p50 {} us, p99 {} us",
        baseline.qps(),
        baseline.percentile(0.5),
        baseline.percentile(0.99)
    );

    println!(
        "e20_serve: {workers}-worker pool + plan cache, {POOLED_CONNECTIONS} connections \
         x {CLIENT_THREADS} clients"
    );
    let pooled = run_leg(
        ServeConfig { workers, plan_cache_capacity: 256, ..ServeConfig::default() },
        POOLED_CONNECTIONS,
    );
    println!(
        "  {:.0} q/s, p50 {} us, p99 {} us, plan-cache hit rate {:.3}",
        pooled.qps(),
        pooled.percentile(0.5),
        pooled.percentile(0.99),
        pooled.hit_rate
    );
    let speedup = pooled.qps() / baseline.qps();
    println!("  throughput speedup over single-threaded baseline: {speedup:.2}x");

    let p99_us = pooled.percentile(0.99);
    assert!(
        pooled.connections >= 10_000,
        "load floor broken ({} connections < 10k)",
        pooled.connections
    );
    assert!(speedup >= 5.0, "front-door throughput floor broken ({speedup:.2}x < 5x)");
    assert!(
        pooled.hit_rate >= 0.90,
        "plan-cache hit-rate floor broken ({:.3} < 0.90)",
        pooled.hit_rate
    );
    assert!(p99_us <= 500_000, "pooled p99 out of bounds ({p99_us} us > 500 ms)");
}
