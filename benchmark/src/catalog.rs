//! The metric catalogue: every name the benchmark reports, with its unit,
//! its direction, and — for end-to-end metrics — the bound by which its
//! median may worsen before a change counts as a regression. `BENCHMARK.json`
//! at the repository root is generated from these tables (`manifest`
//! subcommand) and a test keeps the two in step.

use crate::json::Json;
use crate::workloads::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// By what share of `base` is `new` worse (negative when better)?
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        if base == 0.0 {
            return 0.0;
        }
        match self {
            Better::Higher => (base - new) / base.abs(),
            Better::Lower => (new - base) / base.abs(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub what: &'static str,
}

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload this number should move.
    pub moves: &'static str,
    pub what: &'static str,
}

use Better::{Higher, Lower};

/// How long one measured run is when the pipeline drives it
/// (`--seconds`), and how many rounds that time is cut into.
pub const RUN_SECONDS: u64 = 20;

/// Each bound is the widest ten-run spread measured for the metric on any
/// workload of the reference box (interquartile range over median, as the
/// pipeline takes it; README, "Bounds"), plus a quarter, rounded up to a
/// multiple of 0.05 and capped at the 0.25 the pipeline accepts.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd { name: "qps", unit: "req/s", better: Higher, bound: 0.25,
        what: "verified responses per second of round time (the offered rate on mixed_open while the server keeps up); best round" },
    EndToEnd { name: "latency_p50_us", unit: "us", better: Lower, bound: 0.25,
        what: "connect to last byte (from due time on mixed_open), p50 of a round; best round" },
    EndToEnd { name: "ttfr_p50_us", unit: "us", better: Lower, bound: 0.25,
        what: "same start to first body byte after the header (time to first row), p50 of a round; best round" },
    EndToEnd { name: "rows_per_s", unit: "rows/s", better: Higher, bound: 0.25,
        what: "verified answer rows delivered per second of round time; best round" },
    EndToEnd { name: "server_cpu_us_per_req", unit: "us", better: Lower, bound: 0.25,
        what: "process CPU minus the generator threads' CPU over the round, per verified response; best round" },
    EndToEnd { name: "source_cost_per_query", unit: "cost", better: Lower, bound: 0.05,
        what: "the paper's objective: sum of k1 + k2 x tuples shipped at each member's constants, over the serial warm-up pass, per request" },
    EndToEnd { name: "rss_mb", unit: "MB", better: Lower, bound: 0.15,
        what: "resident memory the set-up and the warm-up pass added" },
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25,
        what: "build members, bind the federation server, first 200 from /healthz, first query answered and verified; median of repeated set-ups" },
];

pub const PER_LAYER: &[PerLayer] = &[
    // expr
    PerLayer { name: "expr.parse_us", unit: "us", better: Lower, moves: "latency_p50_us on serve_hot",
        what: "TargetQuery::parse per corpus query" },
    PerLayer { name: "expr.lift_us", unit: "us", better: Lower, moves: "latency_p50_us on serve_hot",
        what: "PlanCache::key: param-lift + shape fingerprint" },
    // ssdl
    PerLayer { name: "ssdl.check_us", unit: "us", better: Lower, moves: "latency_p50_us, server_cpu_us_per_req on plan_cold",
        what: "one uncached Check of the query condition against the winner's planning view" },
    PerLayer { name: "ssdl.check_calls_per_query", unit: "count", better: Lower, moves: "server_cpu_us_per_req on plan_cold",
        what: "planner.check_calls per cold federation plan" },
    PerLayer { name: "ssdl.check_cache_hit_ratio", unit: "ratio", better: Higher, moves: "server_cpu_us_per_req on plan_cold",
        what: "check-cache hits / (hits + misses) over cold federation plans" },
    PerLayer { name: "ssdl.compile_us", unit: "us", better: Lower, moves: "setup_s on plan_cold",
        what: "parse_ssdl + CompiledSource::new per member description" },
    // core.capindex
    PerLayer { name: "core.capindex.select_us", unit: "us", better: Lower, moves: "latency_p50_us on plan_cold",
        what: "CapabilityIndex::candidates per query" },
    PerLayer { name: "core.capindex.candidates_avg", unit: "count", better: Lower, moves: "latency_p50_us on plan_cold",
        what: "members left to plan after index selection" },
    PerLayer { name: "core.capindex.pruned_ratio", unit: "ratio", better: Higher, moves: "latency_p50_us on plan_cold",
        what: "members pruned / members" },
    PerLayer { name: "core.capindex.build_ms", unit: "ms", better: Lower, moves: "setup_s on plan_cold",
        what: "CapabilityIndex::build over fresh members (facts compiled cold)" },
    PerLayer { name: "core.capindex.build_10k_over_1k", unit: "ratio", better: Lower, moves: "setup_s on plan_cold",
        what: "index build time at 10k fedcorpus members / at 1k (linear = 10)" },
    // core.plancache
    PerLayer { name: "core.plancache.lookup_us", unit: "us", better: Lower, moves: "qps on serve_hot",
        what: "PlanCache::lookup on a hit, rebind included" },
    PerLayer { name: "core.plancache.insert_us", unit: "us", better: Lower, moves: "latency_p50_us on mixed_open",
        what: "PlanCache::insert, with the eviction scan once the cache is full" },
    PerLayer { name: "core.plancache.hit_ratio", unit: "ratio", better: Higher, moves: "qps on serve_hot",
        what: "served hits / probes over the untraced rounds" },
    PerLayer { name: "core.plancache.rejected_ratio", unit: "ratio", better: Lower, moves: "qps on serve_hot",
        what: "served probes whose entry failed to rebind / probes" },
    PerLayer { name: "core.plancache.evictions_per_kreq", unit: "count", better: Lower, moves: "latency_p50_us on mixed_open",
        what: "entries displaced by capacity per 1000 served requests" },
    // core.federation
    PerLayer { name: "core.federation.prepare_hit_us", unit: "us", better: Lower, moves: "latency_p50_us on serve_hot",
        what: "Federation::prepare answered from the cache" },
    PerLayer { name: "core.federation.prepare_miss_us", unit: "us", better: Lower, moves: "qps, latency_p50_us on plan_cold",
        what: "Federation::prepare that plans cold and inserts" },
    PerLayer { name: "core.federation.plan_us", unit: "us", better: Lower, moves: "qps, latency_p50_us on plan_cold",
        what: "Federation::plan, index on, no cache" },
    PerLayer { name: "core.federation.plan_10k_over_1k", unit: "ratio", better: Lower, moves: "latency_p50_us on plan_cold",
        what: "cold Federation::plan at 10k fedcorpus members / at 1k (ROADMAP target <= 2)" },
    // core.mediator
    PerLayer { name: "core.mediator.plan_us", unit: "us", better: Lower, moves: "server_cpu_us_per_req on plan_cold",
        what: "Mediator::plan on the winning member alone" },
    PerLayer { name: "core.mediator.ipg_calls_per_query", unit: "count", better: Lower, moves: "server_cpu_us_per_req on plan_cold",
        what: "plan generator invocations per winner plan (exact)" },
    PerLayer { name: "core.mediator.mcsc_covers_per_query", unit: "count", better: Lower, moves: "server_cpu_us_per_req on plan_cold",
        what: "MCSC covers examined per winner plan (exact)" },
    // plan
    PerLayer { name: "plan.exec_us", unit: "us", better: Lower, moves: "latency_p50_us on stream_big",
        what: "run_adaptive_each_planned with a counting sink, per query" },
    PerLayer { name: "plan.exec_rows_per_s", unit: "rows/s", better: Higher, moves: "rows_per_s on stream_big",
        what: "rows out of the adaptive pipeline per second, no rendering" },
    PerLayer { name: "plan.batches_per_query", unit: "count", better: Lower, moves: "latency_p50_us on stream_big",
        what: "StreamStats.batches per query" },
    PerLayer { name: "plan.adaptive_over_plain", unit: "ratio", better: Lower, moves: "rows_per_s on stream_big",
        what: "run_adaptive_each_planned wall / run_streamed_each_planned wall on the same prepared plans" },
    PerLayer { name: "plan.rows_per_s_2k", unit: "rows/s", better: Higher, moves: "rows_per_s on stream_big",
        what: "adaptive pipeline rate on a 2k-row answer" },
    PerLayer { name: "plan.rows_per_s_20k", unit: "rows/s", better: Higher, moves: "rows_per_s on stream_big",
        what: "adaptive pipeline rate on a 20k-row answer" },
    PerLayer { name: "plan.rows_per_s_80k", unit: "rows/s", better: Higher, moves: "rows_per_s on stream_big",
        what: "adaptive pipeline rate on an 80k-row answer" },
    PerLayer { name: "plan.peak_resident_tuples", unit: "count", better: Lower, moves: "rss_mb on stream_big",
        what: "largest StreamStats.peak_resident_tuples over the corpus" },
    // source
    PerLayer { name: "source.scan_rows_per_s", unit: "rows/s", better: Higher, moves: "rows_per_s on stream_big",
        what: "tuples drained from Source::answer_stream over the winner plans' source queries" },
    PerLayer { name: "source.new_us", unit: "us", better: Lower, moves: "setup_s on plan_cold",
        what: "Source::new per member (closure, statistics)" },
    PerLayer { name: "source.queries_per_query", unit: "count", better: Lower, moves: "source_cost_per_query everywhere",
        what: "source queries sent per request over the warm-up pass (exact)" },
    PerLayer { name: "source.tuples_shipped_per_row", unit: "ratio", better: Lower, moves: "source_cost_per_query everywhere",
        what: "tuples shipped / rows returned over the warm-up pass: wasted transfer (exact)" },
    // relation
    PerLayer { name: "relation.dedup_rows_per_s", unit: "rows/s", better: Higher, moves: "rows_per_s, server_cpu_us_per_req on stream_big",
        what: "DedupSketch::insert over the answers' tuples" },
    PerLayer { name: "relation.select_rows_per_s", unit: "rows/s", better: Higher, moves: "rows_per_s on stream_big",
        what: "select_batch of the query condition over the relation's batches" },
    PerLayer { name: "relation.render_rows_per_s", unit: "rows/s", better: Higher, moves: "rows_per_s, server_cpu_us_per_req on stream_big",
        what: "Row Display into a chunk buffer, as the serve sink does" },
    // obs
    PerLayer { name: "obs.snapshot_diff_us", unit: "us", better: Lower, moves: "latency_p50_us on plan_cold and serve_hot",
        what: "two MetricsRegistry::snapshot + diff on the served registry: what every served query pays" },
    PerLayer { name: "obs.registry_series", unit: "count", better: Lower, moves: "latency_p50_us on plan_cold",
        what: "counters + gauges + histograms in the served registry after the rounds" },
    PerLayer { name: "obs.spans_per_query", unit: "count", better: Lower, moves: "server_cpu_us_per_req on plan_cold",
        what: "tracer spans recorded per replayed query" },
    PerLayer { name: "obs.events_per_query", unit: "count", better: Lower, moves: "server_cpu_us_per_req on plan_cold",
        what: "flight-recorder events per replayed query" },
    PerLayer { name: "obs.scrape_metrics_us", unit: "us", better: Lower, moves: "latency_p50_us on mixed_open",
        what: "GET /metrics over the socket" },
    PerLayer { name: "obs.scrape_status_us", unit: "us", better: Lower, moves: "latency_p50_us on mixed_open",
        what: "GET /status over the socket" },
    // serve
    PerLayer { name: "serve.connect_us", unit: "us", better: Lower, moves: "latency_p50_us on serve_hot",
        what: "TCP connect, mean over the untraced rounds" },
    PerLayer { name: "serve.ping_us", unit: "us", better: Lower, moves: "latency_p50_us on serve_hot",
        what: "line-protocol ping on a kept-alive connection: the front door with no query" },
    PerLayer { name: "serve.residual_us", unit: "us", better: Lower, moves: "qps, latency_p50_us on serve_hot",
        what: "socket p50 minus in-process replay p50: accept, hand-off, HTTP, writes" },
    PerLayer { name: "serve.latency_p99_us", unit: "us", better: Lower, moves: "reported, not gated",
        what: "p99 latency pooled over the untraced rounds" },
    PerLayer { name: "serve.ttfr_p99_us", unit: "us", better: Lower, moves: "reported, not gated",
        what: "p99 time to first row pooled over the untraced rounds" },
    PerLayer { name: "serve.bytes_per_req", unit: "bytes", better: Lower, moves: "rows_per_s on stream_big",
        what: "response bytes per request, header included" },
    PerLayer { name: "serve.trailer_bytes", unit: "bytes", better: Lower, moves: "latency_p50_us on plan_cold",
        what: "bytes of the summary trailer (it lists every member's breaker)" },
    PerLayer { name: "serve.shed_ratio", unit: "ratio", better: Lower, moves: "qps everywhere",
        what: "429 responses / attempted over the untraced rounds" },
    PerLayer { name: "serve.qps_workers1", unit: "req/s", better: Higher, moves: "qps everywhere",
        what: "closed-loop throughput of the same corpus against a one-worker server" },
    PerLayer { name: "serve.speedup_workers2", unit: "ratio", better: Higher, moves: "qps everywhere",
        what: "closed-loop throughput with two workers / with one" },
    PerLayer { name: "serve.rss_growth_kb_per_kreq", unit: "kB", better: Lower, moves: "rss_mb everywhere",
        what: "resident memory growth over the untraced rounds per 1000 requests" },
    // loadgen / host / trace
    PerLayer { name: "loadgen.lag_p99_us", unit: "us", better: Lower, moves: "diagnostic",
        what: "p99 of how late the generator started an open-loop request (ladder steps below capacity included)" },
    PerLayer { name: "loadgen.cpu_share", unit: "ratio", better: Lower, moves: "diagnostic",
        what: "generator threads' CPU / process CPU over the untraced rounds" },
    PerLayer { name: "loadgen.p50_us_r1", unit: "us", better: Lower, moves: "diagnostic",
        what: "open-loop p50 from due time at the ladder's first rate" },
    PerLayer { name: "loadgen.p50_us_r2", unit: "us", better: Lower, moves: "diagnostic",
        what: "open-loop p50 at the second rate" },
    PerLayer { name: "loadgen.p50_us_r3", unit: "us", better: Lower, moves: "diagnostic",
        what: "open-loop p50 at the third rate" },
    PerLayer { name: "loadgen.p99_us_r1", unit: "us", better: Lower, moves: "diagnostic",
        what: "open-loop p99 at the first rate" },
    PerLayer { name: "loadgen.p99_us_r2", unit: "us", better: Lower, moves: "diagnostic",
        what: "open-loop p99 at the second rate" },
    PerLayer { name: "loadgen.p99_us_r3", unit: "us", better: Lower, moves: "diagnostic",
        what: "open-loop p99 at the third rate" },
    PerLayer { name: "loadgen.max_rate_ok", unit: "req/s", better: Higher, moves: "diagnostic",
        what: "highest ladder rate whose p99 met the 100 ms limit with nothing failed and no growing backlog (0 if none)" },
    PerLayer { name: "host.steal_pct", unit: "%", better: Lower, moves: "diagnostic",
        what: "hypervisor steal over the untraced rounds" },
    PerLayer { name: "trace.overhead_pct", unit: "%", better: Lower, moves: "diagnostic",
        what: "traced socket p50 over the untraced p50, minus one" },
    PerLayer { name: "share.expr", unit: "ratio", better: Lower, moves: "diagnostic",
        what: "share of a served request spent in parse + lift" },
    PerLayer { name: "share.core.prepare", unit: "ratio", better: Lower, moves: "diagnostic",
        what: "share spent in index select + Federation::prepare" },
    PerLayer { name: "share.plan.exec", unit: "ratio", better: Lower, moves: "diagnostic",
        what: "share spent in the adaptive pipeline, rendering excluded" },
    PerLayer { name: "share.relation.render", unit: "ratio", better: Lower, moves: "diagnostic",
        what: "share spent rendering rows" },
    PerLayer { name: "share.obs.epilogue", unit: "ratio", better: Lower, moves: "diagnostic",
        what: "share spent in the registry snapshots and diff" },
    PerLayer { name: "share.serve.residual", unit: "ratio", better: Lower, moves: "diagnostic",
        what: "share outside the replayed calls: accept, hand-off, HTTP, socket" },
];

/// The end-to-end metric called `name`.
///
/// # Panics
/// Panics on a name that is not in [`END_TO_END`]: only catalogued metrics
/// are ever reported.
pub fn end_to_end(name: &str) -> &'static EndToEnd {
    END_TO_END.iter().find(|m| m.name == name).expect("an end-to-end metric of the catalogue")
}

/// The per-layer metric called `name` (panics like [`end_to_end`]).
pub fn per_layer(name: &str) -> &'static PerLayer {
    PER_LAYER.iter().find(|m| m.name == name).expect("a per-layer metric of the catalogue")
}

/// The catalogue as the markdown tables of `README.md` (`catalog`
/// subcommand), so the document is pasted from the code, not kept by hand.
pub fn markdown() -> String {
    let mut out = String::from("| workload | load | why |\n|---|---|---|\n");
    for w in Workload::ALL {
        let load = match w.load() {
            crate::workloads::Load::Closed { clients } => format!("closed loop, {clients} clients"),
            crate::workloads::Load::Open { rate } => format!("open loop, {rate} req/s"),
        };
        out.push_str(&format!("| `{}` | {load} | {} |\n", w.name(), w.why()));
    }
    out.push_str(
        "\n| end-to-end metric | unit | better | bound | definition |\n|---|---|---|---|---|\n",
    );
    for m in END_TO_END {
        out.push_str(&format!(
            "| `{}` | {} | {} | {:.2} | {} |\n",
            m.name,
            m.unit,
            m.better.label(),
            m.bound,
            m.what
        ));
    }
    out.push_str("\n| per-layer metric | unit | better | definition | should move |\n|---|---|---|---|---|\n");
    for m in PER_LAYER {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.label(),
            m.what,
            m.moves
        ));
    }
    out
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let strs = |v: &[&str]| Json::Arr(v.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--offline",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn catalogue_obeys_the_manifest_limits() {
        let mut names = HashSet::new();
        for w in Workload::ALL {
            assert!(valid_name(w.name()) && names.insert(w.name()), "{}", w.name());
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}: why is one short line",
                w.name()
            );
        }
        for m in END_TO_END {
            assert!(valid_name(m.name) && names.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}: unit {:?}", m.name, m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}: bound", m.name);
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name) && names.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}: unit {:?}", m.name, m.unit);
        }
        assert!(PER_LAYER.len() <= 128);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_at_the_root_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk =
            std::fs::read_to_string(path).expect("BENCHMARK.json exists at the repository root");
        assert!(on_disk.len() <= 64 * 1024);
        assert_eq!(
            Json::parse(&on_disk).expect("BENCHMARK.json parses"),
            Json::parse(&manifest().pretty()).unwrap(),
            "regenerate with: cargo run --release --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json"
        );
    }

    #[test]
    fn readme_carries_the_generated_tables() {
        let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
            .expect("README.md");
        for line in markdown().lines().filter(|l| !l.is_empty()) {
            assert!(readme.contains(line), "README.md is missing this catalogue row (regenerate with the `catalog` subcommand):\n{line}");
        }
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((Better::Higher.worsening(100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((Better::Lower.worsening(100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!(Better::Lower.worsening(100.0, 90.0) < 0.0);
    }
}
