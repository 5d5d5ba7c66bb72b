//! Fleet-telemetry suite: the `/status` health scoreboard, the audit
//! journal + `csqp audit --diff` analysis, and the windowed time series.
//!
//! The renderings are plain data, so the two goldens —
//! `tests/golden_status.txt` and `tests/golden_audit_diff.txt` — are
//! asserted byte-for-byte, exactly like the chaos and query-profile
//! goldens. Regenerate after an intentional change with:
//!
//! ```sh
//! STATUS_BLESS=1     cargo test -p csqp-core --test telemetry_golden
//! AUDIT_DIFF_BLESS=1 cargo test -p csqp-core --test telemetry_golden
//! ```
//!
//! The live half drives a seeded chaos storm through a live
//! federation and asserts the scoreboard *reacts*: a breaker-open,
//! always-dark member must fall below the healthy threshold while a
//! reliable mirror stays above it.

use csqp_obs::audit::{self, AuditRecord, JournalWriter};
use csqp_obs::health::{self, Grade, SloConfig, DEGRADED_THRESHOLD, HEALTHY_THRESHOLD};
use csqp_obs::names;
use csqp_obs::MetricsSnapshot;

const STATUS_GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden_status.txt");
const AUDIT_GOLDEN: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden_audit_diff.txt");

// ---------------------------------------------------------------- status

/// One deterministic telemetry window, hand-built the way serve folds it:
/// three members in visibly different states plus the serve-level SLO
/// counters.
fn scoreboard_window() -> MetricsSnapshot {
    let mut w = MetricsSnapshot::default();
    let mut c = |name: String, v: u64| {
        w.counters.insert(name, v);
    };
    for (prefix, member, v) in [
        // alpha: high-volume and spotless.
        (names::MEMBER_QUERIES_PREFIX, "alpha", 40),
        (names::MEMBER_EST_COST_MILLI_PREFIX, "alpha", 40_000),
        (names::MEMBER_OBS_COST_MILLI_PREFIX, "alpha", 44_000),
        // beta: retrying hard, drifting, and 2.6x over its cost estimate.
        (names::MEMBER_QUERIES_PREFIX, "beta", 20),
        (names::MEMBER_RETRIES_PREFIX, "beta", 12),
        (names::MEMBER_SPLICES_PREFIX, "beta", 2),
        (names::MEMBER_DRIFT_PREFIX, "beta", 3),
        (names::MEMBER_EST_COST_MILLI_PREFIX, "beta", 10_000),
        (names::MEMBER_OBS_COST_MILLI_PREFIX, "beta", 26_000),
        // gamma: erroring with its breaker open.
        (names::MEMBER_QUERIES_PREFIX, "gamma", 10),
        (names::MEMBER_ERRORS_PREFIX, "gamma", 4),
        (names::BREAKER_OPENED_PREFIX, "gamma", 2),
    ] {
        c(format!("{prefix}{member}"), v);
    }
    c(names::SERVE_QUERIES.to_string(), 70);
    c(names::SERVE_ERRORS.to_string(), 4);
    c(names::SLO_LATENCY_BREACHES.to_string(), 2);
    w
}

/// Renders the scoreboard exactly the way `/status` does (worst member
/// first, live breaker state passed in, burn rates from the window).
fn render_scoreboard() -> String {
    let window = scoreboard_window();
    let slo = SloConfig { latency_objective_us: 100_000, error_budget: 0.01 };
    // Live breaker states: gamma's is open (2), the rest are closed (0).
    let mut reports: Vec<health::HealthReport> = [("alpha", 0u8), ("beta", 0), ("gamma", 2)]
        .iter()
        .map(|(m, state)| health::score(health::signals_from_window(&window, m, *state)))
        .collect();
    reports.sort_by(|a, b| {
        a.score
            .partial_cmp(&b.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.signals.member.cmp(&b.signals.member))
    });
    let queries = window.counter(names::SERVE_QUERIES);
    let summary = health::StatusSummary {
        slo,
        error_burn: slo.burn_rate(window.counter(names::SERVE_ERRORS), queries),
        latency_burn: slo.burn_rate(window.counter(names::SLO_LATENCY_BREACHES), queries),
        queries,
        windows: 3,
        dropped: 1,
    };
    // Both renderings in one golden: the text page, then the JSON document.
    format!(
        "{}---\n{}\n",
        health::render_status_text(&summary, &reports),
        health::render_status_json(&summary, &reports)
    )
}

#[test]
fn golden_status_matches_across_feature_sets() {
    let got = render_scoreboard();
    if std::env::var_os("STATUS_BLESS").is_some() {
        std::fs::write(STATUS_GOLDEN, &got).expect("write golden status");
        return;
    }
    let want = std::fs::read_to_string(STATUS_GOLDEN)
        .expect("tests/golden_status.txt missing — regenerate with STATUS_BLESS=1");
    assert_eq!(
        got, want,
        "status rendering diverged from tests/golden_status.txt; if intentional, \
         regenerate with STATUS_BLESS=1 cargo test -p csqp-core --test telemetry_golden"
    );
}

#[test]
fn scoreboard_grades_follow_the_rubric() {
    let window = scoreboard_window();
    let alpha = health::score(health::signals_from_window(&window, "alpha", 0));
    let beta = health::score(health::signals_from_window(&window, "beta", 0));
    let gamma = health::score(health::signals_from_window(&window, "gamma", 2));
    assert_eq!(alpha.grade, Grade::Healthy, "spotless member must grade healthy: {alpha:?}");
    assert!(
        beta.score < HEALTHY_THRESHOLD && beta.score >= DEGRADED_THRESHOLD,
        "retry/drift/cost-band member must grade degraded: {beta:?}"
    );
    assert_eq!(beta.grade, Grade::Degraded);
    assert!(
        gamma.score < DEGRADED_THRESHOLD,
        "breaker-open erroring member must grade critical: {gamma:?}"
    );
    assert_eq!(gamma.grade, Grade::Critical);
}

// ----------------------------------------------------------------- audit

fn rec(id: u64, fp: &str, scheme: &str, status: &str, ticks: u64, rows: u64) -> AuditRecord {
    AuditRecord {
        id,
        fingerprint: fp.to_string(),
        query: format!("q{id}"),
        scheme: scheme.to_string(),
        status: status.to_string(),
        rows,
        // Quarantined latency: golden runs carry no wall clock, so the
        // diff ranks by virtual ticks (the LatencyKey fallback).
        wall_us: None,
        ticks,
        splices: u64::from(status == "ok" && id.is_multiple_of(3)),
        drift_triggers: u64::from(id.is_multiple_of(4)),
        breaker_events: u64::from(status != "ok"),
        capindex_candidates: 2,
        capindex_total: 3,
    }
}

/// Baseline run: GenCompact everywhere, one error, latencies around 400.
fn run_a() -> Vec<AuditRecord> {
    vec![
        rec(1, "fp-alpha", "GenCompact", "ok", 380, 12),
        rec(2, "fp-beta", "GenCompact", "ok", 420, 7),
        rec(3, "fp-gamma", "GenCompact", "ok", 500, 30),
        rec(4, "fp-delta", "GenCompact", "error", 900, 0),
        rec(5, "fp-alpha", "GenCompact", "ok", 390, 12),
        rec(6, "fp-beta", "GenCompact", "ok", 410, 7),
    ]
}

/// Candidate run: two fingerprints switched scheme, latencies dropped,
/// errors cleared, one fingerprint vanished and a new one appeared.
fn run_b() -> Vec<AuditRecord> {
    vec![
        rec(1, "fp-alpha", "GenCompact", "ok", 300, 12),
        rec(2, "fp-beta", "Cnf", "ok", 250, 7),
        rec(3, "fp-gamma", "Cnf", "ok", 310, 30),
        rec(5, "fp-alpha", "GenCompact", "ok", 290, 12),
        rec(6, "fp-beta", "Cnf", "ok", 260, 7),
        rec(7, "fp-epsilon", "GenCompact", "ok", 280, 4),
    ]
}

#[test]
fn golden_audit_diff_matches_across_feature_sets() {
    let a = audit::summarize(&run_a());
    let b = audit::summarize(&run_b());
    let got = format!("{}---\n{}", audit::render_summary("run_a", &a), audit::render_diff(&a, &b));
    if std::env::var_os("AUDIT_DIFF_BLESS").is_some() {
        std::fs::write(AUDIT_GOLDEN, &got).expect("write golden audit diff");
        return;
    }
    let want = std::fs::read_to_string(AUDIT_GOLDEN)
        .expect("tests/golden_audit_diff.txt missing — regenerate with AUDIT_DIFF_BLESS=1");
    assert_eq!(
        got, want,
        "audit diff diverged from tests/golden_audit_diff.txt; if intentional, \
         regenerate with AUDIT_DIFF_BLESS=1 cargo test -p csqp-core --test telemetry_golden"
    );
}

#[test]
fn audit_records_round_trip_through_jsonl() {
    for record in run_a().iter().chain(run_b().iter()) {
        let line = record.to_jsonl();
        let back = AuditRecord::parse(&line)
            .unwrap_or_else(|e| panic!("own rendering must parse ({e}): {line}"));
        assert_eq!(&back, record, "round-trip changed the record");
    }
}

/// Size rotation keeps total journal disk bounded by ~2x the cap no
/// matter how many records stream through, and every surviving line
/// still parses (single-write appends are never torn).
#[test]
fn journal_rotation_bounds_disk_and_stays_parseable() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("csqp_telemetry_golden_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(path.with_extension("jsonl.1"));
    let max_bytes = 2_048u64;
    let mut writer = JournalWriter::open(&path, max_bytes).expect("open journal");
    let mut longest = 0u64;
    for i in 0..200u64 {
        let record =
            rec(i, "fp-rotate", "GenCompact", if i % 7 == 0 { "error" } else { "ok" }, 100 + i, i);
        longest = longest.max(record.to_jsonl().len() as u64 + 1);
        writer.append(&record).expect("append");
    }
    assert!(writer.rotations > 0, "200 records through a 2 KiB cap must rotate");
    assert_eq!(writer.records, 200);
    let rotated = writer.rotated_path();
    let size = |p: &std::path::Path| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
    let total = size(&path) + size(&rotated);
    assert!(
        total <= 2 * max_bytes + longest,
        "journal disk {total} exceeds bound {} (2x{max_bytes} cap + one record)",
        2 * max_bytes + longest
    );
    // Both generations parse cleanly end to end.
    for p in [&path, &rotated] {
        let (records, errors) = audit::read_journal(p).expect("journal readable");
        assert!(errors.is_empty(), "{}: torn/corrupt lines: {errors:?}", p.display());
        assert!(!records.is_empty(), "{}: rotation left an empty generation", p.display());
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&rotated);
}

// ------------------------------------------------------- live federation

/// Seeded chaos storm against a live federation: the scoreboard must
/// *react*. An always-dark cheap member accumulates errors until its
/// breaker opens and its score falls below the healthy threshold; the
/// reliable expensive mirror keeps serving and stays healthy.
#[test]
fn chaos_storm_drives_dark_member_below_healthy() {
    use csqp_core::federation::{CircuitBreakerConfig, Federation};
    use csqp_core::mediator::StreamOptions;
    use csqp_core::types::TargetQuery;
    use csqp_expr::ValueType;
    use csqp_obs::Obs;
    use csqp_plan::exec::RetryPolicy;
    use csqp_plan::exec_stream::StreamConfig;
    use csqp_relation::datagen;
    use csqp_source::{CostParams, FaultProfile, Source};
    use csqp_ssdl::templates;
    use std::sync::Arc;

    let data = datagen::cars(3, 400);
    // Cheap, attractive, and permanently dark: every attempt fails.
    let dark = Arc::new(
        Source::new(data.clone(), templates::car_dealer(), CostParams::new(10.0, 1.0))
            .with_fault_profile(FaultProfile::new(7).with_outage(0, u64::MAX)),
    );
    let dump = Arc::new(Source::new(
        data,
        templates::download_only(
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
    ));
    let obs = Arc::new(Obs::new());
    let federation = Federation::new()
        .with_member(dark)
        .with_member(dump)
        .with_breaker(CircuitBreakerConfig { failure_threshold: 2, cooldown_ticks: 1_000 })
        .with_obs(obs);
    let policy = RetryPolicy { max_retries: 1, jitter_seed: 7, ..Default::default() };
    let stream = StreamConfig::default();
    let query = TargetQuery::parse("make = \"BMW\" ^ price < 40000", &["model", "year"]).unwrap();
    for _ in 0..6 {
        // The dark dealer wins planning, dies, and the dump rescues the
        // answer — errors and breaker opens pile onto the dealer.
        federation
            .run_stream(
                &query,
                StreamOptions::Plain { stream: &stream, policy: Some(&policy) },
                None,
            )
            .expect("dump must rescue the answer");
    }
    let window = federation.metrics_snapshot();
    let states = federation.breaker_states();
    let state_of = |name: &str| {
        states
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h.as_gauge() as u8)
            .unwrap_or_else(|| panic!("member {name} missing from breaker states"))
    };
    let dealer =
        health::score(health::signals_from_window(&window, "car_dealer", state_of("car_dealer")));
    let dump_report = health::score(health::signals_from_window(&window, "dump", state_of("dump")));
    assert!(
        dealer.signals.errors > 0,
        "dark member must accumulate windowed errors: {:?}",
        dealer.signals
    );
    assert!(
        dealer.score < HEALTHY_THRESHOLD,
        "breaker-open dark member must drop below healthy ({HEALTHY_THRESHOLD}): {dealer:?}"
    );
    assert!(
        dump_report.score >= HEALTHY_THRESHOLD,
        "reliable rescuer must stay healthy: {dump_report:?}"
    );
    assert!(
        dealer.score < dump_report.score,
        "scoreboard must rank the dark member below the reliable one"
    );
}

/// Windowed time series over a live registry: rolling cuts the registry's
/// open window at the boundaries, rates come out of the closed windows,
/// and the ring stays capacity-bounded while counting evictions.
#[test]
fn timeseries_windows_cut_live_registry_deltas() {
    use csqp_obs::{Obs, TimeSeries};

    let obs = Obs::new();
    let mut series = TimeSeries::new(4);
    for window in 0..6u64 {
        for _ in 0..=window {
            obs.metrics.inc(names::SERVE_QUERIES);
        }
        series.roll(obs.metrics.cut_window(), (window + 1) * 10, None);
    }
    // Capacity 4 retains windows 2..=5 (deltas 3,4,5,6) and drops two.
    assert_eq!(series.len(), 4);
    assert_eq!(series.dropped(), 2);
    let deltas: Vec<u64> =
        series.windows().map(|w| w.delta.counter(names::SERVE_QUERIES)).collect();
    assert_eq!(deltas, vec![3, 4, 5, 6], "each window holds exactly its own delta");
    assert_eq!(series.counter_over(names::SERVE_QUERIES, 2), 11, "last-2 fold");
    // The open window: activity since the last boundary, not yet in any
    // closed one.
    obs.metrics.add(names::SERVE_QUERIES, 5);
    let live = obs.metrics.peek_window();
    assert_eq!(live.counter(names::SERVE_QUERIES), 5);
    // The JSON rendering is schema-stable and carries the stamps.
    let json = series.render_json(names::SERVE_QUERIES, 2);
    assert!(json.contains("\"metric\": \"serve.queries\""), "{json}");
    assert!(json.contains("\"value\": 6"), "{json}");
}
