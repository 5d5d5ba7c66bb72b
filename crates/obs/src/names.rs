//! Canonical metric names — the schema of a [`crate::MetricsSnapshot`].
//!
//! Every component records under these constants so the `--metrics json`
//! output is stable across refactors: renaming a metric is an explicit,
//! reviewable change here rather than a drive-by string edit at a call
//! site.

// ---- planner internals (§5–§6 of the paper) ----

/// Rewritten CTs the rewrite module produced (GenCompact: compact
/// enumeration output; GenModular: DNF/CNF-style rewritings).
pub const PLANNER_REWRITES_GENERATED: &str = "planner.rewrites_generated";
/// CTs canonicalized/processed by the plan generator.
pub const PLANNER_CTS_CANONICALIZED: &str = "planner.cts_canonicalized";
/// `Check(C, R)` invocations (before caching).
pub const PLANNER_CHECK_CALLS: &str = "planner.check_calls";
/// CheckCache hits (calls answered without re-parsing).
pub const PLANNER_CHECK_CACHE_HITS: &str = "planner.check_cache_hits";
/// CheckCache misses (actual capability-template parses).
pub const PLANNER_CHECK_CACHE_MISSES: &str = "planner.check_cache_misses";
/// IPG memo-table hits (whole sub-searches skipped).
pub const PLANNER_IPG_MEMO_HITS: &str = "planner.ipg_memo_hits";
/// Recursive plan-generator invocations (EPG or IPG calls).
pub const PLANNER_GENERATOR_CALLS: &str = "planner.generator_calls";
/// Sub-searches short-circuited by PR1 (pure plan found).
pub const PLANNER_PRUNED_PR1: &str = "planner.pruned_pr1";
/// Subplans discarded by PR2 (costlier than the kept plan for the same
/// attribute subset).
pub const PLANNER_PRUNED_PR2: &str = "planner.pruned_pr2";
/// Subplans discarded by PR3 (dominated: subset coverage at higher cost).
pub const PLANNER_PRUNED_PR3: &str = "planner.pruned_pr3";
/// Branch-and-bound nodes MCSC examined across all `combine` calls.
pub const PLANNER_MCSC_COVERS_EXAMINED: &str = "planner.mcsc_covers_examined";
/// Distinct concrete plans represented/considered across the search.
pub const PLANNER_PLANS_CONSIDERED: &str = "planner.plans_considered";

// ---- executor internals (§6.2 cost model) ----

/// Source queries (SP operations) executed.
pub const EXEC_SOURCE_QUERIES: &str = "exec.source_queries";
/// Rows fetched from sources, total.
pub const EXEC_ROWS_FETCHED: &str = "exec.rows_fetched";
/// Per-subquery row counts (histogram).
pub const EXEC_ROWS_PER_SUBQUERY: &str = "exec.rows_per_subquery";
/// Σ estimated `k1 + k2·|result(sq)|` over executed source queries (gauge).
pub const EXEC_EST_COST: &str = "exec.est_cost";
/// Σ observed `k1 + k2·|result(sq)|` over executed source queries (gauge).
pub const EXEC_OBSERVED_COST: &str = "exec.observed_cost";
/// Source queries whose observed cardinality drifted ≥ 2× from the
/// estimate (either direction).
pub const EXEC_DRIFT_WARNINGS: &str = "exec.drift_warnings";
/// Batches pulled through the streaming executor.
pub const EXEC_BATCHES: &str = "exec.batches";
/// Peak tuples resident in pipeline batch buffers during a streaming run
/// (gauge; excludes dedup/sketch state and the caller's accumulated answer).
pub const EXEC_PEAK_RESIDENT_TUPLES: &str = "exec.peak_resident_tuples";

// ---- source-side transfer meter ----

/// Source queries a source answered.
pub const SOURCE_QUERIES: &str = "source.queries";
/// Tuples shipped back to the mediator.
pub const SOURCE_TUPLES_SHIPPED: &str = "source.tuples_shipped";
/// Queries rejected by the capability gate.
pub const SOURCE_REJECTED: &str = "source.rejected";

// ---- resilience events (PR 2 fault layer) ----

/// Source-query attempts, including retries.
pub const RESILIENCE_ATTEMPTS: &str = "resilience.attempts";
/// Retries after a retryable fault.
pub const RESILIENCE_RETRIES: &str = "resilience.retries";
/// Transient faults absorbed.
pub const RESILIENCE_TRANSIENTS: &str = "resilience.transients";
/// Timeouts absorbed.
pub const RESILIENCE_TIMEOUTS: &str = "resilience.timeouts";
/// Rate-limit rejections absorbed.
pub const RESILIENCE_RATE_LIMITED: &str = "resilience.rate_limited";
/// Outage windows hit.
pub const RESILIENCE_OUTAGES: &str = "resilience.outages";
/// Splices onto another federation member on served runs — the one way a
/// run fails over, so those made before the first answer row count too.
pub const RESILIENCE_FAILOVERS: &str = "resilience.failovers";
/// Virtual ticks spent on simulated latency and backoff.
pub const RESILIENCE_BACKOFF_TICKS: &str = "resilience.backoff_ticks";

// ---- federation circuit breakers ----

/// Breaker transitions Closed → Open (member quarantined).
pub const BREAKER_OPENED: &str = "breaker.opened";
/// Breaker transitions Open → HalfOpen (cooldown elapsed, probe allowed).
pub const BREAKER_HALF_OPENED: &str = "breaker.half_opened";
/// Breaker transitions HalfOpen → Closed (probe succeeded).
pub const BREAKER_CLOSED: &str = "breaker.closed";
/// Members skipped because their breaker gate was open.
pub const FEDERATION_QUARANTINED: &str = "federation.quarantined";
/// Members that could not plan the query (capability-infeasible).
pub const FEDERATION_INFEASIBLE: &str = "federation.infeasible";
/// Member executions that failed after retries.
pub const FEDERATION_EXEC_FAILED: &str = "federation.exec_failed";
/// Queries ultimately served by some member.
pub const FEDERATION_SERVED: &str = "federation.served";

// ---- mid-query adaptive re-planning ----

/// Replan triggers observed (drift + breaker), whether or not a splice
/// followed.
pub const REPLAN_TRIGGERED: &str = "replan.triggered";
/// Replan triggers caused by observed-cardinality drift outside the
/// ½×–2× band.
pub const REPLAN_DRIFT_TRIGGERS: &str = "replan.drift_triggers";
/// Replan triggers caused by a member's leaf failure on a breaker-gated
/// run — every member failover starts as one.
pub const REPLAN_BREAKER_TRIGGERS: &str = "replan.breaker_triggers";
/// Sub-plans actually spliced into a running pipeline (a trigger whose
/// re-planned residual matched the remaining plan splices nothing).
pub const REPLAN_SPLICES: &str = "replan.splices";
/// Per-member live breaker-state gauge prefix: `breaker.state.<member>`
/// with 0 = closed, 1 = half-open, 2 = open/quarantined. Set from
/// `Federation::metrics_snapshot` without advancing the breaker clock.
pub const BREAKER_STATE_PREFIX: &str = "breaker.state.";

// ---- per-member health taps (windowed health scoring inputs) ----
//
// Suffix-named counter families: `<prefix><member>`. The Prometheus
// exposition renders each family as one labeled series
// (`csqp_member_queries_total{member="..."}`) via `names::LABELED`; the
// health scorer reads them back per window through
// `health::signals_from_window`.

/// Queries a federation member ultimately served: `member.queries.<member>`.
pub const MEMBER_QUERIES_PREFIX: &str = "member.queries.";
/// Member executions that failed after retries: `member.errors.<member>`.
pub const MEMBER_ERRORS_PREFIX: &str = "member.errors.";
/// Times a member was skipped on an open breaker gate:
/// `member.quarantined.<member>`.
pub const MEMBER_QUARANTINED_PREFIX: &str = "member.quarantined.";
/// Retries attributed to a member's executions: `member.retries.<member>`.
pub const MEMBER_RETRIES_PREFIX: &str = "member.retries.";
/// Mid-query splices while a member was executing:
/// `member.splices.<member>`.
pub const MEMBER_SPLICES_PREFIX: &str = "member.splices.";
/// Drift-band replan triggers while a member was executing:
/// `member.drift_triggers.<member>`.
pub const MEMBER_DRIFT_PREFIX: &str = "member.drift_triggers.";
/// Σ planner-estimated cost of a member's executions, in cost millis
/// (×1000, so the counter stays integral): `member.est_cost_milli.<member>`.
pub const MEMBER_EST_COST_MILLI_PREFIX: &str = "member.est_cost_milli.";
/// Σ observed cost of a member's executions, in cost millis:
/// `member.observed_cost_milli.<member>`.
pub const MEMBER_OBS_COST_MILLI_PREFIX: &str = "member.observed_cost_milli.";
/// Cost-to-counter conversion for the `member.*_cost_milli.*` taps: cost
/// units are fractional, the counters keep them as integral millis. A
/// non-finite or negative cost counts as 0.
pub fn to_milli(cost: f64) -> u64 {
    if cost.is_finite() && cost > 0.0 {
        (cost * 1000.0).round() as u64
    } else {
        0
    }
}
/// Breaker open transitions per member: `member.breaker_opened.<member>`
/// (the member-attributed sibling of the aggregate `breaker.opened`; named
/// under `member.` so its Prometheus family never collides with the
/// aggregate's).
pub const BREAKER_OPENED_PREFIX: &str = "member.breaker_opened.";
/// Health score gauge per member, republished by `/status`:
/// `health.score.<member>` in [0, 100].
pub const HEALTH_SCORE_PREFIX: &str = "health.score.";

// ---- federation capability index (compiled source pre-selection) ----

/// Members surviving the capability-index pre-filter across federated
/// planning calls (Σ per-query candidate counts).
pub const CAPINDEX_CANDIDATES: &str = "capindex.candidates_total";
/// Members pruned by the capability index before full `Check`-based
/// planning (Σ per-query pruned counts).
pub const CAPINDEX_PRUNED: &str = "capindex.pruned_total";
/// Virtual ticks spent building the index: one tick per member whose
/// capability facts were compiled (deterministic — **not** wall-clock, so
/// it is safe in goldens; real build latency is measured by the e16 bench).
pub const CAPINDEX_BUILD_TICKS: &str = "capindex.build_ticks";

// ---- federation prepared-plan cache (parameterized shapes) ----

/// Prepared-plan cache hits: an incoming query's parameterized shape
/// matched a cached plan and every constant rebound cleanly.
pub const PLANCACHE_HITS: &str = "plancache.hits";
/// Prepared-plan cache misses: no entry for the shape (cold planning ran
/// and the winner was inserted).
pub const PLANCACHE_MISSES: &str = "plancache.misses";
/// Cache entries found but rejected at rebind time (aliased-slot constant
/// conflict, const-literal grammar revalidation failure, or a structural
/// mismatch behind a fingerprint collision) — the query fell back to cold
/// planning.
pub const PLANCACHE_REJECTED: &str = "plancache.rejected";
/// Entries displaced by capacity-bounded insertion (least-recently-used).
pub const PLANCACHE_EVICTIONS: &str = "plancache.evictions";
/// Epoch bumps that wiped the cache: breaker-state transitions and
/// membership changes.
pub const PLANCACHE_INVALIDATIONS: &str = "plancache.invalidations";
/// Live entries resident in the prepared-plan cache (gauge).
pub const PLANCACHE_ENTRIES: &str = "plancache.entries";

// ---- serve admission control (multi-tenant front door) ----

/// Requests admitted past the tenant-quota and overload gates.
pub const ADMISSION_ADMITTED: &str = "admission.admitted";
/// Requests shed because the tenant's token bucket was empty (429).
pub const ADMISSION_SHED_QUOTA: &str = "admission.shed_quota";
/// Requests shed because the global in-flight cap was reached (429).
pub const ADMISSION_SHED_OVERLOAD: &str = "admission.shed_overload";
/// Requests currently being served across all workers (gauge).
pub const ADMISSION_INFLIGHT: &str = "admission.inflight";
/// Queries admitted per tenant: `tenant.queries.<tenant>`.
pub const TENANT_QUERIES_PREFIX: &str = "tenant.queries.";
/// Requests shed per tenant (quota or overload): `tenant.shed.<tenant>`.
pub const TENANT_SHED_PREFIX: &str = "tenant.shed.";

// ---- serve mode (`csqp serve`) ----
//
// These are the only wall-clock metrics in the registry. They exist solely
// in the long-running server, are never recorded by the library planners or
// executors, and are therefore excluded from every golden test — keeping
// the deterministic virtual-tick layer cleanly separated from real time.

/// HTTP/line-protocol requests accepted.
pub const SERVE_REQUESTS: &str = "serve.requests";
/// Requests that produced an error response.
pub const SERVE_ERRORS: &str = "serve.errors";
/// Queries answered over the serve surface.
pub const SERVE_QUERIES: &str = "serve.queries";
/// Queries slower than the configured slow-query threshold.
pub const SERVE_SLOW_QUERIES: &str = "serve.slow_queries";
/// End-to-end wall-clock query latency in microseconds (histogram).
pub const SERVE_LATENCY_US: &str = "serve.latency_us";
/// Rows returned to serve-mode clients.
pub const SERVE_ROWS_RETURNED: &str = "serve.rows_returned";

// ---- query profiles (span layer) ----

/// `QueryProfile` documents captured (CLI `--explain=profile` runs and
/// serve-mode queries whose profile entered the slowlog ring).
pub const PROFILE_CAPTURED: &str = "profile.captured";

// ---- SLO burn rates (serve `/status`) ----

/// Error-budget burn rate over the retained windows (gauge): the fraction
/// of serve queries that errored, divided by the configured error budget.
/// 1.0 = exactly on budget.
pub const SLO_ERROR_BURN: &str = "slo.error_burn_rate";
/// Latency-budget burn rate over the retained windows (gauge): the
/// fraction of serve queries breaching the latency objective, divided by
/// the error budget.
pub const SLO_LATENCY_BURN: &str = "slo.latency_burn_rate";
/// Serve queries that breached the configured latency objective.
pub const SLO_LATENCY_BREACHES: &str = "slo.latency_breaches";

// ---- windowed time-series & audit journal ----

/// Windows currently retained by the serve time-series ring (gauge).
pub const TIMESERIES_WINDOWS: &str = "timeseries.windows";
/// Audit-journal records appended.
pub const JOURNAL_RECORDS: &str = "journal.records";
/// Audit-journal size-based rotations performed.
pub const JOURNAL_ROTATIONS: &str = "journal.rotations";

// ---- static catalog ----

/// The Prometheus-facing kind of a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter (`_total` in the exposition).
    Counter,
    /// Last-set or accumulated gauge.
    Gauge,
    /// Log2 histogram (`_bucket`/`_sum`/`_count` series).
    Histogram,
}

/// One catalog row: a canonical name, its kind, and a one-line help text
/// for the `# HELP` exposition line and the docs catalog.
#[derive(Debug, Clone, Copy)]
pub struct MetricMeta {
    /// The dotted registry name (one of the constants above).
    pub name: &'static str,
    /// Counter / gauge / histogram.
    pub kind: MetricKind,
    /// One-line description, also asserted to appear in
    /// docs/OBSERVABILITY.md by the catalog coverage test.
    pub help: &'static str,
}

const fn meta(name: &'static str, kind: MetricKind, help: &'static str) -> MetricMeta {
    MetricMeta { name, kind, help }
}

/// A suffix-named metric family rendered as one labeled Prometheus series:
/// every registry name `"<prefix><suffix>"` becomes
/// `family{label="<suffix>"}` in the exposition, with a single shared
/// `# HELP`/`# TYPE` block per family.
#[derive(Debug, Clone, Copy)]
pub struct LabeledFamily {
    /// Dotted-name prefix, including the trailing dot (a `CATALOG` row).
    pub prefix: &'static str,
    /// Prometheus family name (already `csqp_`-prefixed; counters get
    /// `_total` appended at render time).
    pub family: &'static str,
    /// The label key carrying the suffix.
    pub label: &'static str,
}

const fn fam(prefix: &'static str, family: &'static str) -> LabeledFamily {
    LabeledFamily { prefix, family, label: "member" }
}

const fn tenant_fam(prefix: &'static str, family: &'static str) -> LabeledFamily {
    LabeledFamily { prefix, family, label: "tenant" }
}

/// Every suffix-named family the exposition renders with labels. Sorted by
/// prefix; each prefix also has a `CATALOG` row carrying kind + help.
pub const LABELED: &[LabeledFamily] = &[
    fam(BREAKER_STATE_PREFIX, "csqp_breaker_state"),
    fam(HEALTH_SCORE_PREFIX, "csqp_health_score"),
    fam(BREAKER_OPENED_PREFIX, "csqp_member_breaker_opened"),
    fam(MEMBER_DRIFT_PREFIX, "csqp_member_drift_triggers"),
    fam(MEMBER_ERRORS_PREFIX, "csqp_member_errors"),
    fam(MEMBER_EST_COST_MILLI_PREFIX, "csqp_member_est_cost_milli"),
    fam(MEMBER_OBS_COST_MILLI_PREFIX, "csqp_member_observed_cost_milli"),
    fam(MEMBER_QUARANTINED_PREFIX, "csqp_member_quarantined"),
    fam(MEMBER_QUERIES_PREFIX, "csqp_member_queries"),
    fam(MEMBER_RETRIES_PREFIX, "csqp_member_retries"),
    fam(MEMBER_SPLICES_PREFIX, "csqp_member_splices"),
    tenant_fam(TENANT_QUERIES_PREFIX, "csqp_tenant_queries"),
    tenant_fam(TENANT_SHED_PREFIX, "csqp_tenant_shed"),
];

/// The labeled family a registry name belongs to (with the suffix split
/// off), or `None` for ordinary flat names. A bare prefix with an empty
/// suffix does not match — it would render an empty label value.
pub fn labeled_for(name: &str) -> Option<(&'static LabeledFamily, &str)> {
    LABELED.iter().find_map(|f| {
        name.strip_prefix(f.prefix).filter(|s| !s.is_empty()).map(|suffix| (f, suffix))
    })
}

/// Every metric the stack exports, with kind and help text. `prom` renders
/// `# HELP` from this; the coverage test pins that each row is documented
/// in docs/OBSERVABILITY.md.
pub const CATALOG: &[MetricMeta] = &[
    meta(PLANNER_REWRITES_GENERATED, MetricKind::Counter, "rewritten CTs produced"),
    meta(PLANNER_CTS_CANONICALIZED, MetricKind::Counter, "CTs canonicalized by the generator"),
    meta(PLANNER_CHECK_CALLS, MetricKind::Counter, "Check(C, R) invocations before caching"),
    meta(PLANNER_CHECK_CACHE_HITS, MetricKind::Counter, "CheckCache hits"),
    meta(PLANNER_CHECK_CACHE_MISSES, MetricKind::Counter, "CheckCache misses (real parses)"),
    meta(PLANNER_IPG_MEMO_HITS, MetricKind::Counter, "IPG memo-table hits"),
    meta(PLANNER_GENERATOR_CALLS, MetricKind::Counter, "recursive plan-generator invocations"),
    meta(PLANNER_PRUNED_PR1, MetricKind::Counter, "sub-searches short-circuited by PR1"),
    meta(PLANNER_PRUNED_PR2, MetricKind::Counter, "subplans discarded by PR2"),
    meta(PLANNER_PRUNED_PR3, MetricKind::Counter, "subplans discarded by PR3 domination"),
    meta(PLANNER_MCSC_COVERS_EXAMINED, MetricKind::Counter, "MCSC branch-and-bound nodes examined"),
    meta(PLANNER_PLANS_CONSIDERED, MetricKind::Counter, "distinct concrete plans considered"),
    meta(EXEC_SOURCE_QUERIES, MetricKind::Counter, "source queries executed"),
    meta(EXEC_ROWS_FETCHED, MetricKind::Counter, "rows fetched from sources"),
    meta(EXEC_ROWS_PER_SUBQUERY, MetricKind::Histogram, "per-subquery row counts"),
    meta(EXEC_EST_COST, MetricKind::Gauge, "estimated cost over executed source queries"),
    meta(EXEC_OBSERVED_COST, MetricKind::Gauge, "observed cost over executed source queries"),
    meta(EXEC_DRIFT_WARNINGS, MetricKind::Counter, "cardinality drift warnings"),
    meta(EXEC_BATCHES, MetricKind::Counter, "batches pulled through the streaming executor"),
    meta(EXEC_PEAK_RESIDENT_TUPLES, MetricKind::Gauge, "peak tuples resident in pipeline buffers"),
    meta(SOURCE_QUERIES, MetricKind::Counter, "source queries answered"),
    meta(SOURCE_TUPLES_SHIPPED, MetricKind::Counter, "tuples shipped to the mediator"),
    meta(SOURCE_REJECTED, MetricKind::Counter, "queries rejected by the capability gate"),
    meta(RESILIENCE_ATTEMPTS, MetricKind::Counter, "source-query attempts including retries"),
    meta(RESILIENCE_RETRIES, MetricKind::Counter, "retries after retryable faults"),
    meta(RESILIENCE_TRANSIENTS, MetricKind::Counter, "transient faults absorbed"),
    meta(RESILIENCE_TIMEOUTS, MetricKind::Counter, "timeouts absorbed"),
    meta(RESILIENCE_RATE_LIMITED, MetricKind::Counter, "rate-limit rejections absorbed"),
    meta(RESILIENCE_OUTAGES, MetricKind::Counter, "outage windows hit"),
    meta(RESILIENCE_FAILOVERS, MetricKind::Counter, "splices onto another member"),
    meta(RESILIENCE_BACKOFF_TICKS, MetricKind::Counter, "virtual ticks of latency and backoff"),
    meta(BREAKER_OPENED, MetricKind::Counter, "breaker transitions to open"),
    meta(BREAKER_HALF_OPENED, MetricKind::Counter, "breaker transitions to half-open"),
    meta(BREAKER_CLOSED, MetricKind::Counter, "breaker transitions back to closed"),
    meta(FEDERATION_QUARANTINED, MetricKind::Counter, "members skipped on an open breaker"),
    meta(FEDERATION_INFEASIBLE, MetricKind::Counter, "members that could not plan the query"),
    meta(FEDERATION_EXEC_FAILED, MetricKind::Counter, "member executions failed after retries"),
    meta(FEDERATION_SERVED, MetricKind::Counter, "queries served by some member"),
    meta(REPLAN_TRIGGERED, MetricKind::Counter, "replan triggers observed"),
    meta(REPLAN_DRIFT_TRIGGERS, MetricKind::Counter, "replan triggers from cardinality drift"),
    meta(REPLAN_BREAKER_TRIGGERS, MetricKind::Counter, "replan triggers from member failures"),
    meta(REPLAN_SPLICES, MetricKind::Counter, "sub-plans spliced into running pipelines"),
    meta(BREAKER_STATE_PREFIX, MetricKind::Gauge, "live breaker state per member (0/1/2)"),
    meta(CAPINDEX_CANDIDATES, MetricKind::Counter, "members surviving the capability index"),
    meta(CAPINDEX_PRUNED, MetricKind::Counter, "members pruned by the capability index"),
    meta(CAPINDEX_BUILD_TICKS, MetricKind::Counter, "virtual ticks compiling capability facts"),
    meta(PLANCACHE_HITS, MetricKind::Counter, "prepared-plan cache hits (rebound and served)"),
    meta(PLANCACHE_MISSES, MetricKind::Counter, "prepared-plan cache misses (cold planned)"),
    meta(PLANCACHE_REJECTED, MetricKind::Counter, "cache entries rejected at rebind time"),
    meta(PLANCACHE_EVICTIONS, MetricKind::Counter, "cache entries displaced by capacity"),
    meta(PLANCACHE_INVALIDATIONS, MetricKind::Counter, "cache wipes from breakers/membership"),
    meta(PLANCACHE_ENTRIES, MetricKind::Gauge, "live prepared-plan cache entries"),
    meta(ADMISSION_ADMITTED, MetricKind::Counter, "requests admitted past the front-door gates"),
    meta(ADMISSION_SHED_QUOTA, MetricKind::Counter, "requests shed on an empty tenant bucket"),
    meta(ADMISSION_SHED_OVERLOAD, MetricKind::Counter, "requests shed at the in-flight cap"),
    meta(ADMISSION_INFLIGHT, MetricKind::Gauge, "requests currently in flight"),
    meta(TENANT_QUERIES_PREFIX, MetricKind::Counter, "queries admitted per tenant"),
    meta(TENANT_SHED_PREFIX, MetricKind::Counter, "requests shed per tenant"),
    meta(SERVE_REQUESTS, MetricKind::Counter, "requests accepted"),
    meta(SERVE_ERRORS, MetricKind::Counter, "error responses produced"),
    meta(SERVE_QUERIES, MetricKind::Counter, "queries answered over the serve surface"),
    meta(SERVE_SLOW_QUERIES, MetricKind::Counter, "queries over the slow threshold"),
    meta(SERVE_LATENCY_US, MetricKind::Histogram, "wall-clock query latency in microseconds"),
    meta(SERVE_ROWS_RETURNED, MetricKind::Counter, "rows returned to clients"),
    meta(PROFILE_CAPTURED, MetricKind::Counter, "QueryProfile documents captured"),
    meta(MEMBER_QUERIES_PREFIX, MetricKind::Counter, "queries served per federation member"),
    meta(MEMBER_ERRORS_PREFIX, MetricKind::Counter, "failed executions per federation member"),
    meta(MEMBER_QUARANTINED_PREFIX, MetricKind::Counter, "breaker-gate skips per member"),
    meta(MEMBER_RETRIES_PREFIX, MetricKind::Counter, "retries per federation member"),
    meta(MEMBER_SPLICES_PREFIX, MetricKind::Counter, "mid-query splices per member"),
    meta(MEMBER_DRIFT_PREFIX, MetricKind::Counter, "drift replan triggers per member"),
    meta(MEMBER_EST_COST_MILLI_PREFIX, MetricKind::Counter, "estimated cost millis per member"),
    meta(MEMBER_OBS_COST_MILLI_PREFIX, MetricKind::Counter, "observed cost millis per member"),
    meta(BREAKER_OPENED_PREFIX, MetricKind::Counter, "breaker opens attributed per member"),
    meta(HEALTH_SCORE_PREFIX, MetricKind::Gauge, "health score per member (0-100)"),
    meta(SLO_ERROR_BURN, MetricKind::Gauge, "error-budget burn rate over retained windows"),
    meta(SLO_LATENCY_BURN, MetricKind::Gauge, "latency-budget burn rate over retained windows"),
    meta(SLO_LATENCY_BREACHES, MetricKind::Counter, "queries breaching the latency objective"),
    meta(TIMESERIES_WINDOWS, MetricKind::Gauge, "windows retained by the time-series ring"),
    meta(JOURNAL_RECORDS, MetricKind::Counter, "audit-journal records appended"),
    meta(JOURNAL_ROTATIONS, MetricKind::Counter, "audit-journal rotations performed"),
];

/// Catalog lookup: exact name match, or the labeled-family prefix row for
/// dynamically suffix-named metrics (`breaker.state.<member>` and the
/// `member.*` / `health.score.*` families). `None` for ad-hoc names (tests,
/// future metrics not yet cataloged) — the exposition falls back to its
/// generic help line.
pub fn help_for(name: &str) -> Option<&'static MetricMeta> {
    CATALOG.iter().find(|m| m.name == name).or_else(|| {
        labeled_for(name).and_then(|(f, _)| CATALOG.iter().find(|m| m.name == f.prefix))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_no_duplicates_and_resolves_prefixes() {
        let mut seen = std::collections::BTreeSet::new();
        for m in CATALOG {
            assert!(seen.insert(m.name), "duplicate catalog row {}", m.name);
            assert!(!m.help.is_empty());
        }
        assert_eq!(help_for(SERVE_LATENCY_US).unwrap().kind, MetricKind::Histogram);
        assert_eq!(help_for("breaker.state.books-eu").unwrap().kind, MetricKind::Gauge);
        assert_eq!(help_for("member.queries.books-eu").unwrap().kind, MetricKind::Counter);
        assert!(help_for("not.a.metric").is_none());
    }

    #[test]
    fn labeled_families_resolve_and_are_cataloged() {
        let (f, suffix) = labeled_for("breaker.state.books-eu").unwrap();
        assert_eq!(f.family, "csqp_breaker_state");
        assert_eq!(f.label, "member");
        assert_eq!(suffix, "books-eu");
        assert!(labeled_for("breaker.state.").is_none(), "empty suffix never matches");
        assert!(labeled_for("serve.queries").is_none());
        // Every labeled family has a catalog row, a unique prom family, and
        // the aggregate `breaker.opened` never collides with a family name.
        let mut families = std::collections::BTreeSet::new();
        for f in LABELED {
            assert!(
                CATALOG.iter().any(|m| m.name == f.prefix),
                "labeled prefix {} missing from CATALOG",
                f.prefix
            );
            assert!(families.insert(f.family), "duplicate prom family {}", f.family);
            assert!(f.prefix.ends_with('.'), "prefix {} must end with a dot", f.prefix);
        }
    }

    #[test]
    fn every_catalog_name_is_documented() {
        // The docs catalog (docs/OBSERVABILITY.md) must mention every
        // exported metric name, so renaming or adding a metric forces the
        // documentation to follow.
        let docs = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../docs/OBSERVABILITY.md"
        ))
        .expect("docs/OBSERVABILITY.md readable from crates/obs");
        let mut missing: Vec<&str> =
            CATALOG.iter().map(|m| m.name).filter(|n| !docs.contains(*n)).collect();
        missing.sort_unstable();
        assert!(missing.is_empty(), "metric names missing from docs/OBSERVABILITY.md: {missing:?}");
    }
}
