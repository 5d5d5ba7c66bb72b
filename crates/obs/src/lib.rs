//! # csqp-obs — deterministic observability for the CSQP stack
//!
//! A zero-dependency tracing + metrics layer shared by the planner, the
//! executor, and the federation/resilience machinery.
//!
//! Two disciplines make it safe to golden-test everything it emits:
//!
//! 1. **Virtual ticks, no wall clock.** The [`Tracer`] stamps events with a
//!    monotonically increasing virtual tick that advances only when an event
//!    is recorded or a component explicitly charges simulated latency via
//!    [`trace::Tracer::advance`]. Two runs that perform the same logical
//!    steps produce byte-identical traces — the same discipline the fault
//!    layer already uses for `tests/golden_chaos.txt`.
//! 2. **Sorted, schema-stable snapshots.** The [`MetricsRegistry`] snapshot
//!    iterates `BTreeMap`s, so rendering (including
//!    [`metrics::MetricsSnapshot::to_json`]) is independent of insertion
//!    order and thread scheduling.
//!
//! A third member, the [`flight`] **query flight recorder**, answers *why*:
//! a bounded ring buffer of per-query [`flight::QueryRecord`]s holding every
//! planner decision (PR1/PR2/PR3 prunes, MCSC covers, candidate ranking,
//! failover and breaker transitions) as structured [`PlanEvent`]s,
//! replayable into the `EXPLAIN WHY` report. [`prom`] renders any
//! [`MetricsSnapshot`] in Prometheus text exposition format for the
//! `csqp serve` `/metrics` endpoint and `--metrics prom`.
//!
//! ## The off state is a value
//!
//! There is one build and no Cargo feature. A recorder that records
//! nothing is a run-time value of the same type: [`MetricsRegistry::off`],
//! [`Tracer::off`], [`FlightRecorder::off`], bundled as [`Obs::off`]. Every
//! recording call checks one flag before the lock, so an off recorder
//! builds no string and allocates nothing (closure-taking variants like
//! [`Tracer::event_with`] and [`QueryFlight::event_with`] never invoke
//! their closure; `tests/noop_overhead.rs` pins the zero-allocation claim
//! with a counting allocator). `Mediator::with_obs` / `Federation::with_obs`
//! select it; `docs/OBSERVABILITY.md` ("The off state is a value") has
//! what recording was measured to cost end to end.
//!
//! ## Fleet-level telemetry (plain data)
//!
//! Three modules extend the per-query layer across queries and runs:
//! [`timeseries`] keeps a fixed ring of windowed [`MetricsSnapshot`] deltas
//! cut from the registry's open window in O(series touched) (windowed
//! rates and histogram-merge p50/p99),
//! [`health`] folds a window of per-member signals into a scored
//! [`health::HealthReport`] plus SLO burn rates, and [`audit`] journals one
//! flat JSONL [`audit::AuditRecord`] per completed serve query with
//! size-based rotation and summarize/diff analysis for `csqp audit`. Like
//! [`profile`], they are plain data — fed by an off recorder the
//! snapshots they consume are empty and every rendering keeps its schema.

pub mod audit;
pub mod flight;
pub mod health;
pub mod metrics;
pub mod names;
pub mod profile;
pub mod prom;
pub mod span;
pub mod timeseries;
pub mod trace;

pub use audit::{AuditRecord, JournalSummary, JournalWriter};
pub use flight::{FlightRecorder, PlanEvent, QueryFlight, QueryRecord};
pub use health::{Grade, HealthReport, SloConfig, SourceSignals, StatusSummary};
pub use metrics::{HistogramSnapshot, MetricsRegistry, MetricsSnapshot, MetricsWindow};
pub use profile::{CardRow, LatencyKey, ProfileCapture, ProfileRing, QueryProfile};
pub use span::SpanRecord;
pub use timeseries::{TimeSeries, Window, WindowStamp};
pub use trace::{Span, TraceEvent, Tracer};

/// The bundle a component carries: one metrics registry plus one tracer.
#[derive(Debug, Default)]
pub struct Obs {
    /// Counters, gauges and histograms.
    pub metrics: MetricsRegistry,
    /// The deterministic span/event tracer.
    pub tracer: Tracer,
}

impl Obs {
    /// A fresh, empty, recording bundle.
    pub fn new() -> Self {
        Obs::default()
    }

    /// A bundle that records nothing: [`MetricsRegistry::off`] plus
    /// [`Tracer::off`].
    pub fn off() -> Self {
        Obs { metrics: MetricsRegistry::off(), tracer: Tracer::off() }
    }

    /// Whether this bundle records anything (false for [`Obs::off`]).
    pub const fn enabled(&self) -> bool {
        self.metrics.enabled()
    }
}
