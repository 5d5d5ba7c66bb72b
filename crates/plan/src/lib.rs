//! # csqp-plan — mediator plans, cost model, executor
//!
//! Mediator query plans for selection queries over a capability-limited
//! source (§3, §5, §6.2 of the paper):
//!
//! - [`plan`] — the plan ADT, including the §5.3 `Choice` operator;
//! - [`feasible`] — the §4 feasibility test (every source query supported);
//! - [`cost`] — the §6.2 linear cost model with pluggable cardinality
//!   estimation (statistics / oracle / uniform);
//! - [`mod@resolve`] — Choice resolution (GenModular's cost module);
//! - [`exec`] — the *reference* executor (fix order → query source →
//!   postprocess with σ/π/∩/∪), with transfer metering: what every
//!   differential compares the engine against, not an execution path;
//! - [`explain`] — `SP(C, A, R)` notation rendering;
//! - [`exec_stream`] — the executor: pull-based batch pipelines with
//!   bounded memory (`batch_size × pipeline depth`), row-limit early
//!   termination, per-round-trip retry;
//! - [`analyze`] — `EXPLAIN ANALYZE`: the per-source-query
//!   estimated-vs-observed record of an analyzed run, and drift detection;
//! - [`why`] — `EXPLAIN WHY`: replays a flight-recorder decision trail
//!   into a report naming the eliminating rule for every losing candidate.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analyze;
pub mod cost;
pub mod exec;
pub mod exec_stream;
pub mod explain;
pub mod feasible;
pub mod model;
pub mod plan;
pub mod resolve;
pub mod why;

pub use analyze::{explain_analyze, PlanAnalysis, SubQueryObs};
pub use cost::{Cardinality, OracleCard, StatsCard, UniformCard};
pub use exec::{execute, execute_measured, ExecError, RetryPolicy};
pub use exec_stream::{
    execute_stream, execute_stream_collect, explain_analyze_streamed, plan_condition, LeafProgress,
    ReplanController, ReplanProbe, Retry, SpliceAction, StreamConfig, StreamMode, StreamRequest,
    StreamRun, StreamStats,
};
pub use feasible::is_feasible;
pub use model::{CostModel, LatencyBandwidthCost};
pub use plan::{attrs, AttrSet, Plan};
pub use resolve::{resolve, resolve_with_cost};
pub use why::explain_why;
