//! The mediator façade: pick a scheme, plan a target query, execute it.
//!
//! This is also the wrapper-construction recipe of §2/§6: "if wrappers are
//! to provide generic relational capabilities for Internet sources, then
//! they need to implement a scheme like the one we describe" — a
//! [`Mediator`] over a single source *is* such a wrapper.

use crate::baselines::{plan_cnf, plan_disco, plan_dnf, plan_naive};
use crate::calibrate::CalibratedCard;
use crate::gencompact::{plan_compact, GenCompactConfig};
use crate::genmodular::{plan_modular, GenModularConfig};
use crate::plancache::PlanCache;
use crate::types::{PlanError, PlannedQuery, TargetQuery};
use csqp_expr::CondTree;
use csqp_obs::{
    names, CardRow, FlightRecorder, Obs, PlanEvent, ProfileCapture, QueryFlight, QueryProfile,
};
use csqp_plan::analyze::PlanAnalysis;
use csqp_plan::cost::{Cardinality, OracleCard, StatsCard, UniformCard};
use csqp_plan::exec::{ExecError, RetryPolicy};
use csqp_plan::exec_stream::{
    execute_stream, execute_stream_collect, ReplanController, ReplanProbe, Retry, SpliceAction,
    StreamConfig, StreamMode, StreamRequest, StreamStats,
};
use csqp_plan::model::CostModel;
use csqp_plan::AttrSet;
use csqp_relation::stream::TupleBatch;
use csqp_relation::Relation;
use csqp_source::{Meter, ResilienceMeter, Source};
use csqp_ssdl::linearize::{cond_fingerprint, Fingerprint};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// The planning scheme to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// GenCompact (§6) — the paper's contribution.
    GenCompact,
    /// GenModular (§5) — the naive exhaustive scheme.
    GenModular,
    /// Garlic-style CNF clause pushdown.
    Cnf,
    /// DNF term pushdown.
    Dnf,
    /// DISCO all-or-nothing.
    Disco,
    /// Naive full-relational pushdown.
    NaivePush,
}

impl Scheme {
    /// All schemes, GenCompact first (experiment table order).
    pub const ALL: [Scheme; 6] = [
        Scheme::GenCompact,
        Scheme::GenModular,
        Scheme::Cnf,
        Scheme::Dnf,
        Scheme::Disco,
        Scheme::NaivePush,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::GenCompact => "GenCompact",
            Scheme::GenModular => "GenModular",
            Scheme::Cnf => "CNF (Garlic)",
            Scheme::Dnf => "DNF",
            Scheme::Disco => "DISCO",
            Scheme::NaivePush => "NaivePush",
        }
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which cardinality estimator the cost model uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CardKind {
    /// Single-column statistics with independence (default).
    Stats,
    /// Exact sizes by executing selections against the relation (experiment
    /// oracle).
    Oracle,
    /// Fixed per-atom selectivity.
    Uniform {
        /// Assumed per-atom selectivity.
        atom_selectivity: f64,
    },
}

/// The outcome of planning + executing a target query.
#[derive(Debug)]
pub struct RunOutcome {
    /// The chosen plan and its estimated cost.
    pub planned: PlannedQuery,
    /// The query answer.
    pub rows: Relation,
    /// Transfer caused by this run (meter delta).
    pub meter: Meter,
    /// Measured cost of the run under the source's §6.2 constants.
    pub measured_cost: f64,
}

/// What a `run_stream` executes: a target query to plan first, or
/// something prepared earlier — for [`Mediator::run_stream`] a plan (a
/// rebound [`PlanCache`] hit goes straight to the engine without touching
/// the planner), for [`crate::Federation::run_stream`] a
/// [`crate::federation::PreparedFederated`] winner.
// Built and consumed once per run; boxing the plan would cost the served
// path an allocation per query.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum StreamInput<'a, P = PlannedQuery> {
    /// Plan this query, then run what was planned.
    Query(&'a TargetQuery),
    /// Run this as is.
    Prepared(P),
}

impl<'a, P> From<&'a TargetQuery> for StreamInput<'a, P> {
    fn from(query: &'a TargetQuery) -> Self {
        StreamInput::Query(query)
    }
}

impl From<PlannedQuery> for StreamInput<'_> {
    fn from(planned: PlannedQuery) -> Self {
        StreamInput::Prepared(planned)
    }
}

/// How [`Mediator::run_stream`] executes — the mode is this value, not the
/// method called. The variants exclude each other: analysis slots index
/// the *original* plan's leaves, which an adaptive splice would invalidate.
#[derive(Debug, Clone, Copy)]
pub enum StreamOptions<'a> {
    /// The plain pipeline under bounded memory, honoring
    /// [`StreamConfig::limit`] for early termination.
    Plain {
        /// Batch size and row limit.
        stream: &'a StreamConfig,
        /// Per-batch retries (a mid-stream fault repeats only the failed
        /// round-trip). `None` means any leaf fault is terminal.
        policy: Option<&'a RetryPolicy>,
    },
    /// Per-source-query estimated-vs-observed observation next to the
    /// pipeline's stats, feeding `EXPLAIN ANALYZE`
    /// ([`csqp_plan::exec_stream::explain_analyze_streamed`]) and the
    /// cost-model drift warnings.
    Analyzed(&'a StreamConfig),
    /// Mid-query adaptive re-planning: after every emitted batch a drift
    /// detector compares each source query's observed cardinality against
    /// its estimate, and when one exits the `[est/f, est·f]` band the
    /// pipeline pauses at the batch boundary, MCSC re-runs over the
    /// *residual* condition with estimates floored at the observed counts,
    /// and a structurally different winner is spliced in. Cross-segment
    /// deduplication keeps the answer set-identical to a plain run.
    Adaptive(&'a AdaptiveConfig),
}

impl<'a> StreamOptions<'a> {
    /// The plain pipeline without retries.
    pub fn plain(stream: &'a StreamConfig) -> Self {
        StreamOptions::Plain { stream, policy: None }
    }

    fn stream(&self) -> &'a StreamConfig {
        match *self {
            StreamOptions::Plain { stream, .. } | StreamOptions::Analyzed(stream) => stream,
            StreamOptions::Adaptive(cfg) => &cfg.stream,
        }
    }

    fn policy(&self) -> Option<&'a RetryPolicy> {
        match *self {
            StreamOptions::Plain { policy, .. } => policy,
            StreamOptions::Analyzed(_) => None,
            StreamOptions::Adaptive(cfg) => cfg.policy.as_ref(),
        }
    }

    fn span_label(&self) -> &'static str {
        match self {
            StreamOptions::Plain { policy: None, .. } => "execute (streamed)",
            StreamOptions::Plain { policy: Some(_), .. } => "execute (streamed, resilient)",
            StreamOptions::Analyzed(_) => "execute (streamed, analyzed)",
            StreamOptions::Adaptive(_) => "execute (adaptive)",
        }
    }
}

/// The outcome of [`Mediator::run_stream`].
#[derive(Debug)]
pub struct StreamOutcome {
    /// The plan-and-execute outcome. With a sink, `rows` is empty (the sink
    /// consumed the answer); `meter`/`measured_cost` cover the whole run.
    /// On adaptive runs `planned` holds the *original* chosen plan; when
    /// splices fired, the served pipeline diverged from it mid-flight (see
    /// the flight record's `[replan]` events).
    pub outcome: RunOutcome,
    /// Batch count and peak pipeline-resident tuples, accumulated across
    /// every pipeline segment.
    pub stats: StreamStats,
    /// Retry/fault metrics accumulated across the run.
    pub resilience: ResilienceMeter,
    /// How many re-planned sub-plans were spliced into the pipeline.
    pub splices: u64,
    /// How many times the drift detector fired (a trigger re-plans, but
    /// only splices when the re-planned residual structurally differs).
    pub drift_triggers: u64,
    /// Per-source-query observations of an analyzed run, pre-order over
    /// the plan tree (leaves the run never opened are absent — early
    /// termination).
    pub analysis: Option<PlanAnalysis>,
}

/// Knobs for an adaptive run ([`StreamOptions::Adaptive`]).
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// Streaming knobs (batch size, limit).
    pub stream: StreamConfig,
    /// Per-batch retry policy applied *before* a leaf failure would reach
    /// the controller. `None` means any leaf fault is terminal.
    pub policy: Option<RetryPolicy>,
    /// Upper bound on drift-triggered splices for one run (the engine
    /// additionally enforces its own global cap).
    pub max_splices: u64,
    /// Drift band half-width: a subquery drifts when its observed
    /// cardinality exits `[est/factor, est·factor]` (the paper-motivated
    /// default of 2.0 gives the `[½, 2]×` band). Values below 1.0 clamp
    /// to 1.0.
    pub drift_factor: f64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            stream: StreamConfig::default(),
            policy: None,
            max_splices: 4,
            drift_factor: 2.0,
        }
    }
}

/// One run's cardinality estimates, memoized by condition fingerprint.
/// Planning and the drift controller ask about the same leaf conditions,
/// and the estimate of a fixed condition never changes mid-query; an
/// oracle-backed estimator rescans the relation per call, so without the
/// memo a drift-watched run would pay for each leaf's estimate twice (once
/// to plan it, once at the first batch boundary), and without any cache
/// at every batch boundary.
#[derive(Default)]
struct EstimateMemo(RefCell<BTreeMap<Fingerprint, f64>>);

/// An estimator answering through a run's [`EstimateMemo`].
struct Memoized<'c> {
    card: &'c dyn Cardinality,
    memo: &'c EstimateMemo,
}

impl Cardinality for Memoized<'_> {
    fn estimate(&self, cond: Option<&CondTree>) -> f64 {
        let fp = cond_fingerprint(cond);
        if let Some(&e) = self.memo.0.borrow().get(&fp) {
            return e;
        }
        let e = self.card.estimate(cond);
        self.memo.0.borrow_mut().insert(fp, e);
        e
    }
}

/// The drift-triggered [`ReplanController`]: watches per-leaf observed
/// cardinality against the planner's estimates at every batch boundary,
/// and when a subquery exits the drift band, re-runs the planner over the
/// residual condition with estimates floored at the observed counts.
struct DriftController<'a> {
    med: &'a Mediator,
    attrs: AttrSet,
    /// The running query's flight record: where splices are narrated.
    flight_id: u64,
    drift_factor: f64,
    max_splices: u64,
    /// Observed-cardinality floors, monotonically raised — a re-plan can
    /// only get better-informed, so splice loops cannot oscillate.
    floors: BTreeMap<Fingerprint, f64>,
    /// The run's estimates, holding the ones planning already made.
    estimates: EstimateMemo,
    splices: u64,
    drift_triggers: u64,
    /// Next `probe.batches` value worth checking at; doubles after each
    /// trigger so a persistently drifting pipeline is not re-planned at
    /// every single batch.
    next_check: u64,
}

impl<'a> DriftController<'a> {
    /// Re-plans residuals for `planned`'s own output attributes (they are
    /// the query's) and narrates splices on its flight record.
    fn new(
        med: &'a Mediator,
        planned: &PlannedQuery,
        cfg: &AdaptiveConfig,
        estimates: EstimateMemo,
    ) -> Self {
        DriftController {
            med,
            attrs: planned.plan.output_attrs().clone(),
            flight_id: planned.flight_id,
            drift_factor: cfg.drift_factor.max(1.0),
            max_splices: cfg.max_splices,
            floors: BTreeMap::new(),
            estimates,
            splices: 0,
            drift_triggers: 0,
            next_check: 1,
        }
    }
}

impl ReplanController for DriftController<'_> {
    fn on_batch(&mut self, probe: &ReplanProbe<'_>) -> Option<SpliceAction> {
        if self.splices >= self.max_splices || probe.batches < self.next_check {
            return None;
        }
        let med = self.med;
        let factor = self.drift_factor;
        // Scan the open leaves: raise floors where a source shipped past
        // the band's upper edge (mid-flight counts only grow, so upward
        // drift is provable before the leaf finishes); note low-side
        // drift on exhausted leaves (their exact cardinality is known).
        let mut raised = false;
        let mut low_drift = false;
        let mut detail: Option<String> = None;
        med.with_card(|card| {
            let card = Memoized { card, memo: &self.estimates };
            for leaf in probe.leaves {
                let fp = cond_fingerprint(leaf.cond.as_ref());
                let est = match card.estimate(leaf.cond.as_ref()) {
                    e if e.is_finite() => e.max(0.0),
                    _ => 0.0,
                };
                let obs = leaf.rows_out as f64;
                if (obs + 1.0) > factor * (est + 1.0) {
                    let floor = self.floors.entry(fp).or_insert(0.0);
                    if obs > *floor {
                        *floor = obs;
                        raised = true;
                        detail.get_or_insert_with(|| {
                            format!("{} shipped {obs:.0} rows against est {est:.1}", leaf.rendered)
                        });
                    }
                } else if leaf.done && (obs + 1.0) * factor < (est + 1.0) {
                    low_drift = true;
                    detail.get_or_insert_with(|| {
                        format!("{} finished at {obs:.0} rows against est {est:.1}", leaf.rendered)
                    });
                }
            }
        });
        if !raised && !low_drift {
            self.next_check = probe.batches + 1;
            return None;
        }
        self.drift_triggers += 1;
        med.obs.metrics.inc(names::REPLAN_TRIGGERED);
        med.obs.metrics.inc(names::REPLAN_DRIFT_TRIGGERS);
        self.next_check = probe.batches.max(1) * 2;
        if !raised {
            // A pure overestimate: floors cannot lower an estimate, so a
            // re-plan would reproduce the same plan. Count the trigger and
            // keep streaming.
            return None;
        }
        let remaining = probe.remaining_plan()?;
        let residual = probe.residual_condition()?;
        let planned =
            med.replan_with_floors(&TargetQuery::new(residual, self.attrs.clone()), &self.floors)?;
        if planned.plan == remaining {
            // Better-informed MCSC stands by the running pipeline: no
            // structural change, nothing to splice.
            return None;
        }
        self.splices += 1;
        med.obs.metrics.inc(names::REPLAN_SPLICES);
        let detail = detail.unwrap_or_else(|| "cardinality drift".to_string());
        med.flight.note(self.flight_id, || PlanEvent::Replan {
            trigger: "drift",
            detail: detail.clone(),
            batch: probe.batches,
            emitted: probe.emitted,
            old_plan: remaining.to_string(),
            new_plan: planned.plan.to_string(),
        });
        med.obs.tracer.event_with(|| {
            format!(
                "replan (drift) at batch {} after {} rows: {detail}",
                probe.batches, probe.emitted
            )
        });
        Some(SpliceAction { plan: planned.plan, source: med.source.clone() })
    }

    fn on_leaf_error(
        &mut self,
        _probe: &ReplanProbe<'_>,
        _err: &ExecError,
    ) -> Option<SpliceAction> {
        // A single-source mediator has nowhere else to send the residual;
        // member-level recovery is `FederatedOptions::Splice`.
        None
    }
}

/// The outcome of a resilient run ([`Mediator::run_resilient`]).
#[derive(Debug)]
pub struct ResilientOutcome {
    /// The plan-and-execute outcome. `planned` holds the *primary* plan and
    /// its ranked alternatives; `rows`/`meter` come from the plan that
    /// actually served the answer.
    pub outcome: RunOutcome,
    /// Rank of the serving plan: 0 = primary, `i` = `i`-th alternative.
    pub plan_rank: usize,
    /// Cumulative resilience metrics across every plan tried.
    pub resilience: ResilienceMeter,
    /// `(rank, error)` for each plan that failed before the winner.
    pub failures: Vec<(usize, ExecError)>,
}

/// The error trail of a failed failover chain: `(plan rank, error)` per
/// candidate tried.
pub(crate) type FailureTrail = Vec<(usize, ExecError)>;

/// A ranked-failover win: the serving plan's run (its `resilience`
/// cumulative over every plan tried, its `planned` the primary with its
/// alternatives), the serving rank, and the candidates that died before it.
pub(crate) type RankedWin = (StreamOutcome, usize, FailureTrail);

/// Execution-stage errors surfaced by [`Mediator::run`].
#[derive(Debug)]
pub enum MediatorError {
    /// Planning failed.
    Plan(PlanError),
    /// Execution failed (should not happen for feasible plans).
    Exec(ExecError),
}

impl fmt::Display for MediatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MediatorError::Plan(e) => write!(f, "{e}"),
            MediatorError::Exec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for MediatorError {}

impl From<PlanError> for MediatorError {
    fn from(e: PlanError) -> Self {
        MediatorError::Plan(e)
    }
}

impl From<ExecError> for MediatorError {
    fn from(e: ExecError) -> Self {
        MediatorError::Exec(e)
    }
}

/// A mediator over one capability-limited source.
pub struct Mediator {
    source: Arc<Source>,
    scheme: Scheme,
    card: CardKind,
    compact_cfg: GenCompactConfig,
    modular_cfg: GenModularConfig,
    model: Option<Arc<dyn CostModel + Send + Sync>>,
    obs: Arc<Obs>,
    flight: Arc<FlightRecorder>,
}

impl fmt::Debug for Mediator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mediator")
            .field("source", &self.source.name)
            .field("scheme", &self.scheme)
            .field("card", &self.card)
            .field("custom_model", &self.model.is_some())
            .finish()
    }
}

impl Mediator {
    /// A GenCompact mediator with statistics-based costing.
    pub fn new(source: Arc<Source>) -> Self {
        Mediator {
            source,
            scheme: Scheme::GenCompact,
            card: CardKind::Stats,
            compact_cfg: GenCompactConfig::default(),
            modular_cfg: GenModularConfig::default(),
            model: None,
            obs: Arc::new(Obs::new()),
            // Disarmed by default: the planning hot path stays
            // provenance-free until a caller explicitly arms a recorder.
            flight: Arc::new(FlightRecorder::off()),
        }
    }

    /// Shares an observability handle (metrics registry + tracer) with this
    /// mediator. Several mediators can share one handle; their counters
    /// accumulate into the same registry. [`Obs::off`] selects the state
    /// that records nothing.
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Self {
        self.obs = obs;
        self
    }

    /// The observability handle: every planner/executor counter this
    /// mediator records, plus its deterministic trace.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// A point-in-time snapshot of every metric this mediator has recorded
    /// (empty under [`Obs::off`]).
    pub fn metrics_snapshot(&self) -> csqp_obs::MetricsSnapshot {
        self.obs.metrics.snapshot()
    }

    /// Arms this mediator with a flight recorder: every subsequent
    /// [`Mediator::plan`] call leaves a per-query decision trail
    /// (admissions, PR1/PR2/PR3 prunes, MCSC covers, ranking) replayable
    /// via [`Mediator::explain_why`]. Several mediators can share one
    /// recorder; records stay per-query. The default recorder is disarmed
    /// ([`FlightRecorder::off`]) and costs nothing on the planning path.
    pub fn with_flight_recorder(mut self, recorder: Arc<FlightRecorder>) -> Self {
        self.flight = recorder;
        self
    }

    /// The flight recorder (disarmed unless one was installed with
    /// [`Mediator::with_flight_recorder`]).
    pub fn flight_recorder(&self) -> &Arc<FlightRecorder> {
        &self.flight
    }

    /// Renders the `EXPLAIN WHY` report for the most recently planned
    /// query: the winner's decision trail plus the eliminating rule for
    /// every losing candidate. Returns a "recorder disabled" notice when no
    /// armed recorder has captured a flight.
    pub fn explain_why(&self) -> String {
        csqp_plan::why::explain_why(self.flight.latest().as_ref())
    }

    /// Overrides the cost model used for planning (§7 flexibility). The
    /// default is the source's §6.2 affine constants. Note that
    /// [`RunOutcome::measured_cost`] always reports in the §6.2 affine units
    /// (the meter records queries and tuples, not byte widths).
    pub fn with_cost_model(mut self, model: Arc<dyn CostModel + Send + Sync>) -> Self {
        self.model = Some(model);
        self
    }

    /// Frozen for the `benchmark/` package: returns the mediator
    /// unchanged. A mediator's cost model never changes after it is built,
    /// so it has nothing to invalidate; the cache belongs on the
    /// [`crate::Federation`] that serves lookups.
    pub fn with_plan_cache(self, _cache: Arc<PlanCache>) -> Self {
        self
    }

    /// Selects the planning scheme.
    pub fn with_scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Selects the cardinality estimator.
    pub fn with_cardinality(mut self, card: CardKind) -> Self {
        self.card = card;
        self
    }

    /// Overrides the GenCompact configuration.
    pub fn with_compact_config(mut self, cfg: GenCompactConfig) -> Self {
        self.compact_cfg = cfg;
        self
    }

    /// Overrides the GenModular configuration.
    pub fn with_modular_config(mut self, cfg: GenModularConfig) -> Self {
        self.modular_cfg = cfg;
        self
    }

    /// The source this mediator fronts.
    pub fn source(&self) -> &Arc<Source> {
        &self.source
    }

    /// The active scheme.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Runs `f` with the cardinality estimator selected by
    /// [`Mediator::with_cardinality`].
    fn with_card<T>(&self, f: impl FnOnce(&dyn Cardinality) -> T) -> T {
        let s = &self.source;
        match self.card {
            CardKind::Stats => f(&StatsCard::new(s.stats())),
            CardKind::Oracle => f(&OracleCard::new(s.relation())),
            CardKind::Uniform { atom_selectivity } => {
                f(&UniformCard { rows: s.relation().len() as f64, atom_selectivity })
            }
        }
    }

    /// The active cost model: the caller's override, or the source's §6.2
    /// affine constants.
    fn active_model(&self) -> &dyn CostModel {
        match &self.model {
            Some(m) => m.as_ref(),
            None => self.source.cost_params(),
        }
    }

    /// Plans a target query without executing it.
    pub fn plan(&self, query: &TargetQuery) -> Result<PlannedQuery, PlanError> {
        self.plan_estimating(query, &EstimateMemo::default())
    }

    /// [`Mediator::plan`], keeping every estimate it makes in `estimates`.
    fn plan_estimating(
        &self,
        query: &TargetQuery,
        estimates: &EstimateMemo,
    ) -> Result<PlannedQuery, PlanError> {
        let span = self.obs.tracer.span("plan");
        self.obs
            .tracer
            .event_with(|| format!("scheme {} on source {}", self.scheme, self.source.name));
        let flight = self.flight.begin_with(|| (query.to_string(), self.scheme.name().to_string()));
        let mut planned = self.with_card(|card| {
            let card = Memoized { card, memo: estimates };
            self.dispatch(query, &card, flight, Some(&self.obs.tracer))
        });
        match &mut planned {
            Ok(p) => {
                p.flight_id = flight.id();
                // Flush the planner's deterministic counters into the
                // registry and leave a replayable summary in the trace
                // (`elapsed` stays out of both — wall clock is not
                // deterministic).
                p.report.record_into(&self.obs.metrics);
                self.obs.tracer.event_with(|| {
                    format!(
                        "planned: est cost {:.2}, {} alternatives, {} checks, {} plans considered",
                        p.est_cost,
                        p.alternatives.len(),
                        p.report.checks,
                        p.report.plans_considered
                    )
                });
            }
            Err(e) => self.obs.tracer.event_with(|| format!("plan failed: {e}")),
        }
        span.close();
        planned
    }

    /// Plans while recording nothing — no flight record, no span, no trace
    /// event, no counter. For the federation's survey and splice target,
    /// which record each member's `report` themselves.
    pub(crate) fn plan_quiet(&self, query: &TargetQuery) -> Result<PlannedQuery, PlanError> {
        self.with_card(|card| self.dispatch(query, card, QueryFlight::disabled(), None))
    }

    fn dispatch(
        &self,
        query: &TargetQuery,
        card: &dyn csqp_plan::cost::Cardinality,
        flight: QueryFlight<'_>,
        tracer: Option<&csqp_obs::Tracer>,
    ) -> Result<PlannedQuery, PlanError> {
        let s = &self.source;
        let model = self.active_model();
        match self.scheme {
            Scheme::GenCompact => {
                plan_compact(query, s, card, &self.compact_cfg, model, flight, tracer)
            }
            Scheme::GenModular => {
                plan_modular(query, s, card, &self.modular_cfg, model, flight, tracer)
            }
            baseline => {
                let planned = match baseline {
                    Scheme::Cnf => plan_cnf(query, s, card, model),
                    Scheme::Dnf => plan_dnf(query, s, card, model),
                    Scheme::Disco => plan_disco(query, s, card, model),
                    _ => plan_naive(query, s, card, model),
                };
                // The baselines are single-shot translations with no search
                // to narrate; record the outcome so EXPLAIN WHY still names
                // the winner (or the failure) for these schemes.
                match &planned {
                    Ok(p) => {
                        flight.event_with(|| PlanEvent::Note {
                            text: format!(
                                "{} is a single-shot baseline: no per-decision provenance",
                                baseline.name()
                            ),
                        });
                        flight.event_with(|| PlanEvent::Winner {
                            cost: p.est_cost,
                            plan: p.plan.to_string(),
                        });
                    }
                    Err(e) => {
                        flight.event_with(|| PlanEvent::Note { text: format!("plan failed: {e}") })
                    }
                }
                planned
            }
        }
    }

    /// Plans and executes a target query, reporting the answer and the
    /// transfer it caused: [`Mediator::run_stream`], collecting.
    pub fn run(&self, query: &TargetQuery) -> Result<RunOutcome, MediatorError> {
        self.run_stream(query, StreamOptions::plain(&StreamConfig::default()), None)
            .map(|run| run.outcome)
    }

    /// Records one executed run into the registry, the trace and the
    /// query's flight record: transfer, cost, and the pipeline's stats.
    fn record_run(&self, out: &RunOutcome, stats: &StreamStats) {
        out.meter.record_into(&self.obs.metrics);
        self.obs.metrics.gauge_set(names::EXEC_EST_COST, out.planned.est_cost);
        self.obs.metrics.gauge_set(names::EXEC_OBSERVED_COST, out.measured_cost);
        self.obs.tracer.event_with(|| {
            format!(
                "answered: {} rows, {} source queries, measured cost {:.2} (est {:.2})",
                out.rows.len(),
                out.meter.queries,
                out.measured_cost,
                out.planned.est_cost
            )
        });
        stats.record_into(&self.obs.metrics);
        let streamed = || {
            format!(
                "streamed: {} batches, peak resident {} tuples",
                stats.batches, stats.peak_resident_tuples
            )
        };
        self.obs.tracer.event_with(streamed);
        self.flight.note(out.planned.flight_id, || PlanEvent::Note { text: streamed() });
    }

    /// Plans and executes with resilience: source round-trips retry with
    /// backoff per `policy`, and when the chosen plan still fails the
    /// mediator degrades gracefully to the next-cheapest ranked alternative
    /// instead of erroring. The error of every failed candidate is kept in
    /// [`ResilientOutcome::failures`] for explainability.
    pub fn run_resilient(
        &self,
        query: &TargetQuery,
        policy: &RetryPolicy,
    ) -> Result<ResilientOutcome, MediatorError> {
        let planned = self.plan(query)?;
        match self.run_ranked(planned, policy) {
            Ok((run, plan_rank, failures)) => Ok(ResilientOutcome {
                outcome: run.outcome,
                plan_rank,
                resilience: run.resilience,
                failures,
            }),
            Err((_, mut failures)) => {
                let (_, last) = failures.pop().expect("at least the primary plan was tried");
                Err(MediatorError::Exec(last))
            }
        }
    }

    /// Ranked-alternative plan failover, shared with the federation's
    /// member failover: runs `planned.plan`, then each ranked alternative
    /// in cost order, as collecting [`Mediator::run_stream`]s under
    /// `policy` until one answers (collecting only: rows a dead plan handed
    /// a sink could not be recalled). The resilience meter is cumulative
    /// over every plan tried, one failover per switch — also when every
    /// candidate dies and it comes back with the error trail.
    ///
    /// Plan-construction bugs ([`ExecError::Unresolved`]/
    /// [`ExecError::Malformed`]) abort immediately: every sibling plan came
    /// from the same planner, and masking a bug with a fallback would hide it.
    pub(crate) fn run_ranked(
        &self,
        planned: PlannedQuery,
        policy: &RetryPolicy,
    ) -> Result<RankedWin, (ResilienceMeter, FailureTrail)> {
        let stream = StreamConfig::default();
        let options = StreamOptions::Plain { stream: &stream, policy: Some(policy) };
        let mut resilience = ResilienceMeter::default();
        let mut failures: FailureTrail = Vec::new();
        let mut win = None;
        let alternatives = planned.alternatives.iter().map(|a| (&a.plan, a.est_cost));
        let candidates = std::iter::once((&planned.plan, planned.est_cost)).chain(alternatives);
        for (plan_rank, (plan, est_cost)) in candidates.enumerate() {
            if plan_rank > 0 {
                resilience.failovers += 1;
                self.obs.metrics.inc(names::RESILIENCE_FAILOVERS);
            }
            let candidate =
                PlannedQuery { plan: plan.clone(), est_cost, alternatives: Vec::new(), ..planned };
            match self.run_planned(candidate, options, None, EstimateMemo::default()) {
                Ok(run) => {
                    resilience.absorb(&run.resilience);
                    win = Some((run, plan_rank));
                    break;
                }
                Err((e, spent)) => {
                    resilience.absorb(&spent);
                    let bug = matches!(e, ExecError::Unresolved | ExecError::Malformed(_));
                    failures.push((plan_rank, e));
                    if bug {
                        break;
                    }
                }
            }
        }
        // Failover is part of the query's story: append it to the flight
        // record begun at plan time so EXPLAIN WHY shows the plan that
        // served alongside the one that won.
        for (rank, err) in &failures {
            self.flight.note(planned.flight_id, || PlanEvent::Failover {
                rank: *rank,
                detail: err.to_string(),
            });
        }
        let Some((run, plan_rank)) = win else {
            let (_, last) = failures.last().expect("at least the primary plan was tried");
            self.obs.tracer.event_with(|| format!("every plan died: {last}"));
            return Err((resilience, failures));
        };
        if plan_rank > 0 {
            self.flight.note(planned.flight_id, || PlanEvent::Note {
                text: format!("served by ranked alternative #{plan_rank}"),
            });
        }
        self.obs.tracer.event_with(|| {
            format!(
                "served by plan rank {plan_rank} after {} failover(s), {} retries",
                resilience.failovers, resilience.retries
            )
        });
        let outcome = RunOutcome { planned, ..run.outcome };
        Ok((StreamOutcome { outcome, resilience, ..run }, plan_rank, failures))
    }

    /// Re-plans a (residual) query with cardinality estimates floored at
    /// the observed per-condition counts in `floors`. Used mid-flight by
    /// the adaptive controllers; the planner's search runs disarmed (no
    /// flight record of its own — the splice is narrated as a `Replan`
    /// event on the original query's record) but its deterministic work
    /// counters still land in the registry. `None` when the residual is
    /// infeasible — the caller keeps the running pipeline.
    pub(crate) fn replan_with_floors(
        &self,
        query: &TargetQuery,
        floors: &BTreeMap<Fingerprint, f64>,
    ) -> Option<PlannedQuery> {
        // Replans run from sequential pause points (batch boundaries), so
        // their search legitimately nests a `replan` span under the running
        // execute span.
        let _replan_span = self.obs.tracer.span("replan");
        let planned = self.with_card(|card| {
            let cal = CalibratedCard::new(card, floors);
            self.dispatch(query, &cal, QueryFlight::disabled(), Some(&self.obs.tracer))
        });
        match planned {
            Ok(p) => {
                p.report.record_into(&self.obs.metrics);
                Some(p)
            }
            Err(e) => {
                self.obs.tracer.event_with(|| format!("replan infeasible: {e}"));
                None
            }
        }
    }

    /// The one function that executes: plans `input` (unless it already
    /// is a prepared plan) and runs it on the engine the way `options`
    /// says. With a `sink`, each deduplicated answer batch goes to it as it
    /// is produced (return `false` to stop early) — how `csqp serve`
    /// streams chunked responses — and the outcome's `rows` stays empty;
    /// without one the answer accumulates into `rows`. The run's
    /// [`StreamStats`] land in the `exec.*` metrics either way.
    pub fn run_stream<'q>(
        &self,
        input: impl Into<StreamInput<'q>>,
        options: StreamOptions<'_>,
        sink: Option<&mut dyn FnMut(TupleBatch) -> bool>,
    ) -> Result<StreamOutcome, MediatorError> {
        let estimates = EstimateMemo::default();
        let planned = match input.into() {
            StreamInput::Query(query) => {
                let planned = self.plan_estimating(query, &estimates)?;
                // The drift controller re-plans residuals for the plan's
                // own output attributes; they are the query's.
                debug_assert_eq!(planned.plan.output_attrs(), &query.attrs);
                planned
            }
            StreamInput::Prepared(planned) => planned,
        };
        self.run_planned(planned, options, sink, estimates).map_err(|(e, _)| MediatorError::Exec(e))
    }

    /// The body of [`Mediator::run_stream`] once a plan is in hand, with
    /// the estimates planning it made. A failure carries the retry/fault
    /// counters the run spent, which is how [`Mediator::run_ranked`] keeps
    /// one cumulative account across the plans it tries.
    // Built once per failed run, beside an `Ok` several times its size.
    #[allow(clippy::result_large_err)]
    fn run_planned(
        &self,
        planned: PlannedQuery,
        options: StreamOptions<'_>,
        sink: Option<&mut dyn FnMut(TupleBatch) -> bool>,
        estimates: EstimateMemo,
    ) -> Result<StreamOutcome, (ExecError, ResilienceMeter)> {
        let _span = self.obs.tracer.span(options.span_label());
        let before = self.source.meter();
        let mut resilience = ResilienceMeter::default();
        let mut drift = match options {
            StreamOptions::Adaptive(cfg) => {
                Some(DriftController::new(self, &planned, cfg, estimates))
            }
            _ => None,
        };
        let adaptive = drift.is_some();
        let retry = options.policy().map(|policy| Retry { policy, meter: &mut resilience });
        let result = self.with_card(|card| {
            let mode = match (&mut drift, options) {
                (Some(ctl), _) => StreamMode::Adaptive(ctl),
                (None, StreamOptions::Analyzed(_)) => {
                    StreamMode::Analyzed { model: self.active_model(), card }
                }
                (None, _) => StreamMode::Plain,
            };
            let request = StreamRequest {
                config: options.stream(),
                retry,
                mode,
                tracer: Some(&self.obs.tracer),
            };
            match sink {
                Some(sink) => execute_stream(&planned.plan, &self.source, request, sink)
                    .map(|run| (None, run)),
                None => execute_stream_collect(&planned.plan, &self.source, request)
                    .map(|(rows, run)| (Some(rows), run)),
            }
        });
        let drift_triggers = drift.map_or(0, |ctl| ctl.drift_triggers);
        if adaptive || options.policy().is_some() {
            // Resilience events always reach the registry — a failed run
            // is exactly when the retry counters matter most.
            resilience.record_into(&self.obs.metrics);
        }
        let (rows, run) = match result {
            Ok(ok) => ok,
            Err(e) => {
                if adaptive {
                    self.obs.tracer.event_with(|| format!("adaptive run died: {e}"));
                }
                return Err((e, resilience));
            }
        };
        let meter = self.source.meter().since(&before);
        let measured_cost = meter.cost(self.source.cost_params());
        let rows = match rows {
            Some(rows) => rows,
            None => {
                self.obs.tracer.event_with(|| format!("streamed {} rows to sink", run.emitted));
                Relation::empty(run.schema)
            }
        };
        let outcome = RunOutcome { planned, rows, meter, measured_cost };
        self.record_run(&outcome, &run.stats);
        if let Some(analysis) = &run.analysis {
            analysis.record_into(&self.obs.metrics);
            for w in analysis.drift_warnings() {
                self.obs.tracer.event_with(|| w.clone());
            }
        }
        if adaptive && run.splices > 0 {
            self.obs.tracer.event_with(|| {
                format!(
                    "adaptive: {} splice(s) from {drift_triggers} drift trigger(s)",
                    run.splices
                )
            });
        }
        Ok(StreamOutcome {
            outcome,
            stats: run.stats,
            resilience,
            splices: run.splices,
            drift_triggers,
            analysis: run.analysis,
        })
    }

    /// Frozen for the `benchmark/` package, which the next
    /// `benchmark`-archetype PR moves onto [`Mediator::run_stream`]:
    /// forwards to it with [`StreamOptions::plain`] and a sink.
    pub fn run_streamed_each_planned(
        &self,
        planned: PlannedQuery,
        cfg: &StreamConfig,
        sink: &mut dyn FnMut(TupleBatch) -> bool,
    ) -> Result<StreamOutcome, MediatorError> {
        self.run_stream(planned, StreamOptions::plain(cfg), Some(sink))
    }

    /// Frozen for the `benchmark/` package, which the next
    /// `benchmark`-archetype PR moves onto [`Mediator::run_stream`]:
    /// forwards to it with [`StreamOptions::Adaptive`] and a sink. The
    /// residual re-plans project the plan's own output attributes, so
    /// `_query` goes unread.
    pub fn run_adaptive_each_planned(
        &self,
        _query: &TargetQuery,
        planned: PlannedQuery,
        cfg: &AdaptiveConfig,
        sink: &mut dyn FnMut(TupleBatch) -> bool,
    ) -> Result<StreamOutcome, MediatorError> {
        self.run_stream(planned, StreamOptions::Adaptive(cfg), Some(sink))
    }

    /// Plans a query and captures a [`QueryProfile`] of the planning work:
    /// the span tree under `plan`, the registry delta, and the flight
    /// trail. `rows`/cardinalities stay empty — nothing executed.
    pub fn plan_profiled(
        &self,
        query: &TargetQuery,
    ) -> Result<(PlannedQuery, QueryProfile), PlanError> {
        let capture = ProfileCapture::begin(&self.obs);
        let planned = self.plan(query)?;
        let mut profile = self.finish_profile(capture, query, planned.flight_id);
        profile.est_cost = planned.est_cost;
        Ok((planned, profile))
    }

    /// Plans and executes with per-source-query observation
    /// ([`StreamOptions::Analyzed`]) and captures the full [`QueryProfile`]:
    /// span tree, metrics delta, flight trail, and est-vs-observed
    /// cardinalities per subquery. This is what `--explain=profile` renders.
    pub fn run_profiled(
        &self,
        query: &TargetQuery,
    ) -> Result<(StreamOutcome, QueryProfile), MediatorError> {
        let capture = ProfileCapture::begin(&self.obs);
        let outcome =
            self.run_stream(query, StreamOptions::Analyzed(&StreamConfig::default()), None)?;
        let mut profile = self.finish_profile(capture, query, outcome.outcome.planned.flight_id);
        profile.rows = outcome.outcome.rows.len() as u64;
        profile.est_cost = outcome.outcome.planned.est_cost;
        profile.observed_cost = outcome.outcome.measured_cost;
        profile.cardinalities = outcome
            .analysis
            .iter()
            .flat_map(|analysis| &analysis.subqueries)
            .map(|sq| CardRow {
                label: sq.rendered.clone(),
                est_rows: sq.est_rows,
                observed_rows: sq.observed_rows,
            })
            .collect();
        Ok((outcome, profile))
    }

    /// Closes `capture` into this mediator's profile skeleton: the window
    /// (spans, metrics delta, tick latency), the trail of flight
    /// `flight_id`, and the query/scheme labels. The caller fills in
    /// outcome-specific fields (rows, costs, cardinalities).
    fn finish_profile(
        &self,
        capture: ProfileCapture<'_>,
        query: &TargetQuery,
        flight_id: u64,
    ) -> QueryProfile {
        self.obs.metrics.inc(names::PROFILE_CAPTURED);
        QueryProfile {
            query: query.to_string(),
            scheme: self.scheme.name().to_string(),
            ..capture.finish(self.flight.record(flight_id).as_ref())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csqp_relation::ops::{project, select};
    use csqp_source::Catalog;

    const EX11: &str = "(author = \"Sigmund Freud\" _ author = \"Carl Jung\") ^ \
                        title contains \"dreams\"";

    #[test]
    fn run_example_1_1_across_schemes() {
        let catalog = Catalog::demo_small(7);
        let source = catalog.get("bookstore").unwrap().clone();
        let q = TargetQuery::parse(EX11, &["isbn", "author", "title"]).unwrap();
        let want = project(&select(source.relation(), Some(&q.cond)), &["isbn", "author", "title"])
            .unwrap();

        let mut costs = std::collections::HashMap::new();
        for scheme in [Scheme::GenCompact, Scheme::Dnf, Scheme::Cnf] {
            let m = Mediator::new(source.clone()).with_scheme(scheme);
            let out = m.run(&q).unwrap();
            assert_eq!(out.rows, want, "{scheme} returned a wrong answer");
            costs.insert(scheme, out.measured_cost);
        }
        // GenCompact ≤ DNF < CNF in measured cost on Example 1.1.
        assert!(costs[&Scheme::GenCompact] <= costs[&Scheme::Dnf] + 1e-9);
        assert!(costs[&Scheme::Dnf] < costs[&Scheme::Cnf]);
        // DISCO and naive pushdown are infeasible.
        for scheme in [Scheme::Disco, Scheme::NaivePush] {
            let m = Mediator::new(source.clone()).with_scheme(scheme);
            assert!(matches!(m.run(&q), Err(MediatorError::Plan(_))), "{scheme}");
        }
    }

    #[test]
    fn gencompact_and_genmodular_agree_on_cost() {
        let catalog = Catalog::demo_small(7);
        let source = catalog.get("car_dealer").unwrap().clone();
        let q = TargetQuery::parse(
            "(make = \"BMW\" ^ price < 40000) ^ (color = \"red\" _ color = \"black\")",
            &["model", "year"],
        )
        .unwrap();
        let compact = Mediator::new(source.clone()).plan(&q).unwrap();
        let modular =
            Mediator::new(source.clone()).with_scheme(Scheme::GenModular).plan(&q).unwrap();
        assert!(
            (compact.est_cost - modular.est_cost).abs() < 1e-6,
            "optimality preserved: compact {} vs modular {}",
            compact.est_cost,
            modular.est_cost
        );
    }

    #[test]
    fn cardinality_kinds_all_plan() {
        let catalog = Catalog::demo_small(7);
        let source = catalog.get("car_guide").unwrap().clone();
        let q = TargetQuery::parse(
            "style = \"sedan\" ^ make = \"Toyota\" ^ price <= 20000",
            &["listing_id", "model"],
        )
        .unwrap();
        for kind in [CardKind::Stats, CardKind::Oracle, CardKind::Uniform { atom_selectivity: 0.2 }]
        {
            let m = Mediator::new(source.clone()).with_cardinality(kind);
            let planned = m.plan(&q).unwrap();
            assert!(planned.plan.is_concrete());
        }
    }

    #[test]
    fn custom_cost_model_planning() {
        use csqp_plan::model::LatencyBandwidthCost;
        let catalog = Catalog::demo_small(7);
        let source = catalog.get("car_dealer").unwrap().clone();
        let q = TargetQuery::parse(
            "(make = \"BMW\" ^ price < 40000) ^ (color = \"red\" _ color = \"black\")",
            &["model", "year"],
        )
        .unwrap();
        let affine = Mediator::new(source.clone()).plan(&q).unwrap();
        let lbc = Mediator::new(source.clone())
            .with_cost_model(Arc::new(LatencyBandwidthCost::default()))
            .plan(&q)
            .unwrap();
        // Same feasibility, different units; both concrete and executable.
        assert!(lbc.plan.is_concrete());
        assert!((lbc.est_cost - affine.est_cost).abs() > 1e-9, "models differ in units");
        let out = Mediator::new(source.clone())
            .with_cost_model(Arc::new(LatencyBandwidthCost::default()))
            .run(&q)
            .unwrap();
        assert!(!out.rows.is_empty());
    }

    #[test]
    fn width_aware_model_prefers_narrow_fetches() {
        use csqp_plan::model::LatencyBandwidthCost;
        use csqp_plan::resolve::resolve;
        use csqp_plan::{attrs, Plan, UniformCard};
        // Two alternatives with identical row counts: a narrow direct query
        // vs a wide over-fetching nested plan. The width-aware model must
        // pick the narrow one when the width penalty exceeds the round trip.
        let cond = |s: &str| Some(csqp_expr::parse::parse_condition(s).unwrap());
        let wide = Plan::local(
            cond("b = 2"),
            attrs(["k"]),
            Plan::source(cond("a = 1"), attrs(["k", "b", "x", "y", "z", "w", "v", "u"])),
        );
        let narrow = Plan::source(cond("a = 1 ^ b = 2"), attrs(["k"]));
        let space = Plan::Choice(vec![wide.clone(), narrow.clone()]);
        let card = UniformCard { rows: 1000.0, atom_selectivity: 0.5 };
        let model = LatencyBandwidthCost {
            latency: 1.0,
            bytes_per_attr: 16.0,
            tuple_overhead: 0.0,
            bandwidth: 16.0,
        };
        let picked = resolve(&space, &model, &card);
        assert_eq!(picked, narrow, "width-aware model avoids the 8-attribute fetch");
    }

    #[test]
    fn gencompact_keeps_ranked_alternatives() {
        let catalog = Catalog::demo_small(7);
        let source = catalog.get("bookstore").unwrap().clone();
        let q = TargetQuery::parse(EX11, &["isbn", "author", "title"]).unwrap();
        let planned = Mediator::new(source).plan(&q).unwrap();
        assert!(!planned.alternatives.is_empty(), "losers survive as ranked alternatives");
        let mut prev = planned.est_cost;
        for alt in &planned.alternatives {
            assert!(alt.est_cost >= prev - 1e-9, "alternatives ranked cheapest-first");
            assert!(alt.plan != planned.plan, "the winner is not duplicated");
            assert!(alt.plan.is_concrete());
            prev = alt.est_cost;
        }
    }

    #[test]
    fn run_resilient_retries_through_transient_faults() {
        use csqp_source::FaultProfile;
        use csqp_ssdl::templates;
        let data = csqp_relation::datagen::books(7, &Default::default());
        let source = Arc::new(
            Source::new(data, templates::bookstore(), csqp_source::CostParams::default())
                .with_fault_profile(FaultProfile::new(4).with_transient(0.5)),
        );
        let q = TargetQuery::parse(EX11, &["isbn", "author", "title"]).unwrap();
        let want = project(&select(source.relation(), Some(&q.cond)), &["isbn", "author", "title"])
            .unwrap();
        let m = Mediator::new(source);
        let policy = RetryPolicy { max_retries: 20, ..Default::default() };
        let out = m.run_resilient(&q, &policy).unwrap();
        assert_eq!(out.outcome.rows, want, "answer exact despite the storm");
        assert!(out.resilience.retries > 0, "seed 4 at p=0.5 injects faults");
        assert_eq!(out.plan_rank, 0, "retries alone salvaged the primary plan");
    }

    #[test]
    fn run_resilient_fails_over_to_alternative_plan() {
        use csqp_source::FaultProfile;
        use csqp_ssdl::templates;
        // The first attempt is an outage and retries are disabled: the
        // primary plan dies, the mediator degrades to the next-ranked
        // alternative, which starts past the outage window and succeeds.
        let data = csqp_relation::datagen::books(7, &Default::default());
        let source = Arc::new(
            Source::new(data, templates::bookstore(), csqp_source::CostParams::default())
                .with_fault_profile(FaultProfile::new(0).with_outage(0, 1)),
        );
        let q = TargetQuery::parse(EX11, &["isbn", "author", "title"]).unwrap();
        let want = project(&select(source.relation(), Some(&q.cond)), &["isbn", "author", "title"])
            .unwrap();
        let m = Mediator::new(source);
        let policy = RetryPolicy { max_retries: 0, ..Default::default() };
        let out = m.run_resilient(&q, &policy).unwrap();
        assert_eq!(out.outcome.rows, want, "the fallback plan is exact too");
        assert!(out.plan_rank >= 1, "served by an alternative, not the primary");
        assert_eq!(out.resilience.failovers as usize, out.plan_rank);
        assert_eq!(out.failures.len(), out.plan_rank, "one recorded failure per dead plan");
        assert!(matches!(out.failures[0].1, ExecError::Exhausted { .. }));
    }

    #[test]
    fn run_resilient_errors_when_every_plan_dies() {
        use csqp_source::FaultProfile;
        use csqp_ssdl::templates;
        let data = csqp_relation::datagen::books(7, &Default::default());
        let source = Arc::new(
            Source::new(data, templates::bookstore(), csqp_source::CostParams::default())
                .with_fault_profile(FaultProfile::new(0).with_transient(1.0)),
        );
        let q = TargetQuery::parse(EX11, &["isbn", "author", "title"]).unwrap();
        let m = Mediator::new(source);
        let err = m.run_resilient(&q, &RetryPolicy::default()).unwrap_err();
        assert!(matches!(err, MediatorError::Exec(ExecError::Exhausted { .. })), "{err}");
    }

    /// Tests that read telemetry run once per recorder state, so the off
    /// value's renderings are asserted beside the recording ones.
    fn both_obs() -> [Arc<Obs>; 2] {
        [Arc::new(Obs::new()), Arc::new(Obs::off())]
    }

    #[test]
    fn metrics_snapshot_counts_planner_and_exec_work() {
        for obs in both_obs() {
            let catalog = Catalog::demo_small(7);
            let source = catalog.get("bookstore").unwrap().clone();
            let q = TargetQuery::parse(EX11, &["isbn", "author", "title"]).unwrap();
            let m = Mediator::new(source).with_obs(obs);
            let out = m.run(&q).unwrap();
            let snap = m.metrics_snapshot();
            if m.obs().enabled() {
                assert!(snap.counter(names::PLANNER_CHECK_CALLS) > 0, "planner counters flushed");
                assert_eq!(
                    snap.counter(names::SOURCE_QUERIES),
                    out.meter.queries,
                    "meter routed through"
                );
                let trace = m.obs().tracer.render();
                assert!(trace.contains("> plan"), "trace records the planning span:\n{trace}");
                assert!(trace.contains("> execute"), "trace records the execution span:\n{trace}");
                // A second identical mediator produces a byte-identical trace:
                // virtual ticks, not wall clock.
                let m2 = Mediator::new(catalog.get("bookstore").unwrap().clone());
                m2.run(&q).unwrap();
                assert_eq!(m2.obs().tracer.render(), trace, "trace is deterministic");
            } else {
                assert_eq!(snap.counter(names::PLANNER_CHECK_CALLS), 0, "off recorder stays empty");
                assert!(m.obs().tracer.render().is_empty());
            }
        }
    }

    #[test]
    fn run_analyzed_matches_run_and_sees_every_fetch() {
        let catalog = Catalog::demo_small(7);
        let source = catalog.get("bookstore").unwrap().clone();
        let q = TargetQuery::parse(EX11, &["isbn", "author", "title"]).unwrap();
        let plain = Mediator::new(source.clone()).run(&q).unwrap();
        let m = Mediator::new(source).with_cardinality(CardKind::Oracle);
        let analyzed =
            m.run_stream(&q, StreamOptions::Analyzed(&StreamConfig::default()), None).unwrap();
        assert_eq!(analyzed.outcome.rows, plain.rows, "analysis is observation-only");
        let analysis = analyzed.analysis.expect("an analyzed run reports its analysis");
        assert_eq!(
            analysis.subqueries.len(),
            analyzed.outcome.planned.plan.source_queries().len(),
            "one observation per source query"
        );
        // The oracle estimator knows exact sizes, so nothing drifts.
        assert!(analysis.drift_warnings().is_empty());
    }

    #[test]
    fn shared_obs_handle_accumulates_across_mediators() {
        for obs in both_obs() {
            let catalog = Catalog::demo_small(7);
            let q = TargetQuery::parse(EX11, &["isbn", "author", "title"]).unwrap();
            let m1 = Mediator::new(catalog.get("bookstore").unwrap().clone()).with_obs(obs.clone());
            m1.run(&q).unwrap();
            let after_one = m1.metrics_snapshot().counter(names::SOURCE_QUERIES);
            let m2 = Mediator::new(catalog.get("bookstore").unwrap().clone()).with_obs(obs);
            m2.run(&q).unwrap();
            let after_two = m2.metrics_snapshot().counter(names::SOURCE_QUERIES);
            if m1.obs().enabled() {
                assert_eq!(after_two, after_one * 2, "two identical runs, one shared registry");
            } else {
                assert_eq!(after_two, 0);
            }
        }
    }

    #[test]
    fn wrapper_usage_shape() {
        // A mediator as a per-source wrapper: callers just ask SP queries.
        let catalog = Catalog::demo_small(7);
        let bank = catalog.get("bank").unwrap().clone();
        let wrapper = Mediator::new(bank);
        let q = TargetQuery::parse(
            "acct_no = \"acct-00007\" ^ pin = \"pin-00007\"",
            &["owner", "balance"],
        )
        .unwrap();
        let out = wrapper.run(&q).unwrap();
        assert_eq!(out.rows.len(), 1);
        assert!(out.meter.queries >= 1);
        assert!(out.measured_cost > 0.0);
    }

    #[test]
    fn run_streamed_matches_run() {
        for obs in both_obs() {
            let catalog = Catalog::demo_small(7);
            let source = catalog.get("bookstore").unwrap().clone();
            let q = TargetQuery::parse(EX11, &["isbn", "author", "title"]).unwrap();
            let plain = Mediator::new(source.clone()).run(&q).unwrap();
            let m = Mediator::new(source).with_obs(obs);
            let streamed =
                m.run_stream(&q, StreamOptions::plain(&StreamConfig::default()), None).unwrap();
            assert_eq!(streamed.outcome.rows, plain.rows, "streaming is a pure execution change");
            assert_eq!(streamed.outcome.meter, plain.meter, "identical transfer");
            assert_eq!(streamed.outcome.measured_cost, plain.measured_cost);
            assert_eq!((streamed.splices, streamed.drift_triggers), (0, 0));
            assert!(streamed.analysis.is_none(), "analysis is opt-in");
            assert!(streamed.stats.batches > 0);
            let snap = m.metrics_snapshot();
            if m.obs().enabled() {
                assert_eq!(snap.counter(names::EXEC_BATCHES), streamed.stats.batches);
            }
        }
    }

    #[test]
    fn run_streamed_each_feeds_the_sink_incrementally() {
        let catalog = Catalog::demo_small(7);
        let source = catalog.get("bookstore").unwrap().clone();
        let q = TargetQuery::parse(EX11, &["isbn", "author", "title"]).unwrap();
        let want = Mediator::new(source.clone()).run(&q).unwrap().rows;
        let m = Mediator::new(source);
        let mut got: Vec<csqp_relation::tuple::Tuple> = Vec::new();
        let out = m
            .run_stream(
                &q,
                StreamOptions::plain(&StreamConfig::default()),
                Some(&mut |b| {
                    got.extend(b.into_tuples());
                    true
                }),
            )
            .unwrap();
        assert!(out.outcome.rows.is_empty(), "the sink consumed the answer");
        assert_eq!(Relation::from_tuples(want.schema().clone(), got), want);
        assert_eq!(
            out.outcome.meter,
            Mediator::new(catalog.get("bookstore").unwrap().clone()).run(&q).unwrap().meter
        );
    }

    #[test]
    fn run_streamed_limit_stops_early() {
        let catalog = Catalog::demo_small(7);
        let source = catalog.get("bookstore").unwrap().clone();
        let q = TargetQuery::parse(EX11, &["isbn", "author", "title"]).unwrap();
        let full = Mediator::new(source.clone()).run(&q).unwrap().rows;
        assert!(full.len() > 1, "need more than one row for the limit to bite");
        let m = Mediator::new(source);
        let cfg = StreamConfig::default().with_limit(1);
        let limited = m.run_stream(&q, StreamOptions::plain(&cfg), None).unwrap();
        assert_eq!(limited.outcome.rows.len(), 1);
        assert!(full.contains(&limited.outcome.rows.tuples()[0]));
    }

    #[test]
    fn run_streamed_resilient_survives_transient_faults() {
        use csqp_source::FaultProfile;
        use csqp_ssdl::templates;
        let data = csqp_relation::datagen::books(7, &Default::default());
        let source = Arc::new(
            Source::new(data, templates::bookstore(), csqp_source::CostParams::default())
                .with_fault_profile(FaultProfile::new(4).with_transient(0.5)),
        );
        let q = TargetQuery::parse(EX11, &["isbn", "author", "title"]).unwrap();
        let want = project(&select(source.relation(), Some(&q.cond)), &["isbn", "author", "title"])
            .unwrap();
        let m = Mediator::new(source);
        let policy = RetryPolicy { max_retries: 20, ..Default::default() };
        let options =
            StreamOptions::Plain { stream: &StreamConfig::default(), policy: Some(&policy) };
        let out = m.run_stream(&q, options, None).unwrap();
        assert_eq!(out.outcome.rows, want, "answer exact despite the storm");
        assert!(out.resilience.retries > 0, "seed 4 at p=0.5 injects faults");
    }

    #[test]
    fn run_streamed_analyzed_renders_the_memory_footer() {
        let catalog = Catalog::demo_small(7);
        let source = catalog.get("bookstore").unwrap().clone();
        let q = TargetQuery::parse(EX11, &["isbn", "author", "title"]).unwrap();
        let want = Mediator::new(source.clone()).run(&q).unwrap().rows;
        let m = Mediator::new(source).with_cardinality(CardKind::Oracle);
        let out =
            m.run_stream(&q, StreamOptions::Analyzed(&StreamConfig::default()), None).unwrap();
        assert_eq!(out.outcome.rows, want);
        let analysis = out.analysis.expect("an analyzed run reports its analysis");
        let text = csqp_plan::exec_stream::explain_analyze_streamed(
            &out.outcome.planned.plan,
            &analysis,
            &out.stats,
        );
        assert!(text.contains("peak resident"), "{text}");
        assert_eq!(
            analysis.subqueries.len(),
            out.outcome.planned.plan.source_queries().len(),
            "no early termination: every source query observed"
        );
    }

    /// A source whose real data contradicts a uniform estimator: the
    /// `a ^ b` form looks vanishingly selective but actually matches 150
    /// of 200 rows, while the `c` form looks expensive but matches 5.
    fn drifty_source() -> Arc<Source> {
        use csqp_expr::{Value, ValueType};
        use csqp_relation::Schema;
        use csqp_ssdl::parse_ssdl;
        let schema = Schema::new(
            "t",
            vec![
                ("k", ValueType::Int),
                ("a", ValueType::Int),
                ("b", ValueType::Int),
                ("c", ValueType::Int),
            ],
            &["k"],
        )
        .unwrap();
        let rows: Vec<Vec<Value>> = (0..200i64)
            .map(|i| {
                let ab = i64::from(i < 150);
                let c = i64::from(i < 150 && i % 40 == 0);
                vec![Value::Int(i), Value::Int(ab), Value::Int(ab), Value::Int(c)]
            })
            .collect();
        let desc = parse_ssdl(
            "source drifty {\n\
             s1 -> a = $int ^ b = $int ;\n\
             s2 -> c = $int ;\n\
             attributes :: s1 : { k, a, b, c } ;\n\
             attributes :: s2 : { k, a, b, c } ;\n\
             }",
        )
        .unwrap();
        Arc::new(Source::new(
            Relation::from_rows(schema, rows),
            desc,
            csqp_source::CostParams::new(10.0, 1.0),
        ))
    }

    #[test]
    fn run_adaptive_matches_run_when_nothing_drifts() {
        let catalog = Catalog::demo_small(7);
        let source = catalog.get("bookstore").unwrap().clone();
        let q = TargetQuery::parse(EX11, &["isbn", "author", "title"]).unwrap();
        let plain = Mediator::new(source.clone()).run(&q).unwrap();
        // The oracle estimator is exact, so the drift band never trips.
        let m = Mediator::new(source).with_cardinality(CardKind::Oracle);
        let out =
            m.run_stream(&q, StreamOptions::Adaptive(&AdaptiveConfig::default()), None).unwrap();
        assert_eq!(out.outcome.rows, plain.rows, "adaptive execution is answer-preserving");
        assert_eq!(out.splices, 0, "exact estimates leave nothing to re-plan");
        assert_eq!(out.outcome.meter, plain.meter, "no splice: identical transfer");
    }

    #[test]
    fn run_adaptive_splices_on_cardinality_drift() {
        use csqp_obs::FlightRecorder;
        let source = drifty_source();
        let q = TargetQuery::parse("a = 1 ^ b = 1 ^ c = 1", &["k"]).unwrap();
        let want = project(&select(source.relation(), Some(&q.cond)), &["k"]).unwrap();
        assert_eq!(want.len(), 4, "rows 0, 40, 80, 120 match all three atoms");
        // The uniform estimator prices `a ^ b` at 200·0.05² = 0.5 rows and
        // `c` at 10, so planning picks the a^b form — which actually ships
        // 150 tuples.
        let cfg = AdaptiveConfig {
            stream: StreamConfig::default().with_batch_size(2),
            ..Default::default()
        };
        for (obs, recorder) in
            both_obs().into_iter().zip([FlightRecorder::new(), FlightRecorder::off()])
        {
            let m = Mediator::new(source.clone())
                .with_cardinality(CardKind::Uniform { atom_selectivity: 0.05 })
                .with_obs(obs)
                .with_flight_recorder(Arc::new(recorder));
            let out = m.run_stream(&q, StreamOptions::Adaptive(&cfg), None).unwrap();
            assert_eq!(out.outcome.rows, want, "splicing never changes the answer set");
            assert!(out.drift_triggers >= 1, "the a^b leaf exits the [½,2]× band");
            assert!(out.splices >= 1, "floored re-plan switches to the c form");
            let snap = m.metrics_snapshot();
            if m.obs().enabled() {
                assert_eq!(snap.counter(names::REPLAN_SPLICES), out.splices);
                assert!(snap.counter(names::REPLAN_DRIFT_TRIGGERS) >= out.drift_triggers);
                let why = m.explain_why();
                assert!(why.contains("[replan] drift"), "EXPLAIN WHY renders the splice:\n{why}");
            }
            // Determinism: a second identical run takes the same decisions.
            let m2 = Mediator::new(drifty_source())
                .with_cardinality(CardKind::Uniform { atom_selectivity: 0.05 });
            let out2 = m2.run_stream(&q, StreamOptions::Adaptive(&cfg), None).unwrap();
            assert_eq!(out2.outcome.rows, want);
            assert_eq!(out2.splices, out.splices);
            assert_eq!(out2.drift_triggers, out.drift_triggers);
            assert_eq!(out2.outcome.meter, out.outcome.meter);
        }
    }

    #[test]
    fn run_adaptive_each_streams_the_same_answer() {
        let source = drifty_source();
        let q = TargetQuery::parse("a = 1 ^ b = 1 ^ c = 1", &["k"]).unwrap();
        let want = project(&select(source.relation(), Some(&q.cond)), &["k"]).unwrap();
        let m =
            Mediator::new(source).with_cardinality(CardKind::Uniform { atom_selectivity: 0.05 });
        let cfg = AdaptiveConfig {
            stream: StreamConfig::default().with_batch_size(2),
            ..Default::default()
        };
        let mut got: Vec<csqp_relation::tuple::Tuple> = Vec::new();
        let out = m
            .run_stream(
                &q,
                StreamOptions::Adaptive(&cfg),
                Some(&mut |b| {
                    got.extend(b.into_tuples());
                    true
                }),
            )
            .unwrap();
        assert!(out.outcome.rows.is_empty(), "the sink consumed the answer");
        assert_eq!(Relation::from_tuples(want.schema().clone(), got), want);
    }

    #[test]
    fn federation_run_streamed_matches_run() {
        use crate::federation::Federation;
        let catalog = Catalog::demo_small(7);
        let fed = Federation::new()
            .with_member(catalog.get("bookstore").unwrap().clone())
            .with_member(catalog.get("car_dealer").unwrap().clone());
        let q = TargetQuery::parse(EX11, &["isbn", "author", "title"]).unwrap();
        use crate::federation::FederatedOptions;
        let plain = fed.run(&q).unwrap().stream.outcome;
        let cfg = StreamConfig::default();
        let options = FederatedOptions::Winner(StreamOptions::plain(&cfg));
        let streamed = fed.run_stream(&q, options, None).unwrap().stream;
        assert_eq!(streamed.outcome.rows, plain.rows, "federation streaming is execution-only");
        assert_eq!(streamed.outcome.planned.plan, plain.planned.plan, "same chosen member plan");
        assert!(streamed.stats.batches > 0);
    }
}
