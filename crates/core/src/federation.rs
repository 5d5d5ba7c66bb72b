//! Source selection across mirrors: the same logical data offered by
//! several Internet sources with *different* capabilities and cost
//! constants (e.g. two bookstores, one searchable by author only, one
//! downloadable but slow).
//!
//! The federation plans the target query against every member and executes
//! the cheapest feasible plan — capability-sensitivity applied one level up
//! from [`crate::mediator::Mediator`]. It keeps one warm mediator per
//! member; [`Federation::run_stream`] is the one function that executes,
//! and how a failing member is recovered from is its
//! [`FederatedOptions`] value.

use crate::capindex::CapabilityIndex;
use crate::mediator::{
    CardKind, Mediator, MediatorError, RunOutcome, Scheme, StreamInput, StreamOptions,
    StreamOutcome,
};
use crate::plancache::{CacheDecision, Lookup, PlanCache};
use crate::types::{PlanError, PlannedQuery, TargetQuery};
use csqp_obs::{names, FlightRecorder, Obs, PlanEvent, QueryFlight};
use csqp_plan::exec::{ExecError, RetryPolicy};
use csqp_plan::exec_stream::{
    execute_stream, execute_stream_collect, plan_condition, ReplanController, ReplanProbe, Retry,
    SpliceAction, StreamConfig, StreamMode, StreamRequest,
};
use csqp_plan::AttrSet;
use csqp_relation::stream::TupleBatch;
use csqp_relation::Relation;
use csqp_source::{Meter, ResilienceMeter, Source};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Circuit-breaker policy for federation members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CircuitBreakerConfig {
    /// Consecutive execution failures that open the breaker (quarantine).
    pub failure_threshold: u32,
    /// Federated runs the member sits out once quarantined; afterwards it
    /// is *half-open* — offered one probe, closing on success and
    /// re-opening on failure.
    pub cooldown_ticks: u64,
}

impl Default for CircuitBreakerConfig {
    fn default() -> Self {
        CircuitBreakerConfig { failure_threshold: 3, cooldown_ticks: 2 }
    }
}

/// Per-member breaker state. The clock is the federation's own run counter
/// (one tick per [`FederatedOptions::Failover`] or
/// [`FederatedOptions::Splice`] run) — no wall-clock, so quarantine windows
/// replay deterministically.
#[derive(Debug, Default)]
struct BreakerState {
    consecutive_failures: AtomicU32,
    /// 0 = closed; otherwise the tick at which the member turns half-open.
    half_open_at: AtomicU64,
}

/// What the breaker allows a member to do in the current run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerGate {
    Closed,
    Quarantined,
    HalfOpen,
}

impl BreakerState {
    fn gate(&self, now: u64) -> BreakerGate {
        let at = self.half_open_at.load(Ordering::Relaxed);
        if at == 0 {
            BreakerGate::Closed
        } else if now < at {
            BreakerGate::Quarantined
        } else {
            BreakerGate::HalfOpen
        }
    }

    /// Resets the breaker; returns `true` when this actually closed an
    /// open/half-open breaker (a state transition worth counting), and
    /// then takes it off the federation's `tripped` count.
    fn record_success(&self, tripped: &AtomicUsize) -> bool {
        self.consecutive_failures.store(0, Ordering::Relaxed);
        let closed = self.half_open_at.swap(0, Ordering::Relaxed) != 0;
        if closed {
            tripped.fetch_sub(1, Ordering::Relaxed);
        }
        closed
    }

    /// Registers a failed run; returns `true` when this opened (or
    /// re-opened) the breaker, counting it in `tripped` when it was closed.
    fn record_failure(&self, now: u64, cfg: &CircuitBreakerConfig, tripped: &AtomicUsize) -> bool {
        let failures = self.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
        let half_open = self.half_open_at.load(Ordering::Relaxed);
        // A failed half-open probe re-opens immediately; otherwise open
        // once the threshold is crossed.
        if half_open != 0 || failures >= cfg.failure_threshold {
            if self.half_open_at.swap(now + cfg.cooldown_ticks + 1, Ordering::Relaxed) == 0 {
                tripped.fetch_add(1, Ordering::Relaxed);
            }
            return true;
        }
        false
    }
}

/// A set of interchangeable sources for one logical relation.
#[derive(Debug)]
pub struct Federation {
    members: Vec<Arc<Source>>,
    /// One warm mediator per member, in member order, sharing this
    /// federation's observability handle and flight recorder: it plans the
    /// member's candidate and streams the member's answers.
    mediators: Vec<Mediator>,
    breakers: Vec<BreakerState>,
    /// Breakers that are not closed. Every close/open transition moves it
    /// (wrapping: a close may land just before the matching open's
    /// increment), so zero means all closed except for that instant —
    /// when a nonzero reading only costs [`Federation::breaker_summary`]
    /// its full scan.
    tripped: AtomicUsize,
    scheme: Scheme,
    card: CardKind,
    breaker_cfg: CircuitBreakerConfig,
    /// Virtual clock: one tick per breaker-gated run.
    clock: AtomicU64,
    obs: Arc<Obs>,
    flight: Arc<FlightRecorder>,
    /// Compiled capability index over the members (source pre-selection).
    /// Built lazily on first plan; invalidated by membership changes.
    capindex: OnceLock<CapabilityIndex>,
    use_capindex: bool,
    /// Prepared-plan cache consulted by [`Federation::prepare`]; absent by
    /// default (every prepare bypasses to cold planning).
    plan_cache: Option<Arc<PlanCache>>,
}

impl Default for Federation {
    fn default() -> Self {
        Federation::new()
    }
}

/// One entry of a federated failover trace: what happened to a member
/// during a breaker-gated run, in the order members were considered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemberEvent {
    /// Skipped: the circuit breaker is open.
    Quarantined,
    /// Planning failed (the member cannot answer this query).
    Infeasible,
    /// The breaker was half-open and this attempt was its probe.
    Probed,
    /// Every plan (primary + alternatives) failed at execution; the last
    /// error, rendered.
    ExecFailed(String),
    /// This member was spliced into a running adaptive pipeline to serve
    /// the residual of the named member, which failed mid-stream.
    Spliced(String),
    /// This member served the answer.
    Served,
}

/// Externally observable health of one member's circuit breaker, as
/// exposed by [`Federation::breaker_states`] and the `breaker.state.*`
/// gauges: what the breaker would allow the *next* federated run to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerHealth {
    /// Healthy: the member participates normally.
    Closed,
    /// Cooling down: the member sits runs out.
    Open,
    /// Cooldown elapsed: the member gets one probe attempt.
    HalfOpen,
}

impl BreakerHealth {
    /// Stable gauge encoding: 0 closed, 1 half-open, 2 open.
    pub fn as_gauge(&self) -> f64 {
        match self {
            BreakerHealth::Closed => 0.0,
            BreakerHealth::HalfOpen => 1.0,
            BreakerHealth::Open => 2.0,
        }
    }

    /// Human-readable label (`closed` / `half-open` / `open`), used by the
    /// serve trailer.
    pub fn label(&self) -> &'static str {
        match self {
            BreakerHealth::Closed => "closed",
            BreakerHealth::HalfOpen => "half-open",
            BreakerHealth::Open => "open",
        }
    }
}

/// The planning verdicts of one federated query. Only the members the
/// capability index let through are planned, so only they get a verdict —
/// the estimated cost of their plan, or why they have none, in member
/// order. The members it pruned are infeasible with certainty and are
/// only counted, so the record grows with the candidates, not the
/// federation.
#[derive(Debug, Default)]
pub struct Considered {
    /// `(member, verdict)` per planned member, in member order.
    pub verdicts: Vec<(String, Result<f64, PlanError>)>,
    /// Members the capability index pruned without planning.
    pub pruned: usize,
}

impl Considered {
    /// Members the decision covered: planned plus pruned.
    pub fn members(&self) -> usize {
        self.verdicts.len() + self.pruned
    }
}

/// The breakers that are not closed, and how many are: the sparse view
/// the served trailer and query profiles carry, built by one scan of the
/// breakers that allocates only for a breaker that is not closed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BreakerSummary {
    /// `(member, health)` per breaker that is not closed, in member order.
    pub tripped: Vec<(String, BreakerHealth)>,
    /// Breakers that are closed.
    pub closed: usize,
}

impl std::fmt::Display for BreakerSummary {
    /// `m3:open 3999 closed`, or `5 closed` when every breaker is.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (member, health) in &self.tripped {
            write!(f, "{member}:{} ", health.label())?;
        }
        write!(f, "{} closed", self.closed)
    }
}

/// A member-ordered failover trace (member name, event). A member can
/// appear twice: once `Probed`, then `Served`/`ExecFailed`.
pub type FailoverTrace = Vec<(String, MemberEvent)>;

/// The outcome of [`Federation::run_stream`].
#[derive(Debug)]
pub struct FederatedRun {
    /// The run on the serving member. `outcome.planned` is that member's
    /// *primary* plan with its ranked alternatives (the first member's on a
    /// spliced run); `resilience` is cumulative across every member and
    /// plan tried (member switches and mid-stream splices count as
    /// failovers, on top of plan switches). After a splice `outcome.meter`
    /// and `measured_cost` aggregate over every member that shipped tuples,
    /// each charged at its own §6.2 constants, and `splices` counts them.
    pub stream: StreamOutcome,
    /// Name of the member that served the answer (the last splice target
    /// when splices fired).
    pub source_name: String,
    /// Rank of the serving plan on that member (0 = its primary plan).
    pub plan_rank: usize,
    /// The per-member event trace, for explainability and determinism
    /// checks. Empty under [`FederatedOptions::Winner`]: no member but the
    /// winner is touched.
    pub trace: FailoverTrace,
    /// Per-member planning verdicts — empty after a plan-cache hit, where
    /// no member was planned.
    pub considered: Considered,
    /// The flight record narrating this query (0 with a disarmed recorder).
    pub flight_id: u64,
}

/// What [`Federation::run_stream`] executes: a query to plan federation-wide
/// first, or the winner an earlier [`Federation::prepare`] picked — how
/// `csqp serve` keeps the cache decision and the flight id in hand before
/// the first row ships. A prepared winner runs under
/// [`FederatedOptions::Winner`] only: one member's plan gives failover and
/// splice nobody to turn to.
pub type FederatedInput<'a> = StreamInput<'a, PreparedFederated>;

impl From<PreparedFederated> for FederatedInput<'_> {
    fn from(prepared: PreparedFederated) -> Self {
        StreamInput::Prepared(prepared)
    }
}

/// What [`Federation::run_stream`] does about a member that fails — the
/// recovery policy is this value, not the method called. The two recovering
/// policies leave different recorded traces and both consult and move the
/// circuit breakers.
#[derive(Debug, Clone, Copy)]
pub enum FederatedOptions<'a> {
    /// The planning winner serves, on its mediator, the way the inner
    /// options say — or the run fails. Breakers are neither consulted nor
    /// moved.
    Winner(StreamOptions<'a>),
    /// Whole-plan member failover: members are tried cheapest-first; within
    /// a member round-trips retry per the policy, then its ranked plan
    /// alternatives run; when it still fails the next-cheapest member
    /// starts from scratch. A member that fails
    /// [`CircuitBreakerConfig::failure_threshold`] consecutive runs sits
    /// `cooldown_ticks` runs out, then gets a half-open probe. Each attempt
    /// collects — a dead member's partial answer must not leak — so a sink
    /// receives the answer in one batch once a member has served.
    Failover(&'a RetryPolicy),
    /// Mid-stream splice: the cheapest member's plan streams, and when it
    /// dies *mid-pipeline* (per-round-trip retries exhausted) its breaker
    /// opens, the paused pipeline's residual condition is re-planned on
    /// the next-cheapest gated candidate, and that plan is spliced into
    /// the running stream — already-emitted tuples are deduplicated away,
    /// so the answer matches a fault-free run, and neither the work done
    /// before the fault nor the failed member's whole plan is redone.
    Splice {
        /// Per-round-trip retries applied before a leaf failure counts.
        policy: &'a RetryPolicy,
        /// Batch size and row limit.
        stream: &'a StreamConfig,
    },
}

/// Outcome of [`Federation::prepare`]: the member to execute on, the plan
/// (rebound from the prepared-plan cache, or cold-planned), and how the
/// cache answered.
#[derive(Debug)]
pub struct PreparedFederated {
    /// Index of the winning member in [`Federation::members`].
    pub member: usize,
    /// The plan to execute on that member.
    pub planned: PlannedQuery,
    /// How the prepared-plan cache probe went.
    pub decision: CacheDecision,
    /// Per-member planning verdicts — empty on a cache hit, where no
    /// member was planned.
    pub considered: Considered,
    /// The flight record narrating this prepare (0 with a disarmed
    /// recorder). Captured from the begin handle itself, so it stays
    /// correct when concurrent queries interleave their flights.
    pub flight_id: u64,
}

impl PreparedFederated {
    /// `(candidates, total)` of the capability-index decision this
    /// prepare's planning survey made (every member is a candidate without
    /// an index), or `None` on a cache hit, where no survey ran.
    pub fn surveyed(&self) -> Option<(usize, usize)> {
        (self.decision != CacheDecision::Hit)
            .then(|| (self.considered.verdicts.len(), self.considered.members()))
    }
}

/// A federation planning decision.
#[derive(Debug)]
pub struct FederatedPlan {
    /// Index of the chosen member in [`Federation::members`].
    pub member: usize,
    /// The chosen source.
    pub source: Arc<Source>,
    /// Its plan.
    pub planned: PlannedQuery,
    /// Per-member verdicts, for explainability.
    pub considered: Considered,
    /// The flight record narrating this plan (0 with a disarmed recorder).
    pub flight_id: u64,
}

impl Federation {
    /// An empty federation.
    pub fn new() -> Self {
        Federation {
            members: Vec::new(),
            mediators: Vec::new(),
            breakers: Vec::new(),
            tripped: AtomicUsize::new(0),
            scheme: Scheme::GenCompact,
            card: CardKind::Stats,
            breaker_cfg: CircuitBreakerConfig::default(),
            clock: AtomicU64::new(0),
            obs: Arc::new(Obs::new()),
            flight: Arc::new(FlightRecorder::off()),
            capindex: OnceLock::new(),
            use_capindex: true,
            plan_cache: None,
        }
    }

    /// Arms this federation with a flight recorder: every `plan` /
    /// `run_stream` call leaves a per-query record of member selection,
    /// breaker transitions, failovers and the serving member's stream
    /// notes, replayable via [`Federation::explain_why`].
    pub fn with_flight_recorder(mut self, recorder: Arc<FlightRecorder>) -> Self {
        self.flight = recorder.clone();
        self.map_mediators(|m| m.with_flight_recorder(recorder.clone()))
    }

    /// Re-threads a builder setting through the member mediators.
    fn map_mediators(mut self, f: impl Fn(Mediator) -> Mediator) -> Self {
        self.mediators = self.mediators.into_iter().map(f).collect();
        self
    }

    /// The flight recorder (disarmed by default).
    pub fn flight_recorder(&self) -> &Arc<FlightRecorder> {
        &self.flight
    }

    /// Renders the `EXPLAIN WHY` report for the most recent federated
    /// query (see [`csqp_plan::why::explain_why`]).
    pub fn explain_why(&self) -> String {
        csqp_plan::why::explain_why(self.flight.latest().as_ref())
    }

    /// Shares an observability handle with this federation and its member
    /// mediators. Member planning records nothing on its own — the survey
    /// flushes each candidate's report into this registry in member order.
    /// [`Obs::off`] selects the state that records nothing.
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Self {
        self.obs = obs.clone();
        self.map_mediators(|m| m.with_obs(obs.clone()))
    }

    /// The observability handle.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// Member-attributed health-tap counter: `<prefix><member>` += `delta`.
    /// The suffix-named `member.*` families feed the windowed health scorer
    /// (`csqp_obs::health::signals_from_window`). Gated on a recording
    /// registry so an off one pays for neither the formatting nor the lock;
    /// zero deltas are skipped so windows only carry members with activity.
    fn tap(&self, prefix: &str, member: &str, delta: u64) {
        if self.obs.enabled() && delta > 0 {
            self.obs.metrics.add(&format!("{prefix}{member}"), delta);
        }
    }

    /// A point-in-time snapshot of every metric this federation recorded,
    /// plus one `breaker.state.<member>` gauge per member read from the live
    /// breakers, so `/metrics` always shows current health (a pure function
    /// of the deterministic run clock). The gauges live in the returned
    /// snapshot only, never in the registry: registry snapshots, time-series
    /// windows and query profiles do not grow with the federation.
    pub fn metrics_snapshot(&self) -> csqp_obs::MetricsSnapshot {
        let mut snap = self.obs.metrics.snapshot();
        if self.obs.enabled() {
            for (member, health) in self.members.iter().zip(self.breaker_healths()) {
                let gauge = format!("{}{}", names::BREAKER_STATE_PREFIX, member.name);
                snap.gauges.insert(gauge, health.as_gauge());
            }
        }
        snap
    }

    /// Live per-member breaker health, in member order: what the breaker
    /// would allow each member to do in the next federated run. Reads the
    /// run clock without advancing it.
    pub fn breaker_states(&self) -> Vec<(String, BreakerHealth)> {
        self.members.iter().map(|m| m.name.clone()).zip(self.breaker_healths()).collect()
    }

    /// [`Federation::breaker_states`] without the closed members: the
    /// non-closed ones by name, the closed ones counted. O(1) while every
    /// breaker is closed; a scan of the breakers otherwise.
    pub fn breaker_summary(&self) -> BreakerSummary {
        if self.tripped.load(Ordering::Relaxed) == 0 {
            return BreakerSummary { tripped: Vec::new(), closed: self.members.len() };
        }
        let mut summary = BreakerSummary::default();
        for (member, health) in self.members.iter().zip(self.breaker_healths()) {
            match health {
                BreakerHealth::Closed => summary.closed += 1,
                _ => summary.tripped.push((member.name.clone(), health)),
            }
        }
        summary
    }

    /// Each member's breaker health for the next run, in member order.
    fn breaker_healths(&self) -> impl Iterator<Item = BreakerHealth> + '_ {
        let next = self.clock.load(Ordering::Relaxed) + 1;
        self.breakers.iter().map(move |b| match b.gate(next) {
            BreakerGate::Closed => BreakerHealth::Closed,
            BreakerGate::Quarantined => BreakerHealth::Open,
            BreakerGate::HalfOpen => BreakerHealth::HalfOpen,
        })
    }

    /// Adds a member source (and builds its mediator, once).
    pub fn with_member(mut self, source: Arc<Source>) -> Self {
        self.mediators.push(
            Mediator::new(source.clone())
                .with_scheme(self.scheme)
                .with_cardinality(self.card)
                .with_obs(self.obs.clone())
                .with_flight_recorder(self.flight.clone()),
        );
        self.members.push(source);
        self.breakers.push(BreakerState::default());
        // Membership changed: any compiled index is stale, and cached
        // prepared plans chose their winner against the old member set.
        self.capindex = OnceLock::new();
        self.plancache_invalidate("membership change");
        self
    }

    /// Installs a prepared-plan cache: [`Federation::prepare`] serves
    /// repeat query *shapes* out of it instead of re-running the planning
    /// survey, and every breaker transition or membership change wipes it
    /// (the cached winners were chosen against a world that no longer
    /// holds).
    pub fn with_plan_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.plan_cache = Some(cache);
        self
    }

    /// The installed prepared-plan cache, if any.
    pub fn plan_cache(&self) -> Option<&Arc<PlanCache>> {
        self.plan_cache.as_ref()
    }

    /// Wipes the prepared-plan cache (no-op without one): the world the
    /// cached winners were ranked against changed.
    fn plancache_invalidate(&self, why: &str) {
        if let Some(cache) = &self.plan_cache {
            let dropped = cache.invalidate_all();
            self.obs.metrics.inc(names::PLANCACHE_INVALIDATIONS);
            self.obs.metrics.gauge_set(names::PLANCACHE_ENTRIES, 0.0);
            self.obs.tracer.event_with(|| {
                format!("plan cache invalidated ({why}): {dropped} entries dropped")
            });
        }
    }

    /// Enables or disables the compiled capability index pre-filter
    /// (enabled by default). With the index off every member is planned in
    /// full — the reference behaviour the differential suite compares
    /// against; plans and answers are identical either way.
    pub fn with_capability_index(mut self, on: bool) -> Self {
        self.use_capindex = on;
        self
    }

    /// The compiled capability index, building it on first use. `None`
    /// when the pre-filter is disabled.
    pub fn capability_index(&self) -> Option<&CapabilityIndex> {
        if !self.use_capindex {
            return None;
        }
        Some(self.capindex.get_or_init(|| {
            let idx = CapabilityIndex::build(&self.members);
            // One virtual tick per member's facts compilation —
            // deterministic, so it is safe under golden snapshots.
            self.obs.metrics.add(names::CAPINDEX_BUILD_TICKS, idx.len() as u64);
            idx
        }))
    }

    /// The planning survey every selection starts from: plans `query` on
    /// each member the capability index lets through, in member order,
    /// into the feasible `(member, plan)` list — plans stamped with
    /// `flight`'s id — and the planned members' verdicts. A member the
    /// index pruned is infeasible with certainty: no planning is spent on
    /// it and it is only counted, so the per-query cost scales with the
    /// candidate set, not the federation. Members plan quietly; this loop
    /// records each one's span, report, event and verdict.
    fn survey(
        &self,
        query: &TargetQuery,
        flight: QueryFlight<'_>,
    ) -> (Vec<(usize, PlannedQuery)>, Considered) {
        let decision = self.capability_index().map(|idx| {
            let _span = self.obs.tracer.span("capindex select");
            idx.candidates(query)
        });
        let work: Vec<usize> = match &decision {
            Some(d) => d.candidates.iter().map(|i| i as usize).collect(),
            None => (0..self.members.len()).collect(),
        };
        if let Some(d) = &decision {
            self.obs.metrics.add(names::CAPINDEX_CANDIDATES, d.candidates.len() as u64);
            self.obs.metrics.add(names::CAPINDEX_PRUNED, d.pruned as u64);
            self.obs.metrics.add(names::FEDERATION_INFEASIBLE, d.pruned as u64);
            self.obs.tracer.event_with(|| {
                format!(
                    "capability index: {} of {} members remain ({} pruned)",
                    d.candidates.len(),
                    d.total,
                    d.pruned
                )
            });
            flight.event_with(|| PlanEvent::IndexPrune {
                total: d.total,
                candidates: d.candidates.len(),
                pruned: d.pruned,
            });
        }
        let mut feasible = Vec::new();
        let mut considered = Considered {
            verdicts: Vec::with_capacity(work.len()),
            pruned: decision.map_or(0, |d| d.pruned),
        };
        for idx in work {
            let name = &self.members[idx].name;
            // One span per *planned* candidate. Guarded so a disabled
            // tracer skips the label formatting entirely.
            let _member_span = self
                .obs
                .tracer
                .is_enabled()
                .then(|| self.obs.tracer.span(&format!("member {name}")));
            match self.mediators[idx].plan_quiet(query) {
                Ok(mut p) => {
                    p.flight_id = flight.id();
                    p.report.record_into(&self.obs.metrics);
                    self.obs
                        .tracer
                        .event_with(|| format!("member {name}: est cost {:.2}", p.est_cost));
                    considered.verdicts.push((name.clone(), Ok(p.est_cost)));
                    feasible.push((idx, p));
                }
                Err(e) => {
                    self.obs.metrics.inc(names::FEDERATION_INFEASIBLE);
                    self.obs.tracer.event_with(|| format!("member {name}: infeasible ({e})"));
                    flight.event_with(|| PlanEvent::Note {
                        text: format!("member {name}: infeasible ({e})"),
                    });
                    considered.verdicts.push((name.clone(), Err(e)));
                }
            }
        }
        (feasible, considered)
    }

    /// Selects the cardinality estimator used for every member.
    pub fn with_cardinality(mut self, card: CardKind) -> Self {
        self.card = card;
        self.map_mediators(|m| m.with_cardinality(card))
    }

    /// Selects the planning scheme of every member mediator (GenCompact by
    /// default): cold planning and mid-query re-plans both run under it.
    pub fn with_scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = scheme;
        self.map_mediators(|m| m.with_scheme(scheme))
    }

    /// Overrides the circuit-breaker policy of the breaker-gated runs
    /// ([`FederatedOptions::Failover`], [`FederatedOptions::Splice`]).
    pub fn with_breaker(mut self, cfg: CircuitBreakerConfig) -> Self {
        self.breaker_cfg = cfg;
        self
    }

    /// The member sources.
    pub fn members(&self) -> &[Arc<Source>] {
        &self.members
    }

    /// Plans `query` against every member and picks the cheapest feasible
    /// plan (estimated cost under each member's own cost constants). The
    /// earliest member wins cost ties.
    pub fn plan(&self, query: &TargetQuery) -> Result<FederatedPlan, PlanError> {
        let _span = self.obs.tracer.span("federation plan");
        let flight = self.flight.begin_with(|| (query.to_string(), "Federation".to_string()));
        let (mut feasible, considered) = self.survey(query, flight);
        let best = (0..feasible.len()).min_by(|&a, &b| by_cost(&feasible[a], &feasible[b]));
        let best = best.ok_or_else(|| PlanError::NoFeasiblePlan {
            query: query.to_string(),
            scheme: "Federation",
        })?;
        let (winner_idx, planned) = &feasible[best];
        let winner = &self.members[*winner_idx];
        self.obs
            .tracer
            .event_with(|| format!("chose {} at est cost {:.2}", winner.name, planned.est_cost));
        flight.event_with(|| PlanEvent::Winner {
            cost: planned.est_cost,
            plan: planned.plan.to_string(),
        });
        // Every losing member gets an elimination reason: the winner
        // undercut its estimated cost (earliest member wins ties).
        for (idx, loser) in feasible.iter().filter(|(idx, _)| idx != winner_idx) {
            flight.event_with(|| PlanEvent::Eliminated {
                rule: "cost",
                cost: loser.est_cost,
                plan: loser.plan.to_string(),
                detail: format!(
                    "member {}: est cost {:.2} vs winner {:.2} on {}",
                    self.members[*idx].name, loser.est_cost, planned.est_cost, winner.name
                ),
            });
        }
        let (member, planned) = feasible.swap_remove(best);
        let source = self.members[member].clone();
        Ok(FederatedPlan { member, source, planned, considered, flight_id: flight.id() })
    }

    /// Plans `query`, consulting the prepared-plan cache first (when one
    /// is installed with [`Federation::with_plan_cache`]).
    ///
    /// - **Hit**: the query's parameterized shape matched a cached entry
    ///   and its constants rebound cleanly — the planning survey is
    ///   skipped entirely. A fresh flight record still narrates the hit so
    ///   journal/profile ids stay unique per query.
    /// - **Miss / rejected**: falls back to [`Federation::plan`]
    ///   (byte-identical behaviour to calling it directly) and stores the
    ///   winner for the next query of this shape.
    pub fn prepare(&self, query: &TargetQuery) -> Result<PreparedFederated, PlanError> {
        let decision = match &self.plan_cache {
            None => CacheDecision::Bypass,
            Some(cache) => match cache.lookup(query, &self.members) {
                Lookup::Hit { member, mut planned } => {
                    self.obs.metrics.inc(names::PLANCACHE_HITS);
                    self.obs.metrics.gauge_set(names::PLANCACHE_ENTRIES, cache.len() as f64);
                    let flight =
                        self.flight.begin_with(|| (query.to_string(), "Federation".to_string()));
                    let name = &self.members[member].name;
                    self.obs.tracer.event_with(|| {
                        format!(
                            "plan cache hit: member {name}, prepared est cost {:.2}",
                            planned.est_cost
                        )
                    });
                    flight.event_with(|| PlanEvent::Note {
                        text: format!(
                            "prepared-plan cache hit on member {name}: constants rebound, \
                             planner skipped"
                        ),
                    });
                    flight.event_with(|| PlanEvent::Winner {
                        cost: planned.est_cost,
                        plan: planned.plan.to_string(),
                    });
                    planned.flight_id = flight.id();
                    return Ok(PreparedFederated {
                        member,
                        planned: *planned,
                        decision: CacheDecision::Hit,
                        considered: Considered::default(),
                        flight_id: flight.id(),
                    });
                }
                Lookup::Miss => {
                    self.obs.metrics.inc(names::PLANCACHE_MISSES);
                    CacheDecision::Miss
                }
                Lookup::Rejected(reason) => {
                    self.obs.metrics.inc(names::PLANCACHE_REJECTED);
                    self.obs.tracer.event_with(|| {
                        format!("plan cache entry rejected ({reason}); planning cold")
                    });
                    CacheDecision::Rejected(reason)
                }
            },
        };
        let fp = self.plan(query)?;
        if let Some(cache) = &self.plan_cache {
            cache.insert(query, fp.member, fp.planned.clone());
            self.obs.metrics.gauge_set(names::PLANCACHE_ENTRIES, cache.len() as f64);
        }
        Ok(PreparedFederated {
            member: fp.member,
            planned: fp.planned,
            decision,
            considered: fp.considered,
            flight_id: fp.flight_id,
        })
    }

    /// Plans and executes on the winning member: [`Federation::run_stream`]
    /// under [`FederatedOptions::Winner`], collecting.
    pub fn run(&self, query: &TargetQuery) -> Result<FederatedRun, MediatorError> {
        let stream = StreamConfig::default();
        self.run_stream(query, FederatedOptions::Winner(StreamOptions::plain(&stream)), None)
    }

    /// The one function that executes: plans `input` federation-wide
    /// (unless it already is a prepared winner) and runs it the way
    /// `options` says. With a `sink`, each deduplicated answer batch goes
    /// to it (return `false` to stop early) and the outcome's `rows` stays
    /// empty; without one the answer accumulates into `rows`.
    ///
    /// The decision sequence is deterministic: members are planned in
    /// member order, execution visits them in cost order with the member
    /// index as tie-break, and the breaker clock counts runs, not wall
    /// time — the same seed yields the same [`FederatedRun::trace`].
    pub fn run_stream<'q>(
        &self,
        input: impl Into<FederatedInput<'q>>,
        options: FederatedOptions<'_>,
        sink: Option<&mut dyn FnMut(TupleBatch) -> bool>,
    ) -> Result<FederatedRun, MediatorError> {
        let input = input.into();
        let (policy, splice) = match options {
            FederatedOptions::Winner(options) => {
                let prepared = match input {
                    StreamInput::Query(query) => self.prepare(query)?,
                    StreamInput::Prepared(prepared) => prepared,
                };
                return self.run_winner(prepared, options, sink);
            }
            FederatedOptions::Failover(policy) => (policy, None),
            FederatedOptions::Splice { policy, stream } => (policy, Some(stream)),
        };
        let StreamInput::Query(query) = input else {
            return Err(MediatorError::Plan(PlanError::MalformedQuery(
                "member failover and splice rank every member: pass the query".into(),
            )));
        };
        let label = if splice.is_some() { "federation run (adaptive)" } else { "federation run" };
        let _span = self.obs.tracer.span(label);
        let (candidates, gated) = self.gated_candidates(query)?;
        match splice {
            Some(stream) => self.run_spliced(candidates, gated, policy, stream, sink),
            None => self.run_failover(candidates, gated, policy, sink),
        }
    }

    /// [`FederatedOptions::Winner`]: the prepared plan streams on the
    /// winner's mediator — the query is *not* re-planned — and the answer
    /// is attributed to the member.
    fn run_winner(
        &self,
        prepared: PreparedFederated,
        options: StreamOptions<'_>,
        sink: Option<&mut dyn FnMut(TupleBatch) -> bool>,
    ) -> Result<FederatedRun, MediatorError> {
        let PreparedFederated { member, planned, considered, flight_id, .. } = prepared;
        let name = &self.members[member].name;
        let stream =
            self.mediators[member].run_stream(planned, options, sink).inspect_err(|_| {
                // The failure is the winner's: its health signal.
                self.tap(names::MEMBER_ERRORS_PREFIX, name, 1);
            })?;
        self.served(member, &stream.outcome, stream.resilience.retries, stream.splices);
        self.tap(names::MEMBER_DRIFT_PREFIX, name, stream.drift_triggers);
        Ok(FederatedRun {
            stream,
            source_name: name.clone(),
            plan_rank: 0,
            trace: Vec::new(),
            considered,
            flight_id,
        })
    }

    /// Books a served answer: the federation counter plus the per-member
    /// taps the windowed health scorer reads. `retries` and `splices` are
    /// the ones charged to the serving member.
    fn served(&self, idx: usize, outcome: &RunOutcome, retries: u64, splices: u64) {
        self.obs.metrics.inc(names::FEDERATION_SERVED);
        // Both cost signals are kept in integral millis so they ride the
        // counter machinery (and its windowed deltas) unchanged.
        for (prefix, delta) in [
            (names::MEMBER_QUERIES_PREFIX, 1),
            (names::MEMBER_RETRIES_PREFIX, retries),
            (names::MEMBER_SPLICES_PREFIX, splices),
            (names::MEMBER_EST_COST_MILLI_PREFIX, names::to_milli(outcome.planned.est_cost)),
            (names::MEMBER_OBS_COST_MILLI_PREFIX, names::to_milli(outcome.measured_cost)),
        ] {
            self.tap(prefix, &self.members[idx].name, delta);
        }
    }

    /// Books the probe of a cooled-down breaker: candidate `idx` is about
    /// to run while half-open.
    fn probe(&self, idx: usize, gated: &mut Gated) {
        if gated.gates[idx] != BreakerGate::HalfOpen {
            return;
        }
        let name = &self.members[idx].name;
        self.obs.metrics.inc(names::BREAKER_HALF_OPENED);
        self.obs.tracer.event_with(|| format!("member {name}: half-open probe"));
        self.flight.note(gated.flight_id, || PlanEvent::Breaker {
            member: name.clone(),
            transition: "half-open",
        });
        gated.trace.push((name.clone(), MemberEvent::Probed));
    }

    /// Books member `idx`'s execution failure: its breaker (which may
    /// open), the failure counters, the health taps, the trace entry.
    fn failed(&self, idx: usize, err: &ExecError, gated: &mut Gated) {
        let name = &self.members[idx].name;
        if self.breakers[idx].record_failure(gated.now, &self.breaker_cfg, &self.tripped) {
            self.obs.metrics.inc(names::BREAKER_OPENED);
            self.tap(names::BREAKER_OPENED_PREFIX, name, 1);
            self.obs.tracer.event_with(|| format!("member {name}: breaker opened"));
            self.flight.note(gated.flight_id, || PlanEvent::Breaker {
                member: name.clone(),
                transition: "opened",
            });
            self.plancache_invalidate("breaker opened");
        }
        self.obs.metrics.inc(names::FEDERATION_EXEC_FAILED);
        self.tap(names::MEMBER_ERRORS_PREFIX, name, 1);
        gated.trace.push((name.clone(), MemberEvent::ExecFailed(err.to_string())));
    }

    /// Books member `idx`'s success on its breaker, closing it when it was
    /// open or half-open, and the `Served` trace entry.
    fn recovered(&self, idx: usize, gated: &mut Gated) {
        let name = &self.members[idx].name;
        if self.breakers[idx].record_success(&self.tripped) {
            self.obs.metrics.inc(names::BREAKER_CLOSED);
            self.flight.note(gated.flight_id, || PlanEvent::Breaker {
                member: name.clone(),
                transition: "closed",
            });
            self.plancache_invalidate("breaker closed");
        }
        gated.trace.push((name.clone(), MemberEvent::Served));
    }

    /// Opens a breaker-gated run: ticks the breaker clock, snapshots the
    /// gates, surveys the members, and keeps the non-quarantined feasible
    /// ones as a cheapest-first candidate list (stable: earliest member
    /// wins ties; never empty). Infeasible and quarantined members are
    /// traced and counted here, so both breaker-gated policies record
    /// identical selection events; a member the index pruned is traced
    /// infeasible like one that failed planning.
    fn gated_candidates(
        &self,
        query: &TargetQuery,
    ) -> Result<(Vec<(usize, PlannedQuery)>, Gated), PlanError> {
        let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let flight = self.flight.begin_with(|| (query.to_string(), "Federation".to_string()));
        // Gate decisions are snapshotted up front so the planning survey
        // below cannot interleave with breaker updates.
        let gates: Vec<BreakerGate> = self.breakers.iter().map(|b| b.gate(now)).collect();
        let (mut candidates, considered) = self.survey(query, flight);
        let mut scheme = "Federation";
        let mut trace: FailoverTrace = Vec::new();
        // The feasible members, in member order: every other member was
        // pruned or failed planning.
        let mut feasible = candidates.iter().map(|(idx, _)| *idx).peekable();
        for (idx, (member, gate)) in self.members.iter().zip(&gates).enumerate() {
            let name = &member.name;
            if feasible.next_if_eq(&idx).is_none() {
                trace.push((name.clone(), MemberEvent::Infeasible));
            } else if *gate == BreakerGate::Quarantined {
                scheme = "Federation (all capable members quarantined)";
                self.obs.metrics.inc(names::FEDERATION_QUARANTINED);
                self.tap(names::MEMBER_QUARANTINED_PREFIX, name, 1);
                self.obs.tracer.event_with(|| format!("member {name}: quarantined (breaker open)"));
                flight.event_with(|| PlanEvent::Breaker {
                    member: name.clone(),
                    transition: "quarantined",
                });
                trace.push((name.clone(), MemberEvent::Quarantined));
            }
        }
        candidates.retain(|(idx, _)| gates[*idx] != BreakerGate::Quarantined);
        if candidates.is_empty() {
            return Err(PlanError::NoFeasiblePlan { query: query.to_string(), scheme });
        }
        candidates.sort_by(by_cost);
        Ok((candidates, Gated { now, flight_id: flight.id(), gates, trace, considered }))
    }

    /// [`FederatedOptions::Failover`] over the gated `candidates`,
    /// cheapest first.
    fn run_failover(
        &self,
        candidates: Vec<(usize, PlannedQuery)>,
        mut gated: Gated,
        policy: &RetryPolicy,
        sink: Option<&mut dyn FnMut(TupleBatch) -> bool>,
    ) -> Result<FederatedRun, MediatorError> {
        let mut resilience = ResilienceMeter::default();
        let mut last_error = None;
        for (tried, (idx, planned)) in candidates.into_iter().enumerate() {
            let name = &self.members[idx].name;
            self.probe(idx, &mut gated);
            if tried > 0 {
                resilience.failovers += 1;
                self.obs.metrics.inc(names::RESILIENCE_FAILOVERS);
            }
            let (mut stream, plan_rank) = match self.mediators[idx].run_ranked(planned, policy) {
                Ok((stream, plan_rank, _failures)) => (stream, plan_rank),
                Err((spent, mut failures)) => {
                    resilience.absorb(&spent);
                    let (_, err) = failures.pop().expect("at least one plan was tried");
                    self.failed(idx, &err, &mut gated);
                    self.tap(names::MEMBER_RETRIES_PREFIX, name, spent.retries);
                    self.obs
                        .tracer
                        .event_with(|| format!("member {name}: execution failed ({err})"));
                    self.flight.note(gated.flight_id, || PlanEvent::Failover {
                        rank: idx,
                        detail: format!("member {name}: {err}"),
                    });
                    last_error = Some(err);
                    continue;
                }
            };
            self.recovered(idx, &mut gated);
            self.served(idx, &stream.outcome, stream.resilience.retries, 0);
            self.obs.tracer.event_with(|| {
                format!(
                    "member {name}: served (plan rank {plan_rank}, {} rows)",
                    stream.outcome.rows.len()
                )
            });
            let planned = &stream.outcome.planned;
            self.flight.note(gated.flight_id, || PlanEvent::Winner {
                cost: planned.est_cost,
                plan: planned.plan.to_string(),
            });
            self.flight.note(gated.flight_id, || PlanEvent::Note {
                text: format!("served by member {name} (plan rank {plan_rank})"),
            });
            resilience.absorb(&stream.resilience);
            stream.resilience = resilience;
            if let Some(sink) = sink {
                let schema = stream.outcome.rows.schema().clone();
                let empty = Relation::empty(schema.clone());
                let rows = std::mem::replace(&mut stream.outcome.rows, empty);
                sink(TupleBatch::new(schema, rows.into_tuples()));
            }
            return Ok(FederatedRun {
                stream,
                source_name: name.clone(),
                plan_rank,
                trace: gated.trace,
                considered: gated.considered,
                flight_id: gated.flight_id,
            });
        }
        Err(MediatorError::Exec(last_error.expect("a non-empty candidate list was tried")))
    }

    /// [`FederatedOptions::Splice`] over the gated `candidates`: the
    /// cheapest streams, the rest queue up as splice targets.
    fn run_spliced(
        &self,
        mut candidates: Vec<(usize, PlannedQuery)>,
        mut gated: Gated,
        policy: &RetryPolicy,
        cfg: &StreamConfig,
        sink: Option<&mut dyn FnMut(TupleBatch) -> bool>,
    ) -> Result<FederatedRun, MediatorError> {
        let (primary_idx, primary) = candidates.remove(0);
        self.probe(primary_idx, &mut gated);
        // Transfer is metered per member and summed afterwards — a spliced
        // run legitimately ships tuples from several members, each charged
        // at its own cost constants.
        let before: Vec<Meter> = self.members.iter().map(|m| m.meter()).collect();
        let mut resilience = ResilienceMeter::default();
        let mut ctl = BreakerSpliceController {
            fed: self,
            gated: &mut gated,
            queue: candidates.into(),
            current: primary_idx,
            attrs: primary.plan.output_attrs().clone(),
        };
        let request = StreamRequest {
            config: cfg,
            retry: Some(Retry { policy, meter: &mut resilience }),
            mode: StreamMode::Adaptive(&mut ctl),
            tracer: Some(&self.obs.tracer),
        };
        let source = &self.members[primary_idx];
        let result = match sink {
            Some(sink) => execute_stream(&primary.plan, source, request, sink)
                .map(|run| (Relation::empty(run.schema.clone()), run)),
            None => execute_stream_collect(&primary.plan, source, request),
        };
        let serving_idx = ctl.current;
        let (rows, run) = result.map_err(|e| {
            // The controller already opened breakers and traced every
            // member that died; nobody was left to splice to.
            resilience.record_into(&self.obs.metrics);
            self.obs.tracer.event_with(|| format!("adaptive run died: {e}"));
            MediatorError::Exec(e)
        })?;
        let name = &self.members[serving_idx].name;
        self.recovered(serving_idx, &mut gated);
        let mut meter = Meter::default();
        let mut measured_cost = 0.0;
        for (m, before) in self.members.iter().zip(&before) {
            let delta = m.meter().since(before);
            measured_cost += delta.cost(m.cost_params());
            meter.queries += delta.queries;
            meter.tuples_shipped += delta.tuples_shipped;
            meter.rejected += delta.rejected;
        }
        let splices = run.splices;
        self.obs.tracer.event_with(|| {
            format!("member {name}: served adaptively ({} rows, {splices} splice(s))", run.emitted)
        });
        self.flight.note(gated.flight_id, || PlanEvent::Winner {
            cost: primary.est_cost,
            plan: primary.plan.to_string(),
        });
        self.flight.note(gated.flight_id, || PlanEvent::Note {
            text: format!("served by member {name} after {splices} splice(s)"),
        });
        let outcome = RunOutcome { planned: primary, rows, meter, measured_cost };
        // A breaker splice is charged to the member that died, and after
        // one the run's retries are mostly that member's too.
        self.served(serving_idx, &outcome, 0, 0);
        outcome.meter.record_into(&self.obs.metrics);
        run.stats.record_into(&self.obs.metrics);
        // A mid-stream member switch is a failover, just a cheaper one.
        resilience.failovers += splices;
        resilience.record_into(&self.obs.metrics);
        Ok(FederatedRun {
            stream: StreamOutcome {
                outcome,
                stats: run.stats,
                resilience,
                splices,
                drift_triggers: 0,
                analysis: None,
            },
            source_name: name.clone(),
            plan_rank: 0,
            trace: gated.trace,
            considered: gated.considered,
            flight_id: gated.flight_id,
        })
    }
}

/// Cheapest-first order of `(member, plan)` candidates.
fn by_cost(a: &(usize, PlannedQuery), b: &(usize, PlannedQuery)) -> std::cmp::Ordering {
    a.1.est_cost.partial_cmp(&b.1.est_cost).expect("finite plan costs")
}

/// What a breaker-gated run carries from gating to its last bookkeeping
/// entry.
struct Gated {
    /// This run's tick of the breaker clock.
    now: u64,
    /// The run's flight record.
    flight_id: u64,
    /// Breaker gates snapshotted before planning, in member order.
    gates: Vec<BreakerGate>,
    trace: FailoverTrace,
    considered: Considered,
}

/// The breaker-triggered [`ReplanController`] of
/// [`FederatedOptions::Splice`]: on a terminal mid-stream leaf failure it
/// opens the serving member's breaker, re-plans the pipeline's residual
/// condition on the next-cheapest gated candidate, and splices that
/// member in. Batch boundaries are left alone — cardinality drift is the
/// mediator-level controller's job.
struct BreakerSpliceController<'a> {
    fed: &'a Federation,
    gated: &'a mut Gated,
    /// Remaining gated candidates, cheapest-first.
    queue: VecDeque<(usize, PlannedQuery)>,
    /// Index of the member currently feeding the pipeline.
    current: usize,
    attrs: AttrSet,
}

impl ReplanController for BreakerSpliceController<'_> {
    fn on_batch(&mut self, _probe: &ReplanProbe<'_>) -> Option<SpliceAction> {
        None
    }

    fn on_leaf_error(&mut self, probe: &ReplanProbe<'_>, err: &ExecError) -> Option<SpliceAction> {
        let fed = self.fed;
        let failed = &fed.members[self.current];
        fed.failed(self.current, err, self.gated);
        fed.obs.metrics.inc(names::REPLAN_TRIGGERED);
        fed.obs.metrics.inc(names::REPLAN_BREAKER_TRIGGERS);
        fed.obs.tracer.event_with(|| format!("member {}: died mid-stream ({err})", failed.name));

        let remaining = probe.remaining_plan()?;
        let residual = plan_condition(&remaining)?;
        while let Some((idx, _)) = self.queue.pop_front() {
            let next = &fed.members[idx];
            fed.probe(idx, self.gated);
            // Re-plan the *residual* on the splice target — its
            // capabilities may shape the cover differently than the dead
            // member's did. The survey's plan for the full query is not
            // reused: the pipeline only needs what has not been emitted.
            let q = TargetQuery::new(residual.clone(), self.attrs.clone());
            match fed.mediators[idx].plan_quiet(&q) {
                Ok(p) => {
                    p.report.record_into(&fed.obs.metrics);
                    fed.obs.metrics.inc(names::REPLAN_SPLICES);
                    // The splice is charged to the member that died — it is
                    // the health signal, not the rescuer.
                    fed.tap(names::MEMBER_SPLICES_PREFIX, &failed.name, 1);
                    fed.flight.note(self.gated.flight_id, || PlanEvent::Replan {
                        trigger: "breaker-open",
                        detail: format!("member {} died mid-stream: {err}", failed.name),
                        batch: probe.batches,
                        emitted: probe.emitted,
                        old_plan: remaining.to_string(),
                        new_plan: p.plan.to_string(),
                    });
                    fed.obs.tracer.event_with(|| {
                        format!(
                            "replan (breaker): splice to member {} at batch {} after {} rows",
                            next.name, probe.batches, probe.emitted
                        )
                    });
                    let spliced = MemberEvent::Spliced(failed.name.clone());
                    self.gated.trace.push((next.name.clone(), spliced));
                    self.current = idx;
                    return Some(SpliceAction { plan: p.plan, source: next.clone() });
                }
                Err(_) => {
                    // The residual may be narrower than the original query,
                    // so a member that was feasible for the whole query can
                    // still fail here (and vice versa never happens — the
                    // residual only drops satisfied disjuncts).
                    fed.obs.metrics.inc(names::FEDERATION_INFEASIBLE);
                    fed.obs
                        .tracer
                        .event_with(|| format!("member {}: residual infeasible", next.name));
                    fed.flight.note(self.gated.flight_id, || PlanEvent::Note {
                        text: format!("member {}: residual infeasible", next.name),
                    });
                    self.gated.trace.push((next.name.clone(), MemberEvent::Infeasible));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csqp_expr::ValueType;
    use csqp_relation::datagen;
    use csqp_source::CostParams;
    use csqp_ssdl::{parse_ssdl, templates};

    /// Three mirrors of the same car data: a form-limited fast one, a
    /// download-only slow one, and one that cannot answer price queries at
    /// all.
    fn mirrors() -> Federation {
        let data = datagen::cars(3, 400);
        let fast_form = Arc::new(Source::new(
            data.clone(),
            templates::car_dealer(), // make+price / make+color forms
            CostParams::new(10.0, 1.0),
        ));
        let slow_dump = Arc::new(Source::new(
            data.clone(),
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
        let color_only = Arc::new(Source::new(
            data,
            parse_ssdl(
                "source color_only {\n\
                 s1 -> color = $str ;\n\
                 attributes :: s1 : { make, model, year, color } ;\n}",
            )
            .unwrap(),
            CostParams::new(10.0, 1.0),
        ));
        Federation::new().with_member(fast_form).with_member(slow_dump).with_member(color_only)
    }

    #[test]
    fn picks_the_cheapest_capable_member() {
        let f = mirrors();
        // Form query: the fast form source wins over the expensive dump.
        let q = TargetQuery::parse("make = \"BMW\" ^ price < 40000", &["model", "year"]).unwrap();
        let fp = f.plan(&q).unwrap();
        assert_eq!(fp.source.name, "car_dealer");
        // The dump could also answer (download + filter) but at higher cost.
        let dump = fp.considered.verdicts.iter().find(|(n, _)| n == "dump").unwrap();
        assert!(matches!(&dump.1, Ok(c) if *c > fp.planned.est_cost));
        // color_only cannot answer a price query: the index prunes it, so
        // it is counted, not planned.
        assert!(fp.considered.verdicts.iter().all(|(n, _)| n != "color_only"));
        assert_eq!((fp.considered.verdicts.len(), fp.considered.pruned), (2, 1));
        assert_eq!(fp.considered.members(), f.members().len());
    }

    #[test]
    fn prepare_hits_on_repeat_shapes_and_breaker_transitions_invalidate() {
        let f = mirrors().with_plan_cache(Arc::new(PlanCache::new()));
        let q1 = TargetQuery::parse("make = \"BMW\" ^ price < 40000", &["model", "year"]).unwrap();
        let q2 = TargetQuery::parse("make = \"Audi\" ^ price < 25000", &["model", "year"]).unwrap();
        let cold = f.prepare(&q1).unwrap();
        assert_eq!(cold.decision, CacheDecision::Miss);
        assert_eq!(f.members()[cold.member].name, "car_dealer");
        assert_eq!(cold.considered.verdicts.len(), 2, "miss plans the index candidates");
        assert_eq!(cold.considered.members(), 3, "planned + pruned covers every member");
        let decision = f.capability_index().unwrap().candidates(&q1);
        assert_eq!(cold.surveyed(), Some((decision.candidates.len(), decision.total)));
        let warm = f.prepare(&q2).unwrap();
        assert_eq!(warm.decision, CacheDecision::Hit);
        assert_eq!(warm.member, cold.member);
        assert!(warm.considered.verdicts.is_empty(), "hit skips the survey");
        assert_eq!(warm.surveyed(), None, "no survey ran on a hit");
        // The rebound plan equals what cold planning would have produced.
        assert_eq!(warm.planned.plan, f.plan(&q2).unwrap().planned.plan);
        // A breaker transition wipes the cache: the next prepare is cold.
        f.plancache_invalidate("test");
        assert_eq!(f.prepare(&q2).unwrap().decision, CacheDecision::Miss);
        let stats = f.plan_cache().unwrap().stats();
        assert_eq!((stats.hits, stats.invalidations), (1, 1));
    }

    #[test]
    fn prepare_without_a_cache_bypasses() {
        let f = mirrors();
        let q = TargetQuery::parse("color = \"red\"", &["make", "model"]).unwrap();
        let p = f.prepare(&q).unwrap();
        assert_eq!(p.decision, CacheDecision::Bypass);
        assert_eq!(f.members()[p.member].name, "color_only");
        let unindexed = mirrors().with_capability_index(false).prepare(&q).unwrap();
        assert_eq!(unindexed.surveyed(), Some((3, 3)), "without an index every member is one");
    }

    #[test]
    fn routes_queries_by_capability() {
        let f = mirrors();
        // A bare color query: only color_only answers it natively; the form
        // source has no color-only form, the dump can but costs more.
        let q = TargetQuery::parse("color = \"red\"", &["make", "model"]).unwrap();
        let fp = f.plan(&q).unwrap();
        assert_eq!(fp.source.name, "color_only", "{:?}", fp.considered.verdicts);
    }

    #[test]
    fn download_only_member_is_the_last_resort() {
        let f = mirrors();
        // year-only queries: no form anywhere — only the dump survives.
        let q = TargetQuery::parse("year = 1995", &["make", "model"]).unwrap();
        let fp = f.plan(&q).unwrap();
        assert_eq!(fp.source.name, "dump");
        // Executing it returns the exact answer.
        let run = f.run(&q).unwrap();
        assert_eq!(run.source_name, "dump");
        let want = csqp_relation::ops::project(
            &csqp_relation::ops::select(fp.source.relation(), Some(&q.cond)),
            &["make", "model"],
        )
        .unwrap();
        assert_eq!(run.stream.outcome.rows, want);
    }

    /// Two mirrors: a cheap member with injected faults and an expensive,
    /// reliable dump.
    fn faulty_pair(profile: csqp_source::FaultProfile, cfg: CircuitBreakerConfig) -> Federation {
        let data = datagen::cars(3, 400);
        let flaky = Arc::new(
            Source::new(data.clone(), templates::car_dealer(), CostParams::new(10.0, 1.0))
                .with_fault_profile(profile),
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
        Federation::new().with_member(flaky).with_member(dump).with_breaker(cfg)
    }

    fn car_query() -> TargetQuery {
        TargetQuery::parse("make = \"BMW\" ^ price < 40000", &["model", "year"]).unwrap()
    }

    #[test]
    fn exec_failure_fails_over_to_next_member() {
        use csqp_source::FaultProfile;
        // The cheap member is hard-down; retries are off so it dies fast.
        let f = faulty_pair(
            FaultProfile::new(0).with_outage(0, u64::MAX),
            CircuitBreakerConfig::default(),
        );
        let policy = RetryPolicy { max_retries: 0, ..Default::default() };
        let q = car_query();
        let run = f.run_stream(&q, FederatedOptions::Failover(&policy), None).unwrap();
        assert_eq!(run.source_name, "dump", "failed over to the expensive mirror");
        assert!(run.stream.resilience.failovers >= 1);
        let want = csqp_relation::ops::project(
            &csqp_relation::ops::select(f.members()[1].relation(), Some(&q.cond)),
            &["model", "year"],
        )
        .unwrap();
        assert_eq!(run.stream.outcome.rows, want, "the failover answer is exact");
        // Trace: the dealer failed, then the dump served.
        assert!(run
            .trace
            .iter()
            .any(|(n, e)| n == "car_dealer" && matches!(e, MemberEvent::ExecFailed(_))));
        assert_eq!(run.trace.last().unwrap(), &("dump".to_string(), MemberEvent::Served));
        // With a sink the dead dealer's attempt leaks nothing: the answer
        // arrives once, whole, after the dump has served.
        let mut sunk = Vec::new();
        let mut sink = |b: TupleBatch| {
            sunk.extend(b.into_tuples());
            true
        };
        let options = FederatedOptions::Failover(&policy);
        let run = f.run_stream(&q, options, Some(&mut sink)).unwrap();
        assert!(run.stream.outcome.rows.is_empty(), "the sink consumed the answer");
        assert_eq!(Relation::from_tuples(want.schema().clone(), sunk), want);
        // One prepared winner gives member failover nobody to turn to.
        let prepared = f.prepare(&q).unwrap();
        assert!(matches!(f.run_stream(prepared, options, None), Err(MediatorError::Plan(_))));
    }

    #[test]
    fn breaker_quarantines_then_probes_then_closes() {
        use csqp_source::FaultProfile;
        // Attempts 0 and 1 are outages, everything after succeeds. With
        // threshold 2 / cooldown 2 the member: fails (run 1), fails + opens
        // (run 2), sits out runs 3–4, probes successfully at run 5, and is
        // fully closed again at run 6.
        let f = faulty_pair(
            FaultProfile::new(0).with_outage(0, 2),
            CircuitBreakerConfig { failure_threshold: 2, cooldown_ticks: 2 },
        );
        let policy = RetryPolicy { max_retries: 0, ..Default::default() };
        let q = car_query();
        let event_for = |run: &FederatedRun, name: &str| -> Vec<MemberEvent> {
            run.trace.iter().filter(|(n, _)| n == name).map(|(_, e)| e.clone()).collect()
        };

        let r1 = f.run_stream(&q, FederatedOptions::Failover(&policy), None).unwrap();
        assert!(matches!(event_for(&r1, "car_dealer")[..], [MemberEvent::ExecFailed(_)]));
        let r2 = f.run_stream(&q, FederatedOptions::Failover(&policy), None).unwrap();
        assert!(matches!(event_for(&r2, "car_dealer")[..], [MemberEvent::ExecFailed(_)]));
        for _ in 0..2 {
            let r = f.run_stream(&q, FederatedOptions::Failover(&policy), None).unwrap();
            assert_eq!(event_for(&r, "car_dealer"), vec![MemberEvent::Quarantined]);
            assert_eq!(r.source_name, "dump", "quarantine shields the run from the dealer");
        }
        let r5 = f.run_stream(&q, FederatedOptions::Failover(&policy), None).unwrap();
        assert_eq!(
            event_for(&r5, "car_dealer"),
            vec![MemberEvent::Probed, MemberEvent::Served],
            "half-open probe succeeds"
        );
        assert_eq!(r5.source_name, "car_dealer");
        let r6 = f.run_stream(&q, FederatedOptions::Failover(&policy), None).unwrap();
        assert_eq!(
            event_for(&r6, "car_dealer"),
            vec![MemberEvent::Served],
            "breaker closed after the successful probe"
        );
    }

    #[test]
    fn failed_probe_reopens_the_breaker() {
        use csqp_source::FaultProfile;
        let f = faulty_pair(
            FaultProfile::new(0).with_outage(0, u64::MAX),
            CircuitBreakerConfig { failure_threshold: 1, cooldown_ticks: 1 },
        );
        let policy = RetryPolicy { max_retries: 0, ..Default::default() };
        let q = car_query();
        let r1 = f.run_stream(&q, FederatedOptions::Failover(&policy), None).unwrap(); // fails, opens
        assert!(r1.trace.iter().any(|(_, e)| matches!(e, MemberEvent::ExecFailed(_))));
        let r2 = f.run_stream(&q, FederatedOptions::Failover(&policy), None).unwrap(); // quarantined
        assert!(r2.trace.iter().any(|(_, e)| *e == MemberEvent::Quarantined));
        let r3 = f.run_stream(&q, FederatedOptions::Failover(&policy), None).unwrap(); // probe fails, reopens
        assert!(r3.trace.iter().any(|(_, e)| *e == MemberEvent::Probed));
        let r4 = f.run_stream(&q, FederatedOptions::Failover(&policy), None).unwrap(); // quarantined again
        assert!(r4.trace.iter().any(|(_, e)| *e == MemberEvent::Quarantined));
    }

    #[test]
    fn metrics_count_breaker_transitions_and_member_events() {
        for obs in [Obs::new(), Obs::off()] {
            use csqp_source::FaultProfile;
            // Same schedule as `breaker_quarantines_then_probes_then_closes`:
            // fail, fail+open, 2×quarantine, successful probe (close), serve.
            let f = faulty_pair(
                FaultProfile::new(0).with_outage(0, 2),
                CircuitBreakerConfig { failure_threshold: 2, cooldown_ticks: 2 },
            )
            .with_obs(Arc::new(obs));
            let policy = RetryPolicy { max_retries: 0, ..Default::default() };
            let q = car_query();
            for _ in 0..6 {
                f.run_stream(&q, FederatedOptions::Failover(&policy), None).unwrap();
            }
            let snap = f.metrics_snapshot();
            if f.obs().enabled() {
                assert_eq!(snap.counter(names::BREAKER_OPENED), 1, "{}", snap.to_json());
                assert_eq!(snap.counter(names::BREAKER_HALF_OPENED), 1, "{}", snap.to_json());
                assert_eq!(snap.counter(names::BREAKER_CLOSED), 1, "{}", snap.to_json());
                assert_eq!(snap.counter(names::FEDERATION_QUARANTINED), 2);
                assert_eq!(snap.counter(names::FEDERATION_EXEC_FAILED), 2);
                assert_eq!(snap.counter(names::FEDERATION_SERVED), 6);
                assert_eq!(snap.counter(names::RESILIENCE_FAILOVERS), 2, "dealer→dump twice");
                assert!(snap.counter(names::PLANNER_CHECK_CALLS) > 0, "planning survey recorded");
                // The decision trace replays deterministically: a fresh
                // federation with the same schedule produces the same trace.
                let f2 = faulty_pair(
                    FaultProfile::new(0).with_outage(0, 2),
                    CircuitBreakerConfig { failure_threshold: 2, cooldown_ticks: 2 },
                );
                for _ in 0..6 {
                    f2.run_stream(&q, FederatedOptions::Failover(&policy), None).unwrap();
                }
                assert_eq!(f2.obs().tracer.render(), f.obs().tracer.render());
                assert_eq!(f2.metrics_snapshot(), snap);
            } else {
                assert_eq!(snap.counter(names::FEDERATION_SERVED), 0, "off recorder stays empty");
            }
        }
    }

    #[test]
    fn all_members_down_reports_exec_error() {
        use csqp_source::FaultProfile;
        let data = datagen::cars(3, 100);
        let down = |name_seed: u64| {
            Arc::new(
                Source::new(data.clone(), templates::car_dealer(), CostParams::default())
                    .with_fault_profile(FaultProfile::new(name_seed).with_outage(0, u64::MAX)),
            )
        };
        let f = Federation::new().with_member(down(1)).with_member(down(2));
        let policy = RetryPolicy { max_retries: 1, ..Default::default() };
        match f.run_stream(&car_query(), FederatedOptions::Failover(&policy), None) {
            Err(MediatorError::Exec(e)) => {
                assert!(e.to_string().contains("unavailable") || e.to_string().contains("retries"))
            }
            other => panic!("expected Exec error, got {other:?}"),
        }
    }

    #[test]
    fn run_executes_the_already_chosen_plan() {
        let f = mirrors();
        let q = TargetQuery::parse("make = \"BMW\" ^ price < 40000", &["model", "year"]).unwrap();
        let fp = f.plan(&q).unwrap();
        let out = f.run(&q).unwrap().stream.outcome;
        // The outcome's plan IS the federated choice — no re-planning.
        assert_eq!(out.planned.plan, fp.planned.plan);
        assert_eq!(out.planned.est_cost, fp.planned.est_cost);
        let want = csqp_relation::ops::project(
            &csqp_relation::ops::select(fp.source.relation(), Some(&q.cond)),
            &["model", "year"],
        )
        .unwrap();
        assert_eq!(out.rows, want);
    }

    #[test]
    fn all_infeasible_reports_federation_error() {
        let f = Federation::new().with_member(Arc::new(Source::new(
            datagen::cars(3, 50),
            templates::car_dealer(),
            CostParams::default(),
        )));
        let q = TargetQuery::parse("year = 1995", &["model"]).unwrap();
        match f.plan(&q) {
            Err(PlanError::NoFeasiblePlan { scheme, .. }) => {
                assert_eq!(scheme, "Federation")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_federation_is_infeasible() {
        let f = Federation::new();
        let q = TargetQuery::parse("a = 1", &["k"]).unwrap();
        assert!(f.plan(&q).is_err());
    }

    #[test]
    fn breaker_states_report_live_health() {
        use csqp_source::FaultProfile;
        let f = faulty_pair(
            FaultProfile::new(0).with_outage(0, 2),
            CircuitBreakerConfig { failure_threshold: 2, cooldown_ticks: 2 },
        );
        let states = f.breaker_states();
        assert_eq!(states.len(), 2);
        assert!(states.iter().all(|(_, h)| *h == BreakerHealth::Closed), "fresh: all closed");
        assert_eq!(BreakerHealth::Closed.as_gauge(), 0.0);
        assert_eq!(BreakerHealth::Open.as_gauge(), 2.0);
        assert_eq!(BreakerHealth::HalfOpen.as_gauge(), 1.0);
        assert_eq!(BreakerHealth::Open.label(), "open");

        // Two failed runs trip the dealer's breaker; the gauge follows.
        let policy = RetryPolicy { max_retries: 0, ..Default::default() };
        let q = car_query();
        f.run_stream(&q, FederatedOptions::Failover(&policy), None).unwrap();
        f.run_stream(&q, FederatedOptions::Failover(&policy), None).unwrap();
        let states = f.breaker_states();
        assert_eq!(states.iter().find(|(n, _)| n == "car_dealer").unwrap().1, BreakerHealth::Open);
        assert_eq!(states.iter().find(|(n, _)| n == "dump").unwrap().1, BreakerHealth::Closed);
        let snap = f.metrics_snapshot();
        assert!(
            snap.gauges.contains_key(&format!("{}car_dealer", names::BREAKER_STATE_PREFIX)),
            "breaker gauge exported"
        );
        assert_eq!(
            snap.gauge(&format!("{}car_dealer", names::BREAKER_STATE_PREFIX)),
            BreakerHealth::Open.as_gauge()
        );
        // The outage is over: the cooled-down probe closes the breaker, and
        // the sparse view's tripped count is back at zero.
        for _ in 0..4 {
            f.run_stream(&q, FederatedOptions::Failover(&policy), None).unwrap();
        }
        assert!(f.breaker_states().iter().all(|(_, h)| *h == BreakerHealth::Closed));
        assert_eq!(f.tripped.load(Ordering::Relaxed), 0);
        assert_eq!(f.breaker_summary(), BreakerSummary { tripped: Vec::new(), closed: 2 });
    }

    /// The sparse breaker view names only tripped members; the exposed
    /// snapshot carries every member's gauge while the registry holds none.
    #[test]
    fn tripped_breakers_show_in_the_sparse_view_and_the_exposed_snapshot() {
        use csqp_source::FaultProfile;
        let f = faulty_pair(
            FaultProfile::new(0).with_outage(0, u64::MAX),
            CircuitBreakerConfig { failure_threshold: 2, cooldown_ticks: 8 },
        );
        let all_closed = f.breaker_summary();
        assert_eq!(all_closed, BreakerSummary { tripped: Vec::new(), closed: 2 });
        assert_eq!(all_closed.to_string(), "2 closed");
        let policy = RetryPolicy { max_retries: 0, ..Default::default() };
        for _ in 0..2 {
            f.run_stream(&car_query(), FederatedOptions::Failover(&policy), None).unwrap();
        }
        let summary = f.breaker_summary();
        assert_eq!(summary.tripped, vec![("car_dealer".to_string(), BreakerHealth::Open)]);
        assert_eq!(summary.to_string(), "car_dealer:open 1 closed");
        assert_eq!(f.tripped.load(Ordering::Relaxed), 1, "one breaker counted as tripped");
        let gauge = |member: &str| format!("{}{member}", names::BREAKER_STATE_PREFIX);
        let snap = f.metrics_snapshot();
        assert_eq!(snap.gauges.get(&gauge("car_dealer")), Some(&2.0));
        assert_eq!(snap.gauges.get(&gauge("dump")), Some(&0.0));
        let registry = f.obs().metrics.snapshot();
        assert!(registry.gauges.keys().all(|k| !k.starts_with(names::BREAKER_STATE_PREFIX)));
    }

    #[test]
    fn run_adaptive_matches_resilient_when_healthy() {
        let f = mirrors();
        let q = car_query();
        let policy = RetryPolicy::default();
        let stream = &StreamConfig::default();
        let run = f.run_stream(&q, FederatedOptions::Splice { policy: &policy, stream }, None);
        let run = run.unwrap();
        assert_eq!(run.stream.splices, 0, "healthy federation never splices");
        assert_eq!(run.source_name, "car_dealer");
        let want = csqp_relation::ops::project(
            &csqp_relation::ops::select(f.members()[0].relation(), Some(&q.cond)),
            &["model", "year"],
        )
        .unwrap();
        assert_eq!(run.stream.outcome.rows, want);
        assert_eq!(run.trace.last().unwrap(), &("car_dealer".to_string(), MemberEvent::Served));
    }

    #[test]
    fn mid_stream_outage_splices_to_the_dump() {
        for obs in [Obs::new(), Obs::off()] {
            use csqp_source::FaultProfile;
            // The first source-query attempt on the dealer succeeds, every later
            // one is an outage: the first union branch streams its rows, then
            // the second branch dies mid-pipeline.
            let f = faulty_pair(
                FaultProfile::new(0).with_outage(1, u64::MAX),
                CircuitBreakerConfig { failure_threshold: 1, cooldown_ticks: 4 },
            )
            .with_obs(Arc::new(obs));
            let policy = RetryPolicy { max_retries: 0, ..Default::default() };
            let q = TargetQuery::parse(
                "(make = \"BMW\" _ make = \"Audi\") ^ price < 40000",
                &["model", "year"],
            )
            .unwrap();
            let stream = &StreamConfig { batch_size: 16, ..StreamConfig::default() };
            let run = f.run_stream(&q, FederatedOptions::Splice { policy: &policy, stream }, None);
            let run = run.unwrap();
            assert!(
                run.stream.splices >= 1,
                "the breaker-open must splice, not fail over from scratch"
            );
            assert_eq!(run.source_name, "dump", "the dump finishes the stream");
            // Despite the mid-stream member switch the answer is exact.
            let want = csqp_relation::ops::project(
                &csqp_relation::ops::select(f.members()[1].relation(), Some(&q.cond)),
                &["model", "year"],
            )
            .unwrap();
            assert_eq!(run.stream.outcome.rows, want);
            // The trace shows the dealer dying and the dump splicing in for it.
            assert!(run
                .trace
                .iter()
                .any(|(n, e)| n == "car_dealer" && matches!(e, MemberEvent::ExecFailed(_))));
            assert!(run.trace.iter().any(|(n, e)| n == "dump"
                && matches!(e, MemberEvent::Spliced(from) if from == "car_dealer")));
            // The dealer's breaker opened (threshold 1) and the gauges agree.
            let states = f.breaker_states();
            assert_eq!(
                states.iter().find(|(n, _)| n == "car_dealer").unwrap().1,
                BreakerHealth::Open
            );
            if f.obs().enabled() {
                let snap = f.metrics_snapshot();
                assert_eq!(snap.counter(names::REPLAN_BREAKER_TRIGGERS), 1);
                assert_eq!(snap.counter(names::REPLAN_SPLICES), run.stream.splices);
                assert_eq!(snap.counter(names::BREAKER_OPENED), 1);
            }
            // A mid-stream splice counts as a failover in the resilience meter.
            assert!(run.stream.resilience.failovers >= run.stream.splices);
        }
    }

    #[test]
    fn adaptive_with_no_splice_target_reports_exec_error() {
        use csqp_source::FaultProfile;
        let data = datagen::cars(3, 100);
        let down = |seed: u64| {
            Arc::new(
                Source::new(data.clone(), templates::car_dealer(), CostParams::default())
                    .with_fault_profile(FaultProfile::new(seed).with_outage(0, u64::MAX)),
            )
        };
        let f = Federation::new().with_member(down(1)).with_member(down(2));
        let policy = RetryPolicy { max_retries: 0, ..Default::default() };
        let stream = &StreamConfig::default();
        match f.run_stream(&car_query(), FederatedOptions::Splice { policy: &policy, stream }, None)
        {
            Err(MediatorError::Exec(_)) => {}
            other => panic!("expected Exec error, got {other:?}"),
        }
    }
}
