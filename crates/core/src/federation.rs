//! Source selection across mirrors: the same logical data offered by
//! several Internet sources with *different* capabilities and cost
//! constants (e.g. two bookstores, one searchable by author only, one
//! downloadable but slow).
//!
//! The federation plans the target query against every member and executes
//! the cheapest feasible plan — capability-sensitivity applied one level up
//! from [`crate::mediator::Mediator`]. It keeps one warm mediator per
//! member; [`Federation::run_stream`] is the one function that executes:
//! every run is breaker-gated and recovers from a failing member by
//! splicing the next-cheapest one into the running stream.

use crate::capindex::CapabilityIndex;
use crate::mediator::{
    AdaptiveConfig, CardKind, DriftController, Mediator, MediatorError, RunOutcome, Scheme,
    StreamInput, StreamOptions, StreamOutcome,
};
use crate::plancache::{CacheDecision, Lookup, PlanCache};
use crate::types::{PlanError, PlannedQuery, TargetQuery};
use csqp_obs::{names, FlightRecorder, Obs, PlanEvent};
use csqp_plan::exec::ExecError;
use csqp_plan::exec_stream::{
    plan_condition, ReplanController, ReplanProbe, SpliceAction, StreamConfig,
};
use csqp_relation::stream::TupleBatch;
use csqp_source::Source;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Circuit-breaker policy for federation members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CircuitBreakerConfig {
    /// Consecutive execution failures that open the breaker (quarantine).
    pub failure_threshold: u32,
    /// Federated decisions the member sits out once quarantined; afterwards it
    /// is *half-open* — offered one probe, closing on success and
    /// re-opening on failure.
    pub cooldown_ticks: u64,
}

impl Default for CircuitBreakerConfig {
    fn default() -> Self {
        CircuitBreakerConfig { failure_threshold: 3, cooldown_ticks: 2 }
    }
}

/// Per-member breaker state. The clock is the federation's own decision
/// counter (one tick per [`Federation::plan`] or [`Federation::prepare`]
/// call, which the decision's run gates at) — no wall-clock, so quarantine
/// windows replay deterministically.
#[derive(Debug, Default)]
struct BreakerState {
    consecutive_failures: AtomicU32,
    /// 0 = closed; otherwise the tick at which the member turns half-open.
    half_open_at: AtomicU64,
}

impl BreakerState {
    /// What the breaker allows its member to do in the run at tick `now`.
    fn gate(&self, now: u64) -> BreakerHealth {
        match self.half_open_at.load(Ordering::Relaxed) {
            0 => BreakerHealth::Closed,
            at if now < at => BreakerHealth::Open,
            _ => BreakerHealth::HalfOpen,
        }
    }

    /// Resets the breaker; returns `true` when this actually closed an
    /// open/half-open breaker (a state transition worth counting), and
    /// then takes it off the federation's `tripped` count. A closed breaker
    /// with no failures is only read: every served query ends here.
    fn record_success(&self, tripped: &AtomicUsize) -> bool {
        if self.consecutive_failures.load(Ordering::Relaxed) != 0 {
            self.consecutive_failures.store(0, Ordering::Relaxed);
        }
        let open = self.half_open_at.load(Ordering::Relaxed) != 0;
        let closed = open && self.half_open_at.swap(0, Ordering::Relaxed) != 0;
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
    /// Virtual clock: one tick per decision.
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
/// during a run, in the order members were considered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemberEvent {
    /// Skipped: the circuit breaker is open.
    Quarantined,
    /// Planning failed (the member cannot answer this query).
    Infeasible,
    /// The breaker was half-open and this attempt was its probe.
    Probed,
    /// The member's plan failed at execution once its round-trip retries
    /// ran out; the error, rendered.
    ExecFailed(String),
    /// This member was spliced into the running pipeline to finish the
    /// answer of the named member, which failed: with its surveyed plan
    /// when no row had been emitted yet, else with the residual re-planned.
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
    /// The run on the serving member. `outcome.planned` is the plan the run
    /// started with (the first member's on a spliced run); `resilience` is
    /// cumulative across every member tried (each splice counts as a
    /// failover). The run meters itself: after a splice `outcome.meter` and
    /// `measured_cost` cover this run's transfer on each member it streamed
    /// from, each charged at its own §6.2 constants, and `splices` counts
    /// them.
    pub stream: StreamOutcome,
    /// Name of the member that served the answer (the last splice target
    /// when splices fired).
    pub source_name: String,
    /// The per-member event trace, for explainability and determinism
    /// checks: for a run planned from its query, first the members its
    /// planning survey ruled out (infeasible or quarantined, in member
    /// order), then what execution did to each member it touched. A run of
    /// a prepared decision starts at the execution events.
    pub trace: FailoverTrace,
    /// Per-member planning verdicts — empty after a plan-cache hit, where
    /// no member was planned.
    pub considered: Considered,
    /// The flight record narrating this query (0 with a disarmed recorder).
    pub flight_id: u64,
}

/// What [`Federation::run_stream`] executes: a query to plan federation-wide
/// first, or the decision an earlier [`Federation::prepare`] made — how
/// `csqp serve` keeps the cache decision and the flight id in hand before
/// the first row ships. Either way the run starts on the decision's member.
pub type FederatedInput<'q> = StreamInput<'q, PreparedFederated<'q>>;

impl<'q> From<PreparedFederated<'q>> for FederatedInput<'q> {
    fn from(prepared: PreparedFederated<'q>) -> Self {
        StreamInput::Prepared(prepared)
    }
}

/// A federation planning decision, from [`Federation::plan`] or
/// [`Federation::prepare`]: the member to execute on, the plan (rebound
/// from the prepared-plan cache, or cold-planned), how the cache answered,
/// and the members a failing run splices to.
#[derive(Debug)]
pub struct PreparedFederated<'q> {
    /// Index of the winning member in [`Federation::members`].
    pub member: usize,
    /// The winning member.
    pub source: Arc<Source>,
    /// The plan to execute on that member.
    pub planned: PlannedQuery,
    /// How the prepared-plan cache probe went ([`CacheDecision::Bypass`]
    /// from [`Federation::plan`], which never consults it).
    pub decision: CacheDecision,
    /// Per-member planning verdicts — empty on a cache hit, where no
    /// member was planned.
    pub considered: Considered,
    /// The flight record narrating this decision (0 with a disarmed
    /// recorder). Captured from the begin handle itself, so it stays
    /// correct when concurrent queries interleave their flights.
    pub flight_id: u64,
    /// The query decided on (a hit surveys it once a leaf fails).
    query: &'q TargetQuery,
    /// The splice queue: the survey's other serviceable members, cheapest
    /// first, with their surveyed plans (empty on a cache hit).
    fallbacks: Vec<(usize, PlannedQuery)>,
    /// Feasible members skipped as quarantined, in member order.
    quarantined: Vec<usize>,
    /// The breaker-clock tick this decision took; its run gates at it.
    now: u64,
    /// No quarantined member undercuts the winner: this is the decision an
    /// all-closed federation makes, so it may be cached.
    cacheable: bool,
}

impl PreparedFederated<'_> {
    /// `(candidates, total)` of the capability-index decision this
    /// prepare's planning survey made (every member is a candidate without
    /// an index), or `None` on a cache hit, where no survey ran.
    pub fn surveyed(&self) -> Option<(usize, usize)> {
        (self.decision != CacheDecision::Hit)
            .then(|| (self.considered.verdicts.len(), self.considered.members()))
    }
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
    /// of the deterministic breaker clock). The gauges live in the returned
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
    /// would allow each member to do in the next federated decision. Reads
    /// the clock without advancing it.
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

    /// Each member's breaker health for the next decision, in member order.
    fn breaker_healths(&self) -> impl Iterator<Item = BreakerHealth> + '_ {
        let next = self.clock.load(Ordering::Relaxed) + 1;
        self.breakers.iter().map(move |b| b.gate(next))
    }

    /// Takes the next tick of the breaker clock. Every decision takes one,
    /// also one that nothing can serve, so cooldowns elapse while every
    /// capable member is quarantined.
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
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
        // This is the one place the cache is wiped.
        self.capindex = OnceLock::new();
        if let Some(cache) = &self.plan_cache {
            let dropped = cache.invalidate_all();
            self.obs.metrics.inc(names::PLANCACHE_INVALIDATIONS);
            self.obs.metrics.gauge_set(names::PLANCACHE_ENTRIES, 0.0);
            self.obs.tracer.event_with(|| {
                format!("plan cache invalidated (membership change): {dropped} entries dropped")
            });
        }
        self
    }

    /// Installs a prepared-plan cache: [`Federation::prepare`] serves
    /// repeat query *shapes* out of it instead of re-running the planning
    /// survey, and a membership change wipes it. Breaker transitions leave
    /// it alone: every entry is the decision an all-closed federation makes,
    /// and a hit whose winner is quarantined plans cold.
    pub fn with_plan_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.plan_cache = Some(cache);
        self
    }

    /// The installed prepared-plan cache, if any.
    pub fn plan_cache(&self) -> Option<&Arc<PlanCache>> {
        self.plan_cache.as_ref()
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
    /// into the feasible `(member, plan)` list — plans stamped with flight
    /// record `flight_id` — and the planned members' verdicts. A member the
    /// index pruned is infeasible with certainty: no planning is spent on
    /// it and it is only counted, so the per-query cost scales with the
    /// candidate set, not the federation. Members plan quietly; this loop
    /// records each one's span, report, event and verdict.
    fn survey(
        &self,
        query: &TargetQuery,
        flight_id: u64,
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
            self.flight.note(flight_id, || PlanEvent::IndexPrune {
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
                    p.flight_id = flight_id;
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
                    self.flight.note(flight_id, || PlanEvent::Note {
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

    /// Overrides the circuit-breaker policy every run is gated by.
    pub fn with_breaker(mut self, cfg: CircuitBreakerConfig) -> Self {
        self.breaker_cfg = cfg;
        self
    }

    /// The member sources.
    pub fn members(&self) -> &[Arc<Source>] {
        &self.members
    }

    /// Plans `query` against every member and picks the cheapest feasible
    /// plan (estimated cost under each member's own cost constants) among
    /// the members whose breakers let the next run use them; the earliest
    /// member wins cost ties. The others stay ranked behind the winner as
    /// the run's splice queue. Takes a tick of the breaker clock.
    pub fn plan<'q>(&self, query: &'q TargetQuery) -> Result<PreparedFederated<'q>, PlanError> {
        let now = self.tick();
        let _span = self.obs.tracer.span("federation plan");
        let flight = self.flight.begin_with(|| (query.to_string(), "Federation".to_string()));
        let (mut live, considered) = self.survey(query, flight.id());
        let quarantined = self.quarantine(&mut live, now, flight.id());
        let Some(best) = (0..live.len()).min_by(|&a, &b| by_cost(&live[a], &live[b])) else {
            return Err(no_plan(query, !quarantined.is_empty()));
        };
        let (winner_idx, planned) = &live[best];
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
        for (idx, loser) in live.iter().filter(|(idx, _)| idx != winner_idx) {
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
        let (member, planned) = live.remove(best);
        let cacheable = quarantined.iter().all(|(idx, q)| {
            planned.est_cost < q.est_cost || (planned.est_cost == q.est_cost && member < *idx)
        });
        live.sort_by(by_cost);
        Ok(PreparedFederated {
            member,
            source: self.members[member].clone(),
            planned,
            decision: CacheDecision::Bypass,
            considered,
            flight_id: flight.id(),
            query,
            fallbacks: live,
            quarantined: quarantined.into_iter().map(|(idx, _)| idx).collect(),
            cacheable,
            now,
        })
    }

    /// Takes the candidates quarantined at tick `now` out of `feasible`,
    /// booking each one, and returns them in member order.
    fn quarantine(
        &self,
        feasible: &mut Vec<(usize, PlannedQuery)>,
        now: u64,
        flight_id: u64,
    ) -> Vec<(usize, PlannedQuery)> {
        let quarantined: Vec<_> = feasible
            .extract_if(.., |(idx, _)| self.breakers[*idx].gate(now) == BreakerHealth::Open)
            .collect();
        for (idx, _) in &quarantined {
            self.sat_out(*idx, flight_id);
        }
        quarantined
    }

    /// Books member `idx` sitting a decision out behind its open breaker.
    fn sat_out(&self, idx: usize, flight_id: u64) {
        let name = &self.members[idx].name;
        self.obs.metrics.inc(names::FEDERATION_QUARANTINED);
        self.tap(names::MEMBER_QUARANTINED_PREFIX, name, 1);
        self.obs.tracer.event_with(|| format!("member {name}: quarantined (breaker open)"));
        self.flight.note(flight_id, || PlanEvent::Breaker {
            member: name.clone(),
            transition: "quarantined",
        });
    }

    /// Plans `query`, consulting the prepared-plan cache first (when one
    /// is installed with [`Federation::with_plan_cache`]).
    ///
    /// - **Hit**: the query's parameterized shape matched a cached entry
    ///   and its constants rebound cleanly — the planning survey is skipped
    ///   entirely. A fresh flight record still narrates the hit so
    ///   journal/profile ids stay unique per query.
    /// - **Miss / rejected** (also `breaker-open`, a hit whose member is
    ///   quarantined): falls back to [`Federation::plan`] and stores the
    ///   winner for the next query of this shape, unless a quarantined
    ///   member would have won: every entry is an all-closed decision.
    ///
    /// Takes one tick of the breaker clock, hit or not; a hit's run
    /// re-checks its member's breaker at that tick.
    pub fn prepare<'q>(&self, query: &'q TargetQuery) -> Result<PreparedFederated<'q>, PlanError> {
        let Some(cache) = &self.plan_cache else { return self.plan(query) };
        let now = self.clock.load(Ordering::Relaxed) + 1;
        let serves = |m: usize| self.breakers[m].gate(now) != BreakerHealth::Open;
        let decision = match cache.lookup_admitting(query, &self.members, serves) {
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
                    source: self.members[member].clone(),
                    planned: *planned,
                    decision: CacheDecision::Hit,
                    considered: Considered::default(),
                    flight_id: flight.id(),
                    query,
                    fallbacks: Vec::new(),
                    quarantined: Vec::new(),
                    cacheable: true,
                    now: self.tick(),
                });
            }
            Lookup::Miss => {
                self.obs.metrics.inc(names::PLANCACHE_MISSES);
                CacheDecision::Miss
            }
            Lookup::Rejected(reason) => {
                self.obs.metrics.inc(names::PLANCACHE_REJECTED);
                self.obs
                    .tracer
                    .event_with(|| format!("plan cache entry rejected ({reason}); planning cold"));
                CacheDecision::Rejected(reason)
            }
        };
        let prepared = self.plan(query)?;
        if prepared.cacheable {
            let evicted = cache.insert(query, prepared.member, prepared.planned.clone());
            if evicted > 0 {
                self.obs.metrics.add(names::PLANCACHE_EVICTIONS, evicted);
            }
            self.obs.metrics.gauge_set(names::PLANCACHE_ENTRIES, cache.len() as f64);
        }
        Ok(PreparedFederated { decision, ..prepared })
    }

    /// Plans and executes `query`: [`Federation::run_stream`] on the plain
    /// pipeline, collecting.
    pub fn run(&self, query: &TargetQuery) -> Result<FederatedRun, MediatorError> {
        self.run_stream(query, StreamOptions::plain(&StreamConfig::default()), None)
    }

    /// The one function that executes: decides on `input` with
    /// [`Federation::prepare`] (unless it already is a prepared decision)
    /// and streams it on the decision's member, on that member's mediator,
    /// the way `options` say ([`StreamOptions::Analyzed`] is one mediator's
    /// and is rejected). With a `sink`, each deduplicated answer batch goes
    /// to it (return `false` to stop early) and `rows` stays empty.
    ///
    /// A run gates at its decision's tick of the breaker clock, and a
    /// half-open member's run is its probe. A prepared decision whose
    /// member another run quarantined since starts on the next-cheapest
    /// member that may serve. When the serving member's leaf dies
    /// (retries spent), the failure counts on its breaker and the
    /// next-cheapest member that may serve is spliced into the stream: its
    /// surveyed plan before the first row or for a condition-less residual,
    /// else the residual re-planned on it. Emitted tuples are deduplicated
    /// away, so the answer matches a fault-free run. Under
    /// [`StreamOptions::Adaptive`] the serving member's drift controller
    /// also re-plans at batch boundaries. Members are planned in member
    /// order and tried in cost order (member index breaks ties), so the
    /// same seed yields the same [`FederatedRun::trace`].
    pub fn run_stream<'q>(
        &self,
        input: impl Into<FederatedInput<'q>>,
        options: StreamOptions<'_>,
        sink: Option<&mut dyn FnMut(TupleBatch) -> bool>,
    ) -> Result<FederatedRun, MediatorError> {
        if let StreamOptions::Analyzed(_) = options {
            return Err(MediatorError::Plan(PlanError::MalformedQuery(
                "EXPLAIN ANALYZE runs on one mediator, not a federation".into(),
            )));
        }
        let (prepared, planned_here) = match input.into() {
            StreamInput::Query(query) => (self.prepare(query)?, true),
            StreamInput::Prepared(prepared) => (prepared, false),
        };
        let trace = if planned_here { self.ruled_out(&prepared) } else { Vec::new() };
        let (now, flight_id) = (prepared.now, prepared.flight_id);
        let mut run = Gated { now, flight_id, trace };
        let mut ctl = BreakerSpliceController {
            fed: self,
            run: &mut run,
            query: prepared.query,
            queue: (prepared.decision != CacheDecision::Hit).then(|| prepared.fallbacks.into()),
            current: prepared.member,
            drift: None,
            drift_cfg: if let StreamOptions::Adaptive(cfg) = options { Some(cfg) } else { None },
            retired_triggers: 0,
            splices: 0,
        };
        let (member, planned) = match self.breakers[prepared.member].gate(now) {
            // Another run quarantined the decision's member since.
            BreakerHealth::Open => {
                ctl.sit_out(prepared.member);
                ctl.next_candidate().ok_or_else(|| no_plan(prepared.query, true))?
            }
            _ => (prepared.member, prepared.planned),
        };
        self.probe(member, ctl.run);
        ctl.serve_from(member);
        let result = self.mediators[member].execute(planned, options, Some(&mut ctl), sink);
        let (serving, splices) = (ctl.current, ctl.splices);
        // On failure the controller already opened breakers and traced
        // every member that died; nobody was left to splice to.
        let mut stream = result?;
        let name = &self.members[serving].name;
        self.recovered(serving, &mut run);
        if splices > 0 {
            // A mid-stream member switch is a failover, just a cheaper one.
            stream.resilience.failovers += splices;
            self.obs.metrics.add(names::RESILIENCE_FAILOVERS, splices);
            self.flight.note(flight_id, || PlanEvent::Note {
                text: format!("served by member {name} after {splices} splice(s)"),
            });
        }
        // A breaker splice is charged to the member that died, and after
        // one the run's retries are mostly that member's too.
        let retries = if splices == 0 { stream.resilience.retries } else { 0 };
        self.served(serving, &stream.outcome, retries, stream.splices - splices);
        self.tap(names::MEMBER_DRIFT_PREFIX, name, stream.drift_triggers);
        let (source_name, considered) = (name.clone(), prepared.considered);
        Ok(FederatedRun { stream, source_name, trace: run.trace, considered, flight_id })
    }

    /// The members a survey ruled out, in member order: infeasible (pruned
    /// or failed planning) or quarantined; none after a cache hit.
    /// O(members), so only a run planned from its query narrates it.
    fn ruled_out(&self, prepared: &PreparedFederated<'_>) -> FailoverTrace {
        if prepared.decision == CacheDecision::Hit {
            return Vec::new();
        }
        let mut events = vec![Some(MemberEvent::Infeasible); self.members.len()];
        events[prepared.member] = None;
        for (idx, _) in &prepared.fallbacks {
            events[*idx] = None;
        }
        for &idx in &prepared.quarantined {
            events[idx] = Some(MemberEvent::Quarantined);
        }
        self.members.iter().zip(events).filter_map(|(m, e)| Some((m.name.clone(), e?))).collect()
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

    /// Books the probe of a cooled-down breaker when member `idx` is about
    /// to run while half-open.
    fn probe(&self, idx: usize, run: &mut Gated) {
        if self.breakers[idx].gate(run.now) != BreakerHealth::HalfOpen {
            return;
        }
        let name = &self.members[idx].name;
        self.obs.metrics.inc(names::BREAKER_HALF_OPENED);
        self.obs.tracer.event_with(|| format!("member {name}: half-open probe"));
        self.flight.note(run.flight_id, || PlanEvent::Breaker {
            member: name.clone(),
            transition: "half-open",
        });
        run.trace.push((name.clone(), MemberEvent::Probed));
    }

    /// Books member `idx`'s execution failure: its breaker (which may
    /// open), the failure counters, the health taps, the trace entry.
    fn failed(&self, idx: usize, err: &ExecError, run: &mut Gated) {
        let name = &self.members[idx].name;
        if self.breakers[idx].record_failure(run.now, &self.breaker_cfg, &self.tripped) {
            self.obs.metrics.inc(names::BREAKER_OPENED);
            self.tap(names::BREAKER_OPENED_PREFIX, name, 1);
            self.obs.tracer.event_with(|| format!("member {name}: breaker opened"));
            self.flight.note(run.flight_id, || PlanEvent::Breaker {
                member: name.clone(),
                transition: "opened",
            });
        }
        self.obs.metrics.inc(names::FEDERATION_EXEC_FAILED);
        self.tap(names::MEMBER_ERRORS_PREFIX, name, 1);
        run.trace.push((name.clone(), MemberEvent::ExecFailed(err.to_string())));
    }

    /// Books member `idx`'s success on its breaker, closing it when it was
    /// open or half-open, and the `Served` trace entry.
    fn recovered(&self, idx: usize, run: &mut Gated) {
        let name = &self.members[idx].name;
        if self.breakers[idx].record_success(&self.tripped) {
            self.obs.metrics.inc(names::BREAKER_CLOSED);
            self.flight.note(run.flight_id, || PlanEvent::Breaker {
                member: name.clone(),
                transition: "closed",
            });
        }
        run.trace.push((name.clone(), MemberEvent::Served));
    }
}

/// No member can serve `query`; `quarantined` says whether a capable one
/// sat the decision out behind its breaker.
fn no_plan(query: &TargetQuery, quarantined: bool) -> PlanError {
    let scheme = match quarantined {
        true => "Federation (all capable members quarantined)",
        false => "Federation",
    };
    PlanError::NoFeasiblePlan { query: query.to_string(), scheme }
}

/// Cheapest-first order of `(member, plan)` candidates.
fn by_cost(a: &(usize, PlannedQuery), b: &(usize, PlannedQuery)) -> std::cmp::Ordering {
    a.1.est_cost.partial_cmp(&b.1.est_cost).expect("finite plan costs")
}

/// What a run carries from its start to its last bookkeeping entry.
struct Gated {
    /// This run's tick of the breaker clock.
    now: u64,
    /// The run's flight record.
    flight_id: u64,
    trace: FailoverTrace,
}

/// The [`ReplanController`] every federated run streams under: a terminal
/// leaf failure counts on the serving member's breaker and splices the
/// next-cheapest candidate in (surveyed plan before the first row or for a
/// condition-less residual, else the re-planned residual). Batch
/// boundaries go to the serving member's drift controller, if any.
struct BreakerSpliceController<'a> {
    fed: &'a Federation,
    run: &'a mut Gated,
    /// The query the run answers.
    query: &'a TargetQuery,
    /// Remaining candidates with their surveyed plans, cheapest-first;
    /// `None` until a run from a cache hit ranks them.
    queue: Option<VecDeque<(usize, PlannedQuery)>>,
    /// Index of the member currently feeding the pipeline.
    current: usize,
    /// The serving member's drift controller, on an adaptive run.
    drift: Option<DriftController<'a>>,
    /// What a splice target's drift controller is built with.
    drift_cfg: Option<&'a AdaptiveConfig>,
    /// Drift triggers of the controllers retired by member splices.
    retired_triggers: u64,
    /// Member splices so far.
    splices: u64,
}

impl BreakerSpliceController<'_> {
    /// The first candidate of the splice queue (ranked now when the
    /// decision was a cache hit) whose breaker lets it serve at the run's
    /// tick, with its surveyed plan. One that another run quarantined since
    /// the queue was ranked sits this run out, untried.
    fn next_candidate(&mut self) -> Option<(usize, PlannedQuery)> {
        while let Some((idx, planned)) = self.queue().pop_front() {
            if self.fed.breakers[idx].gate(self.run.now) != BreakerHealth::Open {
                return Some((idx, planned));
            }
            self.sit_out(idx);
        }
        None
    }

    /// Books member `idx` sitting the run out behind its open breaker.
    fn sit_out(&mut self, idx: usize) {
        self.fed.sat_out(idx, self.run.flight_id);
        self.run.trace.push((self.fed.members[idx].name.clone(), MemberEvent::Quarantined));
    }

    /// The splice queue. A run from a cache hit ranks it at first use: the
    /// skipped survey, minus the current member and the quarantined.
    fn queue(&mut self) -> &mut VecDeque<(usize, PlannedQuery)> {
        let (fed, query, current, run) = (self.fed, self.query, self.current, &*self.run);
        self.queue.get_or_insert_with(|| {
            let (mut live, _) = fed.survey(query, run.flight_id);
            live.retain(|(idx, _)| *idx != current);
            fed.quarantine(&mut live, run.now, run.flight_id);
            live.sort_by(by_cost);
            live.into()
        })
    }

    /// Makes member `idx` the one feeding the pipeline; on an adaptive run
    /// its drift controller watches the batch boundaries from here on.
    fn serve_from(&mut self, idx: usize) {
        self.current = idx;
        if let Some(cfg) = self.drift_cfg {
            let (med, attrs) = (&self.fed.mediators[idx], self.query.attrs.clone());
            let ctl = DriftController::new(med, attrs, self.run.flight_id, cfg, Default::default());
            self.retired_triggers += self.drift.replace(ctl).map_or(0, |d| d.drift_triggers());
        }
    }
}

impl ReplanController for BreakerSpliceController<'_> {
    fn on_batch(&mut self, probe: &ReplanProbe<'_>) -> Option<SpliceAction> {
        self.drift.as_mut()?.on_batch(probe)
    }

    fn on_leaf_error(&mut self, probe: &ReplanProbe<'_>, err: &ExecError) -> Option<SpliceAction> {
        let fed = self.fed;
        let failed = &fed.members[self.current];
        fed.failed(self.current, err, self.run);
        fed.obs.metrics.inc(names::REPLAN_TRIGGERED);
        fed.obs.metrics.inc(names::REPLAN_BREAKER_TRIGGERS);
        fed.obs.tracer.event_with(|| {
            format!("member {}: died after {} rows ({err})", failed.name, probe.emitted)
        });

        let remaining = probe.remaining_plan()?;
        // Before the first answer row the whole query is missing, and a
        // residual without a condition is the whole query too: either way
        // the next candidate's surveyed plan runs, and nothing is re-planned.
        let residual = if probe.emitted > 0 { plan_condition(&remaining) } else { None };
        while let Some((idx, surveyed)) = self.next_candidate() {
            let next = &fed.members[idx];
            fed.probe(idx, self.run);
            let plan = match &residual {
                None => surveyed.plan,
                // Re-plan the residual on the splice target — its
                // capabilities may shape the cover differently than the
                // dead member's did, and the pipeline only needs what has
                // not been emitted.
                Some(residual) => {
                    let q = TargetQuery::new(residual.clone(), self.query.attrs.clone());
                    match fed.mediators[idx].plan_quiet(&q) {
                        Ok(p) => {
                            p.report.record_into(&fed.obs.metrics);
                            p.plan
                        }
                        Err(_) => {
                            // The residual may be narrower than the
                            // original query, so a member that was feasible
                            // for the whole query can still fail here.
                            fed.obs.metrics.inc(names::FEDERATION_INFEASIBLE);
                            let text = format!("member {}: residual infeasible", next.name);
                            fed.obs.tracer.event_with(|| text.clone());
                            fed.flight.note(self.run.flight_id, || PlanEvent::Note { text });
                            self.run.trace.push((next.name.clone(), MemberEvent::Infeasible));
                            continue;
                        }
                    }
                }
            };
            fed.obs.metrics.inc(names::REPLAN_SPLICES);
            // The splice is charged to the member that died — it is the
            // health signal, not the rescuer.
            fed.tap(names::MEMBER_SPLICES_PREFIX, &failed.name, 1);
            fed.flight.note(self.run.flight_id, || PlanEvent::Replan {
                trigger: "breaker-open",
                detail: format!("member {} failed: {err}", failed.name),
                batch: probe.batches,
                emitted: probe.emitted,
                old_plan: remaining.to_string(),
                new_plan: plan.to_string(),
            });
            fed.obs.tracer.event_with(|| {
                format!(
                    "replan (breaker): splice to member {} at batch {} after {} rows",
                    next.name, probe.batches, probe.emitted
                )
            });
            self.run.trace.push((next.name.clone(), MemberEvent::Spliced(failed.name.clone())));
            self.splices += 1;
            self.serve_from(idx);
            return Some(SpliceAction { plan, source: next.clone() });
        }
        None
    }

    fn on_final_error(&mut self, err: &ExecError) {
        self.fed.failed(self.current, err, self.run);
    }

    fn drift_triggers(&self) -> u64 {
        self.retired_triggers + self.drift.as_ref().map_or(0, |d| d.drift_triggers())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csqp_expr::ValueType;
    use csqp_plan::exec::RetryPolicy;
    use csqp_plan::Plan;
    use csqp_relation::datagen;
    use csqp_relation::stream::DEFAULT_BATCH_SIZE;
    use csqp_relation::Relation;
    use csqp_source::{CostParams, Meter};
    use csqp_ssdl::{parse_ssdl, templates, SsdlDesc};

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
    fn prepare_hits_on_repeat_shapes_and_membership_changes_invalidate() {
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
        // A membership change wipes the cache: the next prepare is cold.
        let f = f.with_member(mirrors().members()[0].clone());
        assert_eq!(f.prepare(&q2).unwrap().decision, CacheDecision::Miss);
        let stats = f.plan_cache().unwrap().stats();
        assert_eq!((stats.hits, stats.invalidations), (1, 1));
    }

    /// A fault-free cache hit plans nothing: the query's own metric writes
    /// hold no `planner.*` or `capindex.*` series. A hit whose member dies
    /// surveys once, at its first leaf error, and splices the survey's next
    /// member in. Both federations share one cache and one member layout,
    /// so the healthy one's entry is the dark one's hit.
    #[test]
    fn a_hit_plans_nothing_until_its_member_fails_then_surveys_once() {
        use csqp_obs::ProfileCapture;
        use csqp_source::FaultProfile;
        let cache = Arc::new(PlanCache::new());
        let [healthy, dark] = [FaultProfile::new(0), FaultProfile::new(0).with_outage(0, u64::MAX)]
            .map(|p| {
                faulty_pair(p, CircuitBreakerConfig::default()).with_plan_cache(cache.clone())
            });
        let query = |make: &str| {
            let cond = format!("make = \"{make}\" ^ price < 40000");
            TargetQuery::parse(&cond, &["model", "year"]).unwrap()
        };
        let stream = StreamConfig::default();
        let served = |f: &Federation, q: &TargetQuery| {
            let prepared = f.prepare(q).unwrap();
            assert_eq!(prepared.decision, CacheDecision::Hit);
            let mark = f.obs().tracer.span_mark();
            let capture = ProfileCapture::begin(f.obs());
            let run = f.run_stream(prepared, StreamOptions::plain(&stream), None).unwrap();
            let written = capture.close();
            let spans = f.obs().tracer.spans_from(mark);
            let surveys = spans.iter().filter(|s| s.label == "capindex select").count();
            (run.source_name, written, surveys)
        };
        assert_eq!(healthy.prepare(&query("BMW")).unwrap().decision, CacheDecision::Miss);
        let (member, written, surveys) = served(&healthy, &query("Audi"));
        assert_eq!((member.as_str(), surveys), ("car_dealer", 0));
        let planned = |k: &String| k.starts_with("planner.") || k.starts_with("capindex.");
        assert!(!written.counters.keys().any(planned), "{}", written.to_json());
        assert!(!written.gauges.keys().any(planned), "{}", written.to_json());
        let (member, written, surveys) = served(&dark, &query("Ford"));
        assert_eq!((member.as_str(), surveys), ("dump", 1));
        assert!(written.counter(names::PLANNER_CHECK_CALLS) > 0, "{}", written.to_json());
        assert_eq!(written.counter(names::CAPINDEX_CANDIDATES), 2, "one survey of both members");
    }

    #[test]
    fn prepare_counts_plan_cache_evictions() {
        let f = mirrors().with_plan_cache(Arc::new(PlanCache::with_capacity(1)));
        let shapes = [
            TargetQuery::parse("make = \"BMW\" ^ price < 40000", &["model", "year"]).unwrap(),
            TargetQuery::parse("color = \"red\"", &["make", "model"]).unwrap(),
        ];
        for q in &shapes {
            assert_eq!(f.prepare(q).unwrap().decision, CacheDecision::Miss);
        }
        assert_eq!(f.metrics_snapshot().counter(names::PLANCACHE_EVICTIONS), 1);
        assert_eq!(f.plan_cache().unwrap().stats().evictions, 1);
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
        let dump = Arc::new(Source::new(data, dump_desc(), CostParams::new(200.0, 5.0)));
        Federation::new().with_member(flaky).with_member(dump).with_breaker(cfg)
    }

    /// A download-only source over the cars.
    fn dump_desc() -> SsdlDesc {
        templates::download_only(
            "dump",
            &[
                ("make", ValueType::Str),
                ("model", ValueType::Str),
                ("year", ValueType::Int),
                ("color", ValueType::Str),
                ("price", ValueType::Int),
            ],
        )
    }

    /// Plain pipeline options under `policy` at the default batch size.
    fn retried(policy: &RetryPolicy) -> StreamOptions<'_> {
        const STREAM: StreamConfig = StreamConfig { batch_size: DEFAULT_BATCH_SIZE, limit: None };
        StreamOptions::Plain { stream: &STREAM, policy: Some(policy) }
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
        let run = f.run_stream(&q, retried(&policy), None).unwrap();
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
        // With a sink each answer row arrives exactly once.
        let mut sunk = Vec::new();
        let mut sink = |b: TupleBatch| {
            sunk.extend(b.into_tuples());
            true
        };
        let options = retried(&policy);
        let run = f.run_stream(&q, options, Some(&mut sink)).unwrap();
        assert!(run.stream.outcome.rows.is_empty(), "the sink consumed the answer");
        assert_eq!(sunk.len(), want.len(), "no row reaches the sink twice");
        assert_eq!(Relation::from_tuples(want.schema().clone(), sunk), want);
        // A prepared decision fails over the same way: the dealer still
        // wins planning (two failures stay under the threshold of three),
        // dies, and the dump splices in from the decision's ranking.
        let prepared = f.prepare(&q).unwrap();
        assert_eq!(f.members()[prepared.member].name, "car_dealer");
        let run = f.run_stream(prepared, options, None).unwrap();
        assert_eq!(run.source_name, "dump");
        assert_eq!(run.stream.outcome.rows, want);
    }

    #[test]
    fn failover_event_names_the_cost_rank_not_the_member_index() {
        use csqp_source::FaultProfile;
        // The cheap dealer is member 1 and hard-down: it is tried first,
        // in cheapest-first order, and the splice names it, not its index.
        let pair = faulty_pair(
            FaultProfile::new(0).with_outage(0, u64::MAX),
            CircuitBreakerConfig::default(),
        );
        let [dealer, dump] = [0, 1].map(|i| pair.members()[i].clone());
        let f = Federation::new()
            .with_member(dump)
            .with_member(dealer)
            .with_flight_recorder(Arc::new(FlightRecorder::new()));
        let policy = RetryPolicy { max_retries: 0, ..Default::default() };
        let run = f.run_stream(&car_query(), retried(&policy), None).unwrap();
        assert_eq!(run.source_name, "dump");
        let why = f.explain_why();
        let replans: Vec<&str> = why.lines().filter(|l| l.contains("[replan]")).collect();
        assert_eq!(replans.len(), 1, "{why}");
        assert!(replans[0].contains("[replan] breaker-open"), "{why}");
        assert!(replans[0].contains("member car_dealer failed"), "{why}");
    }

    #[test]
    fn spliced_transfer_counts_only_the_members_streamed_from() {
        use csqp_source::FaultProfile;
        // `mirrors()` with the dealer hard-down: the dump rescues the run
        // while the sink queries the untouched color_only member.
        let m = mirrors();
        let dealer = Arc::new(
            Source::new(datagen::cars(3, 400), templates::car_dealer(), CostParams::new(10.0, 1.0))
                .with_fault_profile(FaultProfile::new(0).with_outage(0, u64::MAX)),
        );
        let f = Federation::new()
            .with_member(dealer)
            .with_member(m.members()[1].clone())
            .with_member(m.members()[2].clone());
        let policy = RetryPolicy { max_retries: 0, ..Default::default() };
        let color = TargetQuery::parse("color = \"red\"", &["make", "model"]).unwrap();
        let mut side = 0;
        let mut sink = |_: TupleBatch| {
            side += f.mediators[2].run(&color).unwrap().meter.tuples_shipped;
            true
        };
        let run = f.run_stream(&car_query(), retried(&policy), Some(&mut sink)).unwrap();
        assert_eq!(run.source_name, "dump");
        assert!(side > 0, "the sink shipped tuples from color_only");
        // The hard-down dealer never opened a stream, so the run's transfer
        // is the dump's surveyed plan alone, priced at the dump's constants.
        let alone = f.mediators[1].run(&car_query()).unwrap();
        let outcome = &run.stream.outcome;
        assert_eq!(outcome.meter, alone.meter);
        assert_eq!(outcome.measured_cost, alone.measured_cost);
    }

    #[test]
    fn recovering_before_the_first_row_replans_nothing() {
        use csqp_source::FaultProfile;
        let policy = RetryPolicy { max_retries: 0, ..Default::default() };
        let check_calls = |profile: FaultProfile| {
            let f = faulty_pair(profile, CircuitBreakerConfig::default());
            let run = f.run_stream(&car_query(), retried(&policy), None).unwrap();
            (run.source_name, f.metrics_snapshot().counter(names::PLANNER_CHECK_CALLS))
        };
        let (down, healthy) = (
            check_calls(FaultProfile::new(0).with_outage(0, u64::MAX)),
            check_calls(FaultProfile::new(0)),
        );
        assert_eq!((down.0.as_str(), healthy.0.as_str()), ("dump", "car_dealer"));
        assert!(healthy.1 > 0, "the survey planned");
        assert_eq!(down.1, healthy.1, "the dump ran its surveyed plan");
    }

    #[test]
    fn unconditional_residual_splices_the_surveyed_plan() {
        let f = mirrors();
        let q = car_query();
        let p = f.plan(&q).unwrap();
        let names: Vec<&str> = std::iter::once(p.member)
            .chain(p.fallbacks.iter().map(|(i, _)| *i))
            .map(|i| f.members()[i].name.as_str())
            .collect();
        assert_eq!(names, ["car_dealer", "dump"]);
        let surveyed = p.fallbacks[0].1.plan.clone();
        let mut run = Gated { now: 1, flight_id: p.flight_id, trace: Vec::new() };
        let mut ctl = BreakerSpliceController {
            fed: &f,
            run: &mut run,
            query: &q,
            queue: Some(p.fallbacks.into()),
            current: 0,
            drift: None,
            drift_cfg: None,
            retired_triggers: 0,
            splices: 0,
        };
        // Rows were emitted, but the dying plan has no condition to re-plan.
        let plan = Plan::source(None, q.attrs.clone());
        assert_eq!(plan_condition(&plan), None);
        let probe =
            ReplanProbe { plan: &plan, union_progress: None, leaves: &[], batches: 2, emitted: 5 };
        let action = ctl.on_leaf_error(&probe, &ExecError::Unresolved).expect("a splice");
        assert_eq!(action.source.name, "dump");
        assert_eq!(action.plan, surveyed);
        assert_eq!(ctl.current, 1);
    }

    /// The consecutive failures member `idx`'s breaker has counted.
    fn failures(f: &Federation, idx: usize) -> u32 {
        f.breakers[idx].consecutive_failures.load(Ordering::Relaxed)
    }

    #[test]
    fn a_run_past_the_splice_cap_still_books_every_failure() {
        use csqp_source::FaultProfile;
        // 17 dark mirrors: 16 splices reach the last one, which dies after
        // the run has spent its splices and must still count its failure.
        let data = datagen::cars(3, 100);
        let f = (0..17).fold(Federation::new(), |f, i| {
            let desc = SsdlDesc { name: format!("m{i}"), ..templates::car_dealer() };
            let dark = Source::new(data.clone(), desc, CostParams::new(10.0 + i as f64, 1.0))
                .with_fault_profile(FaultProfile::new(0).with_outage(0, u64::MAX));
            f.with_member(Arc::new(dark))
        });
        let policy = RetryPolicy { max_retries: 0, ..Default::default() };
        assert!(f.run_stream(&car_query(), retried(&policy), None).is_err());
        let metrics = f.metrics_snapshot();
        assert_eq!(metrics.counter(names::REPLAN_SPLICES), 16);
        assert_eq!(metrics.counter(names::FEDERATION_EXEC_FAILED), 17);
        assert!((0..17).all(|idx| failures(&f, idx) == 1), "every breaker counted its member");
    }

    #[test]
    fn a_fallback_quarantined_after_the_decision_is_skipped_untried() {
        use csqp_source::FaultProfile;
        // The dealer is dark; the dump fails its first attempt only.
        let f = Federation::new()
            .with_member(Arc::new(
                Source::new(
                    datagen::cars(3, 400),
                    templates::car_dealer(),
                    CostParams::new(10.0, 1.0),
                )
                .with_fault_profile(FaultProfile::new(0).with_outage(0, u64::MAX)),
            ))
            .with_member(Arc::new(
                Source::new(datagen::cars(3, 400), dump_desc(), CostParams::new(200.0, 5.0))
                    .with_fault_profile(FaultProfile::new(0).with_outage(0, 1)),
            ))
            .with_breaker(CircuitBreakerConfig { failure_threshold: 1, cooldown_ticks: 100 });
        let policy = RetryPolicy { max_retries: 0, ..Default::default() };
        let q = car_query();
        let decision = f.plan(&q).unwrap();
        assert_eq!(decision.source.name, "car_dealer");
        assert_eq!(decision.fallbacks.iter().map(|(idx, _)| *idx).collect::<Vec<_>>(), [1]);
        // Another run, which only the dump can answer, opens its breaker.
        let year = TargetQuery::parse("year = 1999", &["model"]).unwrap();
        assert!(f.run_stream(&year, retried(&policy), None).is_err());
        assert_eq!((failures(&f, 1), f.breakers[1].gate(decision.now)), (1, BreakerHealth::Open));
        let quarantined = f.metrics_snapshot().counter(names::FEDERATION_QUARANTINED);
        // The dealer dies; its fallback sits the run out instead of being
        // spliced in, so nobody is left to answer.
        assert!(f.run_stream(decision, retried(&policy), None).is_err());
        assert_eq!(f.members()[1].meter(), Meter::default(), "the dump was not tried");
        assert_eq!(failures(&f, 1), 1, "its breaker did not move");
        assert_eq!(failures(&f, 0), 1, "the dealer's failure counted");
        let metrics = f.metrics_snapshot();
        assert_eq!(metrics.counter(names::FEDERATION_QUARANTINED), quarantined + 1);
        assert_eq!(metrics.counter(names::REPLAN_SPLICES), 0);
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

        let r1 = f.run_stream(&q, retried(&policy), None).unwrap();
        assert!(matches!(event_for(&r1, "car_dealer")[..], [MemberEvent::ExecFailed(_)]));
        let r2 = f.run_stream(&q, retried(&policy), None).unwrap();
        assert!(matches!(event_for(&r2, "car_dealer")[..], [MemberEvent::ExecFailed(_)]));
        for _ in 0..2 {
            let r = f.run_stream(&q, retried(&policy), None).unwrap();
            assert_eq!(event_for(&r, "car_dealer"), vec![MemberEvent::Quarantined]);
            assert_eq!(r.source_name, "dump", "quarantine shields the run from the dealer");
        }
        let r5 = f.run_stream(&q, retried(&policy), None).unwrap();
        assert_eq!(
            event_for(&r5, "car_dealer"),
            vec![MemberEvent::Probed, MemberEvent::Served],
            "half-open probe succeeds"
        );
        assert_eq!(r5.source_name, "car_dealer");
        let r6 = f.run_stream(&q, retried(&policy), None).unwrap();
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
        let r1 = f.run_stream(&q, retried(&policy), None).unwrap(); // fails, opens
        assert!(r1.trace.iter().any(|(_, e)| matches!(e, MemberEvent::ExecFailed(_))));
        let r2 = f.run_stream(&q, retried(&policy), None).unwrap(); // quarantined
        assert!(r2.trace.iter().any(|(_, e)| *e == MemberEvent::Quarantined));
        let r3 = f.run_stream(&q, retried(&policy), None).unwrap(); // probe fails, reopens
        assert!(r3.trace.iter().any(|(_, e)| *e == MemberEvent::Probed));
        let r4 = f.run_stream(&q, retried(&policy), None).unwrap(); // quarantined again
        assert!(r4.trace.iter().any(|(_, e)| *e == MemberEvent::Quarantined));
    }

    #[test]
    fn a_decision_whose_member_was_quarantined_since_starts_on_the_next() {
        use csqp_source::FaultProfile;
        let policy = RetryPolicy { max_retries: 0, ..Default::default() };
        let q = car_query();
        // Uncached, the stale decision is a survey with the dump queued
        // behind the dealer; cached, it is a hit that ranks nothing yet.
        for cached in [false, true] {
            let f = faulty_pair(
                FaultProfile::new(0).with_outage(0, u64::MAX),
                CircuitBreakerConfig { failure_threshold: 1, cooldown_ticks: 1 },
            );
            let f = if cached { f.with_plan_cache(Arc::new(PlanCache::new())) } else { f };
            if cached {
                f.prepare(&q).unwrap(); // caches the dealer
            }
            let stale = f.prepare(&q).unwrap();
            assert_eq!(stale.source.name, "car_dealer");
            assert_eq!(stale.decision == CacheDecision::Hit, cached);
            // Another run opens the dealer's breaker after the decision.
            let opener = f.run_stream(&q, retried(&policy), None).unwrap();
            assert!(opener.trace.iter().any(|(_, e)| matches!(e, MemberEvent::ExecFailed(_))));
            let run = f.run_stream(stale, retried(&policy), None).unwrap();
            assert_eq!(run.source_name, "dump", "cached {cached}");
            assert_eq!(
                run.trace,
                vec![
                    ("car_dealer".to_string(), MemberEvent::Quarantined),
                    ("dump".to_string(), MemberEvent::Served)
                ],
                "cached {cached}: the dealer is not tried"
            );
            assert_eq!(run.stream.resilience.failovers, 0, "nothing died, nothing spliced");
            assert_eq!(run.stream.outcome.rows, opener.stream.outcome.rows);
        }
        // With every capable member quarantined a stale decision has no
        // stand-in: a one-member federation reports it infeasible.
        let lone = Arc::new(
            Source::new(datagen::cars(3, 400), templates::car_dealer(), CostParams::new(10.0, 1.0))
                .with_fault_profile(FaultProfile::new(0).with_outage(0, u64::MAX)),
        );
        let f = Federation::new()
            .with_member(lone)
            .with_breaker(CircuitBreakerConfig { failure_threshold: 1, cooldown_ticks: 1 });
        let stale = f.prepare(&q).unwrap();
        assert!(f.run_stream(&q, retried(&policy), None).is_err());
        let err = f.run_stream(stale, retried(&policy), None).unwrap_err();
        assert!(err.to_string().contains("all capable members quarantined"), "{err}");
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
                f.run_stream(&q, retried(&policy), None).unwrap();
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
                    f2.run_stream(&q, retried(&policy), None).unwrap();
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
        match f.run_stream(&car_query(), retried(&policy), None) {
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
        f.run_stream(&q, retried(&policy), None).unwrap();
        f.run_stream(&q, retried(&policy), None).unwrap();
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
            f.run_stream(&q, retried(&policy), None).unwrap();
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
            f.run_stream(&car_query(), retried(&policy), None).unwrap();
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
        let run = f.run_stream(&q, StreamOptions::Plain { stream, policy: Some(&policy) }, None);
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
            let run =
                f.run_stream(&q, StreamOptions::Plain { stream, policy: Some(&policy) }, None);
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
        match f.run_stream(
            &car_query(),
            StreamOptions::Plain { stream, policy: Some(&policy) },
            None,
        ) {
            Err(MediatorError::Exec(_)) => {}
            other => panic!("expected Exec error, got {other:?}"),
        }
    }
}
