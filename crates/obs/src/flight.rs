//! The query flight recorder: a bounded ring buffer of per-query planner
//! decision trails.
//!
//! Where the [`crate::metrics`] registry answers *how much* (counters,
//! histograms) and the [`crate::trace`] tracer answers *when* (virtual-tick
//! spans), the flight recorder answers **why**: every planner decision —
//! candidate sub-plan admitted, PR1 short-circuit, PR2 eviction with the
//! cost pair, PR3 domination with the dominating mask, MCSC cover choice
//! with its tie-break, CheckCache totals, failover and breaker transitions —
//! is recorded as a structured [`PlanEvent`] inside the [`QueryRecord`] of
//! the query that caused it. A record replays into the human-readable
//! `EXPLAIN WHY` report (`csqp_plan::why::explain_why`).
//!
//! Three disciplines keep it safe and cheap:
//!
//! 1. **Bounded.** The recorder keeps the last `max_queries` records and at
//!    most `max_events` events per record; overflow is *counted*
//!    ([`QueryRecord::dropped`], [`FlightRecorder::evicted`]), never
//!    silently lost.
//! 2. **Pay only when armed.** Every recording entry point takes a closure
//!    ([`FlightRecorder::begin_with`], [`QueryFlight::event_with`]); a
//!    disarmed recorder ([`FlightRecorder::off`]) never invokes it, so hot
//!    paths build no event text and allocate nothing.
//! 3. **Deterministic.** A query's planning runs on its caller's thread,
//!    and events carrying a *choice* among equals (PR3 dominators, MCSC
//!    covers) name the deterministic pick — so an `EXPLAIN WHY` report
//!    golden-tests byte-identically.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Mutex;

/// Default number of query records the ring retains.
pub const DEFAULT_MAX_QUERIES: usize = 32;

/// Default cap on events kept per query record.
pub const DEFAULT_MAX_EVENTS: usize = 4096;

/// One structured planner decision. The variants mirror the decision
/// points of GenCompact's IPG (§6.3 pruning rules, MCSC combination),
/// GenModular's EPG, the mediator's candidate ranking, and the
/// resilience/federation machinery.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanEvent {
    /// A rewritten condition tree entered the plan generator.
    CtBegin {
        /// Index of the CT in rewrite-module output order.
        index: usize,
        /// The CT, rendered.
        cond: String,
    },
    /// IPG answered a whole sub-search from its memo table.
    MemoHit {
        /// The memoized sub-condition.
        node: String,
    },
    /// PR1: a pure plan covers the node — the sub-search short-circuits.
    Pr1ShortCircuit {
        /// The node whose pure plan won immediately.
        node: String,
        /// Cost of the pure plan.
        cost: f64,
    },
    /// PR1: a children-subset recursion was skipped because a pure
    /// sub-plan already covers that subset.
    Pr1Skip {
        /// Children-subset bitmask whose recursion was skipped.
        mask: u64,
    },
    /// A candidate sub-plan entered the sub-plan array.
    Admitted {
        /// Children subset the sub-plan covers (bitmask).
        mask: u64,
        /// Estimated cost.
        cost: f64,
        /// Whether the sub-plan is pure (a single source query).
        pure: bool,
        /// The sub-plan, rendered.
        plan: String,
    },
    /// PR2: the costlier of two candidates for the same children subset
    /// was evicted.
    Pr2Evicted {
        /// The contested children subset.
        mask: u64,
        /// Cost of the candidate that stayed.
        kept_cost: f64,
        /// Cost of the candidate that was discarded.
        evicted_cost: f64,
    },
    /// PR3: a sub-plan was removed because another entry covers a superset
    /// of its children at no greater cost.
    Pr3Dominated {
        /// The dominated sub-plan's children subset.
        mask: u64,
        /// The dominated sub-plan's cost.
        cost: f64,
        /// The dominating entry's children subset (`mask ⊆ by_mask`).
        by_mask: u64,
        /// The dominating entry's cost (`by_cost ≤ cost`).
        by_cost: f64,
    },
    /// PR3: a recursion was skipped because a pure sub-plan already covers
    /// a superset of the subset.
    Pr3Skip {
        /// The subset whose recursion was skipped.
        mask: u64,
        /// The pure superset cover that justified the skip.
        by_mask: u64,
    },
    /// MCSC chose a cover of the node's children from the sub-plan array.
    McscCover {
        /// Children subsets of the chosen sub-plans, in item order.
        chosen_masks: Vec<u64>,
        /// Total cost of the cover.
        total_cost: f64,
        /// Branch-and-bound nodes (or greedy steps) examined.
        covers_examined: usize,
        /// How equal-cost covers were tie-broken.
        tie_break: &'static str,
    },
    /// MCSC found no cover — the node is infeasible through combination.
    McscNoCover {
        /// The children universe that could not be covered.
        universe: u64,
    },
    /// GenModular: the EPG plan space generated for a CT.
    EpgSpace {
        /// Index of the CT.
        index: usize,
        /// Number of concrete alternatives the `Choice` space encodes.
        alternatives: u64,
    },
    /// One CT produced a feasible per-CT winning candidate.
    CtCandidate {
        /// Index of the CT.
        index: usize,
        /// Estimated cost of the candidate.
        cost: f64,
        /// The candidate plan, rendered.
        plan: String,
    },
    /// One CT produced no feasible plan.
    CtInfeasible {
        /// Index of the CT.
        index: usize,
    },
    /// CheckCache totals for the whole planning pass.
    CheckCacheStats {
        /// `Check(C, R)` invocations.
        calls: u64,
        /// Calls answered from the fingerprint cache.
        hits: u64,
        /// Calls that re-parsed the capability templates.
        misses: u64,
    },
    /// The winning plan after ranking every per-CT candidate.
    Winner {
        /// Estimated cost of the winner.
        cost: f64,
        /// The winning plan, rendered.
        plan: String,
    },
    /// A losing candidate and the rule that eliminated it.
    Eliminated {
        /// The eliminating rule (`"cost"` for rank losses; pruning-rule
        /// losses are recorded as they happen via the `Pr*` variants).
        rule: &'static str,
        /// The loser's estimated cost.
        cost: f64,
        /// The losing plan, rendered.
        plan: String,
        /// Human-readable elimination detail.
        detail: String,
    },
    /// Execution fell over from one ranked plan (or federation member) to
    /// the next.
    Failover {
        /// Rank of the plan/member that failed.
        rank: usize,
        /// What happened, rendered.
        detail: String,
    },
    /// The federation capability index pre-filtered the member set before
    /// full `Check`-based planning.
    IndexPrune {
        /// Members in the federation.
        total: usize,
        /// Members surviving the index pre-filter.
        candidates: usize,
        /// Members pruned without planning (`total - candidates`).
        pruned: usize,
    },
    /// A circuit breaker (or its gate) changed state for a member.
    Breaker {
        /// The federation member.
        member: String,
        /// The transition (`opened`, `half-open`, `closed`, `quarantined`).
        transition: &'static str,
    },
    /// Mid-query adaptive re-planning spliced a new sub-plan into a
    /// running pipeline at a batch boundary.
    Replan {
        /// What fired the replan (`drift` or `breaker-open`).
        trigger: &'static str,
        /// Human-readable trigger detail (drifted subquery, failed member…).
        detail: String,
        /// Batch boundary (batches pulled so far) where the pipeline paused.
        batch: u64,
        /// Tuples already emitted downstream when the splice happened.
        emitted: u64,
        /// The superseded remaining sub-plan, rendered.
        old_plan: String,
        /// The spliced-in replacement sub-plan, rendered.
        new_plan: String,
    },
    /// Free-form annotation.
    Note {
        /// The annotation.
        text: String,
    },
}

impl fmt::Display for PlanEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanEvent::CtBegin { index, cond } => write!(f, "CT {index}: {cond}"),
            PlanEvent::MemoHit { node } => {
                write!(f, "[memo] sub-search answered from memo: {node}")
            }
            PlanEvent::Pr1ShortCircuit { node, cost } => {
                write!(f, "[PR1] pure plan short-circuits {node} (cost {cost:.2})")
            }
            PlanEvent::Pr1Skip { mask } => {
                write!(f, "[PR1] recursion on subset {mask:#b} skipped: pure sub-plan exists")
            }
            PlanEvent::Admitted { mask, cost, pure, plan } => {
                let kind = if *pure { "pure" } else { "impure" };
                write!(f, "admitted {kind} sub-plan for subset {mask:#b} (cost {cost:.2}): {plan}")
            }
            PlanEvent::Pr2Evicted { mask, kept_cost, evicted_cost } => write!(
                f,
                "[PR2] subset {mask:#b}: evicted cost {evicted_cost:.2} (kept {kept_cost:.2})"
            ),
            PlanEvent::Pr3Dominated { mask, cost, by_mask, by_cost } => write!(
                f,
                "[PR3] subset {mask:#b} (cost {cost:.2}) dominated by {by_mask:#b} \
                 (cost {by_cost:.2})"
            ),
            PlanEvent::Pr3Skip { mask, by_mask } => write!(
                f,
                "[PR3] recursion on subset {mask:#b} skipped: pure superset {by_mask:#b} exists"
            ),
            PlanEvent::McscCover { chosen_masks, total_cost, covers_examined, tie_break } => {
                write!(f, "[MCSC] cover {{")?;
                for (i, m) in chosen_masks.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{m:#b}")?;
                }
                write!(
                    f,
                    "}} cost {total_cost:.2} ({covers_examined} covers examined; \
                     tie-break: {tie_break})"
                )
            }
            PlanEvent::McscNoCover { universe } => {
                write!(f, "[MCSC] no cover of {universe:#b}: combination infeasible")
            }
            PlanEvent::EpgSpace { index, alternatives } => {
                write!(f, "[EPG] CT {index}: plan space holds {alternatives} alternatives")
            }
            PlanEvent::CtCandidate { index, cost, plan } => {
                write!(f, "=> CT {index} candidate (cost {cost:.2}): {plan}")
            }
            PlanEvent::CtInfeasible { index } => {
                write!(f, "=> CT {index}: infeasible (no plan for this rewriting)")
            }
            PlanEvent::CheckCacheStats { calls, hits, misses } => {
                write!(f, "check cache: {calls} calls ({hits} hits, {misses} misses)")
            }
            PlanEvent::Winner { cost, plan } => write!(f, "winner (cost {cost:.2}): {plan}"),
            PlanEvent::Eliminated { rule, cost, plan, detail } => {
                write!(f, "[{rule}] eliminated (cost {cost:.2}; {detail}): {plan}")
            }
            PlanEvent::Failover { rank, detail } => {
                write!(f, "[failover] rank {rank} failed: {detail}")
            }
            PlanEvent::IndexPrune { total, candidates, pruned } => {
                write!(
                    f,
                    "[capindex] {candidates} of {total} members remain ({pruned} pruned \
                     without planning)"
                )
            }
            PlanEvent::Breaker { member, transition } => {
                write!(f, "[breaker] member {member}: {transition}")
            }
            PlanEvent::Replan { trigger, detail, batch, emitted, old_plan, new_plan } => {
                write!(
                    f,
                    "[replan] {trigger} at batch {batch} ({emitted} rows emitted): \
                     {detail}; splice {old_plan} -> {new_plan}"
                )
            }
            PlanEvent::Note { text } => f.write_str(text),
        }
    }
}

/// The recorded decision trail of one query.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryRecord {
    /// Recorder-assigned id (monotonic; the `/flightrecorder?query=<id>`
    /// handle).
    pub id: u64,
    /// The target query, rendered.
    pub query: String,
    /// The planning scheme that handled it.
    pub scheme: String,
    /// The decision trail, in recording order.
    pub events: Vec<PlanEvent>,
    /// Events discarded once the per-record cap was hit.
    pub dropped: u64,
}

#[derive(Debug, Default)]
struct FlightInner {
    next_id: u64,
    records: VecDeque<QueryRecord>,
    evicted: u64,
}

/// The recording flight recorder: a bounded ring of [`QueryRecord`]s.
///
/// A recorder is either *armed* (constructed via [`FlightRecorder::new`] /
/// [`FlightRecorder::with_capacity`]) or *disarmed*
/// ([`FlightRecorder::off`]). Disarmed recorders never take the lock and
/// never invoke recording closures, so components can carry one
/// unconditionally — the mediator defaults to a disarmed recorder and arms
/// only for `--explain=why`, `csqp serve`, and tests.
#[derive(Debug)]
pub struct FlightRecorder {
    armed: bool,
    max_queries: usize,
    max_events: usize,
    inner: Mutex<FlightInner>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

impl FlightRecorder {
    /// An armed recorder with the default capacities.
    pub fn new() -> Self {
        FlightRecorder::with_capacity(DEFAULT_MAX_QUERIES, DEFAULT_MAX_EVENTS)
    }

    /// An armed recorder keeping the last `max_queries` records with at
    /// most `max_events` events each (both clamped to ≥ 1).
    pub fn with_capacity(max_queries: usize, max_events: usize) -> Self {
        FlightRecorder {
            armed: true,
            max_queries: max_queries.max(1),
            max_events: max_events.max(1),
            inner: Mutex::new(FlightInner::default()),
        }
    }

    /// A disarmed recorder: every operation is a cheap no-op.
    pub fn off() -> Self {
        FlightRecorder {
            armed: false,
            max_queries: 0,
            max_events: 0,
            inner: Mutex::new(FlightInner::default()),
        }
    }

    /// Whether this recorder records (`false` for [`FlightRecorder::off`]).
    pub fn armed(&self) -> bool {
        self.armed
    }

    /// Opens a record for one query and returns its recording handle. The
    /// closure supplies `(query, scheme)` and is only invoked when the
    /// recorder is armed. Evicts the oldest record when the ring is full.
    pub fn begin_with(&self, f: impl FnOnce() -> (String, String)) -> QueryFlight<'_> {
        if !self.armed {
            return QueryFlight::disabled();
        }
        let (query, scheme) = f();
        let mut inner = self.inner.lock().expect("flight lock");
        let id = inner.next_id;
        inner.next_id += 1;
        if inner.records.len() >= self.max_queries {
            inner.records.pop_front();
            inner.evicted += 1;
        }
        inner.records.push_back(QueryRecord { id, query, scheme, ..Default::default() });
        QueryFlight { rec: Some(self), id }
    }

    /// Appends an event to record `id` (for post-planning phases — stream
    /// stats, re-plans, failover, breaker transitions — that outlive the
    /// [`QueryFlight`] handle). Addressed by id, never "the latest": under
    /// concurrent workers the latest record is whichever query began last.
    /// No-op when disarmed or when the record was already evicted.
    pub fn note(&self, id: u64, f: impl FnOnce() -> PlanEvent) {
        if self.armed {
            self.push(id, f);
        }
    }

    /// Clones out the record with the given id, if it is still in the ring.
    pub fn record(&self, id: u64) -> Option<QueryRecord> {
        let inner = self.inner.lock().expect("flight lock");
        inner.records.iter().find(|r| r.id == id).cloned()
    }

    /// Clones out the most recent record.
    pub fn latest(&self) -> Option<QueryRecord> {
        let inner = self.inner.lock().expect("flight lock");
        inner.records.back().cloned()
    }

    /// Clones out every retained record, oldest first.
    pub fn records(&self) -> Vec<QueryRecord> {
        let inner = self.inner.lock().expect("flight lock");
        inner.records.iter().cloned().collect()
    }

    /// How many records the ring has evicted since creation.
    pub fn evicted(&self) -> u64 {
        self.inner.lock().expect("flight lock").evicted
    }

    /// Drops every record (ids keep counting up).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("flight lock");
        inner.records.clear();
    }

    fn push(&self, id: u64, f: impl FnOnce() -> PlanEvent) {
        let mut inner = self.inner.lock().expect("flight lock");
        let cap = self.max_events;
        if let Some(rec) = inner.records.iter_mut().rev().find(|r| r.id == id) {
            if rec.events.len() < cap {
                rec.events.push(f());
            } else {
                rec.dropped += 1;
            }
        }
        // Record already evicted: the event is simply dropped (the ring is
        // bounded by design).
    }
}

/// A per-query recording handle tied to one [`QueryRecord`]. `Copy`, so it
/// threads through planner contexts by value; a disabled handle (or one
/// from a disarmed recorder) ignores everything.
#[derive(Debug, Clone, Copy)]
pub struct QueryFlight<'a> {
    rec: Option<&'a FlightRecorder>,
    id: u64,
}

impl QueryFlight<'_> {
    /// A handle that records nothing (what planners run with unless a
    /// caller armed a recorder).
    pub const fn disabled() -> Self {
        QueryFlight { rec: None, id: 0 }
    }

    /// Whether events recorded through this handle are kept. Call sites
    /// gate expensive event construction on this.
    pub fn active(&self) -> bool {
        self.rec.is_some()
    }

    /// The record id this handle appends to (0 when disabled).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Records an event built lazily — the closure never runs when the
    /// handle is disabled.
    pub fn event_with(&self, f: impl FnOnce() -> PlanEvent) {
        if let Some(rec) = self.rec {
            rec.push(self.id, f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn note(s: &str) -> PlanEvent {
        PlanEvent::Note { text: s.to_string() }
    }

    #[test]
    fn records_events_per_query() {
        let rec = FlightRecorder::new();
        let q1 = rec.begin_with(|| ("SP(a)".into(), "GenCompact".into()));
        q1.event_with(|| note("one"));
        let q2 = rec.begin_with(|| ("SP(b)".into(), "GenModular".into()));
        q2.event_with(|| note("two"));
        q1.event_with(|| note("three")); // interleaved, isolated by id
        let r1 = rec.record(q1.id()).unwrap();
        let r2 = rec.record(q2.id()).unwrap();
        assert_eq!(r1.query, "SP(a)");
        assert_eq!(r1.events, vec![note("one"), note("three")]);
        assert_eq!(r2.scheme, "GenModular");
        assert_eq!(r2.events, vec![note("two")]);
        assert_eq!(rec.latest().unwrap().id, q2.id());
    }

    #[test]
    fn ring_evicts_oldest_at_capacity() {
        let rec = FlightRecorder::with_capacity(2, 16);
        let a = rec.begin_with(|| ("a".into(), "s".into()));
        let b = rec.begin_with(|| ("b".into(), "s".into()));
        let c = rec.begin_with(|| ("c".into(), "s".into()));
        assert_eq!(rec.evicted(), 1);
        assert!(rec.record(a.id()).is_none(), "oldest evicted");
        assert!(rec.record(b.id()).is_some());
        assert!(rec.record(c.id()).is_some());
        // Events for an evicted record are dropped without panicking.
        a.event_with(|| note("late"));
        assert_eq!(rec.records().len(), 2);
    }

    #[test]
    fn per_record_event_cap_counts_drops() {
        let rec = FlightRecorder::with_capacity(4, 3);
        let q = rec.begin_with(|| ("q".into(), "s".into()));
        for i in 0..5 {
            q.event_with(|| note(&format!("e{i}")));
        }
        let r = rec.record(q.id()).unwrap();
        assert_eq!(r.events.len(), 3);
        assert_eq!(r.dropped, 2);
    }

    #[test]
    fn disarmed_recorder_never_builds_events() {
        let rec = FlightRecorder::off();
        assert!(!rec.armed());
        let q = rec.begin_with(|| unreachable!("disarmed recorder must not build the label"));
        assert!(!q.active());
        q.event_with(|| unreachable!("disarmed recorder must not build events"));
        rec.note(0, || unreachable!("disarmed recorder must not build notes"));
        assert_eq!(q.id(), 0);
        assert!(rec.record(0).is_none());
        assert!(rec.latest().is_none());
        assert!(rec.records().is_empty());
        assert_eq!(rec.evicted(), 0);
        rec.clear();
        QueryFlight::disabled()
            .event_with(|| unreachable!("disabled handle must not build events"));
    }

    #[test]
    fn note_appends_to_its_own_record() {
        let rec = FlightRecorder::new();
        rec.note(0, || unreachable!("no record yet — closure must not run"));
        let a = rec.begin_with(|| ("a".into(), "s".into()));
        let b = rec.begin_with(|| ("b".into(), "s".into()));
        rec.note(a.id(), || note("tail"));
        assert_eq!(rec.record(a.id()).unwrap().events, vec![note("tail")]);
        assert!(
            rec.record(b.id()).unwrap().events.is_empty(),
            "the latest record is not the target"
        );
    }

    #[test]
    fn concurrent_queries_stay_isolated() {
        let rec = FlightRecorder::with_capacity(16, 1024);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let rec = &rec;
                s.spawn(move || {
                    let q = rec.begin_with(|| (format!("q{t}"), "s".into()));
                    for i in 0..200 {
                        q.event_with(|| note(&format!("{t}:{i}")));
                    }
                });
            }
        });
        let records = rec.records();
        assert_eq!(records.len(), 4);
        for r in records {
            let tag = r.query.strip_prefix('q').unwrap();
            assert_eq!(r.events.len(), 200);
            for (i, e) in r.events.iter().enumerate() {
                assert_eq!(e, &note(&format!("{tag}:{i}")), "no cross-query interleaving");
            }
        }
    }

    #[test]
    fn events_render_their_rule_tags() {
        let lines = [
            (PlanEvent::Pr1ShortCircuit { node: "a = 1".into(), cost: 5.0 }, "[PR1]"),
            (PlanEvent::Pr2Evicted { mask: 1, kept_cost: 1.0, evicted_cost: 2.0 }, "[PR2]"),
            (PlanEvent::Pr3Dominated { mask: 1, cost: 3.0, by_mask: 3, by_cost: 2.0 }, "[PR3]"),
            (
                PlanEvent::McscCover {
                    chosen_masks: vec![1, 2],
                    total_cost: 4.0,
                    covers_examined: 7,
                    tie_break: "t",
                },
                "[MCSC]",
            ),
            (
                PlanEvent::Eliminated {
                    rule: "cost",
                    cost: 9.0,
                    plan: "p".into(),
                    detail: "d".into(),
                },
                "[cost]",
            ),
        ];
        for (event, tag) in lines {
            assert!(event.to_string().contains(tag), "{event} missing {tag}");
        }
    }
}
