//! Shared planner types: target queries, planner outputs, search reports,
//! and errors.

use csqp_expr::parse::{parse_condition, ParseError};
use csqp_expr::CondTree;
use csqp_plan::{AttrSet, Plan};
use std::fmt;
use std::time::Duration;

/// A target query `SP(C, A, R)` (§3): select by condition `C`, project to
/// attributes `A`, on source relation `R` (bound at planning time).
#[derive(Debug, Clone, PartialEq)]
pub struct TargetQuery {
    /// The condition expression.
    pub cond: CondTree,
    /// The requested (projected) attributes.
    pub attrs: AttrSet,
}

impl TargetQuery {
    /// Builds a target query.
    pub fn new(cond: CondTree, attrs: AttrSet) -> Self {
        TargetQuery { cond, attrs }
    }

    /// Parses the condition from text syntax.
    pub fn parse(cond_text: &str, attrs: &[&str]) -> Result<Self, ParseError> {
        Ok(TargetQuery {
            cond: parse_condition(cond_text)?,
            attrs: attrs.iter().map(|s| s.to_string()).collect(),
        })
    }
}

impl fmt::Display for TargetQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SP({}, {{{}}}, R)",
            self.cond,
            self.attrs.iter().cloned().collect::<Vec<_>>().join(", ")
        )
    }
}

/// Cache and pruning statistics exposed by every planner — the previously
/// private [`CheckCache`](crate::cache::CheckCache) `Cell`s and the IPG
/// memo/pruning counters, surfaced for `--explain` and the metrics
/// registry. Everything here is a deterministic function of the query and
/// the source description (no wall clock), so it is safe to snapshot-test.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlannerStats {
    /// `Check(C, R)` invocations (before caching).
    pub check_calls: usize,
    /// CheckCache hits (calls answered without re-parsing the template).
    pub check_cache_hits: usize,
    /// CheckCache misses (actual capability-template parses).
    pub check_cache_misses: usize,
    /// Rewritten CTs the rewrite module produced.
    pub rewrites_generated: usize,
    /// IPG memo-table hits (whole sub-searches skipped; GenCompact only).
    pub ipg_memo_hits: usize,
    /// Sub-searches short-circuited or skipped by PR1.
    pub pr1_prunes: usize,
    /// Candidate sub-plans discarded by PR2.
    pub pr2_prunes: usize,
    /// Sub-plans discarded by PR3 (dominated).
    pub pr3_prunes: usize,
    /// MCSC branch-and-bound nodes (covers) examined.
    pub mcsc_covers_examined: usize,
}

impl PlannerStats {
    /// Adds these statistics to `metrics` under the canonical `planner.*`
    /// names.
    pub fn record_into(&self, metrics: &csqp_obs::MetricsRegistry) {
        use csqp_obs::names;
        metrics.add(names::PLANNER_CHECK_CALLS, self.check_calls as u64);
        metrics.add(names::PLANNER_CHECK_CACHE_HITS, self.check_cache_hits as u64);
        metrics.add(names::PLANNER_CHECK_CACHE_MISSES, self.check_cache_misses as u64);
        metrics.add(names::PLANNER_REWRITES_GENERATED, self.rewrites_generated as u64);
        metrics.add(names::PLANNER_IPG_MEMO_HITS, self.ipg_memo_hits as u64);
        metrics.add(names::PLANNER_PRUNED_PR1, self.pr1_prunes as u64);
        metrics.add(names::PLANNER_PRUNED_PR2, self.pr2_prunes as u64);
        metrics.add(names::PLANNER_PRUNED_PR3, self.pr3_prunes as u64);
        metrics.add(names::PLANNER_MCSC_COVERS_EXAMINED, self.mcsc_covers_examined as u64);
    }
}

/// Search statistics reported by every planner (the measurements behind
/// experiments E3–E5).
#[derive(Debug, Clone, Copy, Default)]
pub struct PlannerReport {
    /// Condition trees processed (rewrite-module output consumed).
    pub cts_processed: usize,
    /// `Check` invocations (before caching).
    pub checks: usize,
    /// Distinct concrete plans represented/considered across the search.
    pub plans_considered: u64,
    /// Recursive plan-generator invocations (EPG or IPG calls).
    pub generator_calls: usize,
    /// Largest sub-plan array `Q` handed to MCSC (IPG only; §6.4.2).
    pub max_q: usize,
    /// Whether any budget truncated the search (GenModular rewrite budgets).
    pub truncated: bool,
    /// Cache/memo hit rates and pruning-rule dividends.
    pub stats: PlannerStats,
    /// Wall-clock planning time.
    pub elapsed: Duration,
}

impl PlannerReport {
    /// Records the planner-side counters into `metrics` under the
    /// canonical `planner.*` names (`elapsed` is deliberately excluded —
    /// only deterministic quantities enter the registry).
    pub fn record_into(&self, metrics: &csqp_obs::MetricsRegistry) {
        use csqp_obs::names;
        metrics.add(names::PLANNER_CTS_CANONICALIZED, self.cts_processed as u64);
        metrics.add(names::PLANNER_GENERATOR_CALLS, self.generator_calls as u64);
        metrics.add(names::PLANNER_PLANS_CONSIDERED, self.plans_considered);
        self.stats.record_into(metrics);
    }
}

/// A successfully planned target query.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    /// The chosen concrete plan (no `Choice` operators).
    pub plan: Plan,
    /// Its estimated cost under the §6.2 model.
    pub est_cost: f64,
    /// Search statistics.
    pub report: PlannerReport,
    /// The flight record narrating this query, so whoever executes the plan
    /// later appends its post-planning notes (stream stats, re-plans,
    /// failover) to *this* query's record by id. Set by
    /// [`Mediator::plan`](crate::mediator::Mediator::plan) and
    /// [`Federation::prepare`](crate::federation::Federation::prepare); 0
    /// from the bare planner functions and with a disarmed recorder.
    pub flight_id: u64,
}

/// Per-plan cap on detailed per-CT spans (`ct N` / `maxeval ct N` and the
/// `mcsc` spans nested inside them): rewritings beyond this index plan
/// without span bookkeeping. Queries enumerating dozens of CTs would
/// otherwise open a micro-span per rewriting and dominate the profile's
/// cost — the executor caps per-batch spans the same way
/// (`exec_stream`'s `MAX_BATCH_SPANS`).
pub const MAX_CT_SPANS: u64 = 8;

/// Ranks a planner's per-CT `candidates` (in CT order) under a `rank`
/// span: the cheapest wins, the earliest CT on a cost tie, so the pick is
/// independent of scheduling upstream. An active `flight` records one
/// `Winner` event plus an `Eliminated` event (rule `"cost"`) for every
/// candidate that lost, so `EXPLAIN WHY` can name a reason for *every*
/// loser. No candidate at all is `scheme`'s `NoFeasiblePlan`.
pub(crate) fn rank_candidates(
    candidates: Vec<(Plan, f64)>,
    report: PlannerReport,
    query: &TargetQuery,
    scheme: &'static str,
    flight: csqp_obs::QueryFlight<'_>,
    tracer: Option<&csqp_obs::Tracer>,
) -> Result<PlannedQuery, PlanError> {
    // Snapshot the candidate list before ranking consumes it, so every
    // loser's elimination can be recorded — but only when someone is
    // listening.
    let provenance: Vec<(String, f64)> = if flight.active() {
        candidates.iter().map(|(p, c)| (p.to_string(), *c)).collect()
    } else {
        Vec::new()
    };
    let _rank_span = tracer.map(|t| t.span("rank"));
    let cheapest = candidates.into_iter().reduce(|best, c| if c.1 < best.1 { c } else { best });
    let Some((plan, winner_cost)) = cheapest else {
        flight.event_with(|| csqp_obs::PlanEvent::Note {
            text: "no feasible plan in any rewriting".to_string(),
        });
        return Err(PlanError::NoFeasiblePlan { query: query.to_string(), scheme });
    };
    if flight.active() {
        let winner_plan = plan.to_string();
        flight.event_with(|| csqp_obs::PlanEvent::Winner {
            cost: winner_cost,
            plan: winner_plan.clone(),
        });
        let mut winner_seen = false;
        for (plan, cost) in provenance {
            let is_winner = cost == winner_cost && plan == winner_plan;
            if is_winner && !winner_seen {
                winner_seen = true;
                continue;
            }
            let detail = if is_winner {
                "duplicate of the winning plan (another CT canonicalized to it)".to_string()
            } else {
                format!(
                    "est cost {:.2} vs winner {:.2} (Δ {:+.2})",
                    cost,
                    winner_cost,
                    cost - winner_cost
                )
            };
            flight.event_with(|| csqp_obs::PlanEvent::Eliminated {
                rule: "cost",
                cost,
                plan,
                detail,
            });
        }
    }
    Ok(PlannedQuery { plan, est_cost: winner_cost, report, flight_id: 0 })
}

/// Planner errors.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// No feasible plan exists for the query on this source (or within the
    /// strategy's limits, for baselines).
    NoFeasiblePlan {
        /// The query, rendered.
        query: String,
        /// Which planning scheme gave up.
        scheme: &'static str,
    },
    /// The query's condition tree is malformed (e.g. an empty connective).
    MalformedQuery(String),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::NoFeasiblePlan { query, scheme } => {
                write!(f, "{scheme}: no feasible plan for {query}")
            }
            PlanError::MalformedQuery(msg) => write!(f, "malformed query: {msg}"),
        }
    }
}

impl std::error::Error for PlanError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display() {
        let q = TargetQuery::parse("make = \"BMW\" ^ price < 40000", &["model", "year"]).unwrap();
        assert_eq!(q.attrs.len(), 2);
        assert_eq!(q.to_string(), "SP(make = \"BMW\" ^ price < 40000, {model, year}, R)");
        assert!(TargetQuery::parse("make = ", &["model"]).is_err());
    }

    #[test]
    fn error_display() {
        let e = PlanError::NoFeasiblePlan { query: "SP(...)".into(), scheme: "disco" };
        assert!(e.to_string().contains("disco"));
    }
}
