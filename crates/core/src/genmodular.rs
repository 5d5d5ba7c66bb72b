//! GenModular (§5): the naive, exhaustive scheme — rewrite → mark →
//! generate (EPG) → cost, as in Figure 2.
//!
//! GenModular fires the full rewrite-rule set (commutative, associative,
//! distributive, copy) against the source's **original** description; this
//! is the scheme GenCompact is measured against in E3/E4/E7.

use crate::cache::CheckCache;
use crate::epg::{epg, EpgContext};
use crate::mark::mark;
use crate::types::{PlanError, PlannedQuery, PlannerReport, TargetQuery};
use csqp_expr::rewrite::{enumerate, RewriteBudget, RewriteRule};
use csqp_obs::{PlanEvent, QueryFlight};
use csqp_plan::cost::Cardinality;
use csqp_plan::model::CostModel;
use csqp_plan::resolve::resolve_with_cost;
use csqp_source::Source;
use std::time::Instant;

/// Configuration of the GenModular pipeline.
#[derive(Debug, Clone)]
pub struct GenModularConfig {
    /// Budget for the rewrite module's fixpoint enumeration.
    pub rewrite_budget: RewriteBudget,
    /// The rewrite rules fired (§5.1; defaults to all of them).
    pub rules: Vec<RewriteRule>,
}

impl Default for GenModularConfig {
    fn default() -> Self {
        GenModularConfig {
            rewrite_budget: RewriteBudget::default(),
            rules: RewriteRule::MODULAR.to_vec(),
        }
    }
}

/// Runs GenModular: returns the cheapest feasible plan across all rewritten
/// CTs under `model`, or [`PlanError::NoFeasiblePlan`].
///
/// The decision trail (per-CT rewriting, EPG plan-space size, per-CT
/// candidate, candidate ranking) goes to `flight` for `EXPLAIN WHY`.
/// GenModular has no pruning rules, so its trail shows the *exhaustive*
/// plan spaces the cost module resolved — which is exactly what a diff
/// against GenCompact's pruned trail should surface. With a `tracer`, the
/// search also opens hierarchical spans (`rewrite`, one `maxeval ct N` per
/// rewriting around mark/EPG/resolve, `rank`) for query profiles.
pub fn plan_modular(
    query: &TargetQuery,
    source: &Source,
    card: &dyn Cardinality,
    cfg: &GenModularConfig,
    model: &dyn CostModel,
    flight: QueryFlight<'_>,
    tracer: Option<&csqp_obs::Tracer>,
) -> Result<PlannedQuery, PlanError> {
    let tracer = tracer.filter(|t| t.is_enabled());
    let start = Instant::now();
    // GenModular reasons against the original description; order variants
    // come from its own commutativity rule.
    let cache = CheckCache::new(source.gate_view());

    // Rewrite module.
    let rewrite_span = tracer.map(|t| t.span("rewrite"));
    let rewritten = enumerate(&query.cond, &cfg.rules, cfg.rewrite_budget);
    drop(rewrite_span);

    let mut candidates: Vec<(csqp_plan::Plan, f64)> = Vec::new();
    let mut plans_considered: u64 = 0;
    let mut generator_calls = 0usize;
    let mut truncated = rewritten.truncated;

    for (index, ct) in rewritten.cts.iter().enumerate() {
        flight.event_with(|| PlanEvent::CtBegin { index, cond: ct.to_string() });
        // MaxEval: the mark → EPG → cost-resolve chain for one rewriting.
        // Detailed per-CT spans stop past MAX_CT_SPANS (see types.rs).
        let _ct_span = ((index as u64) < crate::types::MAX_CT_SPANS)
            .then(|| tracer.map(|t| t.span(&format!("maxeval ct {index}"))))
            .flatten();
        // Mark module.
        let marked = mark(ct, &cache);
        // Generate module (EPG).
        let mut ctx = EpgContext::new(&cache);
        let Some(space) = epg(&marked, &query.attrs, &mut ctx) else {
            generator_calls += ctx.calls;
            truncated |= ctx.truncated;
            flight.event_with(|| PlanEvent::CtInfeasible { index });
            continue;
        };
        generator_calls += ctx.calls;
        truncated |= ctx.truncated;
        plans_considered = plans_considered.saturating_add(space.n_alternatives());
        flight.event_with(|| PlanEvent::EpgSpace { index, alternatives: space.n_alternatives() });
        // Cost module. Per-CT winners all survive: the overall best becomes
        // the plan, the losers become ranked failover alternatives.
        let (plan, cost) = resolve_with_cost(&space, model, card);
        flight.event_with(|| PlanEvent::CtCandidate { index, cost, plan: plan.to_string() });
        candidates.push((plan, cost));
    }
    flight.event_with(|| PlanEvent::CheckCacheStats {
        calls: cache.calls() as u64,
        hits: (cache.calls() - cache.parses()) as u64,
        misses: cache.parses() as u64,
    });

    let report = PlannerReport {
        cts_processed: rewritten.cts.len(),
        checks: cache.calls(),
        plans_considered,
        generator_calls,
        max_q: 0,
        truncated,
        // GenModular has no IPG memo or pruning rules; only the CheckCache
        // and rewrite counters apply.
        stats: crate::types::PlannerStats {
            check_calls: cache.calls(),
            check_cache_hits: cache.calls() - cache.parses(),
            check_cache_misses: cache.parses(),
            rewrites_generated: rewritten.cts.len(),
            ..Default::default()
        },
        elapsed: start.elapsed(),
    };

    let provenance: Vec<(String, f64)> = if flight.active() {
        candidates.iter().map(|(p, c)| (p.to_string(), *c)).collect()
    } else {
        Vec::new()
    };
    let _rank_span = tracer.map(|t| t.span("rank"));
    match crate::types::rank_candidates(candidates) {
        Some((plan, est_cost, alternatives)) => {
            crate::types::record_ranking_events(flight, &provenance, &plan, est_cost);
            Ok(PlannedQuery { plan, est_cost, report, alternatives, flight_id: 0 })
        }
        None => {
            flight.event_with(|| PlanEvent::Note {
                text: "no feasible plan in any rewriting".to_string(),
            });
            Err(PlanError::NoFeasiblePlan { query: query.to_string(), scheme: "GenModular" })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csqp_plan::cost::StatsCard;
    use csqp_plan::{execute, is_feasible};
    use csqp_relation::datagen;
    use csqp_relation::ops::{project, select};
    use csqp_source::CostParams;
    use csqp_ssdl::templates;

    /// GenModular under the source's own cost constants, recording nothing.
    fn modular(
        q: &TargetQuery,
        source: &Source,
        card: &dyn Cardinality,
        cfg: &GenModularConfig,
    ) -> Result<PlannedQuery, PlanError> {
        plan_modular(q, source, card, cfg, source.cost_params(), QueryFlight::disabled(), None)
    }

    fn dealer() -> Source {
        Source::new(datagen::cars(3, 400), templates::car_dealer(), CostParams::default())
    }

    /// Example 5.1/5.2 end-to-end: the target with atoms in "wrong" order is
    /// planned via commutativity + copy rewrites.
    #[test]
    fn example_5_end_to_end() {
        let s = dealer();
        let q = TargetQuery::parse(
            "price < 40000 ^ color = \"red\" ^ make = \"BMW\"",
            &["model", "year"],
        )
        .unwrap();
        let card = StatsCard::new(s.stats());
        let planned = modular(&q, &s, &card, &GenModularConfig::default()).unwrap();
        assert!(planned.plan.is_concrete());
        assert!(is_feasible(&planned.plan, &s));
        assert!(planned.report.cts_processed > 1, "rewrites explored");
        // Executing it matches the oracle.
        let got = execute(&planned.plan, &s).unwrap();
        let oracle = project(&select(s.relation(), Some(&q.cond)), &["model", "year"]).unwrap();
        assert_eq!(got, oracle);
    }

    #[test]
    fn infeasible_everywhere_reports_error() {
        let s = dealer();
        // `year` is not usable in any condition and no download rule exists.
        let q = TargetQuery::parse("year = 1995", &["model"]).unwrap();
        let card = StatsCard::new(s.stats());
        let err = modular(&q, &s, &card, &GenModularConfig::default()).unwrap_err();
        assert!(matches!(err, PlanError::NoFeasiblePlan { .. }));
    }

    #[test]
    fn budget_truncation_is_reported() {
        let s = dealer();
        let q = TargetQuery::parse(
            "price < 40000 ^ color = \"red\" ^ make = \"BMW\" ^ model = \"318i-1\"",
            &["model"],
        )
        .unwrap();
        let card = StatsCard::new(s.stats());
        let cfg = GenModularConfig {
            rewrite_budget: RewriteBudget { max_cts: 5, max_atoms: 8, max_depth: 4 },
            ..Default::default()
        };
        // With a tiny budget the planner may or may not find a plan, but it
        // must report truncation rather than silently claiming completeness.
        // An Err is acceptable too: the budget may be too small to find
        // any plan at all.
        if let Ok(p) = modular(&q, &s, &card, &cfg) {
            assert!(p.report.truncated);
        }
    }

    #[test]
    fn report_counts_are_populated() {
        let s = dealer();
        let q = TargetQuery::parse("make = \"BMW\" ^ price < 40000", &["model"]).unwrap();
        let card = StatsCard::new(s.stats());
        let planned = modular(&q, &s, &card, &GenModularConfig::default()).unwrap();
        let r = planned.report;
        assert!(r.cts_processed >= 1);
        assert!(r.checks > 0);
        assert!(r.plans_considered >= 1);
        assert!(r.generator_calls >= 1);
    }

    /// With full capability the pure plan must win (cheapest possible).
    #[test]
    fn full_capability_pushdown() {
        let r = datagen::cars(5, 300);
        let desc = templates::full_relational(
            "full",
            &[
                ("make", csqp_expr::ValueType::Str),
                ("color", csqp_expr::ValueType::Str),
                ("price", csqp_expr::ValueType::Int),
            ],
        );
        let s = Source::new(r, desc, CostParams::default());
        let q = TargetQuery::parse(
            "make = \"BMW\" ^ (color = \"red\" _ color = \"black\")",
            &["make", "color", "price"],
        )
        .unwrap();
        let card = StatsCard::new(s.stats());
        let planned = modular(&q, &s, &card, &GenModularConfig::default()).unwrap();
        match &planned.plan {
            csqp_plan::Plan::SourceQuery { cond, .. } => {
                assert!(cond.is_some(), "pure pushdown, not download");
            }
            other => panic!("expected pure plan, got {other}"),
        }
    }
}
