//! GenCompact (§6): the paper's main contribution.
//!
//! Pipeline: distributive-only rewrite module (§6.1) → canonicalize (§6.4)
//! → IPG per CT → pick the overall best plan. Commutativity is handled by
//! the source's permutation-closed planning view; associativity and copy
//! rules are subsumed by IPG's subset exploration.

use crate::cache::CheckCache;
use crate::ipg::{ipg_entry, IpgConfig, IpgContext};
use crate::types::{PlanError, PlannedQuery, PlannerReport, TargetQuery};
use csqp_expr::rewrite::{enumerate_compact, RewriteBudget};
use csqp_obs::{PlanEvent, QueryFlight};
use csqp_plan::cost::Cardinality;
use csqp_plan::model::CostModel;
use csqp_source::Source;
use std::time::Instant;

/// Configuration of the GenCompact pipeline.
#[derive(Debug, Clone, Copy)]
pub struct GenCompactConfig {
    /// Budget for the distributive rewrite enumeration.
    pub rewrite_budget: RewriteBudget,
    /// IPG settings (pruning rules, MCSC solver).
    pub ipg: IpgConfig,
    /// Ablation switch (E11): plan against the source's *original* grammar
    /// instead of the permutation-closed planning view. Without the §6.1
    /// closure (and with the commutativity rewrite rule dropped), queries
    /// whose atom order differs from the grammar become infeasible.
    pub use_gate_view: bool,
}

impl Default for GenCompactConfig {
    fn default() -> Self {
        GenCompactConfig {
            rewrite_budget: RewriteBudget::compact(),
            ipg: IpgConfig::default(),
            use_gate_view: false,
        }
    }
}

/// Runs GenCompact: the cheapest feasible plan across the distributive
/// rewritings under `model` (§7 flexibility; see `csqp_plan::model` for the
/// monotonicity contract pruning relies on), or
/// [`PlanError::NoFeasiblePlan`].
///
/// Every planner decision (per-CT search, PR1/PR2/PR3 prunes, MCSC covers,
/// candidate ranking) goes to `flight` for `EXPLAIN WHY`; the handle is
/// `Copy` and ignores everything when disabled. With a `tracer`, the search
/// also opens hierarchical spans (`rewrite`, one `ct N` per rewriting with
/// nested `mcsc` covers, `rank`) for query profiles.
///
/// ```
/// use csqp_core::{plan_compact, GenCompactConfig, TargetQuery};
/// use csqp_obs::QueryFlight;
/// use csqp_plan::cost::StatsCard;
/// use csqp_relation::datagen;
/// use csqp_source::{CostParams, Source};
/// use csqp_ssdl::templates;
///
/// let source = Source::new(
///     datagen::cars(3, 200),
///     templates::car_dealer(),
///     CostParams::default(),
/// );
/// let query = TargetQuery::parse(
///     r#"(make = "BMW" ^ price < 40000) ^ (color = "red" _ color = "black")"#,
///     &["model", "year"],
/// ).unwrap();
/// let card = StatsCard::new(source.stats());
/// let cfg = GenCompactConfig::default();
/// let planned = plan_compact(
///     &query, &source, &card, &cfg, source.cost_params(), QueryFlight::disabled(), None,
/// ).unwrap();
/// // The color disjunction is unsupported: IPG pushes the make+price form
/// // (also fetching `color`) and filters locally.
/// assert!(planned.plan.to_string().contains("SP(make = \"BMW\" ^ price < 40000"));
/// ```
pub fn plan_compact(
    query: &TargetQuery,
    source: &Source,
    card: &dyn Cardinality,
    cfg: &GenCompactConfig,
    model: &dyn CostModel,
    flight: QueryFlight<'_>,
    tracer: Option<&csqp_obs::Tracer>,
) -> Result<PlannedQuery, PlanError> {
    // Runtime-disabled tracers drop out here so span labels are never built.
    let tracer = tracer.filter(|t| t.is_enabled());
    let start = Instant::now();
    // GenCompact reasons against the permutation-closed planning view
    // (unless the E11 ablation pins it to the original grammar).
    let cache = if cfg.use_gate_view {
        CheckCache::new(source.gate_view())
    } else {
        // Layered over the source's persistent memo: a federation planning
        // the same query repeatedly stops re-parsing the member's grammar.
        CheckCache::with_shared(source.planning_view(), source.planning_check_cache())
    };

    let rewrite_span = tracer.map(|t| t.span("rewrite"));
    let rewritten = enumerate_compact(&query.cond, cfg.rewrite_budget);
    drop(rewrite_span);
    let mut ctx =
        IpgContext::new(&cache, model, card, cfg.ipg).with_flight(flight).with_tracer(tracer);

    // Keep every per-CT winner: the overall best becomes the plan, the
    // losers are narrated to EXPLAIN WHY.
    let mut candidates: Vec<(csqp_plan::Plan, f64)> = Vec::new();
    for (index, ct) in rewritten.cts.iter().enumerate() {
        flight.event_with(|| PlanEvent::CtBegin { index, cond: ct.to_string() });
        // Detailed spans (`ct N` + nested `mcsc`) stop past MAX_CT_SPANS so
        // CT-heavy queries don't drown the profile in micro-spans.
        let ct_tracer = if (index as u64) < crate::types::MAX_CT_SPANS { tracer } else { None };
        ctx.set_tracer(ct_tracer);
        let ct_span = ct_tracer.map(|t| t.span(&format!("ct {index}")));
        let outcome = ipg_entry(ct, &query.attrs, &mut ctx);
        drop(ct_span);
        match outcome {
            Some((plan, cost)) => {
                flight.event_with(|| PlanEvent::CtCandidate {
                    index,
                    cost,
                    plan: plan.to_string(),
                });
                candidates.push((plan, cost));
            }
            None => flight.event_with(|| PlanEvent::CtInfeasible { index }),
        }
    }
    flight.event_with(|| PlanEvent::CheckCacheStats {
        calls: cache.calls() as u64,
        hits: (cache.calls() - cache.parses()) as u64,
        misses: cache.parses() as u64,
    });

    let stats = ctx.stats;
    let report = PlannerReport {
        cts_processed: rewritten.cts.len(),
        checks: cache.calls(),
        plans_considered: stats.subplans_considered as u64,
        generator_calls: stats.calls,
        max_q: stats.max_q,
        truncated: rewritten.truncated || stats.truncated,
        stats: crate::types::PlannerStats {
            check_calls: cache.calls(),
            check_cache_hits: cache.calls() - cache.parses(),
            check_cache_misses: cache.parses(),
            rewrites_generated: rewritten.cts.len(),
            ipg_memo_hits: stats.memo_hits,
            pr1_prunes: stats.pr1_prunes,
            pr2_prunes: stats.pr2_prunes,
            pr3_prunes: stats.pr3_prunes,
            mcsc_covers_examined: stats.mcsc_nodes,
        },
        elapsed: start.elapsed(),
    };

    crate::types::rank_candidates(candidates, report, query, "GenCompact", flight, tracer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use csqp_plan::cost::StatsCard;
    use csqp_plan::{execute, is_feasible, Plan};
    use csqp_relation::datagen::{self, BookGenConfig, CarGenConfig};
    use csqp_relation::ops::{project, select};
    use csqp_source::CostParams;
    use csqp_ssdl::templates;

    /// GenCompact with the default configuration under the source's own
    /// cost constants, recording nothing.
    fn compact(
        q: &TargetQuery,
        source: &Source,
        card: &dyn Cardinality,
    ) -> Result<PlannedQuery, PlanError> {
        let cfg = GenCompactConfig::default();
        plan_compact(q, source, card, &cfg, source.cost_params(), QueryFlight::disabled(), None)
    }

    fn plan_on(source: &Source, cond: &str, attrs: &[&str]) -> PlannedQuery {
        let q = TargetQuery::parse(cond, attrs).unwrap();
        let card = StatsCard::new(source.stats());
        compact(&q, source, &card).unwrap()
    }

    fn check_against_oracle(source: &Source, cond: &str, attrs: &[&str]) -> PlannedQuery {
        let planned = plan_on(source, cond, attrs);
        assert!(planned.plan.is_concrete());
        assert!(is_feasible(&planned.plan, source));
        let got = execute(&planned.plan, source).unwrap();
        let ct = csqp_expr::parse::parse_condition(cond).unwrap();
        let want = project(&select(source.relation(), Some(&ct)), attrs).unwrap();
        assert_eq!(got, want, "plan result mismatch for {cond}");
        planned
    }

    /// Example 1.1 end-to-end: GenCompact finds the two-query union plan.
    #[test]
    fn example_1_1_bookstore() {
        let s = Source::new(
            datagen::books(7, &BookGenConfig { n_books: 3000, ..Default::default() }),
            templates::bookstore(),
            CostParams::default(),
        );
        let cond = "(author = \"Sigmund Freud\" _ author = \"Carl Jung\") ^ \
                    title contains \"dreams\"";
        let planned = check_against_oracle(&s, cond, &["isbn", "title", "author"]);
        // Two source queries (one per author), union-combined.
        assert_eq!(planned.plan.source_queries().len(), 2, "{}", planned.plan);
        assert!(matches!(planned.plan, Plan::Union(_)), "{}", planned.plan);
    }

    /// Example 1.2 end-to-end: the two-query plan, one per make, each
    /// carrying style + size-list + price bound.
    #[test]
    fn example_1_2_car_guide() {
        let s = Source::new(
            datagen::car_listings(11, &CarGenConfig { n_listings: 3000 }),
            templates::car_guide(),
            CostParams::default(),
        );
        let cond = "style = \"sedan\" ^ (size = \"compact\" _ size = \"midsize\") ^ \
                    ((make = \"Toyota\" ^ price <= 20000) _ (make = \"BMW\" ^ price <= 40000))";
        let planned = check_against_oracle(&s, cond, &["listing_id", "model", "price"]);
        assert_eq!(
            planned.plan.source_queries().len(),
            2,
            "the paper's two-query plan: {}",
            planned.plan
        );
        // Each source query pushes all four form fields.
        for (c, _) in planned.plan.source_queries() {
            let c = c.as_ref().unwrap();
            let attrs = c.attrs();
            for field in ["style", "size", "make", "price"] {
                assert!(attrs.contains(field), "{c} missing {field}");
            }
        }
    }

    /// Example 4.1/5.x: the order-scrambled conjunction with a disjunctive
    /// tail plans via the closure + IPG.
    #[test]
    fn example_4_1_car_dealer() {
        let s = Source::new(datagen::cars(3, 400), templates::car_dealer(), CostParams::default());
        check_against_oracle(
            &s,
            "price < 40000 ^ color = \"red\" ^ make = \"BMW\"",
            &["model", "year"],
        );
        check_against_oracle(
            &s,
            "(make = \"BMW\" ^ price < 40000) ^ (color = \"red\" _ color = \"black\")",
            &["model", "year"],
        );
    }

    #[test]
    fn bank_pin_example() {
        let s = Source::new(datagen::accounts(5, 100), templates::bank(), CostParams::default());
        // Balance requires the PIN in the condition.
        let with_pin =
            plan_on(&s, "acct_no = \"acct-00042\" ^ pin = \"pin-00042\"", &["owner", "balance"]);
        assert!(matches!(with_pin.plan, Plan::SourceQuery { .. }));
        // Without PIN there is no way to fetch balance.
        let q = TargetQuery::parse("acct_no = \"acct-00042\"", &["owner", "balance"]).unwrap();
        let card = StatsCard::new(s.stats());
        assert!(compact(&q, &s, &card).is_err());
    }

    #[test]
    fn infeasible_reports_error() {
        let s = Source::new(datagen::cars(3, 100), templates::car_dealer(), CostParams::default());
        let q = TargetQuery::parse("year = 1995", &["model"]).unwrap();
        let card = StatsCard::new(s.stats());
        let err = compact(&q, &s, &card).unwrap_err();
        assert!(matches!(err, PlanError::NoFeasiblePlan { .. }));
    }

    #[test]
    fn report_is_populated() {
        let s = Source::new(datagen::cars(3, 100), templates::car_dealer(), CostParams::default());
        let planned = plan_on(
            &s,
            "(make = \"BMW\" ^ price < 40000) ^ (color = \"red\" _ color = \"black\")",
            &["model"],
        );
        let r = planned.report;
        assert!(r.cts_processed >= 1);
        assert!(r.checks > 0);
        assert!(r.generator_calls >= 1);
        assert!(!r.truncated);
    }

    /// DNF-shaped input gets factored back by the distributive rewrite when
    /// that is cheaper (the "CNF vs DNF vs neither" point of §1).
    #[test]
    fn dnf_input_refactored_when_cheaper() {
        let s = Source::new(
            datagen::car_listings(11, &CarGenConfig { n_listings: 3000 }),
            templates::car_guide(),
            CostParams::default(),
        );
        // Four-term DNF of Example 1.2's condition.
        let cond = "(style = \"sedan\" ^ size = \"compact\" ^ make = \"Toyota\" ^ price <= 20000) _ \
                    (style = \"sedan\" ^ size = \"midsize\" ^ make = \"Toyota\" ^ price <= 20000) _ \
                    (style = \"sedan\" ^ size = \"compact\" ^ make = \"BMW\" ^ price <= 40000) _ \
                    (style = \"sedan\" ^ size = \"midsize\" ^ make = \"BMW\" ^ price <= 40000)";
        let planned = check_against_oracle(&s, cond, &["listing_id", "model"]);
        // The two-query factored plan beats the four-query DNF plan under
        // k1 = 50 (same tuples, two fewer round trips).
        assert_eq!(planned.plan.source_queries().len(), 2, "{}", planned.plan);
    }
}
