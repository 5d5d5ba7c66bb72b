//! Baseline planning strategies the paper compares against (§1, §2):
//!
//! - **CNF pushdown** (Garlic): normalize to CNF; push the supported
//!   clauses as one conjunctive source query, apply the rest at the
//!   mediator; if no clause is supported, attempt to download the source.
//! - **DNF pushdown**: normalize to DNF; plan each term independently
//!   (pushing its supported part, filtering the rest locally) and union.
//! - **DISCO**: all-or-nothing — push the whole condition, or download the
//!   whole source; never split the condition.
//! - **Naive pushdown** (System R / DB2-class): assume full relational
//!   capability and push the whole query; fails on any limitation.

use crate::cache::CheckCache;
use crate::types::{PlanError, PlannedQuery, PlannerReport, TargetQuery};
use csqp_expr::normal::{cnf_clauses, dnf_terms};
use csqp_expr::CondTree;
use csqp_plan::cost::plan_cost;
use csqp_plan::cost::Cardinality;
use csqp_plan::model::CostModel;
use csqp_plan::{AttrSet, Plan};
use csqp_source::Source;
use std::time::Instant;

/// Cap on CNF clauses / DNF terms a baseline will enumerate subsets of.
pub const MAX_BASELINE_PARTS: usize = 14;

fn and_of(parts: &[CondTree]) -> Option<CondTree> {
    match parts.len() {
        0 => None,
        1 => Some(parts[0].clone()),
        _ => Some(CondTree::and(parts.to_vec())),
    }
}

fn attrs_of(parts: &[CondTree]) -> AttrSet {
    parts.iter().flat_map(|p| p.attrs()).collect()
}

/// Splits `parts` into the largest supported conjunctive prefix-set and the
/// locally-evaluated remainder, preferring larger pushed sets (ties broken
/// by first-found). Returns `(pushed, local)` or `None` if no non-empty
/// subset is supported.
fn best_supported_split(
    parts: &[CondTree],
    attrs: &AttrSet,
    cache: &CheckCache<'_>,
) -> Option<(Vec<CondTree>, Vec<CondTree>)> {
    let k = parts.len();
    if k > MAX_BASELINE_PARTS {
        return None;
    }
    let full: u32 = (1u32 << k) - 1;
    // Decreasing popcount order: push as much as possible (the Garlic
    // heuristic), requesting the attributes the local remainder needs.
    let mut masks: Vec<u32> = (1..=full).collect();
    masks.sort_by_key(|m| std::cmp::Reverse(m.count_ones()));
    for mask in masks {
        let pushed: Vec<CondTree> =
            (0..k).filter(|i| mask & (1 << i) != 0).map(|i| parts[i].clone()).collect();
        let local: Vec<CondTree> =
            (0..k).filter(|i| mask & (1 << i) == 0).map(|i| parts[i].clone()).collect();
        let cond = and_of(&pushed).expect("pushed non-empty");
        let mut needed = attrs.clone();
        needed.extend(attrs_of(&local));
        if cache.check(Some(&cond)).covers(&needed) {
            return Some((pushed, local));
        }
    }
    None
}

/// Builds the plan for a supported split: push `pushed`, filter `local` at
/// the mediator.
fn split_plan(pushed: Vec<CondTree>, local: Vec<CondTree>, attrs: &AttrSet) -> Plan {
    let cond = and_of(&pushed).expect("pushed non-empty");
    match and_of(&local) {
        None => Plan::source(Some(cond), attrs.clone()),
        Some(local_cond) => {
            let mut fetched = attrs.clone();
            fetched.extend(local_cond.attrs());
            Plan::local(Some(local_cond), attrs.clone(), Plan::source(Some(cond), fetched))
        }
    }
}

/// The download-everything fallback, if the source permits it.
fn download_plan(cond: &CondTree, attrs: &AttrSet, cache: &CheckCache<'_>) -> Option<Plan> {
    let mut needed = attrs.clone();
    needed.extend(cond.attrs());
    cache
        .check(None)
        .covers(&needed)
        .then(|| Plan::local(Some(cond.clone()), attrs.clone(), Plan::source(None, needed)))
}

fn finish(
    plan: Option<Plan>,
    query: &TargetQuery,
    scheme: &'static str,
    model: &dyn CostModel,
    card: &dyn Cardinality,
    cache: &CheckCache<'_>,
    start: Instant,
) -> Result<PlannedQuery, PlanError> {
    match plan {
        Some(plan) => {
            let est_cost = plan_cost(&plan, model, card);
            Ok(PlannedQuery {
                plan,
                est_cost,
                // The baselines are single-strategy: no losers to keep.
                alternatives: Vec::new(),
                flight_id: 0,
                report: PlannerReport {
                    cts_processed: 1,
                    checks: cache.calls(),
                    plans_considered: 1,
                    generator_calls: 1,
                    max_q: 0,
                    truncated: false,
                    stats: crate::types::PlannerStats {
                        check_calls: cache.calls(),
                        check_cache_hits: cache.calls() - cache.parses(),
                        check_cache_misses: cache.parses(),
                        rewrites_generated: 1,
                        ..Default::default()
                    },
                    elapsed: start.elapsed(),
                },
            })
        }
        None => Err(PlanError::NoFeasiblePlan { query: query.to_string(), scheme }),
    }
}

/// The Garlic-style CNF strategy (§2). Costed under `model`.
pub fn plan_cnf(
    query: &TargetQuery,
    source: &Source,
    card: &dyn Cardinality,
    model: &dyn CostModel,
) -> Result<PlannedQuery, PlanError> {
    let start = Instant::now();
    let cache = CheckCache::new(source.planning_view());
    let clauses = cnf_clauses(&query.cond)
        .map_err(|e| PlanError::MalformedQuery(e.to_string()))?
        .into_iter()
        .map(|clause| {
            if clause.len() == 1 {
                clause.into_iter().next().expect("len checked")
            } else {
                CondTree::or(clause)
            }
        })
        .collect::<Vec<_>>();
    let plan = match best_supported_split(&clauses, &query.attrs, &cache) {
        Some((pushed, local)) => Some(split_plan(pushed, local, &query.attrs)),
        // Garlic: "if none of the clauses ... can be evaluated at the
        // source, Garlic attempts to download the entire source."
        None => download_plan(&query.cond, &query.attrs, &cache),
    };
    finish(plan, query, "CNF", model, card, &cache, start)
}

/// The DNF strategy: per-term pushdown, union-combined. Costed under
/// `model`.
pub fn plan_dnf(
    query: &TargetQuery,
    source: &Source,
    card: &dyn Cardinality,
    model: &dyn CostModel,
) -> Result<PlannedQuery, PlanError> {
    let start = Instant::now();
    let cache = CheckCache::new(source.planning_view());
    let terms = dnf_terms(&query.cond).map_err(|e| PlanError::MalformedQuery(e.to_string()))?;
    let mut term_plans: Vec<Plan> = Vec::with_capacity(terms.len());
    let mut ok = true;
    for term in &terms {
        match best_supported_split(term, &query.attrs, &cache) {
            Some((pushed, local)) => term_plans.push(split_plan(pushed, local, &query.attrs)),
            None => {
                // Per-term download fallback.
                let term_cond = and_of(term).expect("DNF terms are non-empty");
                match download_plan(&term_cond, &query.attrs, &cache) {
                    Some(p) => term_plans.push(p),
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
        }
    }
    let plan = ok.then(|| Plan::union(term_plans));
    finish(plan, query, "DNF", model, card, &cache, start)
}

/// The DISCO strategy (§2): whole condition at the source, or none of it.
/// Costed under `model`.
pub fn plan_disco(
    query: &TargetQuery,
    source: &Source,
    card: &dyn Cardinality,
    model: &dyn CostModel,
) -> Result<PlannedQuery, PlanError> {
    let start = Instant::now();
    let cache = CheckCache::new(source.planning_view());
    let plan = if cache.check(Some(&query.cond)).covers(&query.attrs) {
        Some(Plan::source(Some(query.cond.clone()), query.attrs.clone()))
    } else {
        download_plan(&query.cond, &query.attrs, &cache)
    };
    finish(plan, query, "DISCO", model, card, &cache, start)
}

/// The naive full-relational assumption: push the whole query, no
/// fallback. Costed under `model`.
pub fn plan_naive(
    query: &TargetQuery,
    source: &Source,
    card: &dyn Cardinality,
    model: &dyn CostModel,
) -> Result<PlannedQuery, PlanError> {
    let start = Instant::now();
    let cache = CheckCache::new(source.planning_view());
    let plan = cache
        .check(Some(&query.cond))
        .covers(&query.attrs)
        .then(|| Plan::source(Some(query.cond.clone()), query.attrs.clone()));
    finish(plan, query, "NaivePush", model, card, &cache, start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use csqp_plan::cost::StatsCard;
    use csqp_plan::execute;
    use csqp_relation::datagen::{self, BookGenConfig, CarGenConfig};
    use csqp_relation::ops::{project, select};
    use csqp_source::CostParams;
    use csqp_ssdl::templates;

    fn bookstore() -> Source {
        Source::new(
            datagen::books(7, &BookGenConfig { n_books: 3000, ..Default::default() }),
            templates::bookstore(),
            CostParams::default(),
        )
    }

    const EX11: &str = "(author = \"Sigmund Freud\" _ author = \"Carl Jung\") ^ \
                        title contains \"dreams\"";

    #[test]
    fn cnf_on_bookstore_ships_all_dreams_books() {
        // Garlic pushes only the `title contains` clause and filters the
        // author disjunction locally — the paper's >2,000-entry plan.
        let s = bookstore();
        let q = TargetQuery::parse(EX11, &["isbn", "author"]).unwrap();
        let card = StatsCard::new(s.stats());
        let planned = plan_cnf(&q, &s, &card, s.cost_params()).unwrap();
        assert_eq!(planned.plan.source_queries().len(), 1);
        let (result, meter) = csqp_plan::execute_measured(&planned.plan, &s).unwrap();
        // Correct answer, wasteful transfer.
        let want = project(&select(s.relation(), Some(&q.cond)), &["isbn", "author"]).unwrap();
        assert_eq!(result, want);
        let dreams = select(
            s.relation(),
            Some(&csqp_expr::parse::parse_condition("title contains \"dreams\"").unwrap()),
        )
        .len() as u64;
        assert_eq!(meter.tuples_shipped, dreams, "ships every dreams-titled book");
        assert!(meter.tuples_shipped > 5 * result.len() as u64);
    }

    #[test]
    fn dnf_on_bookstore_finds_the_good_plan() {
        let s = bookstore();
        let q = TargetQuery::parse(EX11, &["isbn", "author"]).unwrap();
        let card = StatsCard::new(s.stats());
        let planned = plan_dnf(&q, &s, &card, s.cost_params()).unwrap();
        assert_eq!(planned.plan.source_queries().len(), 2);
        let result = execute(&planned.plan, &s).unwrap();
        let want = project(&select(s.relation(), Some(&q.cond)), &["isbn", "author"]).unwrap();
        assert_eq!(result, want);
    }

    #[test]
    fn disco_fails_on_both_intro_examples() {
        // "DISCO fails to generate feasible plans for both the example
        // queries of Section 1."
        let s = bookstore();
        let q = TargetQuery::parse(EX11, &["isbn"]).unwrap();
        let card = StatsCard::new(s.stats());
        assert!(plan_disco(&q, &s, &card, s.cost_params()).is_err());

        let cars = Source::new(
            datagen::car_listings(11, &CarGenConfig { n_listings: 500 }),
            templates::car_guide(),
            CostParams::default(),
        );
        let q2 = TargetQuery::parse(
            "style = \"sedan\" ^ (size = \"compact\" _ size = \"midsize\") ^ \
             ((make = \"Toyota\" ^ price <= 20000) _ (make = \"BMW\" ^ price <= 40000))",
            &["listing_id"],
        )
        .unwrap();
        let card2 = StatsCard::new(cars.stats());
        assert!(plan_disco(&q2, &cars, &card2, cars.cost_params()).is_err());
    }

    #[test]
    fn disco_succeeds_on_supported_whole_condition() {
        let s = bookstore();
        let q =
            TargetQuery::parse("author = \"Sigmund Freud\" ^ title contains \"dreams\"", &["isbn"])
                .unwrap();
        let card = StatsCard::new(s.stats());
        let planned = plan_disco(&q, &s, &card, s.cost_params()).unwrap();
        assert!(matches!(planned.plan, Plan::SourceQuery { .. }));
    }

    #[test]
    fn disco_download_fallback() {
        let r = datagen::cars(1, 100);
        let desc = templates::download_only(
            "dl",
            &[("make", csqp_expr::ValueType::Str), ("price", csqp_expr::ValueType::Int)],
        );
        let s = Source::new(r, desc, CostParams::default());
        let q = TargetQuery::parse("make = \"BMW\"", &["price"]).unwrap();
        let card = StatsCard::new(s.stats());
        let planned = plan_disco(&q, &s, &card, s.cost_params()).unwrap();
        assert!(planned.plan.to_string().contains("SP(true"));
        let result = execute(&planned.plan, &s).unwrap();
        let want = project(&select(s.relation(), Some(&q.cond)), &["price"]).unwrap();
        assert_eq!(result, want);
    }

    #[test]
    fn naive_fails_unless_fully_supported() {
        let s = bookstore();
        let q = TargetQuery::parse(EX11, &["isbn"]).unwrap();
        let card = StatsCard::new(s.stats());
        assert!(plan_naive(&q, &s, &card, s.cost_params()).is_err());
        let ok = TargetQuery::parse("author = \"Carl Jung\"", &["isbn"]).unwrap();
        assert!(plan_naive(&ok, &s, &card, s.cost_params()).is_ok());
    }

    #[test]
    fn cnf_pushes_multiple_supported_clauses_together() {
        // Bookstore form takes author AND keyword at once: CNF over a plain
        // conjunction pushes both clauses as one query.
        let s = bookstore();
        let q =
            TargetQuery::parse("author = \"Sigmund Freud\" ^ title contains \"dreams\"", &["isbn"])
                .unwrap();
        let card = StatsCard::new(s.stats());
        let planned = plan_cnf(&q, &s, &card, s.cost_params()).unwrap();
        assert!(matches!(planned.plan, Plan::SourceQuery { .. }), "{}", planned.plan);
    }

    #[test]
    fn dnf_term_partial_pushdown() {
        // One term has an unsupported conjunct (publisher); the supported
        // part is pushed and the rest filtered locally.
        let s = bookstore();
        let q = TargetQuery::parse(
            "(author = \"Carl Jung\" ^ publisher = \"Norton\") _ author = \"Sigmund Freud\"",
            &["isbn"],
        )
        .unwrap();
        let card = StatsCard::new(s.stats());
        let planned = plan_dnf(&q, &s, &card, s.cost_params()).unwrap();
        let result = execute(&planned.plan, &s).unwrap();
        let want = project(&select(s.relation(), Some(&q.cond)), &["isbn"]).unwrap();
        assert_eq!(result, want);
    }
}
