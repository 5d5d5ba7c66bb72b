//! IPG — the Integrated Plan Generator of GenCompact (Algorithm 6.1,
//! Figures 4, 5 and 6).
//!
//! IPG integrates GenModular's mark, generate and cost modules: it returns a
//! single best plan per canonical CT, using the pruning rules of §6.3:
//!
//! - **PR1** — return the pure plan immediately when feasible;
//! - **PR2** — keep only the cheapest sub-plan per children subset;
//! - **PR3** — prune dominated sub-plans (a sub-plan covering a superset of
//!   children at no greater cost dominates).
//!
//! Each rule can be disabled individually (experiment E5 measures the
//! dividends). Sub-plan combination is Minimum-Cost Set Cover, solved
//! exactly (`O(2^Q)`) or greedily ([`crate::mcsc`]; experiment E9).
//!
//! ## Hot-path representation
//!
//! Attribute sets travel as interned [`SymSet`] bitsets and conditions as
//! 128-bit fingerprints, so the per-subset work — feasibility tests,
//! MaxEval, memo probes — does no string hashing or `BTreeSet` allocation.
//! Sub-condition trees are built **only after** the masked `Check` says the
//! subset is supported, and candidate sub-plans are `Rc`-shared so losing
//! candidates are never deep-copied (see DESIGN.md, "Implementation notes:
//! interning & bitsets").

use crate::cache::CheckCache;
use crate::maxeval::max_eval;
use crate::mcsc::{solve_exact, solve_greedy, CoverItem};
use csqp_expr::canonical::canonicalize;
use csqp_expr::{CondTree, Connector, Interner, SymSet};
use csqp_obs::{PlanEvent, QueryFlight};
use csqp_plan::cost::Cardinality;
use csqp_plan::model::CostModel;
use csqp_plan::{AttrSet, Plan};
use csqp_ssdl::linearize::{cond_fingerprint, Fingerprint};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// IPG configuration: pruning-rule toggles and MCSC solver choice.
#[derive(Debug, Clone, Copy)]
pub struct IpgConfig {
    /// PR1: prune impure plans when a pure plan exists.
    pub pr1: bool,
    /// PR2: prune locally sub-optimal plans (cheapest per subset).
    pub pr2: bool,
    /// PR3: prune dominated sub-plans.
    pub pr3: bool,
    /// Solve MCSC exactly (branch-and-bound) or greedily.
    pub exact_mcsc: bool,
    /// Cap on a node's children for subset enumeration (2^k subsets).
    pub max_children: usize,
}

impl Default for IpgConfig {
    fn default() -> Self {
        IpgConfig { pr1: true, pr2: true, pr3: true, exact_mcsc: true, max_children: 14 }
    }
}

/// Search statistics from IPG (E4/E5/E9 measurements).
#[derive(Debug, Clone, Copy, Default)]
pub struct IpgStats {
    /// IPG invocations (including memo hits).
    pub calls: usize,
    /// IPG invocations answered from the memo table (whole sub-searches
    /// skipped).
    pub memo_hits: usize,
    /// Largest sub-plan array `Q` handed to MCSC after pruning.
    pub max_q: usize,
    /// Candidate sub-plans generated (before pruning).
    pub subplans_considered: usize,
    /// Sub-searches short-circuited or skipped by PR1 (a pure plan
    /// existed).
    pub pr1_prunes: usize,
    /// Candidate sub-plans discarded by PR2 (costlier than the kept plan
    /// for the same children subset).
    pub pr2_prunes: usize,
    /// Sub-plans discarded by PR3 (dominated by a superset cover at no
    /// greater cost), plus line-12 recursions skipped on a pure superset.
    pub pr3_prunes: usize,
    /// MCSC search nodes expanded.
    pub mcsc_nodes: usize,
    /// Set when a fan-out cap truncated subset enumeration.
    pub truncated: bool,
}

/// A candidate sub-plan for a subset of a node's children. The plan is
/// `Rc`-shared: only plans that survive MCSC selection are ever deep-copied.
#[derive(Debug, Clone)]
struct SubPlan {
    plan: Rc<Plan>,
    cost: f64,
    pure: bool,
}

/// A memoized IPG outcome: the best shared plan and its cost, or φ.
type MemoEntry = Option<(Rc<Plan>, f64)>;

/// The IPG search context.
pub struct IpgContext<'a, 'b> {
    cache: &'a CheckCache<'b>,
    model: &'a dyn CostModel,
    card: &'a dyn Cardinality,
    cfg: IpgConfig,
    /// Mutable statistics.
    pub stats: IpgStats,
    interner: Arc<Interner>,
    memo: HashMap<(Fingerprint, SymSet), MemoEntry>,
    /// Materialized name sets per symbol set, shared across all plans that
    /// fetch the same attributes.
    attr_names: HashMap<SymSet, Arc<AttrSet>>,
    /// Flight-recorder handle for plan provenance (disabled by default;
    /// armed via [`IpgContext::with_flight`]).
    flight: QueryFlight<'a>,
    /// Span tracer for the hierarchical query profile (absent by default;
    /// attached via [`IpgContext::with_tracer`]).
    tracer: Option<&'a csqp_obs::Tracer>,
}

impl<'a, 'b> IpgContext<'a, 'b> {
    /// Creates a context. Symbols are interned through the cache's source,
    /// so `Check` results compare against query attributes bitwise.
    pub fn new(
        cache: &'a CheckCache<'b>,
        model: &'a dyn CostModel,
        card: &'a dyn Cardinality,
        cfg: IpgConfig,
    ) -> Self {
        IpgContext {
            cache,
            model,
            card,
            cfg,
            stats: IpgStats::default(),
            interner: cache.source().interner().clone(),
            memo: HashMap::new(),
            attr_names: HashMap::new(),
            flight: QueryFlight::disabled(),
            tracer: None,
        }
    }

    /// Attaches a flight-recorder handle: every PR1/PR2/PR3 decision, MCSC
    /// cover choice, and memo hit of the search is recorded as a
    /// [`PlanEvent`] for `EXPLAIN WHY`.
    pub fn with_flight(mut self, flight: QueryFlight<'a>) -> Self {
        self.flight = flight;
        self
    }

    /// Attaches a span tracer: MCSC cover searches open `mcsc` spans under
    /// the caller's per-CT span, so query profiles attribute planning ticks
    /// to the cover solver.
    pub fn with_tracer(mut self, tracer: Option<&'a csqp_obs::Tracer>) -> Self {
        self.tracer = tracer;
        self
    }

    /// Swaps (or detaches) the tracer mid-search: the planners cap per-CT
    /// span detail at [`crate::types::MAX_CT_SPANS`] and hand later CTs a
    /// `None` here so their cover searches stop opening `mcsc` spans.
    pub fn set_tracer(&mut self, tracer: Option<&'a csqp_obs::Tracer>) {
        self.tracer = tracer;
    }

    fn source_query_cost(&self, cond: Option<&CondTree>, n_attrs: usize) -> f64 {
        self.model.source_query_cost(cond, n_attrs, self.card.estimate(cond))
    }

    /// `Attr(n)` as interned symbols, without a string-set detour.
    fn tree_syms(&self, n: &CondTree) -> SymSet {
        let mut out = SymSet::new();
        n.for_each_attr(&mut |a| out.insert(self.interner.intern(a)));
        out
    }

    /// The shared name set behind a symbol set (memoized).
    fn materialize(&mut self, set: &SymSet) -> Arc<AttrSet> {
        if let Some(hit) = self.attr_names.get(set) {
            return hit.clone();
        }
        let names: Arc<AttrSet> = Arc::new(set.iter().map(|sym| self.interner.name(sym)).collect());
        self.attr_names.insert(set.clone(), names.clone());
        names
    }
}

/// Runs IPG on a condition tree (canonicalized first, per §6.4) and
/// requested attributes. Returns the best feasible plan and its cost, or
/// `None` (φ).
pub fn ipg_entry(
    cond: &CondTree,
    attrs: &AttrSet,
    ctx: &mut IpgContext<'_, '_>,
) -> Option<(Plan, f64)> {
    let canon = canonicalize(cond);
    let a: SymSet = attrs.iter().map(|s| ctx.interner.intern(s)).collect();
    let (plan, cost) = ipg(&canon, &a, ctx)?;
    Some((plan.as_ref().clone(), cost))
}

/// Algorithm 6.1 (expects canonical input).
fn ipg(n: &CondTree, a: &SymSet, ctx: &mut IpgContext<'_, '_>) -> Option<(Rc<Plan>, f64)> {
    ctx.stats.calls += 1;
    // Fingerprints key the memo: linearization is injective on trees, so
    // equal fingerprints mean equal conditions (up to 2^-128 collisions).
    let key = (cond_fingerprint(Some(n)), a.clone());
    if let Some(hit) = ctx.memo.get(&key) {
        ctx.stats.memo_hits += 1;
        ctx.flight.event_with(|| PlanEvent::MemoHit { node: n.to_string() });
        return hit.clone();
    }

    // Pure plan (Fig. 4, first check).
    let pure: Option<(Rc<Plan>, f64)> = if ctx.cache.check(Some(n)).covers_syms(a) {
        let cost = ctx.source_query_cost(Some(n), a.len());
        let attrs = ctx.materialize(a);
        Some((Rc::new(Plan::source(Some(n.clone()), attrs)), cost))
    } else {
        None
    };
    if ctx.cfg.pr1 {
        if let Some(p) = pure {
            ctx.stats.pr1_prunes += 1;
            ctx.flight.event_with(|| PlanEvent::Pr1ShortCircuit { node: n.to_string(), cost: p.1 });
            ctx.memo.insert(key, Some(p.clone()));
            return Some(p);
        }
    }

    // Download-based impure plan.
    let mut needed = a.clone();
    needed.union_with(&ctx.tree_syms(n));
    let mut plan_impure: Option<(Rc<Plan>, f64)> = if ctx.cache.check(None).covers_syms(&needed) {
        let cost = ctx.source_query_cost(None, needed.len());
        let out_attrs = ctx.materialize(a);
        let fetched = ctx.materialize(&needed);
        Some((Rc::new(Plan::local(Some(n.clone()), out_attrs, Plan::source(None, fetched))), cost))
    } else {
        None
    };

    match n.connector() {
        None => {} // leaf: no further impure plans
        Some(Connector::Or) => {
            if let Some(candidate) = or_node(n, a, ctx) {
                plan_impure = min_plan(plan_impure, Some(candidate));
            }
        }
        Some(Connector::And) => {
            if let Some(candidate) = and_node(n, a, ctx) {
                plan_impure = min_plan(plan_impure, Some(candidate));
            }
        }
    }

    // With PR1 disabled, the pure plan competes as an ordinary candidate.
    let result = min_plan(pure, plan_impure);
    ctx.memo.insert(key, result.clone());
    result
}

fn min_plan(a: Option<(Rc<Plan>, f64)>, b: Option<(Rc<Plan>, f64)>) -> Option<(Rc<Plan>, f64)> {
    match (a, b) {
        (Some(x), Some(y)) => Some(if x.1 <= y.1 { x } else { y }),
        (x, None) => x,
        (None, y) => y,
    }
}

/// `OR(N)` / `AND(N)`: the sub-condition of a children subset (bitmask),
/// order-preserving; singletons collapse to the child itself. Built only
/// for subsets the masked `Check` accepted.
fn sub_cond(conn: Connector, children: &[CondTree], mask: u64) -> CondTree {
    let picked: Vec<CondTree> = children
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, c)| c.clone())
        .collect();
    if picked.len() == 1 {
        picked.into_iter().next().expect("len checked")
    } else {
        CondTree::Node(conn, picked)
    }
}

/// Union of the pre-interned child attribute sets selected by `mask`.
fn syms_of_mask(child_attrs: &[SymSet], mask: u64) -> SymSet {
    let mut out = SymSet::new();
    for (i, ca) in child_attrs.iter().enumerate() {
        if mask & (1 << i) != 0 {
            out.union_with(ca);
        }
    }
    out
}

/// Inserts a candidate into the sub-plan array, honoring PR2.
fn push_subplan(
    p: &mut HashMap<u64, Vec<SubPlan>>,
    mask: u64,
    sub: SubPlan,
    ctx: &mut IpgContext<'_, '_>,
) {
    ctx.stats.subplans_considered += 1;
    ctx.flight.event_with(|| PlanEvent::Admitted {
        mask,
        cost: sub.cost,
        pure: sub.pure,
        plan: sub.plan.to_string(),
    });
    let entry = p.entry(mask).or_default();
    if ctx.cfg.pr2 {
        match entry.first() {
            Some(existing) if existing.cost <= sub.cost => {
                // One of the two candidates loses either way; keep pureness
                // information even when costs tie, so the line-12 guard of
                // Fig. 6 stays sound.
                ctx.stats.pr2_prunes += 1;
                ctx.flight.event_with(|| PlanEvent::Pr2Evicted {
                    mask,
                    kept_cost: existing.cost,
                    evicted_cost: sub.cost,
                });
                if sub.pure && !existing.pure && sub.cost <= existing.cost {
                    entry[0] = sub;
                }
            }
            _ => {
                ctx.stats.pr2_prunes += entry.len();
                for evicted in entry.iter() {
                    ctx.flight.event_with(|| PlanEvent::Pr2Evicted {
                        mask,
                        kept_cost: sub.cost,
                        evicted_cost: evicted.cost,
                    });
                }
                entry.clear();
                entry.push(sub);
            }
        }
    } else {
        entry.push(sub);
    }
}

/// PR3: removes sub-plans dominated by another entry covering a superset of
/// children at no greater cost. Returns how many were removed (the
/// domination test is pointwise against a snapshot, so the count is
/// independent of map iteration order).
fn prune_dominated(p: &mut HashMap<u64, Vec<SubPlan>>, flight: QueryFlight<'_>) -> usize {
    let snapshot: Vec<(u64, f64)> =
        p.iter().flat_map(|(m, subs)| subs.iter().map(move |s| (*m, s.cost))).collect();
    let before = snapshot.len();
    if flight.active() {
        // Report victims from a *sorted* view (HashMap order must not leak
        // into the flight record), naming each victim's deterministic
        // dominator: minimal cost, then minimal mask. The predicate is the
        // same one `retain` applies below, so events match removals 1:1.
        let mut sorted = snapshot.clone();
        sorted.sort_unstable_by(|x, y| x.0.cmp(&y.0).then(x.1.total_cmp(&y.1)));
        for &(mask, cost) in &sorted {
            let dominator = sorted
                .iter()
                .filter(|(m2, c2)| {
                    (*m2 != mask || *c2 < cost) && (mask & *m2) == mask && *c2 <= cost
                })
                .min_by(|x, y| x.1.total_cmp(&y.1).then(x.0.cmp(&y.0)));
            if let Some(&(by_mask, by_cost)) = dominator {
                flight.event_with(|| PlanEvent::Pr3Dominated { mask, cost, by_mask, by_cost });
            }
        }
    }
    p.retain(|mask, subs| {
        subs.retain(|s| {
            !snapshot.iter().any(|(m2, c2)| {
                // (m2, c2) dominates s?
                (*m2 != *mask || *c2 < s.cost)
                    && (*mask & *m2) == *mask // mask ⊆ m2
                    && *c2 <= s.cost
            })
        });
        !subs.is_empty()
    });
    before - p.values().map(Vec::len).sum::<usize>()
}

/// Runs MCSC over the sub-plan array and builds the combined plan.
fn combine(
    p: &HashMap<u64, Vec<SubPlan>>,
    universe: u64,
    conn: Connector,
    ctx: &mut IpgContext<'_, '_>,
) -> Option<(Rc<Plan>, f64)> {
    let mut items: Vec<CoverItem> = Vec::new();
    let mut plans: Vec<&SubPlan> = Vec::new();
    // Feed MCSC in ascending-mask order, not HashMap order: solver
    // tie-breaks between equal-cost covers and the child order of the
    // combined plan both follow item order, and they must replay
    // identically run to run (the EXPLAIN ANALYZE golden and the trace
    // depend on it).
    let mut entries: Vec<(&u64, &Vec<SubPlan>)> = p.iter().collect();
    entries.sort_unstable_by_key(|(mask, _)| **mask);
    for (mask, subs) in entries {
        for s in subs {
            items.push(CoverItem { set: *mask, cost: s.cost });
            plans.push(s);
        }
    }
    ctx.stats.max_q = ctx.stats.max_q.max(items.len());
    let _mcsc_span = ctx.tracer.map(|t| t.span("mcsc"));
    let (solution, mstats) = if ctx.cfg.exact_mcsc {
        solve_exact(&items, universe)
    } else {
        solve_greedy(&items, universe)
    };
    ctx.stats.mcsc_nodes += mstats.nodes;
    let Some(chosen) = solution else {
        ctx.flight.event_with(|| PlanEvent::McscNoCover { universe });
        return None;
    };
    if ctx.flight.active() {
        let tie_break = if ctx.cfg.exact_mcsc {
            "lowest-cost cover; ascending-mask item order"
        } else {
            "greedy best cost/coverage ratio"
        };
        let covers_examined = mstats.nodes;
        ctx.flight.event_with(|| PlanEvent::McscCover {
            chosen_masks: chosen.iter().map(|&i| items[i].set).collect(),
            total_cost: chosen.iter().map(|&i| plans[i].cost).sum(),
            covers_examined,
            tie_break,
        });
    }
    if let [only] = chosen.as_slice() {
        // Singleton cover: share the sub-plan, no copy at all.
        return Some((plans[*only].plan.clone(), plans[*only].cost));
    }
    let chosen_plans: Vec<Plan> = chosen.iter().map(|&i| plans[i].plan.as_ref().clone()).collect();
    let total: f64 = chosen.iter().map(|&i| plans[i].cost).sum();
    let combined = match conn {
        Connector::And => Plan::intersect(chosen_plans),
        Connector::Or => Plan::union(chosen_plans),
    };
    Some((Rc::new(combined), total))
}

/// Figure 5: the best impure plan for an `_` node.
fn or_node(n: &CondTree, a: &SymSet, ctx: &mut IpgContext<'_, '_>) -> Option<(Rc<Plan>, f64)> {
    let children = n.children();
    let k = children.len();
    if k > ctx.cfg.max_children {
        ctx.stats.truncated = true;
        return None;
    }
    let full: u64 = (1u64 << k) - 1;
    let mut p: HashMap<u64, Vec<SubPlan>> = HashMap::new();

    // Step 1a (lines 3–5): pure sub-plans for every non-empty subset. The
    // masked check decides support before any sub-condition tree exists.
    for mask in 1..=full {
        if ctx.cache.check_masked(Connector::Or, children, mask).covers_syms(a) {
            let cond = sub_cond(Connector::Or, children, mask);
            let cost = ctx.source_query_cost(Some(&cond), a.len());
            let attrs = ctx.materialize(a);
            push_subplan(
                &mut p,
                mask,
                SubPlan { plan: Rc::new(Plan::source(Some(cond), attrs)), cost, pure: true },
                ctx,
            );
        }
    }

    // Step 1b (lines 6–7): impure sub-plans for single children, only where
    // no pure singleton exists (PR1).
    for (i, child) in children.iter().enumerate() {
        let mask = 1u64 << i;
        let has_pure = p.get(&mask).is_some_and(|subs| subs.iter().any(|s| s.pure));
        if ctx.cfg.pr1 && has_pure {
            ctx.stats.pr1_prunes += 1;
            ctx.flight.event_with(|| PlanEvent::Pr1Skip { mask });
            continue;
        }
        if let Some((plan, cost)) = ipg(child, a, ctx) {
            push_subplan(&mut p, mask, SubPlan { plan, cost, pure: false }, ctx);
        }
    }

    // Step 2 (lines 8–14): prune dominated, then MCSC with ∪ combination.
    if ctx.cfg.pr3 {
        ctx.stats.pr3_prunes += prune_dominated(&mut p, ctx.flight);
    }
    combine(&p, full, Connector::Or, ctx)
}

/// Figure 6: the best impure plan for an `^` node.
fn and_node(n: &CondTree, a: &SymSet, ctx: &mut IpgContext<'_, '_>) -> Option<(Rc<Plan>, f64)> {
    let children = n.children().to_vec();
    let k = children.len();
    if k > ctx.cfg.max_children {
        ctx.stats.truncated = true;
        return None;
    }
    let full: u64 = (1u64 << k) - 1;
    let mut p: HashMap<u64, Vec<SubPlan>> = HashMap::new();
    // `Attr(child)` interned once per node; every MaxEval / widening below
    // is bitset arithmetic over these.
    let child_attrs: Vec<SymSet> = children.iter().map(|c| ctx.tree_syms(c)).collect();

    // Lines 3–9: pure sub-plans, plus mediator-side evaluation of additional
    // children on a supported query's exports (MaxEval).
    for mask in 1..=full {
        let export = ctx.cache.check_masked(Connector::And, &children, mask);
        if export.is_empty() {
            continue;
        }
        let cond_n = sub_cond(Connector::And, &children, mask);
        if export.covers_syms(a) {
            let cost = ctx.source_query_cost(Some(&cond_n), a.len());
            let attrs = ctx.materialize(a);
            push_subplan(
                &mut p,
                mask,
                SubPlan {
                    plan: Rc::new(Plan::source(Some(cond_n.clone()), attrs)),
                    cost,
                    pure: true,
                },
                ctx,
            );
        }
        // For each maximal exported attribute set AN (antichain element):
        for an in export.sym_sets() {
            if !a.is_subset(an) {
                continue; // the nested query must still deliver A
            }
            let evaluable = max_eval(an, &child_attrs);
            let nadd: Vec<usize> = evaluable.into_iter().filter(|i| mask & (1 << i) == 0).collect();
            if nadd.is_empty() {
                continue;
            }
            let m_count = nadd.len();
            for m_bits in 1u64..(1 << m_count) {
                let m_mask: u64 = nadd
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| m_bits & (1 << j) != 0)
                    .map(|(_, &i)| 1u64 << i)
                    .sum();
                let mut fetched = a.clone();
                fetched.union_with(&syms_of_mask(&child_attrs, m_mask));
                // Attr(AND(M)) ⊆ AN by MaxEval; A ⊆ AN checked above.
                let cost = ctx.source_query_cost(Some(&cond_n), fetched.len());
                let cond_m = sub_cond(Connector::And, &children, m_mask);
                let out_attrs = ctx.materialize(a);
                let fetched_attrs = ctx.materialize(&fetched);
                let plan = Plan::local(
                    Some(cond_m),
                    out_attrs,
                    Plan::source(Some(cond_n.clone()), fetched_attrs),
                );
                push_subplan(
                    &mut p,
                    mask | m_mask,
                    SubPlan { plan: Rc::new(plan), cost, pure: false },
                    ctx,
                );
            }
        }
    }

    // Lines 10–13: recursive sub-plans — evaluate one child via IPG, the
    // rest of N' locally on its result.
    for i in 0..k {
        let child_bit = 1u64 << i;
        for mask in 1..=full {
            if mask & child_bit == 0 {
                continue;
            }
            // Line 12 guard: skip when a pure plan exists for N' (PR1) or a
            // superset of N' (PR3). Checked in that order so the per-rule
            // prune counters stay deterministic.
            if ctx.cfg.pr1 && p.get(&mask).is_some_and(|subs| subs.iter().any(|s| s.pure)) {
                ctx.stats.pr1_prunes += 1;
                ctx.flight.event_with(|| PlanEvent::Pr1Skip { mask });
                continue;
            }
            if ctx.cfg.pr3 {
                // `.min()` makes the reported dominator deterministic even
                // though any pure superset justifies the skip.
                let dominating = p
                    .iter()
                    .filter(|(m2, subs)| {
                        **m2 != mask && (mask & **m2) == mask && subs.iter().any(|s| s.pure)
                    })
                    .map(|(m2, _)| *m2)
                    .min();
                if let Some(by_mask) = dominating {
                    ctx.stats.pr3_prunes += 1;
                    ctx.flight.event_with(|| PlanEvent::Pr3Skip { mask, by_mask });
                    continue;
                }
            }
            let rest_mask = mask & !child_bit;
            let widened = if rest_mask == 0 {
                a.clone()
            } else {
                let mut w = a.clone();
                w.union_with(&syms_of_mask(&child_attrs, rest_mask));
                w
            };
            let Some((sub_plan, sub_cost)) = ipg(&children[i], &widened, ctx) else {
                continue;
            };
            let plan = if rest_mask == 0 {
                sub_plan // shared as-is: no wrapper, no copy
            } else {
                let rest_cond = sub_cond(Connector::And, &children, rest_mask);
                let out_attrs = ctx.materialize(a);
                Rc::new(Plan::local(Some(rest_cond), out_attrs, sub_plan.as_ref().clone()))
            };
            push_subplan(&mut p, mask, SubPlan { plan, cost: sub_cost, pure: false }, ctx);
        }
    }

    // Lines 14–20.
    if ctx.cfg.pr3 {
        ctx.stats.pr3_prunes += prune_dominated(&mut p, ctx.flight);
    }
    combine(&p, full, Connector::And, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use csqp_expr::parse::parse_condition;
    use csqp_plan::attrs;
    use csqp_plan::cost::UniformCard;
    use csqp_ssdl::check::CompiledSource;
    use csqp_ssdl::closure::permutation_closure;
    use csqp_ssdl::{parse_ssdl, templates};

    fn run_ipg(
        desc: csqp_ssdl::SsdlDesc,
        cond: &str,
        a: &[&str],
        cfg: IpgConfig,
    ) -> (Option<(Plan, f64)>, IpgStats) {
        let closed = permutation_closure(&desc, 5).desc;
        let compiled = CompiledSource::new(closed);
        let cache = CheckCache::new(&compiled);
        let params = csqp_source::CostParams::new(10.0, 1.0);
        let card = UniformCard { rows: 1000.0, atom_selectivity: 0.1 };
        let mut ctx = IpgContext::new(&cache, &params, &card, cfg);
        let ct = parse_condition(cond).unwrap();
        let result = ipg_entry(&ct, &attrs(a.iter().copied()), &mut ctx);
        let stats = ctx.stats;
        (result, stats)
    }

    #[test]
    fn pure_plan_short_circuits_with_pr1() {
        let (res, stats) = run_ipg(
            templates::car_dealer(),
            "make = \"BMW\" ^ price < 40000",
            &["model", "year"],
            IpgConfig::default(),
        );
        let (plan, _) = res.unwrap();
        assert!(matches!(plan, Plan::SourceQuery { .. }));
        // PR1 stops the traversal after the root check.
        assert_eq!(stats.calls, 1);
    }

    #[test]
    fn example_4_1_nested_plan_found() {
        // Target: (make=BMW ^ price<40000) ^ (color=red _ color=black),
        // A = {model, year}. The intersect plan is infeasible (n2
        // unsupported); IPG must find the nested local-evaluation plan.
        let (res, _) = run_ipg(
            templates::car_dealer(),
            "(make = \"BMW\" ^ price < 40000) ^ (color = \"red\" _ color = \"black\")",
            &["model", "year"],
            IpgConfig::default(),
        );
        let (plan, _) = res.unwrap();
        match &plan {
            Plan::LocalSp { cond, input, .. } => {
                assert!(cond.as_ref().unwrap().to_string().contains("color"));
                assert!(matches!(**input, Plan::SourceQuery { .. }));
            }
            other => panic!("expected nested local plan, got {other}"),
        }
    }

    /// Example 6.1: the ∧-node machinery explores the MaxEval-based nested
    /// sub-plans and picks the cheaper combination.
    #[test]
    fn example_6_1_subplan_combination() {
        // R supports SP(c1,A,R), SP(c2, A∪Attr(c3), R), SP(c3, A∪Attr(c2), R)
        // where c1: a=.., c2: b=.., c3: c=.. and A={k}.
        let desc = parse_ssdl(
            "source ex61 {\n\
             s1 -> a = $int ;\n\
             s2 -> b = $int ;\n\
             s3 -> c = $int ;\n\
             attributes :: s1 : { k } ;\n\
             attributes :: s2 : { k, c } ;\n\
             attributes :: s3 : { k, b } ;\n}",
        )
        .unwrap();
        let (res, stats) = run_ipg(desc, "a = 1 ^ b = 2 ^ c = 3", &["k"], IpgConfig::default());
        let (plan, _) = res.unwrap();
        // Best plan intersects SP(c1) with a nested plan covering {c2, c3}
        // via one source query (Plan 3 of the example), beating the
        // three-query Plan 2 under k1=10.
        let rendered = plan.to_string();
        assert!(rendered.contains("∩"), "{rendered}");
        let sqs = plan.source_queries();
        assert_eq!(sqs.len(), 2, "two source queries, not three: {rendered}");
        assert!(stats.max_q >= 2);
    }

    #[test]
    fn or_node_set_cover_groups_disjuncts() {
        // Source supports the two-disjunct form only pairwise (via the list
        // rule); a 3-way disjunction must be covered by supported subsets.
        let desc = parse_ssdl(
            "source lists {\n\
             s1 -> sizes ;\n\
             sizes -> size = $str | size = $str _ sizes ;\n\
             attributes :: s1 : { k, size } ;\n}",
        )
        .unwrap();
        let (res, _) = run_ipg(
            desc,
            "size = \"a\" _ size = \"b\" _ size = \"c\"",
            &["k"],
            IpgConfig::default(),
        );
        let (plan, _) = res.unwrap();
        // The whole disjunction is supported by the recursive list rule —
        // pure plan wins.
        assert!(matches!(plan, Plan::SourceQuery { .. }));
    }

    #[test]
    fn or_node_unsupported_disjunct_recursion() {
        // Only author-equality is supported; the second disjunct needs its
        // own recursive plan (which exists), union-combined.
        let (res, _) = run_ipg(
            templates::bookstore(),
            "author = \"Sigmund Freud\" _ (author = \"Carl Jung\" ^ title contains \"dreams\")",
            &["isbn"],
            IpgConfig::default(),
        );
        let (plan, _) = res.unwrap();
        assert!(matches!(plan, Plan::Union(_)), "{plan}");
        assert_eq!(plan.source_queries().len(), 2);
    }

    #[test]
    fn infeasible_returns_none() {
        let (res, _) =
            run_ipg(templates::car_dealer(), "year = 1995", &["model"], IpgConfig::default());
        assert!(res.is_none());
    }

    #[test]
    fn disabling_pr1_still_finds_optimal() {
        let cond = "(make = \"BMW\" ^ price < 40000) ^ (color = \"red\" _ color = \"black\")";
        let cfg_on = IpgConfig::default();
        let cfg_off = IpgConfig { pr1: false, ..IpgConfig::default() };
        let (res_on, stats_on) = run_ipg(templates::car_dealer(), cond, &["model", "year"], cfg_on);
        let (res_off, stats_off) =
            run_ipg(templates::car_dealer(), cond, &["model", "year"], cfg_off);
        assert_eq!(res_on.unwrap().1, res_off.unwrap().1, "same optimal cost");
        assert!(
            stats_off.subplans_considered >= stats_on.subplans_considered,
            "PR1 never increases work"
        );
    }

    #[test]
    fn disabling_pr2_pr3_still_finds_optimal() {
        let cond = "a = 1 ^ b = 2 ^ c = 3";
        let desc = || {
            parse_ssdl(
                "source ex61 {\n\
                 s1 -> a = $int ;\n\
                 s2 -> b = $int ;\n\
                 s3 -> c = $int ;\n\
                 s4 -> a = $int ^ b = $int ;\n\
                 attributes :: s1 : { k } ;\n\
                 attributes :: s2 : { k, c } ;\n\
                 attributes :: s3 : { k, b } ;\n\
                 attributes :: s4 : { k } ;\n}",
            )
            .unwrap()
        };
        let (res_full, stats_full) = run_ipg(desc(), cond, &["k"], IpgConfig::default());
        let cfg_bare = IpgConfig { pr2: false, pr3: false, ..IpgConfig::default() };
        let (res_bare, stats_bare) = run_ipg(desc(), cond, &["k"], cfg_bare);
        assert_eq!(res_full.unwrap().1, res_bare.unwrap().1);
        assert!(stats_bare.max_q >= stats_full.max_q, "pruning keeps Q small");
    }

    #[test]
    fn greedy_mcsc_is_feasible_but_may_cost_more() {
        let desc = || {
            parse_ssdl(
                "source g {\n\
                 s1 -> a = $int ;\ns2 -> b = $int ;\ns3 -> c = $int ;\n\
                 s4 -> a = $int ^ b = $int ^ c = $int ;\n\
                 attributes :: s1 : { k } ;\nattributes :: s2 : { k } ;\n\
                 attributes :: s3 : { k } ;\nattributes :: s4 : { k } ;\n}",
            )
            .unwrap()
        };
        // Note: the full conjunction is supported (s4) so the pure plan
        // wins under PR1; disable PR1 to exercise MCSC.
        let cfg_exact = IpgConfig { pr1: false, ..IpgConfig::default() };
        let cfg_greedy = IpgConfig { pr1: false, exact_mcsc: false, ..IpgConfig::default() };
        let (res_e, _) = run_ipg(desc(), "a = 1 ^ b = 2 ^ c = 3", &["k"], cfg_exact);
        let (res_g, _) = run_ipg(desc(), "a = 1 ^ b = 2 ^ c = 3", &["k"], cfg_greedy);
        let (_, ce) = res_e.unwrap();
        let (_, cg) = res_g.unwrap();
        assert!(cg >= ce);
    }

    #[test]
    fn fan_out_cap_reports_truncation() {
        let desc =
            parse_ssdl("source t {\ns1 -> a = $int ;\nattributes :: s1 : { k } ;\n}").unwrap();
        let parts: Vec<String> = (0..16).map(|i| format!("a = {i}")).collect();
        let cond = parts.join(" _ ");
        let cfg = IpgConfig { max_children: 8, ..IpgConfig::default() };
        let (_, stats) = run_ipg(desc, &cond, &["k"], cfg);
        assert!(stats.truncated);
    }

    #[test]
    fn download_fallback_when_nothing_else_works() {
        let (res, _) = run_ipg(
            templates::download_only(
                "dl",
                &[("a", csqp_expr::ValueType::Int), ("k", csqp_expr::ValueType::Int)],
            ),
            "a = 1",
            &["k"],
            IpgConfig::default(),
        );
        let (plan, _) = res.unwrap();
        assert!(plan.to_string().contains("SP(true"), "{plan}");
    }
}
