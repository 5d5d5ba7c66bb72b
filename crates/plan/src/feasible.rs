//! Plan feasibility (§4): "A mediator plan for the target query is feasible
//! if and only if all of its source queries are supported."

use crate::plan::Plan;
use csqp_source::Source;

/// Is `plan` feasible against `source` (planning view)?
///
/// For `Choice` nodes, the plan space is feasible iff at least one
/// alternative is (Algorithm 5.1 eliminates φ-using combinations).
pub fn is_feasible(plan: &Plan, source: &Source) -> bool {
    match plan {
        Plan::SourceQuery { cond, attrs } => source.planning_view().supports(cond.as_ref(), attrs),
        Plan::LocalSp { input, .. } => is_feasible(input, source),
        Plan::Intersect(cs) | Plan::Union(cs) => cs.iter().all(|c| is_feasible(c, source)),
        Plan::Choice(cs) => cs.iter().any(|c| is_feasible(c, source)),
    }
}

/// Removes infeasible alternatives from every `Choice`; returns `None` if
/// the whole plan space collapses (no feasible plan).
pub fn prune_infeasible(plan: &Plan, source: &Source) -> Option<Plan> {
    match plan {
        Plan::SourceQuery { cond, attrs } => {
            source.planning_view().supports(cond.as_ref(), attrs).then(|| plan.clone())
        }
        Plan::LocalSp { cond, attrs, input } => Some(Plan::LocalSp {
            cond: cond.clone(),
            attrs: attrs.clone(),
            input: Box::new(prune_infeasible(input, source)?),
        }),
        Plan::Intersect(cs) => {
            let pruned: Option<Vec<Plan>> =
                cs.iter().map(|c| prune_infeasible(c, source)).collect();
            Some(Plan::Intersect(pruned?))
        }
        Plan::Union(cs) => {
            let pruned: Option<Vec<Plan>> =
                cs.iter().map(|c| prune_infeasible(c, source)).collect();
            Some(Plan::Union(pruned?))
        }
        Plan::Choice(cs) => {
            let alive: Vec<Plan> = cs.iter().filter_map(|c| prune_infeasible(c, source)).collect();
            if alive.is_empty() {
                None
            } else {
                Some(Plan::choice(alive))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::attrs;
    use csqp_expr::parse::parse_condition;
    use csqp_expr::CondTree;
    use csqp_relation::datagen;
    use csqp_source::CostParams;
    use csqp_ssdl::templates;

    fn cond(s: &str) -> Option<CondTree> {
        Some(parse_condition(s).unwrap())
    }

    fn dealer() -> Source {
        Source::new(datagen::cars(3, 100), templates::car_dealer(), CostParams::default())
    }

    #[test]
    fn example_4_1_feasibility() {
        let s = dealer();
        // SP(n1, A, R) ∩ SP(n2, A, R) with A = {model, year}: n2 is the
        // color disjunction — not supported, so the intersect plan is
        // infeasible.
        let a = attrs(["model", "year"]);
        let infeasible = Plan::intersect(vec![
            Plan::source(cond("make = \"BMW\" ^ price < 40000"), a.clone()),
            Plan::source(cond("color = \"red\" _ color = \"black\""), a.clone()),
        ]);
        assert!(!is_feasible(&infeasible, &s));
        // The nested plan is feasible.
        let feasible = Plan::local(
            cond("color = \"red\" _ color = \"black\""),
            a.clone(),
            Plan::source(cond("make = \"BMW\" ^ price < 40000"), attrs(["model", "year", "color"])),
        );
        assert!(is_feasible(&feasible, &s));
    }

    #[test]
    fn choice_feasible_iff_some_alternative_is() {
        let s = dealer();
        let a = attrs(["model"]);
        let good = Plan::source(cond("make = \"BMW\" ^ price < 40000"), a.clone());
        let bad = Plan::source(cond("year = 1995"), a.clone());
        assert!(is_feasible(&Plan::Choice(vec![bad.clone(), good.clone()]), &s));
        assert!(!is_feasible(&Plan::Choice(vec![bad.clone(), bad.clone()]), &s));
    }

    #[test]
    fn prune_drops_dead_alternatives() {
        let s = dealer();
        let a = attrs(["model"]);
        let good = Plan::source(cond("make = \"BMW\" ^ price < 40000"), a.clone());
        let bad = Plan::source(cond("year = 1995"), a.clone());
        let pruned = prune_infeasible(&Plan::Choice(vec![bad.clone(), good.clone()]), &s).unwrap();
        assert_eq!(pruned, good);
        assert!(prune_infeasible(&bad, &s).is_none());
        // A combination with a dead child dies entirely.
        let combo = Plan::intersect(vec![good.clone(), bad]);
        assert!(prune_infeasible(&combo, &s).is_none());
    }

    #[test]
    fn feasibility_uses_planning_view_order_insensitivity() {
        let s = dealer();
        let swapped = Plan::source(cond("price < 40000 ^ make = \"BMW\""), attrs(["model"]));
        // The planning view is permutation-closed, so this is feasible;
        // the executor will fix the order before sending.
        assert!(is_feasible(&swapped, &s));
    }
}
