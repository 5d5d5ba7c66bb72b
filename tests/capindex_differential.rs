//! Differential suite for the federation capability index.
//!
//! Two guarantees, checked on random federations × random queries (this
//! file is a `csqp-core` test like the chaos suite):
//!
//! 1. **Soundness** — the index's candidate set is a superset of the
//!    members for which full `Check`-based planning is feasible: pruning
//!    never discards an answerable member.
//! 2. **Transparency** — a federation with the index on picks the same
//!    member, the same plan, at the same estimated cost as one with the
//!    index off, and executing both returns byte-identical answers, with
//!    no member sent a query its description does not accept.

mod common;

use csqp_core::federation::Federation;
use csqp_core::mediator::Mediator;
use csqp_core::types::TargetQuery;
use csqp_expr::gen::{CondGen, CondGenConfig, GenAttr};
use csqp_expr::{CondTree, Value, ValueType};
use csqp_plan::attrs;
use csqp_relation::{Relation, Schema};
use csqp_source::{CostParams, Source};
use csqp_ssdl::{parse_ssdl, templates};
use proptest::prelude::*;
use std::sync::Arc;

fn test_relation() -> Relation {
    let schema = Schema::new(
        "t",
        vec![
            ("k", ValueType::Int),
            ("a", ValueType::Int),
            ("b", ValueType::Int),
            ("c", ValueType::Int),
            ("d", ValueType::Str),
        ],
        &["k"],
    )
    .unwrap();
    let rows: Vec<Vec<Value>> = (0..300i64)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Int(i % 7),
                Value::Int(i % 5),
                Value::Int(i % 3),
                Value::str(format!("d{}", i % 4)),
            ]
        })
        .collect();
    Relation::from_rows(schema, rows)
}

/// A pool of capability shapes spanning the index's rule space: full
/// capability, download-only, conjunctive forms, export-limited forms,
/// value lists, disjunctive forms, and recursive required suffixes.
const CAPABILITY_POOL: &[&str] = &[
    // Export-limited conjunctive forms.
    "source s0 {\n\
     f1 -> a = $int ;\n\
     f2 -> a = $int ^ b = $int ;\n\
     attributes :: f1 : { k, a, b } ;\n\
     attributes :: f2 : { k, a, b, c } ;\n}",
    // b^c entry, no d anywhere.
    "source s1 {\n\
     f1 -> b = $int ^ c = $int ;\n\
     attributes :: f1 : { k, b, c } ;\n}",
    // d value-list.
    "source s2 {\n\
     f1 -> dlist ;\n\
     dlist -> d = $str | d = $str _ dlist ;\n\
     attributes :: f1 : { k, d } ;\n}",
    // Narrow exports: c only.
    "source s3 {\n\
     f1 -> c = $int ;\n\
     attributes :: f1 : { k, c } ;\n}",
    // Disjunctive a-form plus a bare d-form.
    "source s4 {\n\
     f1 -> a = $int _ a = $int ;\n\
     f2 -> d = $str ;\n\
     attributes :: f1 : { k, a } ;\n\
     attributes :: f2 : { k, a, d } ;\n}",
    // Required recursive suffix: a with one-or-more b atoms.
    "source s5 {\n\
     f1 -> a = $int ^ brest ;\n\
     brest -> b = $int | b = $int ^ brest ;\n\
     attributes :: f1 : { k, a, b, c } ;\n}",
];

fn member(pool_idx: usize, position: usize) -> Arc<Source> {
    let desc = match pool_idx {
        0 => templates::full_relational(
            "full",
            &[
                ("k", ValueType::Int),
                ("a", ValueType::Int),
                ("b", ValueType::Int),
                ("c", ValueType::Int),
                ("d", ValueType::Str),
            ],
        ),
        1 => templates::download_only(
            "dump",
            &[
                ("k", ValueType::Int),
                ("a", ValueType::Int),
                ("b", ValueType::Int),
                ("c", ValueType::Int),
                ("d", ValueType::Str),
            ],
        ),
        i => parse_ssdl(CAPABILITY_POOL[(i - 2) % CAPABILITY_POOL.len()]).unwrap(),
    };
    // Costs vary by position so the cheapest-member choice is non-trivial.
    let cost = CostParams::new(10.0 + 37.0 * position as f64, 1.0 + position as f64);
    Arc::new(Source::new(test_relation(), desc, cost))
}

fn federation(pool_picks: &[usize], index_on: bool) -> Federation {
    pool_picks
        .iter()
        .enumerate()
        .fold(Federation::new(), |f, (pos, &pick)| f.with_member(member(pick, pos)))
        .with_capability_index(index_on)
}

fn random_condition(seed: u64, n_atoms: usize) -> CondTree {
    let gen_attrs = vec![
        GenAttr::ints("a", 0, 6, 1),
        GenAttr::ints("b", 0, 4, 1),
        GenAttr::ints("c", 0, 2, 1),
        GenAttr::strings("d", &["d0", "d1", "d2", "d3"]),
    ];
    let mut g = CondGen::new(seed, gen_attrs);
    g.tree(&CondGenConfig { n_atoms, max_depth: 3, and_bias: 0.6, eq_bias: 0.8 })
}

fn requested(mask: u8) -> Vec<&'static str> {
    let all = ["k", "a", "b", "c", "d"];
    let picked: Vec<&str> =
        all.iter().enumerate().filter(|(i, _)| mask & (1 << i) != 0).map(|(_, s)| *s).collect();
    if picked.is_empty() {
        vec!["k"]
    } else {
        picked
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Soundness: every member full planning can serve is an index
    /// candidate — pruning only ever removes infeasible members.
    #[test]
    fn index_candidates_superset_of_feasible_members(
        picks in proptest::collection::vec(0usize..8, 1..6),
        seed in 0u64..10_000,
        n_atoms in 1usize..6,
        mask in 0u8..32,
    ) {
        let cond = random_condition(seed, n_atoms);
        let query = TargetQuery::new(cond, attrs(requested(mask)));
        let fed = federation(&picks, true);
        let decision = fed.capability_index().expect("index enabled").candidates(&query);
        for (i, m) in fed.members().iter().enumerate() {
            let feasible = Mediator::new(m.clone()).plan(&query).is_ok();
            if feasible {
                prop_assert!(
                    decision.is_candidate(i),
                    "member {i} ({}) is feasible but was pruned for {query}",
                    m.name
                );
            }
        }
        prop_assert_eq!(decision.total, fed.members().len());
        prop_assert_eq!(decision.pruned, decision.total - decision.candidates.len());
    }

    /// Transparency: index on/off produce the identical federated decision
    /// and, when feasible, byte-identical answers.
    #[test]
    fn index_on_off_plans_and_answers_agree(
        picks in proptest::collection::vec(0usize..8, 1..6),
        seed in 0u64..10_000,
        n_atoms in 1usize..6,
        mask in 0u8..32,
    ) {
        let cond = random_condition(seed, n_atoms);
        let query = TargetQuery::new(cond, attrs(requested(mask)));
        let on = federation(&picks, true);
        let off = federation(&picks, false);
        match (on.plan(&query), off.plan(&query)) {
            (Ok(p_on), Ok(p_off)) => {
                prop_assert_eq!(&p_on.source.name, &p_off.source.name);
                prop_assert_eq!(p_on.planned.plan.to_string(), p_off.planned.plan.to_string());
                prop_assert_eq!(p_on.planned.est_cost, p_off.planned.est_cost);
                // Index off plans every member; index on plans exactly the
                // candidates, each to the verdict index off gives it, and
                // counts the rest — all of which index off finds infeasible.
                let off_verdicts = &p_off.considered.verdicts;
                prop_assert_eq!((off_verdicts.len(), p_off.considered.pruned), (picks.len(), 0));
                let decision = on.capability_index().expect("index enabled").candidates(&query);
                let planned: Vec<usize> =
                    (0..picks.len()).filter(|&i| decision.is_candidate(i)).collect();
                prop_assert_eq!(planned.len(), p_on.considered.verdicts.len());
                let render = |v: &Result<f64, _>| v.as_ref().map(|c| *c).map_err(|e| format!("{e}"));
                for (&i, (name, verdict)) in planned.iter().zip(&p_on.considered.verdicts) {
                    prop_assert_eq!(name, &off_verdicts[i].0);
                    prop_assert_eq!(render(verdict), render(&off_verdicts[i].1));
                }
                let unplanned_errs = (0..picks.len())
                    .filter(|&i| !decision.is_candidate(i) && off_verdicts[i].1.is_err())
                    .count();
                prop_assert_eq!(p_on.considered.pruned, unplanned_errs);
                let r_on = on.run(&query).expect("plannable query runs").stream.outcome;
                let r_off = off.run(&query).expect("plannable query runs").stream.outcome;
                prop_assert_eq!(r_on.rows, r_off.rows);
                common::assert_no_rejections(on.members().iter().chain(off.members()));
            }
            (Err(_), Err(_)) => {}
            (on_res, off_res) => prop_assert!(
                false,
                "index on/off disagree on feasibility for {}: on={:?} off={:?}",
                query, on_res.map(|p| p.source.name.clone()), off_res.map(|p| p.source.name.clone())
            ),
        }
    }
}
