//! Source selection across mirrors: the same car data offered by three
//! sources with different capabilities and network costs. The federation
//! plans against each and routes every query to the cheapest member that
//! can answer it.
//!
//! ```sh
//! cargo run --release -p csqp --example federation
//! ```

use csqp::core::federation::Federation;
use csqp::prelude::*;
use std::sync::Arc;

fn main() {
    let data = csqp::relation::datagen::cars(42, 2_000);

    // Mirror 1: fast, form-limited (Example 4.1's dealer).
    let fast_form = Arc::new(Source::new(
        data.clone(),
        csqp::ssdl::templates::car_dealer(),
        CostParams::new(10.0, 1.0),
    ));
    // Mirror 2: a slow bulk dump — answers anything by download.
    let slow_dump = Arc::new(Source::new(
        data.clone(),
        csqp::ssdl::templates::download_only(
            "bulk_dump",
            &[
                ("make", ValueType::Str),
                ("model", ValueType::Str),
                ("year", ValueType::Int),
                ("color", ValueType::Str),
                ("price", ValueType::Int),
            ],
        ),
        CostParams::new(500.0, 5.0),
    ));
    // Mirror 3: a color-browse site.
    let color_browse = Arc::new(Source::new(
        data,
        parse_ssdl(
            r#"
            source color_browse {
              s1 -> color = $str ;
              s2 -> clist ;
              clist -> color = $str | color = $str _ clist ;
              attributes :: s1 : { make, model, year, color } ;
              attributes :: s2 : { make, model, year, color } ;
            }
            "#,
        )
        .unwrap(),
        CostParams::new(10.0, 1.0),
    ));

    let federation =
        Federation::new().with_member(fast_form).with_member(slow_dump).with_member(color_browse);

    let queries = [
        (r#"make = "BMW" ^ price < 40000"#, vec!["model", "year"]),
        (r#"color = "red" _ color = "black""#, vec!["make", "model"]),
        (r#"year = 1995"#, vec!["make", "model"]),
        (r#"make = "Toyota" ^ color = "blue""#, vec!["model"]),
    ];

    for (cond, attrs) in queries {
        let q = TargetQuery::parse(cond, &attrs).unwrap();
        println!("query: {q}");
        match federation.run(&q) {
            Ok(run) => {
                let out = &run.stream.outcome;
                println!(
                    "  -> routed to `{}` (est {:.0}, measured {:.0}, {} rows)",
                    run.source_name,
                    out.planned.est_cost,
                    out.measured_cost,
                    out.rows.len()
                );
                for (member, verdict) in &run.considered.verdicts {
                    match verdict {
                        Ok(cost) => println!("     {member:<14} est {cost:.0}"),
                        Err(_) => println!("     {member:<14} infeasible"),
                    }
                }
                if run.considered.pruned > 0 {
                    println!(
                        "     {} members pruned by the capability index",
                        run.considered.pruned
                    );
                }
            }
            Err(e) => println!("  -> {e}"),
        }
        println!();
    }
}
