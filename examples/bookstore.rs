//! Example 1.1 — the Internet bookstore.
//!
//! Searching for books by Sigmund Freud *or* Carl Jung about dreams, on a
//! source whose form takes one author at a time. Reproduces the paper's
//! numbers: the capability-sensitive plan retrieves fewer than 20 entries
//! while the Garlic-style CNF plan extracts over 2,000.
//!
//! ```sh
//! cargo run --release -p csqp --example bookstore
//! ```

use csqp::prelude::*;
use csqp::relation::datagen::{books, BookGenConfig};
use csqp::ssdl::templates;
use std::sync::Arc;

fn main() {
    println!("Loading the bookstore (50,000 books, seeded)...");
    let source = Arc::new(Source::new(
        books(7, &BookGenConfig::default()),
        templates::bookstore(),
        CostParams::default(),
    ));
    println!("capabilities:\n{}", source.gate_view().desc);

    let query = TargetQuery::parse(
        r#"(author = "Sigmund Freud" _ author = "Carl Jung") ^ title contains "dreams""#,
        &["isbn", "author", "title"],
    )
    .unwrap();
    println!("target query:\n  {query}\n");

    // No order of the raw query is one the source's grammar accepts, so
    // the mediator cannot admit it: it never reaches the source.
    let raw = source.gate_view().admit(Some(&query.cond), &query.attrs);
    println!(
        "admitting the raw query for the source: {}\n",
        match raw {
            None => "REFUSED — no order of it is one the grammar accepts",
            Some(_) => "admitted (unexpected!)",
        }
    );

    for scheme in [Scheme::GenCompact, Scheme::Dnf, Scheme::Cnf, Scheme::Disco, Scheme::NaivePush] {
        let mediator = Mediator::new(source.clone()).with_scheme(scheme);
        match mediator.run(&query) {
            Ok(out) => {
                println!("{}:", scheme.name());
                println!("  plan: {}", out.planned.plan);
                println!(
                    "  {} source queries, {} tuples extracted, {} answers, measured cost {:.0}",
                    out.meter.queries,
                    out.meter.tuples_shipped,
                    out.rows.len(),
                    out.measured_cost
                );
                match scheme {
                    Scheme::GenCompact | Scheme::Dnf => {
                        assert!(
                            out.meter.tuples_shipped < 20,
                            "paper: the two-query plan extracts fewer than 20 entries"
                        );
                    }
                    Scheme::Cnf => {
                        assert!(
                            out.meter.tuples_shipped > 2000,
                            "paper: the CNF plan extracts over 2,000 entries"
                        );
                    }
                    _ => {}
                }
            }
            Err(e) => println!("{}: INFEASIBLE — {e}", scheme.name()),
        }
        println!();
    }

    println!("All of the paper's Example 1.1 claims reproduced.");
}
