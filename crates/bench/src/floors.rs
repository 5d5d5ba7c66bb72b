//! What the e13–e19 benches measure, and the count floors over it.
//!
//! The benches (`cargo bench -p csqp-bench --bench eNN`) time these
//! workloads and `assert!` their time floors at the end of `main`. The
//! floors that are counts need no clock, so they are tests here and run
//! with every `cargo test`:
//!
//! - e15: the streaming engine's peak resident tuples stay within
//!   `batch_size × pipeline depth × 2` at every scale, while the
//!   materialized peak grows with the result;
//! - e17: under cardinality drift the adaptive run answers the same rows
//!   as the plain one, splices at least once and ships at least 2× fewer
//!   tuples.

use csqp_core::types::TargetQuery;
use csqp_expr::parse::parse_condition;
use csqp_expr::{Value, ValueType};
use csqp_plan::{attrs, Plan};
use csqp_relation::{Relation, Schema};
use csqp_source::{Catalog, CostParams, Source};
use csqp_ssdl::templates;
use std::sync::Arc;
use std::time::Instant;

/// One planner workload: a demo source and the queries planned against it.
pub struct Workload {
    /// Workload name, as the benches print it.
    pub name: &'static str,
    /// The source every query is planned against.
    pub source: Arc<Source>,
    /// The queries of one pass.
    pub queries: Vec<TargetQuery>,
}

fn q(cond: &str, attrs: &[&str]) -> TargetQuery {
    TargetQuery::parse(cond, attrs).unwrap_or_else(|e| panic!("bad bench query {cond:?}: {e}"))
}

/// The bookstore and carguide workloads that e13 (planner throughput), e14
/// (flight recorder), e18 (spans + profiles) and e19 (fleet telemetry) all
/// run, so each overhead is measured on the queries whose throughput e13
/// tracks.
pub fn hotpath_workloads() -> Vec<Workload> {
    let catalog = Catalog::demo_small(7);
    let bookstore = catalog.get("bookstore").expect("demo catalog has bookstore").clone();
    let car_guide = catalog.get("car_guide").expect("demo catalog has car_guide").clone();

    // Example 1.1 shapes and variations: author disjunctions with title /
    // subject conjuncts — the forms where capability-sensitive splitting and
    // the Check cache do real work.
    let book_attrs = ["isbn", "title", "author"];
    let bookstore_queries = vec![
        q(
            "(author = \"Sigmund Freud\" _ author = \"Carl Jung\") ^ title contains \"dreams\"",
            &book_attrs,
        ),
        q("author = \"Sigmund Freud\"", &book_attrs),
        q("title contains \"history\" ^ subject = \"science\"", &book_attrs),
        q(
            "(author = \"A. Author\" _ author = \"B. Author\" _ author = \"C. Author\")",
            &book_attrs,
        ),
        q(
            "(subject = \"fiction\" _ subject = \"poetry\") ^ title contains \"sea\"",
            &book_attrs,
        ),
        q(
            "(author = \"X\" ^ title contains \"war\") _ (author = \"Y\" ^ title contains \"peace\")",
            &book_attrs,
        ),
        q("subject = \"history\" ^ author = \"Edward Gibbon\"", &book_attrs),
        q(
            "(title contains \"intro\" _ title contains \"primer\") ^ subject = \"math\"",
            &book_attrs,
        ),
    ];

    // Example 1.2 shapes: style/size/make/price combinations including the
    // full six-atom paper query.
    let car_attrs = ["listing_id", "model", "price"];
    let carguide_queries = vec![
        q(
            "style = \"sedan\" ^ (size = \"compact\" _ size = \"midsize\") ^ \
             ((make = \"Toyota\" ^ price <= 20000) _ (make = \"BMW\" ^ price <= 40000))",
            &car_attrs,
        ),
        q("make = \"Toyota\" ^ price <= 15000", &car_attrs),
        q("style = \"suv\" ^ (size = \"midsize\" _ size = \"fullsize\")", &car_attrs),
        q("(make = \"Honda\" _ make = \"Toyota\") ^ price <= 25000", &car_attrs),
        q("style = \"coupe\" ^ make = \"BMW\" ^ price <= 60000", &car_attrs),
        q("(size = \"compact\" _ size = \"subcompact\") ^ price <= 12000", &car_attrs),
        q("make = \"Ford\" ^ style = \"truck\"", &car_attrs),
        q("(make = \"Audi\" ^ price <= 50000) _ (make = \"BMW\" ^ price <= 45000)", &car_attrs),
    ];

    vec![
        Workload { name: "bookstore", source: bookstore, queries: bookstore_queries },
        Workload { name: "carguide", source: car_guide, queries: carguide_queries },
    ]
}

/// The result of [`paired_overhead`].
pub struct Paired {
    /// Trials run (odd, so the median is one trial's ratio).
    pub trials: usize,
    /// Fastest pass of the baseline leg, in seconds.
    pub base_best_s: f64,
    /// Fastest pass of the treated leg, in seconds.
    pub treated_best_s: f64,
    /// Median of the per-trial `treated/base` time ratios, as a percentage
    /// over 1.0. This is the number e18 and e19 gate.
    pub overhead_pct: f64,
}

/// Times `treated` against `base` in *paired* trials: each trial times one
/// pass of each back to back (alternating which goes first) and contributes
/// one `treated/base` ratio; the overhead is the median ratio. Machine drift
/// (thermal ramps, noisy neighbours) moves both halves of a trial together
/// and cancels in the ratio, where best-pass-per-leg protocols fold it
/// straight into the result. Both legs are warmed up first, and the trial
/// count is sized so the run totals a few seconds.
pub fn paired_overhead(mut base: impl FnMut(), mut treated: impl FnMut()) -> Paired {
    base();
    let t0 = Instant::now();
    treated();
    let warm = t0.elapsed().as_secs_f64();
    let trials = ((1.0 / warm.max(1e-6)).ceil() as usize).clamp(9, 400) | 1;

    let mut ratios = Vec::with_capacity(trials);
    let mut best = [f64::MAX; 2];
    for trial in 0..trials {
        let mut dt = [0.0f64; 2];
        for slot in if trial % 2 == 0 { [0, 1] } else { [1, 0] } {
            let t = Instant::now();
            if slot == 0 {
                base()
            } else {
                treated()
            }
            dt[slot] = t.elapsed().as_secs_f64();
            best[slot] = best[slot].min(dt[slot]);
        }
        ratios.push(dt[1] / dt[0]);
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    Paired {
        trials,
        base_best_s: best[0],
        treated_best_s: best[1],
        overhead_pct: (ratios[trials / 2] - 1.0) * 100.0,
    }
}

/// The e15 table sizes: the answer spans ~40× while the streaming peak
/// stays put.
pub const STREAM_SCALES: &[usize] = &[2_000, 20_000, 80_000];

/// An `n`-row table `t(k, a, b, c)` behind a fully relational grammar, with
/// exact estimates available to the oracle: e15 streams it, and e17's
/// bare-scan leg re-plans over it without drift.
pub fn stream_source(n: usize) -> Source {
    let cols = [
        ("k", ValueType::Int),
        ("a", ValueType::Int),
        ("b", ValueType::Int),
        ("c", ValueType::Str),
    ];
    let schema = Schema::new("t", cols.to_vec(), &["k"]).expect("stream schema is valid");
    let rows: Vec<Vec<Value>> = (0..n as i64)
        .map(|i| {
            let x = i.wrapping_mul(2654435761);
            vec![
                Value::Int(i),
                Value::Int(x.rem_euclid(100)),
                Value::Int(x.rem_euclid(7)),
                Value::str(format!("s{}", x.rem_euclid(3))),
            ]
        })
        .collect();
    let desc = templates::full_relational("full", &cols);
    Source::new(Relation::from_rows(schema, rows), desc, CostParams::new(10.0, 1.0))
}

/// ∪ of two broad selections over [`stream_source`] (one under a local σ/π
/// wrapper). Both sides match most of the table, so the deduped union IS
/// the table and the materialized intermediates are ~2× the result.
pub fn stream_plan() -> Plan {
    let cond = |c: &str| Some(parse_condition(c).expect("stream plan condition parses"));
    Plan::Union(vec![
        Plan::local(
            cond("a >= 0"),
            attrs(["k"]),
            Plan::source(cond("b >= 0"), attrs(["k", "a", "b", "c"])),
        ),
        Plan::source(cond("a >= 1"), attrs(["k"])),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use csqp_core::mediator::{AdaptiveConfig, CardKind, Mediator, StreamOptions};
    use csqp_plan::{execute, execute_stream_collect, StreamConfig, StreamRequest};
    use csqp_ssdl::parse_ssdl;

    /// Levels of [`stream_plan`] that hold live batches at once: Union root
    /// → Local σ/π → source leaf, plus the driver's in-flight root batch.
    const STREAM_PIPELINE_DEPTH: u64 = 4;

    #[test]
    fn e15_streaming_peak_is_bounded_while_the_materialized_peak_grows() {
        let cfg = StreamConfig::default();
        let bound = cfg.batch_size as u64 * STREAM_PIPELINE_DEPTH * 2;
        let plan = stream_plan();
        let mut peaks = Vec::new();
        for &n in STREAM_SCALES {
            let source = stream_source(n);
            let (_, run) =
                execute_stream_collect(&plan, &source, StreamRequest::new(&cfg)).unwrap();
            // The materialized engine's residency floor is the answer itself
            // (its two whole operand relations come on top; leaving them out
            // only weakens the comparison).
            let materialized = execute(&plan, &source).unwrap();
            let stream_peak = run.stats.peak_resident_tuples;
            assert!(stream_peak <= bound, "n={n}: streaming peak {stream_peak} > bound {bound}");
            peaks.push((stream_peak, materialized.len() as u64));
        }
        assert!(
            peaks.windows(2).all(|w| w[0].1 < w[1].1),
            "the materialized peak must grow with the result: {peaks:?}"
        );
        let (stream_peak, materialized_peak) = peaks[peaks.len() - 1];
        assert!(
            stream_peak * 10 <= materialized_peak,
            "at the largest scale the streaming peak {stream_peak} is not 10× below the \
             materialized peak {materialized_peak}"
        );
    }

    /// `a = 1 ^ b = 1` is estimated tiny (sel² under the uniform guess) but
    /// actually matches 75% of the table; `c = 1` is estimated broad but
    /// actually matches a handful of rows. Both query forms cover the target
    /// condition, so the planner's pick hinges on the (wrong) estimates and
    /// mid-query drift flips it.
    fn drifty_source() -> Arc<Source> {
        const N: i64 = 20_000;
        let schema = Schema::new(
            "t",
            vec![
                ("k", ValueType::Int),
                ("a", ValueType::Int),
                ("b", ValueType::Int),
                ("c", ValueType::Int),
            ],
            &["k"],
        )
        .unwrap();
        let threshold = N * 3 / 4;
        let rows: Vec<Vec<Value>> = (0..N)
            .map(|i| {
                let ab = i64::from(i < threshold);
                let c = i64::from(i < threshold && i % 1000 == 0);
                vec![Value::Int(i), Value::Int(ab), Value::Int(ab), Value::Int(c)]
            })
            .collect();
        let desc = parse_ssdl(
            "source drifty {\n\
             s1 -> a = $int ^ b = $int ;\n\
             s2 -> c = $int ;\n\
             attributes :: s1 : { k, a, b, c } ;\n\
             attributes :: s2 : { k, a, b, c } ;\n}",
        )
        .unwrap();
        Arc::new(Source::new(Relation::from_rows(schema, rows), desc, CostParams::new(10.0, 1.0)))
    }

    #[test]
    fn e17_drift_splices_to_the_cheap_form_and_ships_half_the_tuples() {
        let q = TargetQuery::parse("a = 1 ^ b = 1 ^ c = 1", &["k"]).unwrap();
        let cfg = StreamConfig { batch_size: 256, ..StreamConfig::default() };
        let acfg = AdaptiveConfig { stream: cfg.clone(), ..Default::default() };
        let card = CardKind::Uniform { atom_selectivity: 0.05 };
        let plain = Mediator::new(drifty_source()).with_cardinality(card);
        let plain = plain.run_stream(&q, StreamOptions::plain(&cfg), None).unwrap();
        let adaptive = Mediator::new(drifty_source()).with_cardinality(card);
        let adaptive = adaptive.run_stream(&q, StreamOptions::Adaptive(&acfg), None).unwrap();

        assert_eq!(adaptive.outcome.rows, plain.outcome.rows, "drift answers diverged");
        assert!(adaptive.splices >= 1, "the drifting corpus never spliced");
        let (plain_shipped, adaptive_shipped) =
            (plain.outcome.meter.tuples_shipped, adaptive.outcome.meter.tuples_shipped);
        assert!(
            plain_shipped >= 2 * adaptive_shipped,
            "splice shipped {adaptive_shipped} tuples against {plain_shipped} without it \
             (< 2× fewer)"
        );
    }
}
