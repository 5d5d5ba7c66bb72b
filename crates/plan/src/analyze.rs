//! `EXPLAIN ANALYZE`: what a
//! [`StreamMode::Analyzed`](crate::exec_stream::StreamMode::Analyzed) run
//! records per source query — the §6.2 estimate (`k1 + k2·|result(sq)|` on
//! the *estimated* cardinality) next to what actually came back — and the
//! re-rendering of the [`explain`](crate::explain::explain) tree with both
//! numbers and a cost-model drift summary.
//!
//! Everything recorded here is a pure function of the query, the data, and
//! the plan — no wall clock, no thread identity — so the rendered output is
//! byte-identical across runs and core counts, and can be
//! golden-tested (see `tests/explain_analyze.rs`).

use crate::plan::Plan;
use std::fmt::Write as _;

/// Estimated-vs-observed numbers for one executed source query.
#[derive(Debug, Clone, PartialEq)]
pub struct SubQueryObs {
    /// The source query in `SP(C, A, R)` notation.
    pub rendered: String,
    /// Estimated `|result(sq)|` under the planner's cardinality model.
    pub est_rows: f64,
    /// Estimated cost `k1 + k2·est_rows`.
    pub est_cost: f64,
    /// Rows the source actually returned.
    pub observed_rows: u64,
    /// Observed cost `k1 + k2·observed_rows`.
    pub observed_cost: f64,
}

/// Observed cardinality ≥ 2× or ≤ ½× the estimate counts as drift (the
/// threshold at which the §6.2 plan ranking can start inverting).
const DRIFT_FACTOR: f64 = 2.0;

impl SubQueryObs {
    /// Observed/estimated cardinality ratio, smoothed so empty results
    /// don't divide by zero (`> 1` means the model under-estimated).
    ///
    /// Estimates that are NaN, infinite, or negative (a broken cardinality
    /// model) are clamped to 0 before smoothing, so the ratio is always a
    /// finite positive number — replan triggers and drift warnings never
    /// see Inf/NaN.
    pub fn drift_ratio(&self) -> f64 {
        let est = if self.est_rows.is_finite() { self.est_rows.max(0.0) } else { 0.0 };
        (self.observed_rows as f64 + 1.0) / (est + 1.0)
    }

    /// Did the observed cardinality drift ≥ 2× from the estimate?
    pub fn drifted(&self) -> bool {
        let r = self.drift_ratio();
        !(1.0 / DRIFT_FACTOR..=DRIFT_FACTOR).contains(&r)
    }
}

/// Everything `EXPLAIN ANALYZE` learned from one execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanAnalysis {
    /// One entry per executed source query, in plan (pre-order) order —
    /// the same order [`explain_analyze`] renders them.
    pub subqueries: Vec<SubQueryObs>,
}

impl PlanAnalysis {
    /// Σ estimated cost over all source queries.
    pub fn est_total(&self) -> f64 {
        self.subqueries.iter().map(|s| s.est_cost).sum()
    }

    /// Σ observed cost over all source queries.
    pub fn observed_total(&self) -> f64 {
        self.subqueries.iter().map(|s| s.observed_cost).sum()
    }

    /// Total rows fetched from the source.
    pub fn rows_fetched(&self) -> u64 {
        self.subqueries.iter().map(|s| s.observed_rows).sum()
    }

    /// One warning line per drifted source query (empty when the cost
    /// model held up). Surfaced by `csqp --run --explain` so miscalibrated
    /// `--k1/--k2` constants or stale statistics are visible, not silent.
    pub fn drift_warnings(&self) -> Vec<String> {
        self.subqueries
            .iter()
            .filter(|s| s.drifted())
            .map(|s| {
                let direction =
                    if s.drift_ratio() > 1.0 { "under-estimated" } else { "over-estimated" };
                format!(
                    "cost-model drift: {} {} |result(sq)| (estimated {:.1}, observed {}); \
                     plan ranking may be off — recheck k1/k2 and source statistics",
                    s.rendered, direction, s.est_rows, s.observed_rows
                )
            })
            .collect()
    }

    /// Records the executor-side counters into `metrics` under the
    /// canonical `exec.*` names.
    pub fn record_into(&self, metrics: &csqp_obs::MetricsRegistry) {
        use csqp_obs::names;
        metrics.add(names::EXEC_SOURCE_QUERIES, self.subqueries.len() as u64);
        metrics.add(names::EXEC_ROWS_FETCHED, self.rows_fetched());
        for s in &self.subqueries {
            metrics.observe(names::EXEC_ROWS_PER_SUBQUERY, s.observed_rows);
        }
        // Latest-run semantics: the cost gauges always describe the most
        // recently analyzed execution (coarser recorders like the
        // mediator's run path use the same convention, so recording both
        // for one run is idempotent, not additive).
        metrics.gauge_set(names::EXEC_EST_COST, self.est_total());
        metrics.gauge_set(names::EXEC_OBSERVED_COST, self.observed_total());
        metrics.add(
            names::EXEC_DRIFT_WARNINGS,
            self.subqueries.iter().filter(|s| s.drifted()).count() as u64,
        );
    }
}

/// Re-renders the [`explain`](crate::explain::explain) tree with each
/// source query annotated `est rows/cost | observed rows/cost`, followed by
/// a cost-model drift summary. Requires the `analysis` an analyzed run
/// produced on the *same* plan.
pub fn explain_analyze(plan: &Plan, analysis: &PlanAnalysis) -> String {
    let mut out = String::new();
    let mut idx = 0usize;
    render(plan, 0, &mut idx, analysis, &mut out);
    let est = analysis.est_total();
    let obs = analysis.observed_total();
    let _ = writeln!(
        out,
        "cost model: estimated {est:.2} vs observed {obs:.2} \
         ({} source queries, {} rows fetched)",
        analysis.subqueries.len(),
        analysis.rows_fetched(),
    );
    for w in analysis.drift_warnings() {
        let _ = writeln!(out, "warning: {w}");
    }
    out
}

fn render(plan: &Plan, depth: usize, idx: &mut usize, analysis: &PlanAnalysis, out: &mut String) {
    let pad = "  ".repeat(depth);
    match plan {
        Plan::SourceQuery { .. } => {
            match analysis.subqueries.get(*idx) {
                Some(s) => {
                    let _ = writeln!(
                        out,
                        "{pad}{plan}  [est {:.1} rows, cost {:.2} | observed {} rows, cost {:.2}]",
                        s.est_rows, s.est_cost, s.observed_rows, s.observed_cost
                    );
                }
                // More source queries than analysis entries: the execution
                // aborted early; annotate honestly rather than panic.
                None => {
                    let _ = writeln!(out, "{pad}{plan}  [not executed]");
                }
            }
            *idx += 1;
        }
        Plan::LocalSp { cond, attrs, input } => {
            let c = cond.as_ref().map(|c| c.to_string()).unwrap_or_else(|| "true".into());
            let _ = writeln!(
                out,
                "{pad}Local σ[{c}] π{{{}}}",
                attrs.iter().cloned().collect::<Vec<_>>().join(", ")
            );
            render(input, depth + 1, idx, analysis, out);
        }
        Plan::Intersect(cs) => {
            let _ = writeln!(out, "{pad}Intersect");
            for c in cs {
                render(c, depth + 1, idx, analysis, out);
            }
        }
        Plan::Union(cs) => {
            let _ = writeln!(out, "{pad}Union");
            for c in cs {
                render(c, depth + 1, idx, analysis, out);
            }
        }
        Plan::Choice(cs) => {
            let _ = writeln!(out, "{pad}Choice ({} alternatives)", cs.len());
            for c in cs {
                render(c, depth + 1, idx, analysis, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{Cardinality, OracleCard, UniformCard};
    use crate::exec::execute;
    use crate::exec_stream::{execute_stream_collect, StreamConfig, StreamMode, StreamRequest};
    use crate::model::CostModel;
    use crate::plan::attrs;
    use csqp_expr::parse::parse_condition;
    use csqp_expr::CondTree;
    use csqp_relation::datagen;
    use csqp_relation::Relation;
    use csqp_source::{CostParams, Meter, Source};
    use csqp_ssdl::templates;

    fn cond(s: &str) -> Option<CondTree> {
        Some(parse_condition(s).unwrap())
    }

    fn dealer() -> Source {
        Source::new(datagen::cars(3, 500), templates::car_dealer(), CostParams::default())
    }

    /// The engine's collecting analyzed run: answer, transfer, analysis.
    fn analyzed(
        plan: &Plan,
        source: &Source,
        model: &dyn CostModel,
        card: &dyn Cardinality,
    ) -> (Relation, Meter, PlanAnalysis) {
        let cfg = StreamConfig::default();
        let mode = StreamMode::Analyzed { model, card };
        let request = StreamRequest { mode, ..StreamRequest::new(&cfg) };
        let (rows, run) = execute_stream_collect(plan, source, request).unwrap();
        (rows, run.meter, run.analysis.expect("an analyzed run's analysis"))
    }

    fn demo_plan() -> Plan {
        Plan::local(
            cond("color = \"red\" _ color = \"black\""),
            attrs(["model", "year"]),
            Plan::source(cond("make = \"BMW\" ^ price < 40000"), attrs(["model", "year", "color"])),
        )
    }

    #[test]
    fn analyzed_execution_matches_plain() {
        let s = dealer();
        let plan = demo_plan();
        let model = CostParams::new(50.0, 1.0);
        let card = UniformCard::default();
        let plain = execute(&plan, &s).unwrap();
        let (rows, meter, analysis) = analyzed(&plan, &s, &model, &card);
        assert_eq!(rows, plain);
        assert_eq!(meter.queries, 1);
        assert_eq!(analysis.subqueries.len(), 1);
        let sq = &analysis.subqueries[0];
        assert_eq!(sq.observed_rows, meter.tuples_shipped);
        assert_eq!(sq.observed_cost, 50.0 + sq.observed_rows as f64);
    }

    #[test]
    fn oracle_cardinality_shows_zero_drift() {
        let s = dealer();
        let plan = demo_plan();
        let model = CostParams::new(50.0, 1.0);
        let card = OracleCard::new(s.relation());
        let (_, _, analysis) = analyzed(&plan, &s, &model, &card);
        assert!(analysis.drift_warnings().is_empty(), "oracle estimates cannot drift");
        assert_eq!(analysis.est_total(), analysis.observed_total());
    }

    #[test]
    fn bad_estimates_raise_drift_warnings() {
        let s = dealer();
        let plan = demo_plan();
        let model = CostParams::new(50.0, 1.0);
        // Absurd cardinality model: everything returns ~1M rows.
        let card = UniformCard { rows: 1_000_000.0, atom_selectivity: 0.9 };
        let (_, _, analysis) = analyzed(&plan, &s, &model, &card);
        let warnings = analysis.drift_warnings();
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("over-estimated"), "{}", warnings[0]);
        assert!(warnings[0].contains("cost-model drift"));
    }

    #[test]
    fn explain_analyze_annotates_every_source_query() {
        let s = dealer();
        let plan = Plan::union(vec![
            Plan::source(cond("make = \"BMW\" ^ price < 40000"), attrs(["model"])),
            Plan::source(cond("make = \"Toyota\" ^ price < 20000"), attrs(["model"])),
        ]);
        let model = CostParams::new(50.0, 1.0);
        let card = OracleCard::new(s.relation());
        let (_, _, analysis) = analyzed(&plan, &s, &model, &card);
        let text = explain_analyze(&plan, &analysis);
        assert_eq!(text.matches("| observed").count(), 2, "{text}");
        assert!(text.starts_with("Union\n"), "{text}");
        assert!(text.contains("cost model: estimated"), "{text}");
        // Deterministic: same inputs, same bytes.
        let (_, _, analysis2) = analyzed(&plan, &s, &model, &card);
        assert_eq!(text, explain_analyze(&plan, &analysis2));
    }

    #[test]
    fn zero_estimate_yields_finite_drift_ratio() {
        let obs = SubQueryObs {
            rendered: "SP(true, {a}, R)".into(),
            est_rows: 0.0,
            est_cost: 0.0,
            observed_rows: 100,
            observed_cost: 100.0,
        };
        assert_eq!(obs.drift_ratio(), 101.0);
        assert!(obs.drifted());
    }

    #[test]
    fn degenerate_estimates_never_produce_inf_or_nan() {
        for est in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -5.0] {
            let obs = SubQueryObs {
                rendered: "SP(true, {a}, R)".into(),
                est_rows: est,
                est_cost: 0.0,
                observed_rows: 3,
                observed_cost: 3.0,
            };
            let r = obs.drift_ratio();
            assert!(r.is_finite() && r > 0.0, "est {est} gave ratio {r}");
        }
        // Zero observed against a degenerate estimate is quiet, not a panic.
        let obs = SubQueryObs {
            rendered: "SP(true, {a}, R)".into(),
            est_rows: f64::NAN,
            est_cost: 0.0,
            observed_rows: 0,
            observed_cost: 0.0,
        };
        assert_eq!(obs.drift_ratio(), 1.0);
        assert!(!obs.drifted());
    }

    #[test]
    fn analysis_records_exec_metrics() {
        let s = dealer();
        let plan = demo_plan();
        let model = CostParams::new(50.0, 1.0);
        let card = OracleCard::new(s.relation());
        let (_, _, analysis) = analyzed(&plan, &s, &model, &card);
        for reg in [csqp_obs::MetricsRegistry::new(), csqp_obs::MetricsRegistry::off()] {
            analysis.record_into(&reg);
            let snap = reg.snapshot();
            if reg.enabled() {
                assert_eq!(snap.counter("exec.source_queries"), 1);
                assert_eq!(snap.counter("exec.rows_fetched"), analysis.rows_fetched());
                assert_eq!(snap.counter("exec.drift_warnings"), 0);
                assert_eq!(snap.gauge("exec.est_cost"), analysis.est_total());
                assert_eq!(snap.histograms["exec.rows_per_subquery"].count, 1);
            } else {
                assert!(snap.counters.is_empty());
            }
        }
    }
}
