//! The reference executor: the paper's mediator, written down once.
//!
//! [`execute`] walks a concrete plan the way §6.1 describes — admit each
//! source query (fix its order), send it, post-process with σ/π/∩/∪ —
//! materializing every intermediate [`Relation`]. It is the **reference**
//! every differential suite compares against, not an execution path: all
//! production traffic runs on the engine in [`crate::exec_stream`], which
//! must return this function's rows in this function's order with the same
//! transfer meter. The module also owns what both share: [`ExecError`], and
//! the [`RetryPolicy`] behind the engine's per-round-trip retries.
//!
//! ## Correctness caveat (paper semantics)
//!
//! Following the paper, `Intersect`/`Union` combine **A-projections** of
//! source-query results. Union-combined plans are always exact
//! (`π_A(σ_{C1∨C2}R) = π_A(σ_{C1}R) ∪ π_A(σ_{C2}R)`), but
//! intersection-combined plans are exact only when the projection `A`
//! functionally determines condition satisfaction — e.g. when `A` contains
//! the relation key. Otherwise two different tuples satisfying different
//! conjuncts can collide on `A` and survive the intersection
//! (`π_A(σ_{C1}R) ∩ π_A(σ_{C2}R) ⊋ π_A(σ_{C1∧C2}R)`). Workload queries in
//! this repository always project the key; the anomaly is demonstrated in a
//! dedicated test rather than silently ignored.

use crate::plan::Plan;
use csqp_expr::CondTree;
use csqp_relation::ops::{intersect, project, select, union};
use csqp_relation::Relation;
use csqp_source::{Meter, ResilienceMeter, Source, SourceError};
use csqp_ssdl::Admitted;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeSet;
use std::fmt;

/// Errors raised during plan execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A source query was rejected by the capability gate (an infeasible or
    /// unfixable plan reached execution).
    Source(SourceError),
    /// Mediator-side schema mismatch (plan construction bug).
    Schema(String),
    /// The plan still contains `Choice` operators.
    Unresolved,
    /// The plan is structurally invalid (e.g. an empty `Intersect`/`Union`
    /// child list).
    Malformed(String),
    /// A source query kept failing with retryable faults until the retry
    /// budget ran out.
    Exhausted {
        /// Source name.
        source: String,
        /// Attempts made (1 + retries).
        attempts: u32,
        /// The last fault observed.
        last: SourceError,
    },
    /// The virtual-tick deadline budget was exceeded mid-run.
    Deadline {
        /// Ticks consumed when the run gave up.
        used: u64,
        /// The configured budget.
        budget: u64,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Source(e) => write!(f, "source error: {e}"),
            ExecError::Schema(msg) => write!(f, "mediator schema error: {msg}"),
            ExecError::Unresolved => write!(f, "plan contains unresolved Choice operators"),
            ExecError::Malformed(msg) => write!(f, "malformed plan: {msg}"),
            ExecError::Exhausted { source, attempts, last } => {
                write!(f, "source `{source}`: retries exhausted after {attempts} attempts ({last})")
            }
            ExecError::Deadline { used, budget } => {
                write!(f, "deadline exceeded: {used} ticks used of a {budget}-tick budget")
            }
        }
    }
}

impl std::error::Error for ExecError {}

impl From<SourceError> for ExecError {
    fn from(e: SourceError) -> Self {
        ExecError::Source(e)
    }
}

/// Admits a source query on `source`'s gate view: the §6.1 fix step, taken
/// by the mediator. A query no order admits never reaches the source; it
/// fails with the rejection the source would have answered.
pub(crate) fn admit(
    source: &Source,
    cond: Option<&CondTree>,
    attrs: &BTreeSet<String>,
) -> Result<Admitted, ExecError> {
    let refused = || ExecError::Source(SourceError::unsupported(&source.name, cond, attrs));
    source.gate_view().admit(cond, attrs).ok_or_else(refused)
}

/// Executes a concrete plan against `source`, returning the result relation.
/// Each source query is admitted (§6.1) before it is sent.
pub fn execute(plan: &Plan, source: &Source) -> Result<Relation, ExecError> {
    match plan {
        Plan::SourceQuery { cond, attrs } => {
            Ok(source.answer(&admit(source, cond.as_ref(), attrs)?)?)
        }
        Plan::LocalSp { cond, attrs, input } => {
            let base = execute(input, source)?;
            let filtered = select(&base, cond.as_ref());
            let attr_refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
            project(&filtered, &attr_refs).map_err(|e| ExecError::Schema(e.to_string()))
        }
        Plan::Intersect(cs) => {
            let mut results = cs.iter().map(|c| execute(c, source));
            let first = results
                .next()
                .ok_or_else(|| ExecError::Malformed("empty Intersect child list".into()))??;
            results.try_fold(first, |acc, r| {
                intersect(&acc, &r?).map_err(|e| ExecError::Schema(e.to_string()))
            })
        }
        Plan::Union(cs) => {
            let mut results = cs.iter().map(|c| execute(c, source));
            let first = results
                .next()
                .ok_or_else(|| ExecError::Malformed("empty Union child list".into()))??;
            results.try_fold(first, |acc, r| {
                union(&acc, &r?).map_err(|e| ExecError::Schema(e.to_string()))
            })
        }
        Plan::Choice(_) => Err(ExecError::Unresolved),
    }
}

/// Executes a plan and reports the transfer metrics it caused (meter delta).
pub fn execute_measured(plan: &Plan, source: &Source) -> Result<(Relation, Meter), ExecError> {
    let before = source.meter();
    let result = execute(plan, source)?;
    Ok((result, source.meter().since(&before)))
}

/// Retry/backoff policy for the streaming engine's per-round-trip retries
/// ([`Retry`](crate::exec_stream::Retry)).
///
/// Every quantity is in virtual **ticks** — no wall-clock enters any
/// decision, so a fixed `jitter_seed` makes the whole retry schedule
/// deterministic and replayable (see DESIGN.md, "Fault model & resilience").
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Retries allowed per source query (total attempts = `max_retries + 1`).
    pub max_retries: u32,
    /// First backoff, in ticks; doubles per retry (exponential).
    pub base_backoff_ticks: u64,
    /// Backoff ceiling, in ticks.
    pub max_backoff_ticks: u64,
    /// Seed of the deterministic jitter stream.
    pub jitter_seed: u64,
    /// Optional budget of virtual ticks for one run (simulated source
    /// latency + backoff). `None` = unbounded.
    pub deadline_ticks: Option<u64>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff_ticks: 4,
            max_backoff_ticks: 64,
            jitter_seed: 0,
            deadline_ticks: None,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `retry` (0-based), jitter included:
    /// `min(base · 2^retry, max)` plus a jittered fraction of up to half of
    /// that, drawn from `jitter` — "full jitter" halved, deterministic.
    pub(crate) fn backoff_ticks(&self, retry: u32, jitter: &mut StdRng) -> u64 {
        let mult = 1u64.checked_shl(retry).unwrap_or(u64::MAX);
        let exp = self.base_backoff_ticks.saturating_mul(mult).min(self.max_backoff_ticks);
        if exp <= 1 {
            return exp;
        }
        exp + jitter.random_range(0..exp / 2 + 1)
    }
}

/// Per-run retry state of the streaming engine.
pub(crate) struct ResilientCtx<'a> {
    pub(crate) policy: &'a RetryPolicy,
    pub(crate) jitter: StdRng,
    /// Ticks consumed by this run (source latency + backoff); checked
    /// against `policy.deadline_ticks`.
    pub(crate) ticks_used: u64,
    /// The run's counters, continued from where earlier segments left them.
    pub(crate) res: ResilienceMeter,
}

impl ResilientCtx<'_> {
    pub(crate) fn new(policy: &RetryPolicy, res: ResilienceMeter) -> ResilientCtx<'_> {
        ResilientCtx {
            policy,
            jitter: StdRng::seed_from_u64(policy.jitter_seed),
            ticks_used: 0,
            res,
        }
    }

    pub(crate) fn charge(&mut self, ticks: u64) -> Result<(), ExecError> {
        self.ticks_used += ticks;
        self.res.ticks += ticks;
        if let Some(budget) = self.policy.deadline_ticks {
            if self.ticks_used > budget {
                return Err(ExecError::Deadline { used: self.ticks_used, budget });
            }
        }
        Ok(())
    }

    pub(crate) fn note_fault(&mut self, e: &SourceError) {
        match e {
            SourceError::Transient { .. } => self.res.transients += 1,
            SourceError::Timeout { .. } => self.res.timeouts += 1,
            SourceError::RateLimited { .. } => self.res.rate_limited += 1,
            SourceError::Unavailable { .. } => self.res.outages += 1,
            SourceError::Unsupported { .. } | SourceError::Schema(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec_stream::{execute_stream_collect, Retry, StreamConfig, StreamRequest};
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
        Source::new(datagen::cars(3, 500), templates::car_dealer(), CostParams::default())
    }

    /// The engine's collecting run with per-round-trip retries under
    /// `policy`: the answer plus the transfer it caused. Counters land in
    /// `res` on success and failure alike.
    fn resilient(
        plan: &Plan,
        source: &Source,
        policy: &RetryPolicy,
        res: &mut ResilienceMeter,
    ) -> Result<(Relation, Meter), ExecError> {
        let cfg = StreamConfig::default();
        let retry = Some(Retry { policy, meter: res });
        let request = StreamRequest { retry, ..StreamRequest::new(&cfg) };
        let (rows, run) = execute_stream_collect(plan, source, request)?;
        Ok((rows, run.meter))
    }

    /// Oracle: evaluate the target query directly on the hidden relation.
    fn oracle(source: &Source, cond_text: &str, a: &[&str]) -> Relation {
        let c = parse_condition(cond_text).unwrap();
        let selected = select(source.relation(), Some(&c));
        project(&selected, a).unwrap()
    }

    #[test]
    fn nested_local_plan_matches_oracle() {
        let s = dealer();
        // Target: (make=BMW ^ price<40000) ^ (color=red _ color=black),
        // A = {model, year} — Example 3.1/4.1's feasible plan.
        let plan = Plan::local(
            cond("color = \"red\" _ color = \"black\""),
            attrs(["model", "year"]),
            Plan::source(cond("make = \"BMW\" ^ price < 40000"), attrs(["model", "year", "color"])),
        );
        let got = execute(&plan, &s).unwrap();
        let want = oracle(
            &s,
            "make = \"BMW\" ^ price < 40000 ^ (color = \"red\" _ color = \"black\")",
            &["model", "year"],
        );
        assert_eq!(got, want);
        assert!(!got.is_empty(), "test data should produce matches");
    }

    #[test]
    fn union_plan_matches_oracle() {
        let s = dealer();
        // model is unique per row in the generator, so projections stay lossless.
        let plan = Plan::union(vec![
            Plan::source(cond("make = \"BMW\" ^ price < 40000"), attrs(["model", "year"])),
            Plan::source(cond("make = \"Toyota\" ^ price < 20000"), attrs(["model", "year"])),
        ]);
        let got = execute(&plan, &s).unwrap();
        let want = oracle(
            &s,
            "(make = \"BMW\" ^ price < 40000) _ (make = \"Toyota\" ^ price < 20000)",
            &["model", "year"],
        );
        assert_eq!(got, want);
    }

    #[test]
    fn intersect_plan_with_identifying_projection() {
        let s = dealer();
        // `model` identifies rows in this generator, so ∩ on projections is
        // exact here.
        let plan = Plan::intersect(vec![
            Plan::source(cond("make = \"BMW\" ^ price < 60000"), attrs(["model"])),
            Plan::source(cond("make = \"BMW\" ^ color = \"red\""), attrs(["model"])),
        ]);
        let got = execute(&plan, &s).unwrap();
        let want = oracle(&s, "make = \"BMW\" ^ price < 60000 ^ color = \"red\"", &["model"]);
        assert_eq!(got, want);
    }

    #[test]
    fn executor_fixes_source_query_order() {
        let s = dealer();
        // Planning-view order (price first) — gate would reject it raw.
        let plan = Plan::source(cond("price < 40000 ^ make = \"BMW\""), attrs(["model"]));
        let got = execute(&plan, &s).unwrap();
        assert!(!got.is_empty());
        assert_eq!(s.meter().rejected, 0, "admission avoided a gate rejection");
    }

    #[test]
    fn infeasible_source_query_errors() {
        let s = dealer();
        let plan = Plan::source(cond("year = 1995"), attrs(["model"]));
        assert!(matches!(execute(&plan, &s), Err(ExecError::Source(_))));
    }

    #[test]
    fn unresolved_choice_errors() {
        let s = dealer();
        let plan = Plan::Choice(vec![
            Plan::source(cond("make = \"BMW\" ^ price < 40000"), attrs(["model"])),
            Plan::source(cond("make = \"BMW\" ^ color = \"red\""), attrs(["model"])),
        ]);
        assert_eq!(execute(&plan, &s), Err(ExecError::Unresolved));
    }

    #[test]
    fn measured_execution_reports_transfer() {
        let s = dealer();
        let plan = Plan::union(vec![
            Plan::source(cond("make = \"BMW\" ^ price < 40000"), attrs(["model"])),
            Plan::source(cond("make = \"Toyota\" ^ price < 20000"), attrs(["model"])),
        ]);
        let (result, meter) = execute_measured(&plan, &s).unwrap();
        assert_eq!(meter.queries, 2);
        assert!(meter.tuples_shipped >= result.len() as u64);
        // A second run doubles the cumulative meter but the delta matches.
        let (_, meter2) = execute_measured(&plan, &s).unwrap();
        assert_eq!(meter, meter2);
    }

    #[test]
    fn empty_intersect_and_union_are_malformed_not_panics() {
        let s = dealer();
        for plan in [Plan::Intersect(vec![]), Plan::Union(vec![])] {
            match execute(&plan, &s) {
                Err(ExecError::Malformed(msg)) => assert!(msg.contains("empty"), "{msg}"),
                other => panic!("expected Malformed, got {other:?}"),
            }
            let mut res = ResilienceMeter::default();
            assert!(matches!(
                resilient(&plan, &s, &RetryPolicy::default(), &mut res),
                Err(ExecError::Malformed(_))
            ));
        }
    }

    fn faulty_dealer(profile: csqp_source::FaultProfile) -> Source {
        Source::new(datagen::cars(3, 500), templates::car_dealer(), CostParams::default())
            .with_fault_profile(profile)
    }

    #[test]
    fn resilient_execution_rides_out_transients() {
        use csqp_source::FaultProfile;
        // Every other attempt fails: with retries the plan always lands.
        let s = faulty_dealer(FaultProfile::new(21).with_transient(0.5));
        let plan = Plan::union(vec![
            Plan::source(cond("make = \"BMW\" ^ price < 40000"), attrs(["model"])),
            Plan::source(cond("make = \"Toyota\" ^ price < 20000"), attrs(["model"])),
        ]);
        let policy = RetryPolicy { max_retries: 16, ..Default::default() };
        let mut res = ResilienceMeter::default();
        let (rows, meter) = resilient(&plan, &s, &policy, &mut res).unwrap();
        let want = oracle(
            &s,
            "(make = \"BMW\" ^ price < 40000) _ (make = \"Toyota\" ^ price < 20000)",
            &["model"],
        );
        assert_eq!(rows, want, "answer is exact despite faults");
        assert_eq!(meter.queries, 2, "exactly two source queries succeeded");
        assert_eq!(res.attempts, 2 + res.retries, "attempts = successes + retries");
        assert_eq!(res.transients, res.retries, "every retry was caused by a transient");
    }

    #[test]
    fn retries_exhaust_within_policy_bounds() {
        use csqp_source::FaultProfile;
        let s = faulty_dealer(FaultProfile::new(0).with_transient(1.0));
        let plan = Plan::source(cond("make = \"BMW\" ^ price < 40000"), attrs(["model"]));
        let policy = RetryPolicy { max_retries: 2, ..Default::default() };
        let mut res = ResilienceMeter::default();
        match resilient(&plan, &s, &policy, &mut res) {
            Err(ExecError::Exhausted { source, attempts, last }) => {
                assert_eq!(source, "car_dealer");
                assert_eq!(attempts, 3, "1 initial + 2 retries");
                assert!(last.is_retryable());
            }
            other => panic!("expected Exhausted, got {other:?}"),
        }
        assert_eq!(res.attempts, 3);
        assert_eq!(res.retries, 2);
        assert!(res.ticks > 0, "backoff and latency were charged");
    }

    #[test]
    fn capability_rejection_fails_fast_without_retry() {
        use csqp_source::FaultProfile;
        // Reliable profile attached (so the fault gate is live) but the
        // query is unsupported: refused at admission, before any attempt,
        // and never retried.
        let s = faulty_dealer(FaultProfile::new(9));
        let plan = Plan::source(cond("year = 1995"), attrs(["model"]));
        let mut res = ResilienceMeter::default();
        match resilient(&plan, &s, &RetryPolicy::default(), &mut res) {
            Err(ExecError::Source(SourceError::Unsupported { .. })) => {}
            other => panic!("expected fail-fast gate rejection, got {other:?}"),
        }
        assert_eq!(res.attempts, 0);
        assert_eq!(res.retries, 0);
        assert_eq!(s.meter(), Meter::default(), "the source never saw it");
    }

    #[test]
    fn deadline_budget_stops_the_run() {
        use csqp_source::FaultProfile;
        // Timeouts burn 50 ticks each; a 60-tick budget dies on the second.
        let s = faulty_dealer(FaultProfile::new(2).with_timeout(1.0, 50));
        let plan = Plan::source(cond("make = \"BMW\" ^ price < 40000"), attrs(["model"]));
        let policy =
            RetryPolicy { max_retries: 10, deadline_ticks: Some(60), ..Default::default() };
        let mut res = ResilienceMeter::default();
        match resilient(&plan, &s, &policy, &mut res) {
            Err(ExecError::Deadline { used, budget }) => {
                assert_eq!(budget, 60);
                assert!(used > 60, "budget was exceeded, not merely met: {used}");
            }
            other => panic!("expected Deadline, got {other:?}"),
        }
        assert!(res.attempts <= 2, "the budget cut retries short: {res:?}");
    }

    #[test]
    fn resilient_matches_plain_execution_without_faults() {
        let s = dealer();
        let plan = Plan::local(
            cond("color = \"red\" _ color = \"black\""),
            attrs(["model", "year"]),
            Plan::source(cond("make = \"BMW\" ^ price < 40000"), attrs(["model", "year", "color"])),
        );
        let plain = execute(&plan, &s).unwrap();
        let mut res = ResilienceMeter::default();
        let (rows, meter) = resilient(&plan, &s, &RetryPolicy::default(), &mut res).unwrap();
        assert_eq!(rows, plain);
        assert_eq!(meter.queries, 1);
        assert_eq!(res.retries, 0);
        assert_eq!(res.ticks, 0, "no fault profile: no simulated latency");
        assert_eq!(res.faults(), 0);
    }

    #[test]
    fn retry_schedule_is_deterministic_per_seed() {
        use csqp_source::FaultProfile;
        let run = |seed: u64| -> (Result<(Relation, Meter), ExecError>, ResilienceMeter) {
            let s = faulty_dealer(FaultProfile::storm(77, 0.6));
            let plan = Plan::source(cond("make = \"BMW\" ^ price < 40000"), attrs(["model"]));
            let policy = RetryPolicy { jitter_seed: seed, max_retries: 8, ..Default::default() };
            let mut res = ResilienceMeter::default();
            (resilient(&plan, &s, &policy, &mut res), res)
        };
        let (a, ra) = run(1);
        let (b, rb) = run(1);
        assert_eq!(a.is_ok(), b.is_ok());
        assert_eq!(ra, rb, "same jitter seed, same schedule and metrics");
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RetryPolicy {
            base_backoff_ticks: 4,
            max_backoff_ticks: 64,
            jitter_seed: 3,
            ..Default::default()
        };
        let mut jitter = StdRng::seed_from_u64(p.jitter_seed);
        for retry in 0..12u32 {
            let exp = (4u64 << retry.min(6)).min(64);
            let got = p.backoff_ticks(retry, &mut jitter);
            assert!(got >= exp && got <= exp + exp / 2, "retry {retry}: {got} vs base {exp}");
        }
    }

    /// The documented intersection anomaly: a lossy projection makes an
    /// ∩-combined plan a strict superset of the target answer.
    #[test]
    fn intersection_anomaly_demonstrated() {
        use csqp_expr::{Value, ValueType};
        use csqp_relation::{Relation, Schema};
        // Two rows share a=1 but differ in b.
        let schema =
            Schema::new("t", vec![("a", ValueType::Int), ("b", ValueType::Int)], &[]).unwrap();
        let r = Relation::from_rows(
            schema,
            vec![vec![Value::Int(1), Value::Int(2)], vec![Value::Int(1), Value::Int(3)]],
        );
        let desc = templates::full_relational("t", &[("a", ValueType::Int), ("b", ValueType::Int)]);
        let s = Source::new(r, desc, CostParams::default());
        let plan = Plan::intersect(vec![
            Plan::source(cond("b = 2"), attrs(["a"])),
            Plan::source(cond("b = 3"), attrs(["a"])),
        ]);
        let got = execute(&plan, &s).unwrap();
        // True answer of SP(b=2 ^ b=3, {a}) is empty; the projection-based
        // intersection reports one row. This is the paper's semantics; the
        // planners avoid it by always projecting identifying attributes in
        // the workloads.
        assert_eq!(got.len(), 1);
        let truth = oracle(&s, "b = 2 ^ b = 3", &["a"]);
        assert_eq!(truth.len(), 0);
    }
}
