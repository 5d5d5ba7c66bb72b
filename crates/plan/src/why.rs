//! `EXPLAIN WHY` — plan provenance rendering.
//!
//! Replays a flight-recorder [`QueryRecord`] into a human-readable report:
//! the decision trail that produced the winning plan, grouped by rewritten
//! CT, plus the eliminating rule for every losing candidate — `[PR1]`,
//! `[PR2]`, `[PR3]`, `[MCSC]` prunes as they happened inside IPG, and
//! `[cost]` losses from the final candidate ranking. Every line is a
//! deterministic function of the recorded events, so the report is safe to
//! golden-test byte-for-byte whether or not planning fanned out.

use csqp_obs::{PlanEvent, QueryRecord};
use std::fmt::Write as _;

/// Notice rendered when no flight record is available: the recorder was
/// disarmed ([`FlightRecorder::off`](csqp_obs::FlightRecorder)) or has
/// already evicted the record.
const DISABLED_NOTICE: &str =
    "EXPLAIN WHY: flight recorder disabled — no decision trail was captured.\n\
Arm a recorder (Mediator::with_flight_recorder) and re-plan the query to\n\
record one.\n";

/// Renders the `EXPLAIN WHY` report for one recorded query, or the
/// recorder-disabled notice when `record` is `None`.
pub fn explain_why(record: Option<&QueryRecord>) -> String {
    let Some(rec) = record else {
        return DISABLED_NOTICE.to_string();
    };
    let mut out = String::new();
    let _ = writeln!(out, "EXPLAIN WHY — flight #{}", rec.id);
    let _ = writeln!(out, "query:  {}", rec.query);
    let _ = writeln!(out, "scheme: {}", rec.scheme);
    let _ = writeln!(out, "events: {}", rec.events.len());

    // Split the trail: the first Winner event separates planning-time
    // decisions from runtime (failover/breaker) annotations appended later.
    let winner_idx = rec
        .events
        .iter()
        .position(|e| matches!(e, PlanEvent::Winner { .. }))
        .unwrap_or(rec.events.len());

    let mut trail: Vec<String> = Vec::new();
    let mut losers: Vec<String> = Vec::new();
    let mut runtime: Vec<String> = Vec::new();
    let mut winner: Option<String> = None;
    let mut check_cache: Option<String> = None;
    let mut index_prune: Option<String> = None;
    let mut in_ct = false;
    let (mut admitted, mut memo, mut pr1, mut pr2, mut pr3, mut mcsc) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);

    for (i, e) in rec.events.iter().enumerate() {
        match e {
            PlanEvent::Winner { .. } => {
                if winner.is_none() {
                    winner = Some(e.to_string());
                }
            }
            PlanEvent::Eliminated { .. } => losers.push(format!("  {e}")),
            PlanEvent::Breaker { .. } | PlanEvent::Replan { .. } => runtime.push(format!("  {e}")),
            PlanEvent::CheckCacheStats { .. } => check_cache = Some(e.to_string()),
            PlanEvent::IndexPrune { .. } => index_prune = Some(e.to_string()),
            PlanEvent::Note { .. } if i > winner_idx => runtime.push(format!("  {e}")),
            PlanEvent::CtBegin { .. } => {
                in_ct = true;
                trail.push(format!("  {e}"));
            }
            _ => {
                match e {
                    PlanEvent::Admitted { .. } => admitted += 1,
                    PlanEvent::MemoHit { .. } => memo += 1,
                    PlanEvent::Pr1ShortCircuit { .. } | PlanEvent::Pr1Skip { .. } => pr1 += 1,
                    PlanEvent::Pr2Evicted { .. } => pr2 += 1,
                    PlanEvent::Pr3Dominated { .. } | PlanEvent::Pr3Skip { .. } => pr3 += 1,
                    PlanEvent::McscCover { .. } | PlanEvent::McscNoCover { .. } => mcsc += 1,
                    _ => {}
                }
                let indent = if in_ct { "    " } else { "  " };
                trail.push(format!("{indent}{e}"));
            }
        }
    }

    out.push_str("\nwinner\n");
    match &winner {
        Some(w) => {
            let _ = writeln!(out, "  {w}");
        }
        None => out.push_str("  none recorded — planning failed or the trail was truncated\n"),
    }

    if !trail.is_empty() {
        out.push_str("\ndecision trail\n");
        for line in &trail {
            out.push_str(line);
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "  summary: {admitted} sub-plans admitted, {memo} memo hits, \
             {pr1} PR1 prunes, {pr2} PR2 evictions, {pr3} PR3 dominations, \
             {mcsc} MCSC combinations"
        );
    }

    if let Some(ip) = &index_prune {
        let _ = writeln!(out, "\n{ip}");
    }

    if let Some(cc) = &check_cache {
        let _ = writeln!(out, "\n{cc}");
    }

    out.push_str("\nlosing candidates\n");
    if losers.is_empty() {
        out.push_str(
            "  none — every enumerated candidate either won or was pruned in the trail above\n",
        );
    } else {
        for line in &losers {
            out.push_str(line);
            out.push('\n');
        }
    }

    if !runtime.is_empty() {
        out.push_str("\nruntime\n");
        for line in &runtime {
            out.push_str(line);
            out.push('\n');
        }
    }

    if rec.dropped > 0 {
        let _ = writeln!(
            out,
            "\n({} events dropped: per-record cap reached — later decisions missing)",
            rec.dropped
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_notice_on_none() {
        let r = explain_why(None);
        assert!(r.contains("flight recorder disabled"));
    }

    #[test]
    fn sections_render() {
        let rec = QueryRecord {
            id: 7,
            query: "SP(a = 1, {a}, R)".into(),
            scheme: "GenCompact".into(),
            events: vec![
                PlanEvent::CtBegin { index: 0, cond: "a = 1".into() },
                PlanEvent::Admitted { mask: 0b1, cost: 2.0, pure: true, plan: "SQ(a = 1)".into() },
                PlanEvent::Pr2Evicted { mask: 0b1, kept_cost: 2.0, evicted_cost: 3.0 },
                PlanEvent::CheckCacheStats { calls: 4, hits: 3, misses: 1 },
                PlanEvent::Winner { cost: 2.0, plan: "SQ(a = 1)".into() },
                PlanEvent::Eliminated {
                    rule: "cost",
                    cost: 3.0,
                    plan: "SQ(a = 1) loser".into(),
                    detail: "est cost 3.00 vs winner 2.00 (Δ +1.00)".into(),
                },
                PlanEvent::Breaker { member: "m1".into(), transition: "opened" },
            ],
            dropped: 0,
        };
        let r = explain_why(Some(&rec));
        assert!(r.contains("EXPLAIN WHY — flight #7"));
        assert!(r.contains("scheme: GenCompact"));
        assert!(r.contains("winner (cost 2.00)"));
        assert!(r.contains("[PR2]"));
        assert!(r.contains("[cost] eliminated"));
        assert!(r.contains("check cache: 4 calls"));
        assert!(r.contains("[breaker] member m1: opened"), "{r}");
        assert!(r.contains("1 PR2 evictions"));
    }

    #[test]
    fn replan_events_render_in_runtime_section() {
        let rec = QueryRecord {
            id: 9,
            query: "SP(a = 1, {a}, R)".into(),
            scheme: "GenCompact".into(),
            events: vec![
                PlanEvent::Winner { cost: 2.0, plan: "SQ(a = 1)".into() },
                PlanEvent::Replan {
                    trigger: "drift",
                    detail: "SP(a = 1, {a}, R) under-estimated".into(),
                    batch: 3,
                    emitted: 192,
                    old_plan: "SQ(a = 1)".into(),
                    new_plan: "SQ(b = 2)".into(),
                },
            ],
            dropped: 0,
        };
        let r = explain_why(Some(&rec));
        assert!(r.contains("\nruntime\n"), "{r}");
        assert!(r.contains("[replan] drift at batch 3 (192 rows emitted)"), "{r}");
        assert!(r.contains("splice SQ(a = 1) -> SQ(b = 2)"), "{r}");
    }

    #[test]
    fn dropped_events_are_noted() {
        let rec = QueryRecord {
            id: 1,
            query: "q".into(),
            scheme: "GenCompact".into(),
            events: vec![PlanEvent::Winner { cost: 1.0, plan: "p".into() }],
            dropped: 12,
        };
        let r = explain_why(Some(&rec));
        assert!(r.contains("(12 events dropped"));
    }

    #[test]
    fn no_winner_is_explicit() {
        let rec = QueryRecord {
            id: 2,
            query: "q".into(),
            scheme: "GenModular".into(),
            events: vec![PlanEvent::Note { text: "no feasible plan in any rewriting".into() }],
            dropped: 0,
        };
        let r = explain_why(Some(&rec));
        assert!(r.contains("none recorded"));
    }
}
