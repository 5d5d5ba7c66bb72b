//! `compare <a.json> <b.json>`: applies each end-to-end metric's bound to
//! two `results.json` files — `a` the baseline, `b` the candidate — one row
//! per workload × metric.

use crate::catalog::{Better, END_TO_END};
use crate::json::Json;
use crate::stats::Estimate;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The candidate's value is no worse than the baseline's by more than
    /// the bound, and both values are steady enough to say so.
    Ok,
    /// Worse by more than the bound. Noise never excuses this: a pair that
    /// reads as a regression fails the comparison however wide its rounds
    /// scatter.
    Breach,
    /// Within the bound, but a side's own noise — [`Estimate::noise`], which
    /// describes the value compared here and not some other statistic of
    /// the rounds — is wider than the bound, so the pair cannot show
    /// "unchanged". Unless every round of the candidate reads better than
    /// every round of the baseline, which is [`Verdict::Ok`].
    Unresolved,
}

/// The verdict on one pair and the share by which `b` is worse than `a`.
pub fn judge(better: Better, bound: f64, a: &Estimate, b: &Estimate) -> (Verdict, f64) {
    let worse = better.worsening(a.value, b.value);
    if worse > bound {
        return (Verdict::Breach, worse);
    }
    let every_round_better = !a.values.is_empty()
        && !b.values.is_empty()
        && a.values.iter().all(|&x| b.values.iter().all(|&y| better.worsening(x, y) < 0.0));
    let noisy = a.noise > bound || b.noise > bound;
    (if noisy && !every_round_better { Verdict::Unresolved } else { Verdict::Ok }, worse)
}

/// Compares two parsed results documents. Returns the printed report, the
/// number of breaches and the unresolved pairs.
pub fn compare(a: &Json, b: &Json) -> Result<(String, usize, Vec<String>), String> {
    let workloads = |j: &Json| {
        j.get("workloads").and_then(Json::as_arr).map(<[Json]>::to_vec).ok_or("no workloads array")
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let columns = |side: &str| {
        let [value, q1, median, q3] =
            ["value", "q1", "median", "q3"].map(|c| format!("{side}.{c}"));
        format!("{value:>12} {q1:>12} {median:>12} {q3:>12}")
    };
    let mut out = format!(
        "{:<11} {:<22} {} | {} | {:>8} {:>6} {:>6}  verdict\n",
        "workload",
        "metric",
        columns("a"),
        columns("b"),
        "worse",
        "bound",
        "noise"
    );
    let (mut breaches, mut unresolved) = (0, Vec::new());
    for ja in &wa {
        let name = ja.get("workload").and_then(Json::as_str).ok_or("workload without a name")?;
        let Some(jb) = wb.iter().find(|w| w.get("workload").and_then(Json::as_str) == Some(name))
        else {
            out.push_str(&format!("{name:<11} missing from the second file\n"));
            breaches += 1;
            continue;
        };
        let failed = jb.get("failed").and_then(Json::as_f64).unwrap_or(f64::NAN);
        if failed != 0.0 {
            out.push_str(&format!(
                "{name:<11} {failed} requests failed in the second file: BREACH\n"
            ));
            breaches += 1;
        }
        for m in END_TO_END {
            let side = |j: &Json| {
                j.get("end_to_end").and_then(|e| e.get(m.name)).and_then(Estimate::from_json)
            };
            let (Some(sa), Some(sb)) = (side(ja), side(jb)) else {
                return Err(format!("{name}: {} is missing or malformed", m.name));
            };
            let (verdict, worse) = judge(m.better, m.bound, &sa, &sb);
            let label = match verdict {
                Verdict::Ok => "ok",
                Verdict::Breach => {
                    breaches += 1;
                    "BREACH"
                }
                Verdict::Unresolved => {
                    unresolved.push(format!("{name} {}", m.name));
                    "unresolved"
                }
            };
            let cells = |e: &Estimate| {
                format!("{:>12.3} {:>12.3} {:>12.3} {:>12.3}", e.value, e.q1, e.median, e.q3)
            };
            out.push_str(&format!(
                "{name:<11} {:<22} {} | {} | {:>+7.1}% {:>5.0}% {:>5.1}%  {label}\n",
                m.name,
                cells(&sa),
                cells(&sb),
                100.0 * worse,
                100.0 * m.bound,
                100.0 * sa.noise.max(sb.noise)
            ));
        }
    }
    Ok((out, breaches, unresolved))
}

pub fn main(a: &str, b: &str) -> ExitCode {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|t| Json::parse(&t).map_err(|e| format!("{path}: {e}")))
    };
    let result = load(a).and_then(|ja| load(b).and_then(|jb| compare(&ja, &jb)));
    match result {
        Err(e) => {
            eprintln!("csqp-benchmark compare: {e}");
            ExitCode::from(2)
        }
        Ok((report, breaches, unresolved)) => {
            print!("{report}");
            println!(
                "{breaches} breached, {} unresolved{}",
                unresolved.len(),
                if unresolved.is_empty() {
                    String::new()
                } else {
                    format!(": {}", unresolved.join(", "))
                }
            );
            if breaches > 0 {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(values: &[f64]) -> Estimate {
        Estimate::median_of(values)
    }

    #[test]
    fn bound_is_applied_in_the_metrics_direction() {
        let steady = |x: f64| side(&[x * 0.99, x, x, x, x * 1.01]);
        // Throughput: lower is worse.
        assert_eq!(judge(Better::Higher, 0.10, &steady(100.0), &steady(95.0)).0, Verdict::Ok);
        assert_eq!(judge(Better::Higher, 0.10, &steady(100.0), &steady(85.0)).0, Verdict::Breach);
        assert_eq!(judge(Better::Higher, 0.10, &steady(100.0), &steady(150.0)).0, Verdict::Ok);
        // Latency: higher is worse.
        let (v, worse) = judge(Better::Lower, 0.10, &steady(100.0), &steady(115.0));
        assert_eq!(v, Verdict::Breach);
        assert!((worse - 0.15).abs() < 1e-9);
        assert_eq!(judge(Better::Lower, 0.10, &steady(100.0), &steady(60.0)).0, Verdict::Ok);
    }

    #[test]
    fn noise_makes_a_pair_unresolved_but_never_excuses_a_regression() {
        // Medians whose odd and even rounds disagree by far more than 10 %.
        let noisy = side(&[70.0, 130.0, 85.0, 115.0, 100.0, 145.0]);
        let steady = side(&[99.0, 100.0, 100.0, 100.0, 101.0]);
        assert!(noisy.noise > 0.10 && steady.noise < 0.10);
        // Within the bound, but not steady enough to call it unchanged.
        assert_eq!(judge(Better::Higher, 0.10, &noisy, &steady).0, Verdict::Unresolved);
        assert_eq!(judge(Better::Higher, 0.10, &steady, &noisy).0, Verdict::Unresolved);
        // … unless every round of the candidate beats every round of the
        // baseline.
        let far_better = side(&[150.0, 260.0, 170.0, 230.0, 200.0, 290.0]);
        assert_eq!(judge(Better::Higher, 0.10, &noisy, &far_better).0, Verdict::Ok);
        // Worse than the bound is a breach however noisy either side is.
        assert_eq!(judge(Better::Lower, 0.10, &noisy, &far_better).0, Verdict::Breach);
        let worse = side(&[40.0, 100.0, 55.0, 85.0, 70.0, 115.0]);
        assert_eq!(judge(Better::Higher, 0.10, &noisy, &worse).0, Verdict::Breach);
    }

    #[test]
    fn the_noise_judged_is_that_of_the_value_compared() {
        // Best rounds 100 and 99 agree; the rounds below them scatter widely,
        // which says nothing about how well the best round repeats.
        let a = Estimate::best_of(&[100.0, 99.0, 60.0, 75.0, 98.0, 55.0, 70.0, 97.0], true);
        let b = Estimate::best_of(&[97.0, 58.0, 99.0, 96.0, 62.0, 71.0, 95.0, 66.0], true);
        assert!((a.q3 - a.q1) / a.median > 0.25 && a.noise < 0.02);
        assert_eq!(judge(Better::Higher, 0.10, &a, &b), (Verdict::Ok, 0.01));
    }

    fn results(qps: &[f64], failed: f64) -> Json {
        let metric = |values: &[f64]| Estimate::median_of(values).to_json();
        Json::obj([(
            "workloads",
            Json::Arr(vec![Json::obj([
                ("workload", Json::str("serve_hot")),
                ("failed", Json::Num(failed)),
                (
                    "end_to_end",
                    Json::obj(END_TO_END.iter().map(|m| {
                        (m.name, if m.name == "qps" { metric(qps) } else { metric(&[1.0]) })
                    })),
                ),
            ])]),
        )])
    }

    #[test]
    fn report_has_a_row_per_metric_and_counts_breaches() {
        let base = results(&[100.0, 101.0, 99.0, 100.0], 0.0);
        let (report, breaches, unresolved) = compare(&base, &base).unwrap();
        assert_eq!((breaches, unresolved.len()), (0, 0));
        assert_eq!(report.lines().count(), 1 + END_TO_END.len());
        let slower = results(&[50.0, 50.5, 49.5, 50.0], 0.0);
        let (report, breaches, _) = compare(&base, &slower).unwrap();
        assert_eq!(breaches, 1);
        assert!(report.lines().any(|l| l.contains("qps") && l.ends_with("BREACH")));
        // Failed requests in the candidate are a breach whatever the speed.
        assert_eq!(compare(&base, &results(&[100.0, 101.0, 99.0, 100.0], 3.0)).unwrap().1, 1);
        // A file without the metrics is an error, not a pass.
        assert!(compare(
            &base,
            &Json::obj([(
                "workloads",
                Json::Arr(vec![Json::obj([("workload", Json::str("serve_hot"))])])
            )])
        )
        .is_err());
    }
}
