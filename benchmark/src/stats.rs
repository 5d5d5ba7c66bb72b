//! The arithmetic every reported number goes through: percentiles with the
//! "ten samples beyond" rule, medians and quartiles of per-round values, the
//! estimate a run reports with its own noise, and self time from a span
//! forest.

use crate::json::Json;

/// Nearest-rank percentile of an ascending slice (`q` in 0..=1).
///
/// # Panics
/// Panics on an empty slice: every caller reports a count beside the value
/// and must not ask for a percentile of nothing.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail percentiles a sample may be asked for, lowest first, in
/// thousandths (integers, so "ten beyond" is decided exactly).
const TAILS: [usize; 5] = [500, 900, 950, 990, 999];

/// The highest percentile of [`TAILS`] that has at least ten samples beyond
/// it in a sample of `n` — a p99 of 300 samples is three observations, not a
/// percentile. `None` below 20 samples (not even the median qualifies).
pub fn supported_tail(n: usize) -> Option<f64> {
    TAILS.iter().copied().rfind(|q| n * (1000 - q) >= 10_000).map(|q| q as f64 / 1000.0)
}

/// Median as Python's `statistics.median` computes it.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) computes them — the rule the pipeline
/// that judges this benchmark uses, so spreads printed here can be compared
/// with its verdict. One value has no spread: both quartiles equal it.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// How one reported number is taken from a sample of per-round values.
type Pick = fn(&[f64]) -> f64;

/// The highest value of a sample (the best round of a throughput).
fn highest(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::max).expect("at least one value")
}

/// The lowest value of a sample (the best round of a latency).
fn lowest(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).expect("at least one value")
}

/// A metric over the rounds of one run: the reported `value`, how far that
/// estimator moves on the run's own data (`noise`), and beside them the
/// median, the quartiles and the per-round values.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// The number the run reports for the metric.
    pub value: f64,
    /// How `value` was taken from `values`: `best_round` or `median`.
    pub estimator: &'static str,
    /// The distance between the same estimator's readings of the odd and of
    /// the even rounds — two interleaved half-runs that saw the same phases
    /// of the machine — as a share of `value`. It describes the number that
    /// is reported, whichever estimator took it; 0 for a single reading.
    pub noise: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// The per-round values, in round order.
    pub values: Vec<f64>,
}

impl Estimate {
    fn new(estimator: &'static str, pick: Pick, values: &[f64]) -> Estimate {
        let value = pick(values);
        let half = |k: usize| pick(&values.iter().skip(k).step_by(2).copied().collect::<Vec<_>>());
        let noise = if values.len() < 2 || value == 0.0 {
            0.0
        } else {
            (half(0) - half(1)).abs() / value.abs()
        };
        let (q1, q3) = quartiles(values);
        Estimate {
            value,
            estimator,
            noise,
            median: median(values),
            q1,
            q3,
            values: values.to_vec(),
        }
    }

    /// The median of the values (set-up times, single readings).
    pub fn median_of(values: &[f64]) -> Estimate {
        Estimate::new("median", median, values)
    }

    /// The best round: the highest value when higher is better, else the
    /// lowest. The machine's disturbances are one-sided — a neighbour can
    /// only slow a round down — so the best round is the one that measured
    /// the program most and the machine least (see README, "The estimator").
    pub fn best_of(values: &[f64], higher_is_better: bool) -> Estimate {
        Estimate::new("best_round", if higher_is_better { highest } else { lowest }, values)
    }

    /// Reads back what [`Estimate::to_json`] wrote (`compare` does).
    pub fn from_json(j: &Json) -> Option<Estimate> {
        Some(Estimate {
            value: j.get("value")?.as_f64()?,
            estimator: "read",
            noise: j.get("noise")?.as_f64()?,
            median: j.get("median")?.as_f64()?,
            q1: j.get("q1")?.as_f64()?,
            q3: j.get("q3")?.as_f64()?,
            values: j.get("values")?.as_arr()?.iter().filter_map(Json::as_f64).collect(),
        })
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("value", Json::Num(self.value)),
            ("estimator", Json::str(self.estimator)),
            ("noise", Json::Num(self.noise)),
            ("median", Json::Num(self.median)),
            ("q1", Json::Num(self.q1)),
            ("q3", Json::Num(self.q3)),
            ("n", Json::Num(self.values.len() as f64)),
            ("values", Json::Arr(self.values.iter().map(|v| Json::Num(*v)).collect())),
        ])
    }
}

/// One span recorded by the benchmark around a call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The request the span belongs to.
    pub req: u64,
    /// Unique within the trace.
    pub id: u64,
    /// The span that caused this one (`None` for a request's root).
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("req", Json::Num(self.req as f64)),
            ("id", Json::Num(self.id as f64)),
            ("parent", self.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
            ("name", Json::Str(self.name.to_string())),
            ("start_ns", Json::Num(self.start_ns as f64)),
            ("end_ns", Json::Num(self.end_ns as f64)),
        ])
    }
}

/// Self time per span name over a forest: a span's duration minus the part
/// of its interval its direct children cover (children are clipped to the
/// parent and overlapping children are counted once). Returned in first-seen
/// name order, in nanoseconds.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> = Default::default();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: Vec<(&'static str, u64)> = Vec::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
        }
        let own = (s.end_ns - s.start_ns).saturating_sub(covered);
        match out.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, t)) => *t += own,
            None => out.push((s.name, own)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(0.50));
        assert_eq!(supported_tail(99), Some(0.50));
        assert_eq!(supported_tail(100), Some(0.90));
        assert_eq!(supported_tail(200), Some(0.95));
        assert_eq!(supported_tail(999), Some(0.95));
        assert_eq!(supported_tail(1000), Some(0.99));
        assert_eq!(supported_tail(10_000), Some(0.999));
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        // statistics.median / statistics.quantiles(v, n=4) on the same lists.
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]), (2.25, 6.75));
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
        let e = Estimate::median_of(&v);
        assert_eq!((e.value, e.median, e.values.len()), (5.5, 5.5, 10));
        // The best round is the top one for throughput, the bottom one for
        // latency; the quartiles beside it are those of all rounds.
        let (up, down) = (Estimate::best_of(&v, true), Estimate::best_of(&v, false));
        assert_eq!((up.value, down.value), (10.0, 1.0));
        assert_eq!((up.median, up.q1, up.q3), (5.5, 2.75, 8.25));
    }

    #[test]
    fn noise_is_the_estimators_own_disagreement_between_half_runs() {
        // Rounds 1 3 5 … read 1 3 5 7 9, rounds 2 4 6 … read 2 4 6 8 10.
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        // Best of the odd rounds 9, of the even rounds 10: a tenth of 10.
        assert!((Estimate::best_of(&v, true).noise - 0.1).abs() < 1e-12);
        // Lowest 1 against 2: as large as the value itself.
        assert!((Estimate::best_of(&v, false).noise - 1.0).abs() < 1e-12);
        // Medians 5 and 6 around 5.5.
        assert!((Estimate::median_of(&v).noise - 1.0 / 5.5).abs() < 1e-12);
        // One lucky round nobody else comes near makes a best round noisy
        // and leaves a median alone.
        let lucky = [100.0, 101.0, 99.0, 160.0, 100.0, 100.0];
        assert!(Estimate::best_of(&lucky, true).noise > 0.3);
        assert!(Estimate::median_of(&lucky).noise < 0.02);
        // A single reading has nothing to disagree with.
        assert_eq!(Estimate::median_of(&[7.0]).noise, 0.0);
        let e = Estimate::best_of(&v, true);
        assert_eq!(
            Estimate::from_json(&e.to_json()).map(|r| (r.value, r.noise)),
            Some((10.0, 0.1))
        );
    }

    fn span(id: u64, parent: Option<u64>, name: &'static str, a: u64, b: u64) -> Span {
        Span { req: 0, id, parent, name, start_ns: a, end_ns: b }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(1, None, "root", 0, 100),
            span(2, Some(1), "a", 10, 40),
            // Overlaps `a` by 10 and sticks out of the parent by 20.
            span(3, Some(1), "b", 30, 120),
            span(4, Some(2), "leaf", 15, 25),
            // A second request's tree adds to the same names.
            span(5, None, "root", 200, 210),
        ];
        let t = self_times(&spans);
        // root: 100 - (30 + 60 clipped and de-overlapped) + 10 from req two.
        assert_eq!(t, vec![("root", 20), ("a", 20), ("b", 90), ("leaf", 10)]);
    }
}
