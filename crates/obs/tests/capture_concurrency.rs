//! Query-profile capture on a shared `Obs` under concurrency: a capture
//! holds exactly the metric writes its own thread made while it was open,
//! and a capture dropped without `finish` (serve's error path) leaves
//! nothing behind. The registry's telemetry windows, cut while other
//! threads write, lose and double-count nothing.

use csqp_obs::{MetricsSnapshot, Obs, ProfileCapture, QueryProfile};

/// Two threads capture on one shared `Obs`, their writes interleaved
/// round by round through a barrier: each capture holds exactly its own
/// counters, gauges and histograms — never the neighbour's, and never
/// what was recorded before it opened.
#[test]
fn concurrent_captures_see_only_their_own_writes() {
    let obs = Obs::new();
    obs.metrics.add("shared", 100);
    let step = std::sync::Barrier::new(2);
    let profiles: Vec<QueryProfile> = std::thread::scope(|scope| {
        let workers: Vec<_> = [1u64, 2]
            .map(|t| {
                let (obs, step) = (&obs, &step);
                scope.spawn(move || {
                    let capture = ProfileCapture::begin(obs);
                    for round in 0..4 {
                        step.wait();
                        obs.metrics.add("shared", t);
                        obs.metrics.inc(&format!("own.{t}"));
                        obs.metrics.observe("rows", 10 * t + round);
                        obs.metrics.gauge_set(&format!("gauge.{t}"), t as f64);
                        step.wait();
                    }
                    capture.finish(None)
                })
            })
            .into_iter()
            .collect();
        workers.into_iter().map(|w| w.join().expect("capture thread")).collect()
    });
    for (t, p) in [1u64, 2].into_iter().zip(&profiles) {
        let m = &p.metrics;
        let counters: Vec<(&str, u64)> = m.counters.iter().map(|(k, v)| (&**k, *v)).collect();
        assert_eq!(counters, [(&*format!("own.{t}"), 4), ("shared", 4 * t)]);
        let gauges: Vec<&String> = m.gauges.keys().collect();
        assert_eq!(gauges, [&format!("gauge.{t}")]);
        let h = &m.histograms["rows"];
        assert_eq!((h.count, h.sum, h.min, h.max), (4, 40 * t + 6, 10 * t, 10 * t + 3));
    }
    // The registry itself holds everyone's writes.
    let all = obs.metrics.snapshot();
    assert_eq!(all.counter("shared"), 112);
    assert_eq!(all.histograms["rows"].count, 8);
}

/// Serve's error path returns without `finish`: the dropped capture
/// must leave nothing in the next capture on the same thread.
#[test]
fn a_dropped_capture_leaves_nothing_behind() {
    for obs in [Obs::new(), Obs::off()] {
        {
            let _failed = ProfileCapture::begin(&obs);
            obs.metrics.inc("serve.errors");
            obs.metrics.observe("rows", 7);
        }
        obs.metrics.inc("between");
        let capture = ProfileCapture::begin(&obs);
        obs.metrics.inc("serve.queries");
        let m = capture.finish(None).metrics;
        if obs.enabled() {
            assert_eq!(m.counters.keys().collect::<Vec<_>>(), ["serve.queries"]);
            assert!(m.gauges.is_empty() && m.histograms.is_empty());
        } else {
            assert_eq!(m, MetricsSnapshot::default());
        }
    }
}

/// Four threads write while a fifth cuts the registry's telemetry window
/// over and over: the cut windows plus the still-open one add up exactly
/// to the registry's totals — every write lands in one window, once.
#[test]
fn cut_windows_partition_concurrent_writes() {
    let obs = Obs::new();
    let done = std::sync::atomic::AtomicUsize::new(0);
    let mut cuts: Vec<MetricsSnapshot> = std::thread::scope(|scope| {
        for t in 0..4u64 {
            let (obs, done) = (&obs, &done);
            scope.spawn(move || {
                for i in 0..2_000u64 {
                    obs.metrics.add("shared", t + 1);
                    obs.metrics.inc(&format!("own.{t}"));
                    obs.metrics.observe("rows", i % 300 + t);
                    obs.metrics.gauge_set("gauge", t as f64);
                }
                done.fetch_add(1, std::sync::atomic::Ordering::Release);
            });
        }
        let cutter = scope.spawn(|| {
            let mut cuts = Vec::new();
            while done.load(std::sync::atomic::Ordering::Acquire) < 4 {
                cuts.push(obs.metrics.cut_window());
            }
            cuts
        });
        cutter.join().expect("cutter thread")
    });
    cuts.push(obs.metrics.peek_window());
    let mut folded = MetricsSnapshot::default();
    for cut in &cuts {
        folded.merge(cut);
    }
    let totals = obs.metrics.snapshot();
    assert_eq!(folded.counters, totals.counters);
    assert_eq!(totals.counter("shared"), 2_000 * (1 + 2 + 3 + 4));
    let (f, t) = (&folded.histograms["rows"], &totals.histograms["rows"]);
    assert_eq!((f.count, f.sum, &f.buckets), (t.count, t.sum, &t.buckets));
    assert_eq!((f.min, f.max), (t.min, t.max), "extremes fold to the totals' too");
}
