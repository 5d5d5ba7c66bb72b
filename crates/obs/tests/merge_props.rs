//! Edge-case and algebraic-law tests for the metrics layer:
//!
//! * `bucket_index` / `bucket_bounds` at the boundary values (0, 1, every
//!   power of two, `u64::MAX`);
//! * `HistogramSnapshot::merge` and `MetricsSnapshot::merge` are
//!   **commutative** and **associative** — the laws the `--chaos` storm
//!   aggregation and federation roll-ups rely on when per-run snapshots
//!   merge in whatever order runs complete;
//! * a telemetry window cut from the registry (`cut_window`) holds what
//!   diffing the snapshots at its boundaries gives, on counters and on
//!   histogram count/sum/buckets.
//!
//! Snapshots under test are generated from seeded operation streams via the
//! proptest shim (deterministic, no shrinking).

use csqp_obs::metrics::{bucket_bounds, bucket_index, HISTOGRAM_BUCKETS};
use csqp_obs::{HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[test]
fn bucket_index_edge_cases() {
    // Zeros get their own bucket.
    assert_eq!(bucket_index(0), 0);
    assert_eq!(bucket_bounds(0), (0, 0));
    // One is the sole occupant of bucket 1.
    assert_eq!(bucket_index(1), 1);
    assert_eq!(bucket_bounds(1), (1, 1));
    // Every power of two opens a new bucket; its predecessor closes one.
    for shift in 1..64u32 {
        let p = 1u64 << shift;
        assert_eq!(bucket_index(p), shift as usize + 1, "2^{shift} opens its bucket");
        assert_eq!(bucket_index(p - 1), shift as usize, "2^{shift}-1 closes the previous");
        let (lo, hi) = bucket_bounds(shift as usize + 1);
        assert_eq!(lo, p, "bucket lo is the power of two");
        if shift < 63 {
            assert_eq!(hi, (p << 1) - 1, "bucket hi is the next power minus one");
        }
    }
    // The top bucket is saturated at u64::MAX.
    assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    assert_eq!(bucket_bounds(HISTOGRAM_BUCKETS - 1), (1u64 << 63, u64::MAX));
    // Bounds and index are mutually consistent for every bucket.
    for i in 0..HISTOGRAM_BUCKETS {
        let (lo, hi) = bucket_bounds(i);
        assert!(lo <= hi);
        assert_eq!(bucket_index(lo), i);
        assert_eq!(bucket_index(hi), i);
    }
}

/// Builds a histogram snapshot from a deterministic stream of observations
/// derived from one sampled seed.
fn hist_from_seed(seed: u64, n: u64) -> HistogramSnapshot {
    let reg = csqp_obs::metrics::MetricsRegistry::new();
    let mut x = seed;
    for i in 0..n {
        // Spread observations across the full bucket range, including the
        // edge values the buckets special-case.
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let v = match i % 5 {
            0 => 0,
            1 => 1,
            2 => u64::MAX,
            3 => 1u64 << (x % 64),
            _ => x,
        };
        reg.observe("h", v);
    }
    reg.snapshot().histograms.get("h").cloned().unwrap_or_default()
}

/// Builds a full snapshot (counters + gauges + histograms over a small key
/// alphabet) from one sampled seed.
fn snap_from_seed(seed: u64, n: u64) -> MetricsSnapshot {
    let reg = csqp_obs::metrics::MetricsRegistry::new();
    let keys = ["a", "b", "c"];
    let mut x = seed;
    for _ in 0..n {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let key = keys[(x % 3) as usize];
        match (x >> 8) % 3 {
            0 => reg.add(key, x % 1000),
            // Small integers: f64 addition over them is exact, so gauge
            // sums compare with `==` regardless of merge order.
            1 => reg.gauge_add(key, (x % 64) as f64),
            _ => reg.observe(key, x % (1 << 40)),
        }
    }
    reg.snapshot()
}

/// Per histogram: the tallies a window shares with a snapshot diff.
fn tallies(s: &MetricsSnapshot) -> BTreeMap<&str, (u64, u64, &[(u64, u64, u64)])> {
    s.histograms.iter().map(|(k, h)| (k.as_str(), (h.count, h.sum, h.buckets.as_slice()))).collect()
}

fn merged_h(a: &HistogramSnapshot, b: &HistogramSnapshot) -> HistogramSnapshot {
    let mut m = a.clone();
    m.merge(b);
    m
}

fn merged_s(a: &MetricsSnapshot, b: &MetricsSnapshot) -> MetricsSnapshot {
    let mut m = a.clone();
    m.merge(b);
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn histogram_merge_is_commutative(sa in 0u64..u64::MAX, sb in 0u64..u64::MAX, n in 0u64..40) {
        let (a, b) = (hist_from_seed(sa, n), hist_from_seed(sb, n + 3));
        prop_assert_eq!(merged_h(&a, &b), merged_h(&b, &a));
    }

    #[test]
    fn histogram_merge_is_associative(
        sa in 0u64..u64::MAX,
        sb in 0u64..u64::MAX,
        sc in 0u64..u64::MAX,
        n in 0u64..30,
    ) {
        let (a, b, c) = (hist_from_seed(sa, n), hist_from_seed(sb, n + 1), hist_from_seed(sc, 7));
        prop_assert_eq!(merged_h(&merged_h(&a, &b), &c), merged_h(&a, &merged_h(&b, &c)));
    }

    #[test]
    fn snapshot_merge_is_commutative(sa in 0u64..u64::MAX, sb in 0u64..u64::MAX, n in 0u64..60) {
        let (a, b) = (snap_from_seed(sa, n), snap_from_seed(sb, n + 5));
        let (ab, ba) = (merged_s(&a, &b), merged_s(&b, &a));
        prop_assert_eq!(&ab, &ba);
        // And the rendered forms agree too (what downstream consumers see).
        prop_assert_eq!(ab.to_json(), ba.to_json());
        prop_assert_eq!(ab.to_prometheus(), ba.to_prometheus());
    }

    #[test]
    fn snapshot_merge_is_associative(
        sa in 0u64..u64::MAX,
        sb in 0u64..u64::MAX,
        sc in 0u64..u64::MAX,
        n in 0u64..40,
    ) {
        let (a, b, c) = (snap_from_seed(sa, n), snap_from_seed(sb, n + 2), snap_from_seed(sc, 11));
        prop_assert_eq!(merged_s(&merged_s(&a, &b), &c), merged_s(&a, &merged_s(&b, &c)));
    }

    #[test]
    fn cut_windows_equal_boundary_snapshot_diffs(seed in 0u64..u64::MAX, n in 0u64..160) {
        let reg = MetricsRegistry::new();
        let keys = ["a", "b", "c"];
        let mut before = reg.snapshot();
        let mut x = seed;
        for i in 0..=n {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let key = keys[(x % 3) as usize];
            match (x >> 8) % 6 {
                // Zero adds included: a window drops them like a diff does.
                0 => reg.add(key, x % 4),
                1 => reg.gauge_add(key, (x % 64) as f64),
                2 => reg.gauge_set(key, (x % 8) as f64),
                3 => reg.observe(key, x % (1 << 40)),
                4 => reg.observe_exemplar(key, x % 4096, i),
                // The last step always cuts, so every write lands in a window.
                _ => {}
            }
            if (x >> 8) % 6 == 5 || i == n {
                let window = reg.cut_window();
                let now = reg.snapshot();
                let diff = now.diff(&before);
                prop_assert_eq!(&window.counters, &diff.counters);
                prop_assert_eq!(tallies(&window), tallies(&diff));
                before = now;
            }
        }
    }

    #[test]
    fn empty_snapshot_is_identity(s in 0u64..u64::MAX, n in 0u64..40) {
        let a = snap_from_seed(s, n);
        let empty = MetricsSnapshot::default();
        prop_assert_eq!(merged_s(&a, &empty), a.clone());
        prop_assert_eq!(merged_s(&empty, &a), a);
    }
}
