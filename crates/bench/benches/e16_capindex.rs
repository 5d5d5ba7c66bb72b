//! E16: federation-scale source selection — compiled capability index vs
//! full per-member planning, at 1k/4k/10k sources.
//!
//! The claim under test (DESIGN.md §5e): with sources partitioned into
//! fixed-size domains, per-query planning cost with the index is governed
//! by the (constant) surviving candidate set plus a few bitset
//! intersections, while index-off cost grows linearly with the federation —
//! so the on/off speedup grows with scale and the on-cost stays near-flat.
//!
//! It prints one line per scale and leg, then asserts two floors: planning
//! with the index is at least 10× faster than without it at 10k sources,
//! and the pure-selection cost (`select_only` — the index lookup alone,
//! without planning the surviving candidates) grows at most 5× over the
//! 10× scale-up from 1k to 10k. A breach exits non-zero.
//!
//! Run with `cargo bench -p csqp-bench --bench e16_capindex`.

use csqp_bench::fedcorpus::{corpus_federation, corpus_members, domain_query, FedCorpusConfig};
use csqp_core::types::TargetQuery;
use csqp_core::Federation;
use std::hint::black_box;
use std::time::Instant;

/// Federation scales (members). Domains grow with scale; mirrors per
/// domain — and therefore per-query feasible sources — stay fixed.
const SCALES: &[usize] = &[1_000, 4_000, 10_000];

/// Queries per pass, spread across domains.
const QUERIES: usize = 12;

/// The least `index_off/index_on` planning-time ratio at the top scale.
const SPEEDUP_FLOOR: f64 = 10.0;

/// The most `select_only` may grow from the bottom scale to the top.
const SELECT_GROWTH_CEILING: f64 = 5.0;

struct Measurement {
    n_sources: usize,
    scheme: &'static str,
    passes: usize,
    elapsed_s: f64,
    per_query_ms: f64,
    candidates_avg: f64,
    pruned_avg: f64,
}

fn queries_for(n_sources: usize, cfg: &FedCorpusConfig) -> Vec<TargetQuery> {
    let domains = n_sources / cfg.sources_per_domain;
    (0..QUERIES).map(|i| domain_query((i * domains) / QUERIES, 93 + i as u64)).collect()
}

fn plan_pass(fed: &Federation, queries: &[TargetQuery]) -> usize {
    let mut planned = 0usize;
    for q in queries {
        let fp = fed.plan(q).expect("corpus queries are always answerable");
        planned += black_box(&fp.considered).members();
    }
    planned
}

/// Pure selection cost: the index lookup alone, without the downstream
/// planning of survivors. This is the component the sublinearity claim is
/// gated on.
fn select_pass(fed: &Federation, queries: &[TargetQuery]) -> usize {
    let idx = fed.capability_index().expect("index enabled");
    queries.iter().map(|q| black_box(idx.candidates(q)).candidates.len()).sum()
}

fn measure_select(fed: &Federation, queries: &[TargetQuery], n_sources: usize) -> Measurement {
    select_pass(fed, queries);
    let t0 = Instant::now();
    select_pass(fed, queries);
    let warm = t0.elapsed().as_secs_f64();
    let passes = ((0.2 / warm.max(1e-9)).ceil() as usize).clamp(10, 5_000);
    let t1 = Instant::now();
    for _ in 0..passes {
        black_box(select_pass(fed, queries));
    }
    let elapsed_s = t1.elapsed().as_secs_f64();
    let idx = fed.capability_index().expect("index enabled");
    let (mut cand, mut pruned) = (0usize, 0usize);
    for q in queries {
        let d = idx.candidates(q);
        cand += d.candidates.len();
        pruned += d.pruned;
    }
    Measurement {
        n_sources,
        scheme: "select_only",
        passes,
        elapsed_s,
        per_query_ms: elapsed_s * 1e3 / (passes * queries.len()) as f64,
        candidates_avg: cand as f64 / queries.len() as f64,
        pruned_avg: pruned as f64 / queries.len() as f64,
    }
}

fn measure(
    fed: &Federation,
    queries: &[TargetQuery],
    n_sources: usize,
    scheme: &'static str,
    max_passes: usize,
) -> Measurement {
    // Warm-up: builds the index (on-mode) and fills the shared per-source
    // check caches, so both modes are measured steady-state.
    plan_pass(fed, queries);
    let t0 = Instant::now();
    plan_pass(fed, queries);
    let warm = t0.elapsed().as_secs_f64();
    let passes = ((0.5 / warm.max(1e-9)).ceil() as usize).clamp(2, max_passes);

    let t1 = Instant::now();
    for _ in 0..passes {
        black_box(plan_pass(fed, queries));
    }
    let elapsed_s = t1.elapsed().as_secs_f64();

    let (mut cand, mut pruned) = (0usize, 0usize);
    if let Some(idx) = fed.capability_index() {
        for q in queries {
            let d = idx.candidates(q);
            cand += d.candidates.len();
            pruned += d.pruned;
        }
    } else {
        cand = n_sources * queries.len();
    }
    Measurement {
        n_sources,
        scheme,
        passes,
        elapsed_s,
        per_query_ms: elapsed_s * 1e3 / (passes * queries.len()) as f64,
        candidates_avg: cand as f64 / queries.len() as f64,
        pruned_avg: pruned as f64 / queries.len() as f64,
    }
}

fn main() {
    // Per scale: (n, index_off, index_on, select_only) ms per query.
    let mut per_query: Vec<(usize, f64, f64, f64)> = Vec::new();
    for &n in SCALES {
        let cfg = FedCorpusConfig { n_sources: n, ..Default::default() };
        let t_corpus = Instant::now();
        let members = corpus_members(&cfg);
        let corpus_s = t_corpus.elapsed().as_secs_f64();
        let queries = queries_for(n, &cfg);

        let on = corpus_federation(&members, true);
        let t_build = Instant::now();
        // The first access compiles the index.
        on.capability_index().expect("index enabled");
        let build_s = t_build.elapsed().as_secs_f64();
        println!(
            "e16_capindex n={n:<6} corpus built in {corpus_s:.2}s, index compiled in {build_s:.4}s"
        );

        let m_sel = measure_select(&on, &queries, n);
        let m_on = measure(&on, &queries, n, "index_on", 200);
        drop(on);
        let off = corpus_federation(&members, false);
        let m_off = measure(&off, &queries, n, "index_off", 20);
        per_query.push((n, m_off.per_query_ms, m_on.per_query_ms, m_sel.per_query_ms));
        for m in [m_off, m_on, m_sel] {
            println!(
                "e16_capindex n={:<6} {:<10} {:>9.3} ms/query  avg {:>7.1} candidates, \
                 {:>7.1} pruned  ({} passes in {:.2}s)",
                m.n_sources,
                m.scheme,
                m.per_query_ms,
                m.candidates_avg,
                m.pruned_avg,
                m.passes,
                m.elapsed_s
            );
        }
    }

    let (base, _, _, base_select) = per_query[0];
    let (top, top_off, top_on, top_select) = per_query[per_query.len() - 1];
    let speedup = top_off / top_on;
    let growth = top_select / base_select;
    println!(
        "e16_capindex index_off/index_on {speedup:.1}x at {top} sources (floor \
         {SPEEDUP_FLOOR}x), select_only growth {growth:.2}x {base}->{top} (ceiling \
         {SELECT_GROWTH_CEILING}x)"
    );
    assert!(
        speedup >= SPEEDUP_FLOOR,
        "capability-index floor broken at {top} sources ({speedup:.1}x < {SPEEDUP_FLOOR}x)"
    );
    assert!(
        growth <= SELECT_GROWTH_CEILING,
        "selection cost is not sublinear ({growth:.1}x growth {base}->{top} > \
         {SELECT_GROWTH_CEILING}x)"
    );
}
