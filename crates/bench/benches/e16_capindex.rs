//! E16: federation-scale source selection — compiled capability index vs
//! full per-member planning, at 1k/4k/10k sources.
//!
//! The claim under test (DESIGN.md §5e): with sources partitioned into
//! fixed-size domains, per-query planning cost with the index is governed
//! by the (constant) surviving candidate set plus a few bitset
//! intersections, while index-off cost grows linearly with the federation —
//! so the on/off speedup grows with scale and the on-cost stays near-flat.
//!
//! Like e13/e15 this is a plain harness emitting machine-readable results
//! to `BENCH_capindex.json` at the repo root; CI gates a ≥10× speedup at
//! 10k sources and a soft flatness bound on the pure-selection cost
//! (`select_only` — the index lookup alone, without planning the
//! surviving candidates).
//!
//! Run with `cargo bench -p csqp-bench --bench e16_capindex`.

use csqp_bench::fedcorpus::{corpus_federation, corpus_members, domain_query, FedCorpusConfig};
use csqp_core::types::TargetQuery;
use csqp_core::Federation;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

const OUT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_capindex.json");

/// Federation scales (members). Domains grow with scale; mirrors per
/// domain — and therefore per-query feasible sources — stay fixed.
const SCALES: &[usize] = &[1_000, 4_000, 10_000];

/// Queries per pass, spread across domains.
const QUERIES: usize = 12;

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
    let mut results: Vec<Measurement> = Vec::new();
    let mut build_lines: Vec<String> = Vec::new();
    for &n in SCALES {
        let cfg = FedCorpusConfig { n_sources: n, ..Default::default() };
        let t_corpus = Instant::now();
        let members = corpus_members(&cfg);
        let corpus_s = t_corpus.elapsed().as_secs_f64();
        let queries = queries_for(n, &cfg);

        let on = corpus_federation(&members, true);
        let t_build = Instant::now();
        let idx = on.capability_index().expect("index enabled");
        let build_s = t_build.elapsed().as_secs_f64();
        build_lines.push(format!(
            "    {{\"n_sources\": {n}, \"corpus_s\": {corpus_s:.3}, \"index_build_s\": \
             {build_s:.6}, \"indexed\": {}}}",
            idx.len()
        ));
        println!(
            "e16_capindex n={n:<6} corpus built in {corpus_s:.2}s, index compiled in {build_s:.4}s"
        );

        let m_sel = measure_select(&on, &queries, n);
        let m_on = measure(&on, &queries, n, "index_on", 200);
        drop(on);
        let off = corpus_federation(&members, false);
        let m_off = measure(&off, &queries, n, "index_off", 20);
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
            results.push(m);
        }
    }

    let mut json = String::from("{\n  \"bench\": \"e16_capindex\",\n");
    let _ = write!(json, "  \"queries_per_pass\": {QUERIES},\n  \"builds\": [\n");
    json.push_str(&build_lines.join(",\n"));
    json.push_str("\n  ],\n  \"results\": [\n");
    for (i, m) in results.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"n_sources\": {}, \"scheme\": \"{}\", \"passes\": {}, \"elapsed_s\": \
             {:.6}, \"per_query_ms\": {:.6}, \"candidates_avg\": {:.2}, \"pruned_avg\": \
             {:.2}}}{}",
            m.n_sources,
            m.scheme,
            m.passes,
            m.elapsed_s,
            m.per_query_ms,
            m.candidates_avg,
            m.pruned_avg,
            if i + 1 < results.len() { ",\n" } else { "\n" }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(OUT_PATH, &json).expect("write BENCH_capindex.json");
    println!("wrote {OUT_PATH}");
}
