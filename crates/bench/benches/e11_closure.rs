//! E11 (Table 6): permutation-closure costs — one-time description rewrite
//! and compile vs the per-plan fix step (admission on the gate grammar).

use criterion::{criterion_group, criterion_main, Criterion};
use csqp_expr::parse::parse_condition;
use csqp_ssdl::check::CompiledSource;
use csqp_ssdl::closure::{permutation_closure, DEFAULT_MAX_SEGMENTS};
use csqp_ssdl::templates;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e11_closure");
    // Registration-time work (paid once per source).
    g.bench_function("closure/car_guide", |b| {
        let desc = templates::car_guide();
        b.iter(|| black_box(permutation_closure(&desc, DEFAULT_MAX_SEGMENTS).desc.rules.len()))
    });
    g.bench_function("compile_closed/car_guide", |b| {
        let closed = permutation_closure(&templates::car_guide(), DEFAULT_MAX_SEGMENTS).desc;
        b.iter(|| black_box(CompiledSource::new(closed.clone()).grammar().n_rules()))
    });
    // Run-time work (paid once per executed plan).
    g.bench_function("fix_order/car_dealer", |b| {
        let gate = CompiledSource::new(templates::car_dealer());
        let scrambled = parse_condition(r#"price < 40000 ^ make = "BMW""#).unwrap();
        let attrs = ["model".to_string()].into_iter().collect();
        b.iter(|| black_box(gate.admit(Some(&scrambled), &attrs)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
