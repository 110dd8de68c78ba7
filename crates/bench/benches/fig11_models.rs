//! Criterion bench for Figure 11: the 1:1 and N:1 cold-start models.

use criterion::{criterion_group, criterion_main, Criterion};
use faas::{microvm_cold_start, n_to_one_cold_start};
use sim_core::CostModel;
use workloads::FunctionKind;

fn bench_models(c: &mut Criterion) {
    let cost = CostModel::default();
    let mut group = c.benchmark_group("fig11_cold_start");
    group.sample_size(10);
    group.bench_function("1to1_html", |b| {
        b.iter(|| microvm_cold_start(FunctionKind::Html, &cost).unwrap())
    });
    group.bench_function("Nto1_html", |b| {
        b.iter(|| n_to_one_cold_start(FunctionKind::Html, &cost).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_models);
criterion_main!(benches);
