//! Criterion bench for Figure 5: per-method reclaim of one killed
//! memhog's memory.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mem_types::MIB;
use sim_core::CostModel;
use squeezy_bench::setup::{FarmKind, MemhogFarm};

fn bench_reclaim(c: &mut Criterion) {
    let cost = CostModel::default();
    let mut group = c.benchmark_group("fig5_reclaim_256MiB");
    group.sample_size(10);
    for (name, kind) in [
        ("virtio-mem", FarmKind::Vanilla),
        ("squeezy", FarmKind::Squeezy),
    ] {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter_batched(
                || {
                    let mut farm = MemhogFarm::build(kind, 4, 256 * MIB, 1, &cost);
                    farm.kill(0);
                    farm
                },
                |mut farm| match kind {
                    FarmKind::Vanilla => farm
                        .vm
                        .unplug(&mut farm.host, 256 * MIB, None, &cost)
                        .unwrap()
                        .latency(),
                    FarmKind::Squeezy => {
                        let sq = farm.squeezy.as_mut().unwrap();
                        sq.unplug_partition(&mut farm.vm, &mut farm.host, &cost)
                            .unwrap()
                            .1
                            .latency()
                    }
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_reclaim);
criterion_main!(benches);
