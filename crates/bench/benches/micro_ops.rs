//! Micro-operation benches for the substrate data structures: buddy
//! allocation, block offline with migration, partition plug/unplug.
//! These measure simulator throughput (how fast the reproduction runs),
//! complementing the `repro` figures, which report simulated time.

use criterion::{criterion_group, criterion_main, Criterion};
use guest_mm::{AllocPolicy, GuestMm, GuestMmConfig};
use mem_types::{BlockId, MIB};
use sim_core::CostModel;
use squeezy_bench::setup::{FarmKind, MemhogFarm};

fn mm() -> GuestMm {
    GuestMm::new(GuestMmConfig {
        boot_bytes: 512 * MIB,
        hotplug_bytes: 512 * MIB,
        kernel_bytes: 64 * MIB,
        init_on_alloc: true,
    })
}

fn bench_micro(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_ops");
    group.sample_size(20);

    group.bench_function("buddy_fault_free_4k_pages", |b| {
        b.iter_batched(
            || {
                let mut m = mm();
                let pid = m.spawn_process(AllocPolicy::MovableDefault);
                (m, pid)
            },
            |(mut m, pid)| {
                m.fault_anon(pid, 4096).unwrap();
                m.free_anon(pid, 4096).unwrap();
            },
            criterion::BatchSize::LargeInput,
        )
    });

    group.bench_function("offline_block_with_migration", |b| {
        b.iter_batched(
            || {
                let mut m = mm();
                m.hot_add_block(BlockId(4)).unwrap();
                m.online_block(BlockId(4), guest_mm::ZONE_MOVABLE).unwrap();
                let pid = m.spawn_process(AllocPolicy::MovableDefault);
                m.fault_anon(pid, 8192).unwrap();
                m
            },
            |mut m| m.offline_block(BlockId(4)).unwrap(),
            criterion::BatchSize::LargeInput,
        )
    });

    group.bench_function("squeezy_partition_cycle", |b| {
        let cost = CostModel::default();
        b.iter_batched(
            || MemhogFarm::build(FarmKind::Squeezy, 2, 128 * MIB, 0, &cost),
            |mut farm| {
                farm.kill(0);
                let sq = farm.squeezy.as_mut().unwrap();
                sq.unplug_partition(&mut farm.vm, &mut farm.host, &cost)
                    .unwrap();
                sq.plug_partition(&mut farm.vm, &cost).unwrap();
            },
            criterion::BatchSize::LargeInput,
        )
    });

    group.finish();
}

criterion_group!(benches, bench_micro);
criterion_main!(benches);
