//! Event-queue throughput: the timer-wheel [`EventQueue`] against the
//! reference [`BinaryHeapQueue`] it replaced, at three pending-set
//! sizes spanning the single-host (1e3), cluster (1e5) and thousand-host
//! (1e7) regimes.
//!
//! Each benchmark holds the queue at a constant depth and measures one
//! steady-state churn step — pop the earliest event, push a successor a
//! pseudo-random distance into the future — which is exactly the
//! pattern the simulators drive: the wheel's O(1) amortized step versus
//! the heap's O(log n) sift at every depth.

use criterion::{criterion_group, criterion_main, Criterion};
use sim_core::{BinaryHeapQueue, DetRng, EventQueue, SimDuration, SimTime};

/// Seed of the deterministic inter-event gap stream.
const SEED: u64 = 0xE0E0;

/// Gap distribution matched to the drumbeat scenario: mostly sub-millisecond
/// follow-ups with an occasional keep-alive-scale (tens of seconds)
/// timer that exercises the wheel's upper levels.
fn gap(rng: &mut DetRng) -> SimDuration {
    let ns = if rng.chance(0.05) {
        rng.range(1_000_000_000, 60_000_000_000)
    } else {
        rng.range(1_000, 1_000_000)
    };
    SimDuration::nanos(ns)
}

macro_rules! churn_bench {
    ($group:expr, $label:expr, $queue:ty, $depth:expr) => {{
        let mut q: $queue = <$queue>::new();
        let mut rng = DetRng::new(SEED);
        for i in 0..$depth {
            let at = SimTime(q.now().0 + gap(&mut rng).as_nanos());
            q.push(at, i as u64);
        }
        $group.bench_function(format!("{}_depth_{:.0e}", $label, $depth as f64), |b| {
            b.iter(|| {
                let (t, tag) = q.pop().expect("queue stays full");
                q.push(t + gap(&mut rng), tag);
                criterion::black_box(tag)
            })
        });
    }};
}

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    group.sample_size(20);
    for depth in [1_000usize, 100_000, 10_000_000] {
        churn_bench!(group, "wheel", EventQueue<u64>, depth);
        churn_bench!(group, "heap", BinaryHeapQueue<u64>, depth);
    }
    group.finish();
}

criterion_group!(benches, bench_event_queue);
criterion_main!(benches);
