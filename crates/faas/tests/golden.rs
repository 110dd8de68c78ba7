//! Golden-digest regression tests: pin the exact `SimResult` every
//! backend produces on fixed workloads.
//!
//! The digests cover every field of the result (latency samples, time
//! series, reclaim totals) at full f64 bit precision, so any behavioral
//! drift in the runtime — however small — fails these tests. The
//! original capture ran against the pre-refactor monolith and held
//! unchanged across the backend-trait extraction, proving the
//! refactored event loop byte-identical; the pinned values were then
//! re-derived once when `SimResult::digest` switched to hashing
//! histogram samples in sorted (query-order-independent) order.

use faas::{BackendKind, Deployment, FaasSim, HarvestConfig, SimConfig, VmSpec};
use mem_types::{GIB, MIB};
use workloads::FunctionKind;

/// An unconstrained host: cold/warm starts, keep-alive evictions and
/// backend reclaims, no memory pressure.
fn ample(backend: BackendKind) -> (SimConfig, Vec<Vec<f64>>) {
    let cfg = SimConfig {
        backend,
        harvest: HarvestConfig::default(),
        vms: vec![VmSpec {
            deployments: vec![Deployment {
                kind: FunctionKind::Html,
                concurrency: 4,
            }],
            vcpus: Some(2.0),
        }],
        host_capacity: u64::MAX / 2,
        keepalive_s: 20.0,
        duration_s: 120.0,
        unplug_deadline_ms: 5_000,
        record_latency_points: true,
        seed: 1,
        trial: 0,
    };
    (cfg, vec![vec![1.0, 1.05, 1.1, 6.0, 30.0, 30.05]])
}

/// A tight host (1.5 GiB): admission pressure, evict-to-scale cycles
/// and — for SqueezySoft — soft revocation plus hollow-instance
/// rebuilds. All five backends produce distinct digests here.
fn tight(backend: BackendKind) -> (SimConfig, Vec<Vec<f64>>) {
    let cfg = SimConfig {
        backend,
        harvest: HarvestConfig {
            buffer_bytes: GIB,
            proactive_evictions: 1,
        },
        vms: vec![VmSpec {
            deployments: vec![
                Deployment {
                    kind: FunctionKind::Html,
                    concurrency: 2,
                },
                Deployment {
                    kind: FunctionKind::Html,
                    concurrency: 2,
                },
            ],
            vcpus: Some(2.0),
        }],
        host_capacity: 1536 * MIB,
        keepalive_s: 300.0,
        duration_s: 120.0,
        unplug_deadline_ms: 5_000,
        record_latency_points: true,
        seed: 7,
        trial: 2,
    };
    (cfg, vec![vec![1.0, 1.05, 80.0, 80.05], vec![40.0, 40.05]])
}

fn digest_table(make: fn(BackendKind) -> (SimConfig, Vec<Vec<f64>>)) -> String {
    BackendKind::ALL
        .iter()
        .map(|&b| {
            let (cfg, arrivals) = make(b);
            let result = FaasSim::new(cfg, arrivals).expect("boot").run();
            format!("{b:?}:{:016x}", result.digest())
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn ample_host_digests_are_pinned() {
    // Squeezy and SqueezySoft coincide here by design: without host
    // pressure, soft memory never revokes and the paths are identical
    // (the unit test `soft_backend_without_pressure_behaves_like_squeezy`
    // asserts the same). The tight fixture below separates them.
    let expected = "\
Static:00399fd2bd591bfd
VirtioMem:30e8875ce68559be
HarvestOpts:56754c51f930a9da
Squeezy:fcf7fbaf1681b737
SqueezySoft:fcf7fbaf1681b737";
    assert_eq!(digest_table(ample), expected);
}

#[test]
fn tight_host_digests_are_pinned() {
    let expected = "\
Static:304ca97186badf9b
VirtioMem:518f6fdf1f68ab85
HarvestOpts:b5a0c188fd7acc44
Squeezy:ab9c7a5de56b014c
SqueezySoft:3c607dcfac0b4aa0";
    assert_eq!(digest_table(tight), expected);
}

/// Two identical runs digest equal; different seeds digest differently
/// (the digest actually covers the stochastic fields); and querying a
/// quantile (which re-sorts histogram samples in place) never changes
/// the digest.
#[test]
fn digest_discriminates_and_is_query_order_independent() {
    let run = |(cfg, arrivals): (SimConfig, Vec<Vec<f64>>)| {
        FaasSim::new(cfg, arrivals).expect("boot").run()
    };
    let a = run(ample(BackendKind::Squeezy)).digest();
    let mut b = run(ample(BackendKind::Squeezy));
    let _ = b.p99_ms(FunctionKind::Html);
    assert_eq!(a, b.digest(), "quantile queries don't perturb the digest");
    let (mut cfg, arrivals) = ample(BackendKind::Squeezy);
    cfg.seed = 2;
    let c = run((cfg, arrivals)).digest();
    assert_ne!(a, c);
}
