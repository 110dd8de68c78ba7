//! The committed example traces are pinned to their generators: the
//! files under `examples/traces/` must be byte-identical to what
//! `repro gen-trace` writes, and the committed replay scenario must
//! point at them. Regenerate with
//!
//! ```text
//! cargo run --release -p squeezy-bench --bin repro -- gen-trace
//! ```
//!
//! Streamed replays stay bounded: whatever the trace length, every
//! tracked-sample accumulator stays under its cap and the event queue
//! tracks in-flight work only.

use std::io::Cursor;

use faas::cluster::{ClusterConfig, RoundRobin, LATENCY_RESERVOIR_CAP};
use faas::config::{BackendKind, Deployment, HarvestConfig, SimConfig, VmSpec};
use faas::fleet::{FixedFleet, FleetConfig, FleetResult, FleetSim};
use faas::{PolicyKind, Scenario, Topology};
use sim_core::DetRng;
use squeezy_bench::perf::PERF_SEED;
use workloads::{AzureMinuteSource, FunctionKind, TraceFormat, TraceSource};

/// Repo-root-relative path, anchored on this crate's manifest so the
/// tests pass whatever the working directory.
fn repo(rel: &str) -> String {
    format!("{}/../../{rel}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn committed_azure_trace_matches_its_generator() {
    let committed = std::fs::read_to_string(repo("examples/traces/azure_3day.csv"))
        .expect("examples/traces/azure_3day.csv is committed (run `repro gen-trace`)");
    assert!(
        committed == workloads::sample_azure_3day(),
        "azure_3day.csv drifted from its generator; rerun `repro gen-trace`"
    );
}

#[test]
fn committed_opendc_trace_matches_its_generator() {
    let committed = std::fs::read_to_string(repo("examples/traces/opendc_sample.csv"))
        .expect("examples/traces/opendc_sample.csv is committed (run `repro gen-trace`)");
    assert!(
        committed == workloads::sample_opendc(),
        "opendc_sample.csv drifted from its generator; rerun `repro gen-trace`"
    );
}

#[test]
fn committed_replay_scenario_points_at_the_committed_trace() {
    let text = std::fs::read_to_string(repo("examples/scenarios/trace_replay.scn"))
        .expect("examples/scenarios/trace_replay.scn is committed");
    let spec = Scenario::parse(&text).expect("spec parses");
    assert_eq!(
        spec.workload.key(),
        "trace(examples/traces/azure_3day.csv)",
        "the replay spec streams the committed 3-day trace"
    );
    assert_eq!(spec.topology, Topology::Fleet);
    assert_eq!(
        spec.policy,
        PolicyKind::Fixed,
        "frozen fleet stays at max_hosts"
    );
    assert_eq!(spec.params.duration_s, 3.0 * 86400.0, "multi-day replay");

    // The trace header carries the Table-1 tenant mix the spec's fleet
    // template is built from.
    let header = workloads::read_trace_header(&repo("examples/traces/azure_3day.csv"))
        .expect("trace header parses");
    assert_eq!(header.format, TraceFormat::AzureMinute);
    assert_eq!(
        header.kinds,
        vec![
            FunctionKind::Html,
            FunctionKind::Cnn,
            FunctionKind::Bfs,
            FunctionKind::Bert
        ]
    );
}

/// The multi-million-invocation claim, checked against the committed
/// file itself: a full validation scan expands every minute row.
#[test]
#[cfg_attr(
    not(feature = "slow-tests"),
    ignore = "full 2M+-arrival scan; enable with --features slow-tests"
)]
fn committed_azure_trace_expands_to_two_million_invocations() {
    let stats = workloads::validate_trace(&repo("examples/traces/azure_3day.csv"))
        .expect("trace validates");
    assert!(
        stats.arrivals >= 2_000_000,
        "3-day trace offers 2M+ invocations (got {})",
        stats.arrivals
    );
    let end_s = stats.end_ns as f64 / 1e9;
    assert!(
        end_s > 2.9 * 86400.0 && end_s < 3.0 * 86400.0,
        "arrivals span the full 3 days (last at {end_s:.0}s)"
    );
}

/// Replays `source` for `minutes` of simulated time through a frozen
/// Squeezy fleet of `hosts` hosts (one 8-vCPU VM each, 8 slots per
/// tenant), and checks what every streamed replay must keep: nothing
/// lost or deferred, the fleet reservoir and every per-function
/// histogram within [`LATENCY_RESERVOIR_CAP`], no usage series.
fn replay_bounded(
    source: Box<dyn TraceSource>,
    origin: &str,
    minutes: u64,
    hosts: usize,
) -> FleetResult {
    let host = |seed: u64| SimConfig {
        backend: BackendKind::Squeezy,
        harvest: HarvestConfig::default(),
        vms: vec![VmSpec {
            deployments: source
                .kinds()
                .iter()
                .map(|&kind| Deployment {
                    kind,
                    concurrency: 8,
                })
                .collect(),
            vcpus: Some(8.0),
        }],
        host_capacity: u64::MAX / 2,
        keepalive_s: 60.0,
        duration_s: minutes as f64 * 60.0,
        unplug_deadline_ms: 5_000,
        record_latency_points: false,
        seed,
        trial: 0,
    };
    let cluster = ClusterConfig {
        hosts: (0..hosts)
            .map(|h| host(DetRng::new(PERF_SEED).derive(0x7A).derive(h as u64).seed()))
            .collect(),
        tenants: Vec::new(),
    };
    let out = FleetSim::with_source(
        FleetConfig::fixed(cluster, PERF_SEED),
        Box::new(RoundRobin::default()),
        Box::new(FixedFleet),
        source,
        origin,
    )
    .expect("hosts boot")
    .run();

    assert!(out.injected > 0);
    assert_eq!(out.completed, out.injected, "unsaturated fleet serves all");
    assert_eq!((out.lost, out.deferred), (0, 0), "unsaturated frozen fleet");
    assert!(
        out.latency_over_time.len() <= LATENCY_RESERVOIR_CAP,
        "fleet reservoir exceeded its cap"
    );
    for h in &out.hosts {
        for m in h.result.per_func.values() {
            assert!(
                m.latency.count() <= LATENCY_RESERVOIR_CAP,
                "a per-function histogram exceeded its cap"
            );
        }
        assert!(
            h.result.host_usage.points().is_empty(),
            "streamed replays must not record usage series"
        );
    }
    out
}

/// A small replay of the committed trace's envelope (20 minutes at a
/// low peak, same seed and tenant mix), streamed from memory.
#[test]
fn trace_replay_is_bounded_and_deterministic() {
    let kinds = [
        FunctionKind::Html,
        FunctionKind::Cnn,
        FunctionKind::Bfs,
        FunctionKind::Bert,
    ];
    let text = workloads::render_azure_minute(
        0xA2_2026,
        &kinds,
        &workloads::sample_azure_rows(20, 4, 120.0),
    );
    let replay = || {
        let source = AzureMinuteSource::new(Cursor::new(text.clone()), 0).expect("trace parses");
        replay_bounded(Box::new(source), "azure_20m", 20, 2)
    };
    let (a, b) = (replay(), replay());
    assert_eq!(a.injected, b.injected);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.events_processed, b.events_processed);
    assert_eq!(a.peak_queue_depth, b.peak_queue_depth);
    assert_eq!(a.latency_over_time.len(), b.latency_over_time.len());
}

/// The reservoir-bound audit at full scale: the committed 3-day trace,
/// streamed lazily off disk, expands to 2M+ invocations with every
/// accumulator still under its cap and the queue high-water mark
/// independent of trace length.
#[test]
#[cfg_attr(
    not(feature = "slow-tests"),
    ignore = "heavy simulation; enable with --features slow-tests"
)]
fn full_scale_trace_replay_stays_bounded() {
    let path = repo("examples/traces/azure_3day.csv");
    let source = workloads::open_trace(&path, 0).expect("trace opens");
    let out = replay_bounded(source, &path, 3 * 1440, 4);
    assert!(
        out.injected >= 2_000_000,
        "the 3-day trace expands to 2M+ invocations (got {})",
        out.injected
    );
    assert!(
        out.peak_queue_depth < out.injected as usize / 100,
        "queue tracks in-flight work, not the trace ({} vs {})",
        out.peak_queue_depth,
        out.injected
    );
}
