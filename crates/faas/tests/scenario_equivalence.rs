//! The scenario front door adds zero behavioral drift: for each of the
//! three topologies, `Scenario::run_trial` is *byte-identical* to the
//! same experiment hand-wired through `SimConfig` / `ClusterConfig` /
//! `FleetConfig` the way the bench harness used to build them, and
//! run on the fleet engine (a single VM through `FaasSim`, a cluster
//! as a fixed fleet).
//!
//! The hand-built side spells out every seed derivation (trace stream
//! `0x77`, host seeds `0x40 + h`, template tag `0x3E`, fleet stream
//! `0xF1EE`, router probe seed `seed → trial`) — so if the scenario
//! layer ever drifts from the documented derivation contract, these
//! digests catch it.

use faas::{
    default_slos, AutoscaleOpts, BackendKind, ClusterConfig, Deployment, FaasSim, FailureConfig,
    FixedFleet, FleetConfig, FleetSim, HarvestConfig, PolicyKind, PowerOfTwoChoices, RouterKind,
    Scenario, SimConfig, SlamSlo, SweepSpec, Topology, VmSpec, WarmAffinity,
};
use mem_types::GIB;
use sim_core::{DetRng, ExpOpts};
use workloads::{TenantLoad, WorkloadKind, WorkloadParams};

/// The hand-rolled seed derivations the bench harness used before the
/// scenario API (and which the API must keep forever).
fn trace_rng(seed: u64, trial: u64) -> DetRng {
    DetRng::new(seed).derive(0x77).derive(trial)
}

fn host_seed(seed: u64, h: u64) -> u64 {
    DetRng::new(seed).derive(0x40 + h).seed()
}

fn router_seed(seed: u64, trial: u64) -> u64 {
    DetRng::new(seed).derive(trial).seed()
}

/// The per-host config the old bench modules hand-wired.
fn hand_host_config(
    spec: &Scenario,
    tenants: &[TenantLoad],
    backend: BackendKind,
    seed: u64,
    trial: u64,
) -> SimConfig {
    SimConfig {
        backend,
        harvest: HarvestConfig::default(),
        vms: vec![VmSpec {
            deployments: tenants
                .iter()
                .map(|t| Deployment {
                    kind: t.kind,
                    concurrency: spec.concurrency,
                })
                .collect(),
            vcpus: None,
        }],
        host_capacity: spec.host_capacity,
        keepalive_s: spec.keepalive_s,
        duration_s: spec.params.duration_s,
        unplug_deadline_ms: 5_000,
        record_latency_points: false,
        seed,
        trial,
    }
}

fn tenant_traces(tenants: &[TenantLoad]) -> Vec<Vec<f64>> {
    tenants.iter().map(|t| t.arrivals.clone()).collect()
}

#[test]
fn single_vm_scenario_is_byte_identical_to_hand_built_sim_config() {
    let mut spec = Scenario::new("equiv-single", Topology::SingleVm, WorkloadKind::AzureTrace);
    spec.params = WorkloadParams {
        tenants: 2,
        duration_s: 90.0,
        rps: 2.0,
        ..WorkloadParams::default()
    };
    spec.concurrency = 3;
    spec.keepalive_s = 25.0;
    spec.host_capacity = 8 * GIB;
    spec.seed = 0xA1;

    for backend in [BackendKind::Static, BackendKind::Squeezy] {
        for trial in [0u64, 1] {
            // Hand-built: generate the traces on the documented stream
            // and wire them into a single-host SimConfig directly.
            let tenants =
                WorkloadKind::AzureTrace.generate(&spec.params, &mut trace_rng(spec.seed, trial));
            let mut cfg =
                hand_host_config(&spec, &tenants, backend, host_seed(spec.seed, 0), trial);
            cfg.record_latency_points = true;
            let hand = FaasSim::new(cfg, tenant_traces(&tenants))
                .expect("boot")
                .run();

            let out = spec.run_trial(backend, trial);
            assert_eq!(
                out.host_digests,
                vec![hand.digest()],
                "single-vm digest diverged ({} trial {trial})",
                backend.name()
            );
            assert_eq!(out.completed, hand.completed);
        }
    }
}

#[test]
fn cluster_scenario_is_byte_identical_to_hand_built_cluster_config() {
    let mut spec = Scenario::new(
        "equiv-cluster",
        Topology::Cluster(2),
        WorkloadKind::ZipfCluster,
    );
    spec.params = WorkloadParams {
        tenants: 3,
        duration_s: 80.0,
        rps: 2.5,
        ..WorkloadParams::default()
    };
    spec.host_capacity = 5 * GIB;
    spec.router = RouterKind::WarmAffinity;
    spec.seed = 0xC1;

    for backend in [BackendKind::VirtioMem, BackendKind::Squeezy] {
        let trial = 0u64;
        let tenants =
            WorkloadKind::ZipfCluster.generate(&spec.params, &mut trace_rng(spec.seed, trial));
        let hand_cfg = ClusterConfig {
            hosts: (0..2)
                .map(|h| hand_host_config(&spec, &tenants, backend, host_seed(spec.seed, h), trial))
                .collect(),
            tenants: tenant_traces(&tenants),
        };
        // A cluster is a fixed fleet whose own streams are rooted at
        // host 0's seed.
        let hand = FleetSim::new(
            FleetConfig::fixed(hand_cfg, host_seed(spec.seed, 0)),
            Box::new(WarmAffinity),
            Box::new(FixedFleet),
        )
        .expect("boot")
        .run();

        let out = spec.run_trial(backend, trial);
        let hand_digests: Vec<u64> = hand.hosts.iter().map(|h| h.result.digest()).collect();
        assert_eq!(out.host_digests, hand_digests, "{}", backend.name());
        let hand_routed: Vec<u64> = hand.routed.iter().map(|t| t.iter().sum()).collect();
        assert_eq!(out.routed_per_host.as_deref(), Some(&hand_routed[..]));
        assert_eq!(out.completed, hand.completed);
        assert_eq!(
            out.latency_over_time.as_ref().map(|r| r.sorted_points()),
            Some(hand.latency_over_time.sorted_points()),
            "reservoir timeline diverged"
        );
    }
}

#[test]
fn fleet_scenario_is_byte_identical_to_hand_built_fleet_config() {
    let mut spec = Scenario::new("equiv-fleet", Topology::Fleet, WorkloadKind::Diurnal);
    spec.params = WorkloadParams {
        tenants: 3,
        duration_s: 60.0,
        rps: 3.5,
        trough_rps: 0.5,
        period_s: 60.0,
        ..WorkloadParams::default()
    };
    spec.host_capacity = 5 * GIB;
    spec.keepalive_s = 12.0;
    spec.router = RouterKind::PowerOfTwo;
    spec.policy = PolicyKind::SlamSlo;
    spec.min_hosts = 1;
    spec.max_hosts = 3;
    spec.boot_delay_s = 8.0;
    spec.cooldown_s = 6.0;
    spec.mtbf_s = 45.0;
    spec.seed = 0xF7;

    for backend in [BackendKind::Squeezy, BackendKind::SqueezySoft] {
        let trial = 0u64;
        let tenants =
            WorkloadKind::Diurnal.generate(&spec.params, &mut trace_rng(spec.seed, trial));
        let hand_cfg = FleetConfig {
            initial_hosts: (0..spec.min_hosts)
                .map(|h| {
                    hand_host_config(
                        &spec,
                        &tenants,
                        backend,
                        host_seed(spec.seed, h as u64),
                        trial,
                    )
                })
                .collect(),
            template: hand_host_config(&spec, &tenants, backend, host_seed(spec.seed, 0x3E), trial),
            tenants: tenant_traces(&tenants),
            autoscale: AutoscaleOpts {
                min_hosts: spec.min_hosts,
                max_hosts: spec.max_hosts,
                boot_delay_s: spec.boot_delay_s,
                cooldown_s: spec.cooldown_s,
            },
            failures: FailureConfig {
                mtbf_s: spec.mtbf_s,
            },
            slo: default_slos(tenants.iter().map(|t| t.kind)),
            seed: DetRng::new(spec.seed).derive(0xF1EE).derive(trial).seed(),
        };
        let hand = FleetSim::new(
            hand_cfg,
            Box::new(PowerOfTwoChoices::from_seed(router_seed(spec.seed, trial))),
            Box::new(SlamSlo::default_policy()),
        )
        .expect("boot")
        .run();

        let out = spec.run_trial(backend, trial);
        let hand_digests: Vec<u64> = hand.hosts.iter().map(|h| h.result.digest()).collect();
        assert_eq!(out.host_digests, hand_digests, "{}", backend.name());
        let stats = out.fleet.expect("fleet stats present");
        assert_eq!(
            (
                stats.scale_ups,
                stats.scale_downs,
                stats.crashes,
                stats.lost
            ),
            (hand.scale_ups, hand.scale_downs, hand.crashes, hand.lost)
        );
        assert_eq!(
            (stats.slo_violations, stats.slo_total),
            (hand.slo_violations, hand.slo_total)
        );
        assert_eq!(
            out.latency_over_time.as_ref().map(|r| r.sorted_points()),
            Some(hand.latency_over_time.sorted_points()),
            "reservoir timeline diverged"
        );
        assert_eq!(out.completed, hand.completed);
    }
}

#[test]
fn scenario_run_is_byte_identical_for_any_job_count() {
    let mut spec = Scenario::new("equiv-jobs", Topology::Cluster(2), WorkloadKind::Churn);
    spec.backends = vec![BackendKind::VirtioMem, BackendKind::Squeezy];
    spec.params.tenants = 3;
    spec.params.duration_s = 60.0;
    spec.params.rps = 2.0;
    spec.keepalive_s = 8.0;
    spec.trials = 2;

    // An axis-less spec is a one-cell grid on the one driver.
    let spec = SweepSpec::new(spec, Vec::new(), Vec::new()).expect("valid spec");
    let serial = spec.run(&ExpOpts::serial()).expect("runs");
    let parallel = spec.run(&ExpOpts::serial().with_jobs(4)).expect("runs");
    assert_eq!(serial.cells.len(), 1);
    assert_eq!(serial.cells[0].1.digest(), parallel.cells[0].1.digest());
    assert_eq!(serial.render(), parallel.render());
    // Fields a cluster doesn't produce report as absent, not zeros.
    for (_, trials) in &serial.cells[0].1.cells {
        for t in trials {
            assert!(t.fleet.is_none(), "no control plane on a cluster");
            assert!(t.latency_over_time.is_some());
        }
    }
}
