//! The multi-host data plane: routers and the cluster configuration.
//!
//! A cluster is N hosts under one event engine with a pluggable
//! [`Router`] that assigns each arriving request to a host at pop time
//! — so dynamic policies (least-loaded, warm-affinity) see real-time
//! load, not a static partition of the trace. There is no separate
//! cluster loop: a [`ClusterConfig`] runs as a fixed fleet
//! ([`crate::FleetConfig::fixed`] under [`crate::FixedFleet`]) on
//! [`crate::FleetSim`], the one engine every topology shares.

mod router;

pub use router::{
    HostLoad, LeastLoaded, PowerOfTwoChoices, RoundRobin, Router, RouterKind, SingleHost,
    WarmAffinity,
};

use crate::config::SimConfig;

/// One tenant's invocation trace, addressed to a deployment slot every
/// host exposes.
#[derive(Clone, Debug)]
pub struct TenantTrace {
    /// VM index of the tenant's deployment on each host.
    pub vm: usize,
    /// Deployment index within that VM.
    pub dep: usize,
    /// Sorted arrival times in seconds.
    pub arrivals: Vec<f64>,
}

/// A cluster: per-host simulation configs plus the tenant traces the
/// router spreads over them.
///
/// Every host must expose each tenant's `(vm, dep)` deployment slot;
/// arrival lists inside the host configs are ignored (the cluster owns
/// the traces). Hosts share `duration_s`.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Per-host simulation configs.
    pub hosts: Vec<SimConfig>,
    /// The tenant traces routed across the hosts.
    pub tenants: Vec<TenantTrace>,
}

impl ClusterConfig {
    /// Wraps a single-host config into a one-host cluster: its
    /// deployments' arrival traces move into the tenant traces, in
    /// flattened `(vm, dep)` order. Run behind the [`SingleHost`]
    /// router this is [`crate::FaasSim`].
    pub fn from_single(mut cfg: SimConfig) -> ClusterConfig {
        let tenants = cfg
            .vms
            .iter_mut()
            .enumerate()
            .flat_map(|(vi, spec)| {
                spec.deployments
                    .iter_mut()
                    .enumerate()
                    .map(move |(di, d)| TenantTrace {
                        vm: vi,
                        dep: di,
                        arrivals: std::mem::take(&mut d.arrivals),
                    })
            })
            .collect();
        ClusterConfig {
            hosts: vec![cfg],
            tenants,
        }
    }
}

/// Retained capacity of the fleet's time-resolved latency reservoir:
/// enough for windowed means over any run length, constant memory no
/// matter how many requests complete.
pub const LATENCY_RESERVOIR_CAP: usize = 4096;

/// Derivation tag of the reservoir's replacement stream (from the
/// fleet seed), distinct from every per-host jitter stream.
pub(crate) const RESERVOIR_STREAM: u64 = 0x5E5E;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BackendKind, Deployment, HarvestConfig, VmSpec};
    use crate::fleet::{FixedFleet, FleetConfig, FleetResult, FleetSim};
    use sim_core::Histogram;
    use workloads::FunctionKind;

    fn host_cfg(backend: BackendKind, tenants: usize, seed: u64) -> SimConfig {
        SimConfig {
            backend,
            harvest: HarvestConfig::default(),
            vms: vec![VmSpec {
                deployments: (0..tenants)
                    .map(|_| Deployment {
                        kind: FunctionKind::Html,
                        concurrency: 2,
                        arrivals: Vec::new(),
                    })
                    .collect(),
                vcpus: Some(2.0),
            }],
            host_capacity: u64::MAX / 2,
            keepalive_s: 20.0,
            duration_s: 60.0,
            sample_period_s: 1.0,
            unplug_deadline_ms: 5_000,
            record_latency_points: false,
            seed,
            trial: 0,
        }
    }

    fn two_host_cluster(router: Box<dyn Router>) -> FleetResult {
        let config = ClusterConfig {
            hosts: vec![
                host_cfg(BackendKind::Squeezy, 2, 1),
                host_cfg(BackendKind::Squeezy, 2, 2),
            ],
            tenants: vec![
                TenantTrace {
                    vm: 0,
                    dep: 0,
                    arrivals: vec![1.0, 1.1, 1.2, 1.3, 20.0, 20.1],
                },
                TenantTrace {
                    vm: 0,
                    dep: 1,
                    arrivals: vec![2.0, 2.1, 30.0],
                },
            ],
        };
        FleetSim::new(FleetConfig::fixed(config, 1), router, Box::new(FixedFleet))
            .expect("boot")
            .run()
    }

    fn routed_per_host(result: &FleetResult) -> Vec<u64> {
        result.routed.iter().map(|t| t.iter().sum()).collect()
    }

    #[test]
    fn round_robin_spreads_over_hosts() {
        let result = two_host_cluster(Box::new(RoundRobin::default()));
        assert_eq!(result.completed, 9, "every request served");
        assert_eq!(
            routed_per_host(&result),
            vec![5, 4],
            "alternating assignment"
        );
    }

    #[test]
    fn single_host_router_leaves_other_hosts_idle() {
        let result = two_host_cluster(Box::new(SingleHost));
        assert_eq!(result.completed, 9);
        assert_eq!(routed_per_host(&result)[1], 0);
        assert_eq!(result.hosts[1].result.completed, 0);
    }

    #[test]
    fn warm_affinity_reuses_warm_instances_more() {
        let warm = two_host_cluster(Box::new(WarmAffinity));
        let rr = two_host_cluster(Box::new(RoundRobin::default()));
        assert_eq!(warm.completed, rr.completed);
        let (_, warm_hits) = warm.cold_warm_starts();
        let (_, rr_hits) = rr.cold_warm_starts();
        assert!(
            warm_hits >= rr_hits,
            "affinity warm hits {warm_hits} ≥ round-robin {rr_hits}"
        );
    }

    #[test]
    fn cluster_runs_are_deterministic() {
        let a = two_host_cluster(Box::new(LeastLoaded));
        let b = two_host_cluster(Box::new(LeastLoaded));
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.routed, b.routed);
        let da: Vec<u64> = a.hosts.iter().map(|h| h.result.digest()).collect();
        let db: Vec<u64> = b.hosts.iter().map(|h| h.result.digest()).collect();
        assert_eq!(da, db);
    }

    #[test]
    fn merged_latency_covers_all_requests() {
        let result = two_host_cluster(Box::new(RoundRobin::default()));
        let merged = result.merged_latency();
        let total: usize = merged.values().map(Histogram::count).sum();
        assert_eq!(total as u64, result.completed);
    }

    #[test]
    fn latency_reservoir_sees_every_completion() {
        let result = two_host_cluster(Box::new(RoundRobin::default()));
        assert_eq!(result.latency_over_time.seen(), result.completed);
        assert_eq!(result.latency_over_time.len() as u64, result.completed);
        assert!(result
            .latency_over_time
            .points()
            .iter()
            .all(|&(t, l)| t >= 0.0 && l > 0.0));
    }
}
