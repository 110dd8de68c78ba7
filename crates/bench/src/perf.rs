//! The pinned event-engine drumbeat scenario.
//!
//! One large, fully deterministic cluster — many identical hosts, a
//! steady all-warm drumbeat of invocations round-robined across them.
//! The `warm` workload of the repository benchmark (`perfbench/`) builds
//! from [`PerfConfig::quick`] and times it there; this module only pins
//! the construction, so the scenario must never change.
//!
//! The workload is deliberately warm-path heavy: per-host per-tenant
//! gaps sit far below the keep-alive window, so after the first round
//! of cold starts every invocation exercises the steady-state
//! dispatch/complete path the engine optimizations target.

use faas::cluster::ClusterConfig;
use faas::config::{BackendKind, Deployment, HarvestConfig, SimConfig, VmSpec};
use sim_core::DetRng;
use workloads::FunctionKind;

/// Root seed of the pinned scenario's per-host jitter streams.
pub const PERF_SEED: u64 = 0x9EF0;

/// Experiment scale. The rates are fixed; only the host count and
/// duration vary between users, so every scale exercises the same
/// per-host dynamics.
#[derive(Clone, Debug)]
pub struct PerfConfig {
    /// Hosts in the cluster.
    pub hosts: usize,
    /// Offered request rate per host (requests/sec).
    pub per_host_rps: f64,
    /// Trace length in seconds.
    pub duration_s: f64,
    /// Tenant functions (one deployment slot each on every host's VM).
    pub tenants: usize,
}

impl PerfConfig {
    /// CI scale: 32 hosts, ~64K invocations.
    pub fn quick() -> Self {
        PerfConfig {
            hosts: 32,
            per_host_rps: 5.0,
            duration_s: 400.0,
            tenants: 4,
        }
    }

    /// The hand-built cluster the scenario runs (the scenario layer
    /// caps cluster sizes, so the drumbeat assembles its
    /// `ClusterConfig` directly).
    pub fn cluster(&self) -> ClusterConfig {
        let host = |seed: u64| SimConfig {
            backend: BackendKind::Squeezy,
            harvest: HarvestConfig::default(),
            vms: vec![VmSpec {
                deployments: (0..self.tenants)
                    .map(|_| Deployment {
                        kind: FunctionKind::Html,
                        concurrency: 2,
                    })
                    .collect(),
                vcpus: Some(4.0),
            }],
            host_capacity: u64::MAX / 2,
            keepalive_s: 60.0,
            duration_s: self.duration_s,
            unplug_deadline_ms: 5_000,
            record_latency_points: false,
            seed,
            trial: 0,
        };
        // A deterministic drumbeat: fixed per-tenant cadence with a
        // phase offset so tenants never fire simultaneously. Round-robin
        // routing then spreads each tenant evenly over the hosts,
        // keeping every per-host instance inside its keep-alive window.
        let per_tenant_rps = self.hosts as f64 * self.per_host_rps / self.tenants as f64;
        let tenants = (0..self.tenants)
            .map(|ti| {
                let gap = 1.0 / per_tenant_rps;
                let phase = gap * (ti as f64 + 0.5) / self.tenants as f64;
                let mut arrivals = Vec::new();
                let mut t = phase;
                while t < self.duration_s {
                    arrivals.push(t);
                    t += gap;
                }
                arrivals
            })
            .collect();
        ClusterConfig {
            hosts: (0..self.hosts)
                .map(|h| host(DetRng::new(PERF_SEED).derive(h as u64).seed()))
                .collect(),
            tenants,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas::cluster::RoundRobin;
    use faas::fleet::{FixedFleet, FleetConfig, FleetResult, FleetSim};

    /// A test-sized pinned scenario (same construction, tiny scale).
    fn tiny() -> PerfConfig {
        PerfConfig {
            hosts: 2,
            per_host_rps: 2.0,
            duration_s: 30.0,
            tenants: 2,
        }
    }

    /// Runs `cfg` on a fixed round-robin fleet whose own streams are
    /// rooted at host 0's seed; returns the invocations offered and the
    /// outcome.
    fn run(cfg: &PerfConfig) -> (u64, FleetResult) {
        let cluster = cfg.cluster();
        let offered = cluster.tenants.iter().map(|t| t.len() as u64).sum();
        let seed = cluster.hosts[0].seed;
        let sim = FleetSim::new(
            FleetConfig::fixed(cluster, seed),
            Box::new(RoundRobin::default()),
            Box::new(FixedFleet),
        )
        .expect("hosts boot");
        (offered, sim.run())
    }

    #[test]
    fn perf_scenario_serves_every_invocation() {
        let (offered, out) = run(&tiny());
        assert!(offered > 0);
        assert_eq!(
            out.completed, offered,
            "an unsaturated warm cluster serves everything"
        );
        assert!(out.events_processed >= offered, "≥ 1 event per invocation");
        assert!(out.peak_queue_depth > 0);
    }

    #[test]
    fn perf_scenario_outcome_is_deterministic() {
        let (offered_a, a) = run(&tiny());
        let (offered_b, b) = run(&tiny());
        assert_eq!(offered_a, offered_b);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.peak_queue_depth, b.peak_queue_depth);
    }
}
