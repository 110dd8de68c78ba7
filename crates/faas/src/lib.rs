//! An OpenWhisk-style FaaS runtime model over dynamically resized VMs.
//!
//! Reproduces the paper's deployment (§4.2, §5) in four explicit
//! layers:
//!
//! * **Backend layer** ([`backend`], internal): the pluggable
//!   [`BackendKind`] elasticity backends — Static, vanilla virtio-mem,
//!   HarvestVM-opts, Squeezy, Squeezy+soft — each in its own module
//!   behind one `ElasticityBackend` trait (plug/scale-up cost,
//!   reclaim-on-evict, pressure/revocation hooks).
//! * **Host layer** ([`sim`]): one host's backend-agnostic event
//!   handlers — a controller routes invocations to per-VM agents that
//!   reuse warm instances, scale up with memory plugs, keep idle
//!   instances alive and scale down with memory reclamation.
//! * **Cluster layer** ([`cluster`]): the pluggable [`Router`]s
//!   (round-robin, least-loaded, warm-affinity, power-of-two-choices)
//!   that spread tenant traffic over hosts, and the [`ClusterConfig`]
//!   of a fixed host set.
//! * **Fleet layer** ([`fleet`]): [`FleetSim`], the one event engine.
//!   It runs N hosts on a shared queue, routes at pop time, and adds a
//!   control plane — host lifecycle
//!   (Booting → Active → Draining → Retired, plus injected Failed),
//!   pluggable [`AutoscalePolicy`]s (target-utilization, queue-depth,
//!   SLAM-style SLO-aware), graceful drains and seeded failure
//!   injection.
//!
//! Every topology runs on that engine: a cluster is a fixed fleet
//! ([`FleetConfig::fixed`] under [`FixedFleet`]), and [`FaasSim`] —
//! the paper's single-host deployment — is a one-host fixed fleet
//! behind the [`SingleHost`] router.
//!
//! The **scenario front door** ([`scenario`]) sits above all four:
//! a declarative, serializable [`Scenario`] spec names a workload, a
//! topology, backends, a router, a policy and SLOs, and a [`SweepSpec`]
//! adds sweep axes and `expect.*` gates. [`FleetConfig::from_scenario`]
//! builds the fleet for any topology and [`SweepSpec::run`], the one
//! driver, runs every cell and renders one results table — every
//! experiment, the committed routing and autoscaling grids included,
//! is a spec file.
//!
//! Also provides the 1:1 microVM cold-start model for the Figure-11
//! comparison.

pub(crate) mod backend;
pub mod cluster;
pub mod config;
pub(crate) mod feed;
pub mod fleet;
pub mod hybrid;
pub mod metrics;
pub mod microvm;
pub mod scenario;
pub mod sim;

pub use cluster::{
    ClusterConfig, HostLoad, LeastLoaded, PowerOfTwoChoices, RoundRobin, Router, RouterKind,
    SingleHost, TenantTrace, WarmAffinity, LATENCY_RESERVOIR_CAP,
};
pub use config::{BackendKind, Deployment, HarvestConfig, SimConfig, VmSpec};
pub use fleet::{
    default_slos, AutoscaleOpts, AutoscalePolicy, FailureConfig, FixedFleet, FleetConfig,
    FleetResult, FleetSim, FleetView, HostOutcome, HostState, LatencyObs, PolicyKind, QueueDepth,
    ScaleDecision, SlamSlo, TargetUtilization,
};
pub use hybrid::{absorb_burst, BurstOutcome, ScaleStrategy};
pub use metrics::{FuncMetrics, ReclaimTotals, SimResult};
pub use microvm::{microvm_cold_start, n_to_one_cold_start, ColdStartBreakdown};
pub use scenario::{
    compare_results, render_verdicts, AxisValues, CompareReport, ExpectKind, ExpectVerdict,
    Expectation, FleetStats, GridOutcome, MetricDiff, Scenario, ScenarioOutcome, ScenarioResult,
    SweepAxis, SweepCell, SweepSpec, Topology, WorkloadSpec,
};
pub use sim::FaasSim;
