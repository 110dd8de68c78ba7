//! The declarative scenario API: one front door to every topology.
//!
//! A [`Scenario`] names everything an experiment needs — a workload
//! from the [`workloads::registry`], a topology
//! ([`Topology::SingleVm`] | [`Topology::Cluster`] | [`Topology::Fleet`]),
//! an elasticity backend per host (or a sweep list of them), a router,
//! an autoscale policy, SLOs, duration/seed/trials. A [`SweepSpec`]
//! wraps one with optional sweep axes and `expect.*` gates, and
//! [`SweepSpec::run`] is the one driver: it runs every cell of the grid
//! (an axis-less spec is a one-cell grid) as a [`crate::FleetSim`]
//! built by [`FleetConfig::from_scenario`], returns one
//! [`ScenarioResult`] per cell, and renders them through one results
//! table. Every experiment is a data change: a spec file (see
//! [`SweepSpec::parse`] / [`SweepSpec::render`] for the line-oriented
//! `key = value` format; the committed grids live in
//! `examples/scenarios/`) instead of hand-wired config glue.
//!
//! Determinism contract: a scenario's RNG streams are derived from
//! `(seed, trial)` through the *same* stream tags the bench harness
//! has always used, so
//!
//! * every backend of a sweep sees identical tenant traces and crash
//!   plans (paired comparison), and
//! * `Scenario::run_trial` is byte-identical to a hand-built
//!   `SimConfig`/`ClusterConfig`/`FleetConfig` — the
//!   `scenario_equivalence` tests pin all three topologies, and
//!   `topology_golden` pins every committed spec's digest.

mod compare;
mod expect;
mod format;
mod result;
mod sweep;

pub use compare::{compare_results, CompareReport, MetricDiff, ALPHA};
pub use expect::{render_verdicts, ExpectKind, ExpectVerdict, Expectation};
pub use result::{FleetStats, ScenarioOutcome, ScenarioResult};
pub use sweep::{AxisValues, GridOutcome, SweepAxis, SweepCell, SweepSpec, MAX_CELLS};

use sim_core::DetRng;
use workloads::{FunctionKind, TenantLoad, WorkloadKind, WorkloadParams};

use crate::cluster::{Router, RouterKind, SingleHost};
use crate::config::{BackendKind, HarvestConfig, SimConfig};
use crate::fleet::{default_slos, AutoscalePolicy, FixedFleet, PolicyKind};
use crate::{FleetConfig, FleetSim};

/// Derivation tag of the tenant-trace stream: traces depend on
/// `(seed, trial)` only, never on the backend or router under test.
pub(crate) const TRACE_STREAM: u64 = 0x77;

/// Base tag of per-host jitter seeds (`host_seed(h) = seed → 0x40+h`).
pub(crate) const HOST_SEED_BASE: u64 = 0x40;

/// Largest host count a spec may ask for. Host indices above this
/// would push `0x40 + h` into the reserved tags ([`TEMPLATE_TAG`]'s
/// `0x40 + 0x3E` and [`TRACE_STREAM`]), aliasing streams the design
/// promises are independent — `validate` rejects such specs.
pub(crate) const HOST_TAG_CAP: usize = 0x20;

/// Host-seed tag of the fleet's boot template — above every valid
/// initial host index (see [`HOST_TAG_CAP`]), so booted hosts never
/// share an initial host's stream.
pub(crate) const TEMPLATE_TAG: u64 = 0x3E;

/// Derivation tag of the fleet's own streams (crash plan, reservoir).
pub(crate) const FLEET_STREAM: u64 = 0xF1EE;

/// The workload a scenario drives: a named generator from the
/// [`workloads::registry`], or a trace file streamed from disk.
///
/// Both reach the engine through one [`workloads::TraceSource`] feed.
/// Named workloads materialize their arrival lists up front — fine at
/// experiment scale. `trace(<path>)` streams an on-disk trace
/// (azure-minute or opendc, see [`workloads::TRACE_MAGIC`]) instead,
/// so a multi-day, multi-million-invocation replay never holds more
/// than the pending events in memory. The trace file also replaces the `tenants`/`rps`
/// workload params: its `# tenants = ...` directive defines the
/// deployment slots.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadSpec {
    /// A named generator ([`WorkloadKind`]).
    Named(WorkloadKind),
    /// A trace file, replayed lazily from disk.
    Trace(String),
}

impl WorkloadSpec {
    /// Registry key used by spec files (`trace(<path>)` carries its
    /// path).
    pub fn key(&self) -> String {
        match self {
            WorkloadSpec::Named(k) => k.key().to_string(),
            WorkloadSpec::Trace(path) => format!("trace({path})"),
        }
    }

    /// Parses a workload key; `Err` carries the valid forms.
    pub fn from_key(key: &str) -> Result<WorkloadSpec, String> {
        if let Some(inner) = key
            .strip_prefix("trace(")
            .and_then(|rest| rest.strip_suffix(')'))
        {
            if inner.is_empty() {
                return Err("trace(<path>) needs a file path".to_string());
            }
            return Ok(WorkloadSpec::Trace(inner.to_string()));
        }
        match WorkloadKind::from_key(key) {
            Ok(k) => Ok(WorkloadSpec::Named(k)),
            Err(e) => Err(format!("{e}, or trace(<path>)")),
        }
    }
}

impl From<WorkloadKind> for WorkloadSpec {
    fn from(kind: WorkloadKind) -> WorkloadSpec {
        WorkloadSpec::Named(kind)
    }
}

/// Named-workload comparisons read naturally at call sites
/// (`spec.workload == WorkloadKind::Diurnal`).
impl PartialEq<WorkloadKind> for WorkloadSpec {
    fn eq(&self, other: &WorkloadKind) -> bool {
        matches!(self, WorkloadSpec::Named(k) if k == other)
    }
}

/// The host set a scenario runs on. Every topology runs on
/// [`crate::FleetSim`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Topology {
    /// One host, the paper's deployment (what [`crate::FaasSim`]
    /// runs).
    SingleVm,
    /// `n` hosts behind a router, a fixed fleet.
    Cluster(usize),
    /// An elastic host set with a control plane.
    Fleet,
}

impl Topology {
    /// Registry key used by spec files (`cluster(4)` carries its size).
    pub fn key(self) -> String {
        match self {
            Topology::SingleVm => "single-vm".to_string(),
            Topology::Cluster(n) => format!("cluster({n})"),
            Topology::Fleet => "fleet".to_string(),
        }
    }

    /// Parses a topology key; `Err` carries the valid forms.
    pub fn from_key(key: &str) -> Result<Topology, String> {
        match key {
            "single-vm" => Ok(Topology::SingleVm),
            "fleet" => Ok(Topology::Fleet),
            other => {
                let inner = other
                    .strip_prefix("cluster(")
                    .and_then(|rest| rest.strip_suffix(')'));
                match inner.and_then(|n| n.parse::<usize>().ok()) {
                    Some(n) => Ok(Topology::Cluster(n)),
                    None => Err(format!(
                        "unknown topology {key:?} (valid: single-vm, cluster(N), fleet)"
                    )),
                }
            }
        }
    }
}

/// A declarative experiment specification — the single public entry
/// point to the single-VM, cluster and fleet simulators.
///
/// Build one in code (start from [`Scenario::new`] and set fields) or
/// load one from a spec file with [`Scenario::parse`]. Fields that a
/// topology does not use are simply ignored by it (`policy` on a
/// cluster, `router` on a single VM); [`Scenario::validate`] checks
/// values and cross-field consistency up front with real error
/// messages.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Display name (also the report-section title under `repro run`).
    pub name: String,
    /// Which simulator runs the spec.
    pub topology: Topology,
    /// The elasticity backends to sweep — one [`ScenarioResult`] cell
    /// per backend, all under identical traces (paired comparison).
    pub backends: Vec<BackendKind>,
    /// The workload: a named generator or a streamed trace file.
    pub workload: WorkloadSpec,
    /// The workload parameter block (tenants, rates, duration, ...).
    pub params: WorkloadParams,
    /// Per-tenant max concurrent instances on each host.
    pub concurrency: u32,
    /// Keep-alive window before evicting idle instances, in seconds.
    pub keepalive_s: f64,
    /// Physical memory per host, in bytes.
    pub host_capacity: u64,
    /// Routing policy (cluster and fleet topologies).
    pub router: RouterKind,
    /// Autoscale policy (fleet topology).
    pub policy: PolicyKind,
    /// Fleet size floor (fleet topology).
    pub min_hosts: usize,
    /// Fleet size ceiling; the `fixed` policy provisions at this peak.
    pub max_hosts: usize,
    /// Provisioning delay for booted hosts, in seconds.
    pub boot_delay_s: f64,
    /// Cooldown between scale actions, in seconds.
    pub cooldown_s: f64,
    /// Mean time between injected host crashes (0 disables; fleet
    /// topology).
    pub mtbf_s: f64,
    /// Per-function SLO target overrides in milliseconds; functions
    /// without an override use [`default_slos`].
    pub slo: Vec<(FunctionKind, f64)>,
    /// Root seed of every derived stream.
    pub seed: u64,
    /// Repeated trials on derived RNG streams (a `repro run --trials`
    /// flag larger than 1 overrides this).
    pub trials: u32,
}

impl Scenario {
    /// A scenario with the registry defaults: Squeezy backend,
    /// least-loaded router, fixed fleet policy, 6 GiB hosts, seed 42,
    /// one trial.
    pub fn new(name: &str, topology: Topology, workload: impl Into<WorkloadSpec>) -> Scenario {
        Scenario {
            name: name.to_string(),
            topology,
            backends: vec![BackendKind::Squeezy],
            workload: workload.into(),
            params: WorkloadParams::default(),
            concurrency: 2,
            keepalive_s: 20.0,
            host_capacity: 6 * mem_types::GIB,
            router: RouterKind::LeastLoaded,
            policy: PolicyKind::Fixed,
            min_hosts: 1,
            max_hosts: 4,
            boot_delay_s: 15.0,
            cooldown_s: 10.0,
            mtbf_s: 0.0,
            slo: Vec::new(),
            seed: 42,
            trials: 1,
        }
    }

    /// Validates the spec up front; `Err` lists *every* problem, one
    /// per line, so a spec file is fixed in one pass.
    pub fn validate(&self) -> Result<(), String> {
        let mut errs: Vec<String> = Vec::new();
        let mut check = |ok: bool, msg: String| {
            if !ok {
                errs.push(msg);
            }
        };
        let p = &self.params;
        // The spec format stores the name as one `key = value` line
        // with trimmed ends, so only names that survive that trip are
        // valid — `parse(render(s)) == s` depends on it.
        check(
            !self.name.is_empty() && !self.name.contains('\n') && self.name.trim() == self.name,
            "name must be non-empty and single-line, without leading/trailing whitespace"
                .to_string(),
        );
        check(
            !self.backends.is_empty(),
            "backend list must not be empty".to_string(),
        );
        for (i, b) in self.backends.iter().enumerate() {
            check(
                !self.backends[..i].contains(b),
                format!("backend {} listed twice", b.key()),
            );
        }
        check(
            p.tenants >= 1,
            format!("tenants must be ≥ 1 (got {})", p.tenants),
        );
        let positive = |v: f64| v.is_finite() && v > 0.0;
        check(
            positive(p.duration_s),
            format!("duration_s must be positive (got {})", p.duration_s),
        );
        check(
            positive(p.rps),
            format!("rps must be positive (got {})", p.rps),
        );
        check(
            p.zipf_exponent.is_finite() && p.zipf_exponent >= 0.0,
            format!("zipf_exponent must be ≥ 0 (got {})", p.zipf_exponent),
        );
        if let WorkloadSpec::Trace(path) = &self.workload {
            // Same round-trip constraint as the name: the path lives
            // inside one `workload = trace(<path>)` line.
            check(
                !path.is_empty() && !path.contains('\n') && path.trim() == path,
                "trace path must be non-empty and single-line, without leading/trailing whitespace"
                    .to_string(),
            );
        }
        if self.workload == WorkloadKind::Diurnal {
            check(
                positive(p.trough_rps),
                format!("trough_rps must be positive (got {})", p.trough_rps),
            );
            check(
                p.trough_rps <= p.rps,
                format!(
                    "trough_rps ({}) must be ≤ rps ({}, the diurnal peak)",
                    p.trough_rps, p.rps
                ),
            );
            check(
                positive(p.period_s),
                format!("period_s must be positive (got {})", p.period_s),
            );
            check(
                p.burst_factor.is_finite() && p.burst_factor >= 1.0,
                format!("burst_factor must be ≥ 1 (got {})", p.burst_factor),
            );
            check(
                (0.0..1.0).contains(&p.burst_duty),
                format!("burst_duty must be in [0, 1) (got {})", p.burst_duty),
            );
        }
        check(
            self.concurrency >= 1,
            format!("concurrency must be ≥ 1 (got {})", self.concurrency),
        );
        check(
            self.keepalive_s.is_finite() && self.keepalive_s >= 0.0,
            format!("keepalive_s must be ≥ 0 (got {})", self.keepalive_s),
        );
        check(
            self.host_capacity > 0,
            "host_capacity must be positive".to_string(),
        );
        if let Topology::Cluster(n) = self.topology {
            check(n >= 1, format!("cluster size must be ≥ 1 (got {n})"));
            check(
                n <= HOST_TAG_CAP,
                format!("cluster size must be ≤ {HOST_TAG_CAP} (got {n}): host seed tags live below the reserved stream tags"),
            );
        }
        if self.topology == Topology::Fleet {
            check(
                self.min_hosts >= 1,
                format!("min_hosts must be ≥ 1 (got {})", self.min_hosts),
            );
            check(
                self.max_hosts >= self.min_hosts,
                format!(
                    "max_hosts ({}) must be ≥ min_hosts ({})",
                    self.max_hosts, self.min_hosts
                ),
            );
            check(
                self.max_hosts <= HOST_TAG_CAP,
                format!("max_hosts must be ≤ {HOST_TAG_CAP} (got {}): host seed tags live below the reserved stream tags", self.max_hosts),
            );
            check(
                positive(self.boot_delay_s),
                format!("boot_delay_s must be positive (got {})", self.boot_delay_s),
            );
            check(
                self.cooldown_s.is_finite() && self.cooldown_s >= 0.0,
                format!("cooldown_s must be ≥ 0 (got {})", self.cooldown_s),
            );
            check(
                self.mtbf_s.is_finite() && self.mtbf_s >= 0.0,
                format!("mtbf_s must be ≥ 0 (got {}; 0 disables)", self.mtbf_s),
            );
        }
        for (i, &(kind, target)) in self.slo.iter().enumerate() {
            check(
                positive(target),
                format!("slo.{} must be positive (got {target})", kind.key()),
            );
            check(
                !self.slo[..i].iter().any(|&(k, _)| k == kind),
                format!("slo.{} listed twice", kind.key()),
            );
        }
        check(
            self.trials >= 1,
            format!("trials must be ≥ 1 (got {})", self.trials),
        );
        if errs.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "scenario {:?} is invalid:\n  - {}",
                self.name,
                errs.join("\n  - ")
            ))
        }
    }

    /// A CI-scale variant: duration capped at 120 simulated seconds,
    /// one trial. Deterministic, so `repro run --quick` output stays
    /// byte-identical across job counts.
    pub fn quick(&self) -> Scenario {
        let mut s = self.clone();
        s.params.duration_s = s.params.duration_s.min(120.0);
        s.params.period_s = s.params.period_s.min(120.0);
        s.trials = 1;
        s
    }

    /// Synthesizes this scenario's tenant traces for one trial —
    /// derived from `(seed, trial)` alone, so every backend of the
    /// sweep sees identical load.
    ///
    /// For a `trace(<path>)` workload this only reads the file's
    /// header: the tenant slots come back with *empty* arrival lists
    /// (the body streams lazily at run time, never materialized).
    ///
    /// # Panics
    ///
    /// Panics if a trace file's header cannot be read — [`SweepSpec::run`]
    /// preflights the whole file first, so this only fires when
    /// `run_trial` is driven directly against a bad path.
    pub fn tenant_loads(&self, trial: u64) -> Vec<TenantLoad> {
        match &self.workload {
            WorkloadSpec::Named(kind) => {
                let mut rng = DetRng::new(self.seed).derive(TRACE_STREAM).derive(trial);
                kind.generate(&self.params, &mut rng)
            }
            WorkloadSpec::Trace(path) => workloads::read_trace_header(path)
                .unwrap_or_else(|e| panic!("trace {path}: {e}"))
                .kinds
                .into_iter()
                .map(|kind| TenantLoad {
                    kind,
                    arrivals: Vec::new(),
                })
                .collect(),
        }
    }

    /// Tenant slots a run deploys: a trace file's `# tenants = ...`
    /// count, else the spec's `tenants` (every named generator makes
    /// exactly that many).
    ///
    /// # Panics
    ///
    /// Panics if a trace file's header cannot be read, like
    /// [`Scenario::tenant_loads`].
    pub(crate) fn tenant_count(&self) -> usize {
        match &self.workload {
            WorkloadSpec::Named(_) => self.params.tenants,
            WorkloadSpec::Trace(_) => self.tenant_loads(0).len(),
        }
    }

    /// Jitter seed of host `tag` (host index, or [`TEMPLATE_TAG`]).
    pub(crate) fn host_seed(&self, tag: u64) -> u64 {
        DetRng::new(self.seed).derive(HOST_SEED_BASE + tag).seed()
    }

    /// Seed of the router's probe stream for one trial.
    pub fn router_seed(&self, trial: u64) -> u64 {
        DetRng::new(self.seed).derive(trial).seed()
    }

    /// Seed of the fleet's own streams (crash plan, reservoir) for one
    /// trial.
    pub(crate) fn fleet_seed(&self, trial: u64) -> u64 {
        DetRng::new(self.seed)
            .derive(FLEET_STREAM)
            .derive(trial)
            .seed()
    }

    /// The per-host base config every topology clones: one deployment
    /// slot per tenant, in tenant order.
    pub(crate) fn host_config(
        &self,
        tenants: &[TenantLoad],
        backend: BackendKind,
        seed: u64,
        trial: u64,
    ) -> SimConfig {
        SimConfig {
            backend,
            harvest: HarvestConfig::default(),
            vms: vec![crate::config::VmSpec {
                deployments: tenants
                    .iter()
                    .map(|t| crate::config::Deployment {
                        kind: t.kind,
                        concurrency: self.concurrency,
                    })
                    .collect(),
                vcpus: None,
            }],
            host_capacity: self.host_capacity,
            keepalive_s: self.keepalive_s,
            duration_s: self.params.duration_s,
            unplug_deadline_ms: 5_000,
            record_latency_points: false,
            seed,
            trial,
        }
    }

    /// Effective per-function SLO targets: [`default_slos`] over the
    /// workload's function kinds, with this spec's overrides applied.
    pub fn effective_slos(
        &self,
        kinds: impl IntoIterator<Item = FunctionKind>,
    ) -> Vec<(FunctionKind, f64)> {
        let mut slos = default_slos(kinds);
        for &(kind, target) in &self.slo {
            match slos.iter_mut().find(|(k, _)| *k == kind) {
                Some(entry) => entry.1 = target,
                None => slos.push((kind, target)),
            }
        }
        slos
    }

    /// Runs one `(backend, trial)` cell on the fleet engine.
    ///
    /// Every topology is one [`FleetConfig::from_scenario`] run through
    /// [`FleetSim`]: a single VM behind the [`SingleHost`] router, a
    /// cluster behind the spec's router, both under the
    /// [`FixedFleet`] policy, and a fleet under the spec's router and
    /// policy. A `trace(<path>)` workload streams from the file —
    /// never materialized, metrics bounded. `offered` is the number of
    /// arrivals the feed injected within the duration.
    ///
    /// This is the unit [`SweepSpec::run`] shards over the experiment
    /// engine, one call per `(cell, backend, trial)`.
    ///
    /// # Panics
    ///
    /// Panics if a host fails to boot (e.g. `host_capacity` smaller
    /// than the VMs' boot memory) — the same contract as constructing
    /// the simulator by hand.
    pub fn run_trial(&self, backend: BackendKind, trial: u64) -> ScenarioOutcome {
        let cfg = FleetConfig::from_scenario(self, backend, trial);
        let router: Box<dyn Router> = match self.topology {
            Topology::SingleVm => Box::new(SingleHost),
            _ => self.router.build(self.router_seed(trial)),
        };
        let policy: Box<dyn AutoscalePolicy> = match self.topology {
            Topology::Fleet => self.policy.build(),
            _ => Box::new(FixedFleet),
        };
        let sim = match &self.workload {
            WorkloadSpec::Named(_) => FleetSim::new(cfg, router, policy),
            WorkloadSpec::Trace(path) => {
                let source = workloads::open_trace(path, trial)
                    .unwrap_or_else(|e| panic!("trace {path}: {e}"));
                FleetSim::with_source(cfg, router, policy, source, path)
            }
        };
        let result = sim.expect("scenario hosts boot").run();
        ScenarioOutcome::new(self.topology, backend, trial, result)
    }
}

/// The registry listing `repro scenarios` prints: every name the spec
/// format resolves, with one-line workload descriptions and the full
/// key set.
pub fn registry_help() -> String {
    let mut out = String::from("Scenario registry — the names a spec file may use\n\n");
    out.push_str("topologies:  single-vm, cluster(N), fleet\n");
    out.push_str("workloads:\n");
    for w in WorkloadKind::ALL {
        out.push_str(&format!("  {:<13} {}\n", w.key(), w.describe()));
    }
    out.push_str(
        "  trace(<path>) replay a trace file lazily from disk (azure-minute or opendc; \
         write one with `repro gen-trace`)\n",
    );
    let keys = |items: Vec<&'static str>| items.join(", ");
    out.push_str(&format!(
        "backends:    {}\n",
        keys(BackendKind::ALL.iter().map(|b| b.key()).collect())
    ));
    out.push_str(&format!(
        "routers:     {}\n",
        keys(RouterKind::ALL.iter().map(|r| r.key()).collect())
    ));
    out.push_str(&format!(
        "policies:    {}\n",
        keys(PolicyKind::ALL.iter().map(|p| p.key()).collect())
    ));
    out.push_str("\nspec keys (line-oriented `key = value`, `#` comments):\n  ");
    out.push_str(&format::KEYS.join(", "));
    out.push_str("\n  plus per-function SLO overrides: ");
    let slo_keys: Vec<String> = FunctionKind::ALL
        .iter()
        .map(|k| format!("slo.{}", k.key()))
        .collect();
    out.push_str(&slo_keys.join(", "));
    out.push('\n');
    out.push_str(
        "\nsweep axes — any of these keys also accepts a list `a, b, c` or a range \
         `lo..hi step N` / `lo..hi step Nx` (multiplicative), expanding the spec into a \
         named grid of cells:\n  ",
    );
    out.push_str(&sweep::SWEEPABLE.join(", "));
    out.push_str(
        "\n  (`hosts` sweeps cluster size or fleet max_hosts; a `backend` list sweeps \
         as before, crossed in as the outermost grid dimension)\n",
    );
    out.push_str(
        "\nexpectation gates (evaluated per cell after the run; `repro run` exits \
         nonzero when one fails):\n",
    );
    for e in expect::ExpectKind::ALL {
        out.push_str(&format!("  {:<22} {}\n", e.key(), e.describe()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_keys_round_trip() {
        for t in [Topology::SingleVm, Topology::Cluster(7), Topology::Fleet] {
            assert_eq!(Topology::from_key(&t.key()), Ok(t));
        }
        assert!(Topology::from_key("cluster(x)").is_err());
        assert!(Topology::from_key("mesh").unwrap_err().contains("fleet"));
    }

    #[test]
    fn validate_collects_every_problem() {
        let mut s = Scenario::new("bad", Topology::Fleet, WorkloadKind::Diurnal);
        s.params.rps = -1.0;
        s.params.trough_rps = 5.0;
        s.min_hosts = 3;
        s.max_hosts = 2;
        s.trials = 0;
        let err = s.validate().unwrap_err();
        assert!(err.contains("rps must be positive"), "{err}");
        assert!(
            err.contains("max_hosts (2) must be ≥ min_hosts (3)"),
            "{err}"
        );
        assert!(err.contains("trials must be ≥ 1"), "{err}");
    }

    #[test]
    fn validate_rejects_unroundtrippable_names_and_tag_collisions() {
        let mut s = Scenario::new(" padded ", Topology::Cluster(56), WorkloadKind::ZipfCluster);
        let err = s.validate().unwrap_err();
        assert!(err.contains("without leading/trailing whitespace"), "{err}");
        assert!(err.contains("cluster size must be ≤ 32"), "{err}");
        s = Scenario::new("multi\nline", Topology::Fleet, WorkloadKind::Diurnal);
        s.max_hosts = 63;
        let err = s.validate().unwrap_err();
        assert!(err.contains("single-line"), "{err}");
        assert!(err.contains("max_hosts must be ≤ 32"), "{err}");
    }

    #[test]
    fn validate_accepts_the_defaults() {
        for topo in [Topology::SingleVm, Topology::Cluster(2), Topology::Fleet] {
            for w in WorkloadKind::ALL {
                Scenario::new("ok", topo, w).validate().expect("valid");
            }
        }
    }

    #[test]
    fn quick_caps_duration_and_trials() {
        let mut s = Scenario::new("q", Topology::Fleet, WorkloadKind::Diurnal);
        s.params.duration_s = 600.0;
        s.params.period_s = 600.0;
        s.trials = 5;
        let q = s.quick();
        assert_eq!(q.params.duration_s, 120.0);
        assert_eq!(q.params.period_s, 120.0, "quick still sees a full cycle");
        assert_eq!(q.trials, 1);
        // Already-small durations are untouched.
        let mut small = Scenario::new("s", Topology::SingleVm, WorkloadKind::AzureTrace);
        small.params.duration_s = 60.0;
        small.params.period_s = 60.0;
        assert_eq!(small.quick(), small);
    }

    #[test]
    fn traces_are_paired_across_backends_and_independent_across_trials() {
        let s = Scenario::new("t", Topology::Cluster(2), WorkloadKind::ZipfCluster);
        let a = s.tenant_loads(0);
        let b = s.tenant_loads(0);
        for (ta, tb) in a.iter().zip(&b) {
            assert_eq!(ta.arrivals, tb.arrivals);
        }
        let c = s.tenant_loads(1);
        assert_ne!(
            a.iter().map(|t| t.arrivals.len()).sum::<usize>(),
            usize::MAX,
            "sanity"
        );
        assert!(
            a.iter().zip(&c).any(|(x, y)| x.arrivals != y.arrivals),
            "trials draw distinct traces"
        );
    }

    #[test]
    fn effective_slos_apply_overrides() {
        let mut s = Scenario::new("slo", Topology::Fleet, WorkloadKind::Diurnal);
        s.slo = vec![(FunctionKind::Html, 99.0)];
        let slos = s.effective_slos([FunctionKind::Html, FunctionKind::Cnn]);
        let get = |k| slos.iter().find(|(kk, _)| *kk == k).unwrap().1;
        assert_eq!(get(FunctionKind::Html), 99.0, "override wins");
        assert!(get(FunctionKind::Cnn) > 300.0, "default kept");
    }

    #[test]
    fn registry_help_lists_everything() {
        let help = registry_help();
        for needle in [
            "single-vm",
            "cluster(N)",
            "fleet",
            "diurnal",
            "squeezy-soft",
            "power-of-two",
            "slam-slo",
            "host_capacity",
            "slo.bert",
            "hosts",
            "lo..hi step N",
            "expect.p99_ms_max",
            "expect.slo_viol_max",
            "expect.completion_min",
        ] {
            assert!(help.contains(needle), "missing {needle} in:\n{help}");
        }
        // Help is sourced from the registries, so every gate is listed.
        for e in expect::ExpectKind::ALL {
            assert!(help.contains(e.key()), "missing {} in help", e.key());
        }
    }
}
