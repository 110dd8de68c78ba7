//! The fleet simulator: the one event engine every topology runs on.
//!
//! [`FleetSim`] drives N `HostSim`s on one shared deterministic
//! queue, routes each arriving request to a host at pop time through a
//! pluggable [`Router`], and puts a control plane on top:
//!
//! * **Host lifecycle** — every host moves through
//!   [`HostState::Booting`] → [`HostState::Active`] →
//!   [`HostState::Draining`] → [`HostState::Retired`], or is forced to
//!   [`HostState::Failed`] by injected crashes. Routers only ever see
//!   Active hosts. A host that retires or fails is finished on the
//!   spot: its result is kept and its VMs and memmap are freed.
//! * **Autoscaling** — an [`AutoscalePolicy`] ticks on a fixed control
//!   period and decides to grow (boot new hosts from a template config,
//!   ready after a provisioning delay) or shrink (gracefully drain).
//!   The fleet clamps decisions to `[min_hosts, max_hosts]` and
//!   enforces a cooldown, so policies only express intent.
//! * **Graceful drains** — a draining host stops receiving requests but
//!   keeps serving its queue and in-flight executions; its warm
//!   instances expire through the ordinary keep-alive path, their
//!   memory is reclaimed through the backend, and only when the host is
//!   fully quiescent does it retire. Nothing is lost on a drain.
//! * **Failure injection** — seeded crash times (see
//!   [`FailureConfig`]) kill a host outright: its queued requests are
//!   requeued to the surviving fleet (fresh arrival clocks, as a
//!   client retry would), its in-flight executions are counted lost.
//!
//! The other topologies are special cases: a `cluster(n)` is a fixed
//! fleet of `n` hosts ([`FleetConfig::fixed`] with the [`FixedFleet`]
//! policy), and the paper's single host ([`crate::FaasSim`]) is a
//! one-host fixed fleet behind the [`crate::cluster::SingleHost`]
//! router. A fixed fleet schedules no control ticks and no crashes, so
//! its queue holds only host events.
//!
//! Tenant `i` is deployment slot `i` of every host (VM-major, then
//! deployment). A run's arrivals come either as one list per tenant
//! ([`FleetSim::new`], exact metrics) or as a streamed
//! [`TraceSource`] ([`FleetSim::with_source`], bounded metrics); both
//! reach the engine through the same lazy lookahead feed.
//!
//! Determinism is structural: the shared queue breaks time ties FIFO,
//! arrivals are fed lazily in tenant order, routers are deterministic,
//! and every random choice (crash times, victims, power-of-two probes,
//! reservoir replacement) draws from its own derived [`DetRng`]
//! stream. The `golden` and `topology_golden` suites pin the output
//! byte for byte.

mod failure;
mod policy;

pub use failure::FailureConfig;
pub use policy::{
    default_slos, AutoscalePolicy, FixedFleet, FleetView, LatencyObs, PolicyKind, QueueDepth,
    ScaleDecision, SlamSlo, TargetUtilization,
};

use std::collections::BTreeMap;

use sim_core::{DetRng, EventQueue, Histogram, Reservoir, SimDuration, SimTime, TimeSeries};
use vmm::VmmError;
use workloads::{FunctionKind, MaterializedSource, TenantLoad, TraceSource};

use crate::cluster::{ClusterConfig, HostLoad, Router, LATENCY_RESERVOIR_CAP, RESERVOIR_STREAM};
use crate::config::SimConfig;
use crate::feed::ArrivalStream;
use crate::metrics::SimResult;
use crate::sim::events::Event;
use crate::sim::host::HostSim;
use failure::FailureInjector;

/// Derivation tag of the failure injector's stream (from the fleet
/// seed).
const FAILURE_STREAM: u64 = 0xFA11;

/// Derivation tag of booted-host config seeds (from the template
/// seed).
const BOOT_STREAM: u64 = 0xB007;

/// How long an unroutable arrival waits before retrying while capacity
/// is provisioning.
const DEFER_RETRY_S: f64 = 1.0;

/// Where a host is in its life.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HostState {
    /// Provisioning: booted by the autoscaler, not yet routable.
    Booting,
    /// Serving traffic.
    Active,
    /// No longer routable; finishing queued/in-flight work and letting
    /// warm instances expire before retiring.
    Draining,
    /// Drained to quiescence and removed from the fleet.
    Retired,
    /// Crashed by failure injection.
    Failed,
}

/// Fleet-wide autoscaling limits, applied to every policy decision.
#[derive(Clone, Copy, Debug)]
pub struct AutoscaleOpts {
    /// The fleet never drains below this many provisioned hosts.
    pub min_hosts: usize,
    /// The fleet never grows above this many provisioned hosts.
    pub max_hosts: usize,
    /// Provisioning delay between the boot decision and the host
    /// becoming routable, in seconds.
    pub boot_delay_s: f64,
    /// Minimum spacing between scale actions, in seconds.
    pub cooldown_s: f64,
}

impl Default for AutoscaleOpts {
    fn default() -> Self {
        AutoscaleOpts {
            min_hosts: 1,
            max_hosts: 16,
            boot_delay_s: 30.0,
            cooldown_s: 20.0,
        }
    }
}

/// A fleet: the hosts present at time zero, a template for hosts the
/// autoscaler boots later, the tenant arrival lists, and the
/// control-plane knobs.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Hosts active at the start of the run.
    pub initial_hosts: Vec<SimConfig>,
    /// Config cloned for every autoscaler-booted host; its jitter seed
    /// is re-derived per host so no two hosts share a stream.
    pub template: SimConfig,
    /// Sorted arrival times in seconds, one list per tenant, routed
    /// across the fleet. Tenant `i` is flattened deployment slot `i`
    /// of every host (initial and template), as in [`ClusterConfig`].
    pub tenants: Vec<Vec<f64>>,
    /// Autoscaling limits.
    pub autoscale: AutoscaleOpts,
    /// Failure injection.
    pub failures: FailureConfig,
    /// Per-function latency targets in milliseconds (SLO accounting
    /// and the SLAM-style policy).
    pub slo: Vec<(FunctionKind, f64)>,
    /// Root seed of the fleet's own streams (failures, reservoir).
    pub seed: u64,
}

impl FleetConfig {
    /// Wraps a [`ClusterConfig`] into a frozen fleet: same hosts, same
    /// tenants, autoscaling and failures off. Run it with the
    /// [`FixedFleet`] policy. `seed` roots the fleet's own streams
    /// (the latency reservoir).
    pub fn fixed(cluster: ClusterConfig, seed: u64) -> FleetConfig {
        let template = cluster.hosts[0].clone();
        let n = cluster.hosts.len();
        let slo = default_slos(
            template
                .vms
                .iter()
                .flat_map(|v| v.deployments.iter().map(|d| d.kind)),
        );
        FleetConfig {
            initial_hosts: cluster.hosts,
            template,
            tenants: cluster.tenants,
            autoscale: AutoscaleOpts {
                min_hosts: n,
                max_hosts: n,
                ..AutoscaleOpts::default()
            },
            failures: FailureConfig::off(),
            slo,
            seed,
        }
    }

    /// Builds the fleet a scenario runs, for any topology:
    ///
    /// * `single-vm` — one host on host seed 0 that records exact
    ///   per-request latency points (the Figure-9-style view);
    /// * `cluster(n)` — `n` identical hosts on derived jitter seeds,
    ///   the fleet's own streams rooted at host 0's seed;
    /// * `fleet` — the `fixed` policy provisions `max_hosts` up front
    ///   (the static peak-capacity baseline), every other policy
    ///   starts at `min_hosts` and earns its capacity, with the
    ///   scenario's crash plan and a per-trial fleet seed.
    ///
    /// Only `fleet` scales or fails: the first two are frozen fleets
    /// that [`crate::Scenario::run_trial`] runs under [`FixedFleet`].
    /// The boot template sits on its own seed tag so autoscaler-booted
    /// hosts never share an initial host's jitter stream.
    pub fn from_scenario(
        spec: &crate::scenario::Scenario,
        backend: crate::config::BackendKind,
        trial: u64,
    ) -> FleetConfig {
        use crate::fleet::policy::PolicyKind;
        use crate::scenario::{Topology, TEMPLATE_TAG};
        let tenants = spec.tenant_loads(trial);
        let host = |tag: u64| spec.host_config(&tenants, backend, spec.host_seed(tag), trial);
        let (initial, max_hosts, failures, seed) = match spec.topology {
            Topology::SingleVm => (1, 1, FailureConfig::off(), spec.host_seed(0)),
            Topology::Cluster(n) => (n, n, FailureConfig::off(), spec.host_seed(0)),
            Topology::Fleet => (
                if spec.policy == PolicyKind::Fixed {
                    spec.max_hosts
                } else {
                    spec.min_hosts
                },
                spec.max_hosts,
                FailureConfig {
                    mtbf_s: spec.mtbf_s,
                },
                spec.fleet_seed(trial),
            ),
        };
        let mut initial_hosts: Vec<SimConfig> = (0..initial).map(|h| host(h as u64)).collect();
        if spec.topology == Topology::SingleVm {
            initial_hosts[0].record_latency_points = true;
        }
        FleetConfig {
            initial_hosts,
            template: host(TEMPLATE_TAG),
            slo: spec.effective_slos(tenants.iter().map(|t| t.kind)),
            tenants: tenants.into_iter().map(|t| t.arrivals).collect(),
            autoscale: AutoscaleOpts {
                min_hosts: initial,
                max_hosts,
                boot_delay_s: spec.boot_delay_s,
                cooldown_s: spec.cooldown_s,
            },
            failures,
            seed,
        }
    }

    /// Instance slots per host (Σ deployment concurrency of the
    /// template) — the autoscaler's capacity unit.
    pub fn slots_per_host(&self) -> usize {
        self.template
            .vms
            .iter()
            .flat_map(|v| &v.deployments)
            .map(|d| d.concurrency as usize)
            .sum()
    }
}

/// Events of the shared fleet engine.
enum FleetEvent {
    /// A tenant request arrives and must be routed.
    Incoming { tenant: usize },
    /// A host-internal event.
    Host { host: usize, ev: Event },
    /// Autoscaler control tick.
    Control,
    /// A booting host finishes provisioning.
    HostReady { host: usize },
    /// The next injected crash fires.
    Crash,
}

/// What the fleet records about every completed request, in
/// completion order: the latency reservoir, the SLO counters and, when
/// a control loop runs, the policy's latency window.
struct Completions {
    latency_over_time: Reservoir,
    slo: Vec<(FunctionKind, f64)>,
    slo_violations: u64,
    slo_total: u64,
    /// Completions since the last control tick; `None` without a
    /// control loop.
    window: Option<Vec<LatencyObs>>,
}

/// Where one host's handlers send their output: follow-up events go
/// into the shared queue tagged with the host, completed requests go
/// straight to the fleet's [`Completions`].
pub(crate) struct HostSink<'a> {
    host: usize,
    events: &'a mut EventQueue<FleetEvent>,
    completions: &'a mut Completions,
}

impl HostSink<'_> {
    /// Schedules `ev` for this host at absolute time `at`.
    pub(crate) fn push(&mut self, at: SimTime, ev: Event) {
        self.events.push(
            at,
            FleetEvent::Host {
                host: self.host,
                ev,
            },
        );
    }

    /// Reports a completed request of function `kind` that arrived at
    /// `arrival_s` and took `latency_ms`.
    pub(crate) fn complete(&mut self, kind: FunctionKind, arrival_s: f64, latency_ms: f64) {
        let c = &mut *self.completions;
        c.latency_over_time.offer(arrival_s, latency_ms);
        if let Some(&(_, target)) = c.slo.iter().find(|(k, _)| *k == kind) {
            c.slo_total += 1;
            if latency_ms > target {
                c.slo_violations += 1;
            }
        }
        if let Some(window) = &mut c.window {
            window.push((kind, latency_ms));
        }
    }
}

/// One host's slot in the fleet.
struct Slot {
    /// The running host; `None` once it retired or failed.
    sim: Option<HostSim>,
    /// The host's result, taken when it retired or failed.
    result: Option<SimResult>,
    state: HostState,
    boot_at: SimTime,
    stop_at: Option<SimTime>,
}

impl Slot {
    fn new(sim: HostSim, state: HostState, boot_at: SimTime) -> Slot {
        Slot {
            sim: Some(sim),
            result: None,
            state,
            boot_at,
            stop_at: None,
        }
    }

    /// The running host of a Booting, Active or Draining slot.
    fn sim(&self) -> &HostSim {
        self.sim.as_ref().expect("host is live")
    }

    fn sim_mut(&mut self) -> &mut HostSim {
        self.sim.as_mut().expect("host is live")
    }
}

/// One host's contribution to the fleet outcome.
pub struct HostOutcome {
    /// The host's simulation results.
    pub result: SimResult,
    /// Lifecycle state at the end of the run.
    pub final_state: HostState,
    /// When the host started provisioning, in seconds.
    pub boot_s: f64,
    /// When it retired/failed — or the end of the run if it never did.
    pub stop_s: f64,
}

/// Everything a fleet run produces.
pub struct FleetResult {
    /// Every host that ever existed, in boot order.
    pub hosts: Vec<HostOutcome>,
    /// Requests routed to `[host][tenant]`.
    pub routed: Vec<Vec<u64>>,
    /// Total requests completed across the fleet.
    pub completed: u64,
    /// Hosts booted by the autoscaler.
    pub scale_ups: u64,
    /// Hosts gracefully drained by the autoscaler.
    pub scale_downs: u64,
    /// Hosts killed by failure injection.
    pub crashes: u64,
    /// Queued requests re-routed off crashed hosts.
    pub requeued: u64,
    /// In-flight executions lost to crashes (plus arrivals dropped
    /// when no host could ever serve them).
    pub lost: u64,
    /// Deferral retries: how many times an arrival found no routable
    /// host and parked for a retry interval while capacity was
    /// provisioning (one request can defer repeatedly).
    pub deferred: u64,
    /// Completions that breached their function's SLO target.
    pub slo_violations: u64,
    /// Completions with an SLO target (the violation denominator).
    pub slo_total: u64,
    /// Bounded uniform sample of `(arrival_s, latency_ms)` across the
    /// fleet (see [`LATENCY_RESERVOIR_CAP`]).
    pub latency_over_time: Reservoir,
    /// Active (routable) host count over time.
    pub active_hosts_over_time: TimeSeries,
    /// Total events handled: queue pops plus fed arrivals.
    pub events_processed: u64,
    /// High-water mark of the pending event queue — with arrivals fed
    /// lazily this tracks O(in-flight work), not O(trace length).
    pub peak_queue_depth: usize,
    /// Arrivals injected from the feed (trace or materialized).
    pub injected: u64,
    /// Simulated end time.
    pub end: SimTime,
}

impl FleetResult {
    /// Integrated provisioned-host time in host-hours — the fleet cost
    /// metric ("Squeezy needs fewer hosts for the same SLO").
    pub fn host_hours(&self) -> f64 {
        self.hosts
            .iter()
            .map(|h| (h.stop_s - h.boot_s).max(0.0))
            .sum::<f64>()
            / 3600.0
    }

    /// Largest number of simultaneously active hosts.
    pub fn peak_active(&self) -> usize {
        self.active_hosts_over_time.max_value() as usize
    }

    /// Smallest number of simultaneously active hosts.
    pub fn min_active(&self) -> usize {
        self.active_hosts_over_time
            .points()
            .iter()
            .map(|&(_, v)| v as usize)
            .min()
            .unwrap_or(0)
    }

    /// Fraction of SLO-tracked completions that breached their target.
    pub fn slo_violation_rate(&self) -> f64 {
        self.slo_violations as f64 / self.slo_total.max(1) as f64
    }

    /// Fleet-wide request-latency histograms, merged per function.
    pub fn merged_latency(&self) -> BTreeMap<FunctionKind, Histogram> {
        let mut merged: BTreeMap<FunctionKind, Histogram> = BTreeMap::new();
        for host in &self.hosts {
            for (&kind, m) in &host.result.per_func {
                merged.entry(kind).or_default().merge(&m.latency);
            }
        }
        merged
    }

    /// Fleet-wide cold and warm start counts.
    pub fn cold_warm_starts(&self) -> (u64, u64) {
        self.hosts
            .iter()
            .flat_map(|h| h.result.per_func.values())
            .fold((0, 0), |(c, w), m| (c + m.cold_starts, w + m.warm_starts))
    }

    /// Integrated host memory footprint across the fleet (GiB·s).
    pub fn total_gib_seconds(&self) -> f64 {
        self.hosts.iter().map(|h| h.result.gib_seconds()).sum()
    }
}

/// The fleet simulator: the one engine behind every topology.
pub struct FleetSim {
    duration_s: f64,
    template: SimConfig,
    /// Tenant → its `(vm, dep)` deployment slot on every host.
    slot_of_tenant: Vec<(usize, usize)>,
    /// `(vm, dep)` deployment slot → tenant index (crash requeueing);
    /// `usize::MAX` marks slots no tenant drives.
    tenant_of_slot: Vec<Vec<usize>>,
    router: Box<dyn Router>,
    /// Cached [`Router::needs_loads`]: load-blind routers skip the
    /// per-arrival snapshot sweep entirely.
    router_needs_loads: bool,
    /// Per-arrival routing scratch (reused, never reallocated in
    /// steady state).
    route_loads: Vec<HostLoad>,
    policy: Box<dyn AutoscalePolicy>,
    /// Cached [`AutoscalePolicy::period_s`]: `None` means no control
    /// loop.
    control_period: Option<f64>,
    opts: AutoscaleOpts,
    slots_per_host: usize,
    hosts: Vec<Slot>,
    /// Indices of the Active hosts in ascending order — the routable
    /// set, updated on every state change.
    active: Vec<usize>,
    events: EventQueue<FleetEvent>,
    feed: ArrivalStream,
    /// Streamed-trace runs bound their metric memory; booted hosts
    /// must inherit the discipline.
    bounded_metrics: bool,
    routed: Vec<Vec<u64>>,
    injector: FailureInjector,
    completions: Completions,
    last_action_at: Option<SimTime>,
    active_hosts_over_time: TimeSeries,
    scale_ups: u64,
    scale_downs: u64,
    crashes: u64,
    requeued: u64,
    lost: u64,
    deferred: u64,
}

impl FleetSim {
    /// Boots the initial hosts and takes the tenant arrival lists into
    /// a lazy feed ([`MaterializedSource`], each tenant's function kind
    /// read off its slot in the template); one sample chain per host,
    /// the control loop (if the policy has one) and the crash plan
    /// enter the queue up front. Metrics are exact.
    ///
    /// # Panics
    ///
    /// Panics if the config is inconsistent: no initial host, bad
    /// autoscale limits, a host (initial or template) whose
    /// `duration_s` differs from the first initial host's, or one with
    /// fewer deployment slots than there are tenants.
    pub fn new(
        mut config: FleetConfig,
        router: Box<dyn Router>,
        policy: Box<dyn AutoscalePolicy>,
    ) -> Result<FleetSim, VmmError> {
        let slots = Self::check(&config, config.tenants.len());
        let loads = std::mem::take(&mut config.tenants)
            .into_iter()
            .zip(&slots)
            .map(|(arrivals, &(vm, dep))| TenantLoad {
                kind: config.template.vms[vm].deployments[dep].kind,
                arrivals,
            })
            .collect();
        let source = Box::new(MaterializedSource::new(loads));
        Self::build(config, router, policy, source, "tenant lists", slots, false)
    }

    /// Builds a fleet whose arrivals stream from a [`TraceSource`]:
    /// tenant `i` of the source (one per entry of
    /// [`TraceSource::kinds`]) drives deployment slot `i` of every
    /// host. The source is pulled lazily during [`Self::run`], so queue
    /// depth — and with it memory — stays proportional to in-flight
    /// work, never to trace length. Per-host metrics run in bounded
    /// mode (reservoir histograms, streamed usage integral), booted
    /// hosts included.
    ///
    /// `origin` labels mid-run parse failures (the path, usually).
    ///
    /// # Panics
    ///
    /// As [`Self::new`], and if [`FleetConfig::tenants`] carries any
    /// arrival: the source is the run's only workload.
    pub fn with_source(
        config: FleetConfig,
        router: Box<dyn Router>,
        policy: Box<dyn AutoscalePolicy>,
        source: Box<dyn TraceSource>,
        origin: &str,
    ) -> Result<FleetSim, VmmError> {
        assert!(
            config.tenants.iter().all(Vec::is_empty),
            "a streamed fleet takes its arrivals from the source, not from FleetConfig::tenants"
        );
        let slots = Self::check(&config, source.kinds().len());
        Self::build(config, router, policy, source, origin, slots, true)
    }

    /// Validates `config` for `tenants` tenants and returns each
    /// tenant's `(vm, dep)` slot in the template.
    fn check(config: &FleetConfig, tenants: usize) -> Vec<(usize, usize)> {
        assert!(
            !config.initial_hosts.is_empty(),
            "a fleet needs at least one initial host"
        );
        assert!(config.autoscale.min_hosts >= 1, "min_hosts must be ≥ 1");
        assert!(
            config.autoscale.max_hosts >= config.autoscale.min_hosts,
            "max_hosts must be ≥ min_hosts"
        );
        let duration_s = config.initial_hosts[0].duration_s;
        let hosts = config
            .initial_hosts
            .iter()
            .enumerate()
            .map(|(h, cfg)| (format!("initial host {h}"), cfg))
            .chain([("the template host".to_string(), &config.template)]);
        for (name, cfg) in hosts {
            assert!(
                cfg.duration_s == duration_s,
                "{name} runs for {} s, but initial host 0 runs for {duration_s} s: \
                 a fleet's hosts share duration_s",
                cfg.duration_s
            );
            let slots: usize = cfg.vms.iter().map(|v| v.deployments.len()).sum();
            assert!(
                slots >= tenants,
                "{name} has {slots} deployment slots for {tenants} tenants: \
                 tenant i runs in slot i of every host"
            );
        }
        config
            .template
            .vms
            .iter()
            .enumerate()
            .flat_map(|(vm, v)| (0..v.deployments.len()).map(move |dep| (vm, dep)))
            .take(tenants)
            .collect()
    }

    fn build(
        config: FleetConfig,
        router: Box<dyn Router>,
        policy: Box<dyn AutoscalePolicy>,
        source: Box<dyn TraceSource>,
        origin: &str,
        slot_of_tenant: Vec<(usize, usize)>,
        bounded_metrics: bool,
    ) -> Result<FleetSim, VmmError> {
        let duration_s = config.initial_hosts[0].duration_s;
        let feed = ArrivalStream::new(source, duration_s, origin);
        let slots_per_host = config.slots_per_host().max(1);
        let reservoir_rng = DetRng::new(config.seed).derive(RESERVOIR_STREAM);
        let mut injector = FailureInjector::new(DetRng::new(config.seed).derive(FAILURE_STREAM));
        let control_period = policy.period_s();

        let mut hosts = Vec::new();
        for cfg in config.initial_hosts {
            let mut sim = HostSim::new(cfg)?;
            if bounded_metrics {
                sim.enable_bounded_metrics();
            }
            hosts.push(Slot::new(sim, HostState::Active, SimTime::ZERO));
        }

        let mut events = EventQueue::new();
        for host in 0..hosts.len() {
            events.push(
                SimTime::ZERO,
                FleetEvent::Host {
                    host,
                    ev: Event::Sample,
                },
            );
        }
        if let Some(period) = control_period {
            assert!(period > 0.0, "control period must be positive");
            if period <= duration_s {
                events.push(
                    SimTime::ZERO + SimDuration::from_secs_f64(period),
                    FleetEvent::Control,
                );
            }
        }
        for t in injector.sample_times(&config.failures, duration_s) {
            events.push(
                SimTime::ZERO + SimDuration::from_secs_f64(t),
                FleetEvent::Crash,
            );
        }

        let mut tenant_of_slot: Vec<Vec<usize>> = config
            .template
            .vms
            .iter()
            .map(|v| vec![usize::MAX; v.deployments.len()])
            .collect();
        for (tenant, &(vm, dep)) in slot_of_tenant.iter().enumerate() {
            tenant_of_slot[vm][dep] = tenant;
        }
        let routed = vec![vec![0; slot_of_tenant.len()]; hosts.len()];
        let mut active_hosts_over_time = TimeSeries::new();
        active_hosts_over_time.push(SimTime::ZERO, hosts.len() as f64);
        Ok(FleetSim {
            duration_s,
            template: config.template,
            slot_of_tenant,
            tenant_of_slot,
            router_needs_loads: router.needs_loads(),
            router,
            route_loads: Vec::new(),
            policy,
            control_period,
            opts: config.autoscale,
            slots_per_host,
            active: (0..hosts.len()).collect(),
            hosts,
            events,
            feed,
            bounded_metrics,
            routed,
            injector,
            completions: Completions {
                latency_over_time: Reservoir::new(LATENCY_RESERVOIR_CAP, reservoir_rng),
                slo: config.slo,
                slo_violations: 0,
                slo_total: 0,
                window: control_period.map(|_| Vec::new()),
            },
            last_action_at: None,
            active_hosts_over_time,
            scale_ups: 0,
            scale_downs: 0,
            crashes: 0,
            requeued: 0,
            lost: 0,
            deferred: 0,
        })
    }

    /// Runs the fleet to completion.
    pub fn run(mut self) -> FleetResult {
        // Two-stream merge: arrivals are pulled from the feed the
        // moment they are due (ties go to the arrival — fed arrivals
        // always sorted before same-tick queue events in the pre-push
        // era, whose total order this loop reproduces byte-for-byte),
        // everything else pops from the queue in batched (time, seq)
        // order. Deferral retries and crash requeues still travel as
        // queued [`FleetEvent::Incoming`] events.
        let mut batch = Vec::new();
        loop {
            let arrival_next = match (self.feed.peek(), self.events.peek_time()) {
                (Some((at, _)), Some(qt)) => at <= qt,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if arrival_next {
                let (at, tenant) = self.feed.pop().expect("peeked");
                self.on_incoming(at, tenant);
            } else if let Some(now) = self.events.pop_batch(&mut batch) {
                for ev in batch.drain(..) {
                    match ev {
                        FleetEvent::Incoming { tenant } => self.on_incoming(now, tenant),
                        FleetEvent::Host { host, ev } => {
                            // Retired and failed hosts are gone: their residual
                            // events (keep-alives, sample chains) evaporate.
                            let Some(sim) = self.hosts[host].sim.as_mut() else {
                                continue;
                            };
                            sim.handle(
                                now,
                                ev,
                                &mut HostSink {
                                    host,
                                    events: &mut self.events,
                                    completions: &mut self.completions,
                                },
                            );
                            self.maybe_retire(now, host);
                        }
                        FleetEvent::Control => self.on_control(now),
                        FleetEvent::HostReady { host } => self.on_host_ready(now, host),
                        FleetEvent::Crash => self.on_crash(now),
                    }
                }
            }
        }
        let injected = self.feed.injected();
        let events_processed = self.events.processed() + injected;
        let peak_queue_depth = self.events.peak_len();
        let end = SimTime::ZERO + SimDuration::from_secs_f64(self.duration_s);
        let hosts: Vec<HostOutcome> = self
            .hosts
            .into_iter()
            .map(|slot| HostOutcome {
                final_state: slot.state,
                boot_s: slot.boot_at.as_secs_f64(),
                stop_s: slot
                    .stop_at
                    .map(|t| t.as_secs_f64())
                    .unwrap_or(self.duration_s),
                result: match slot.sim {
                    Some(sim) => sim.finish(),
                    None => slot.result.expect("stopped host kept its result"),
                },
            })
            .collect();
        let completed = hosts.iter().map(|h| h.result.completed).sum();
        FleetResult {
            hosts,
            routed: self.routed,
            completed,
            scale_ups: self.scale_ups,
            scale_downs: self.scale_downs,
            crashes: self.crashes,
            requeued: self.requeued,
            lost: self.lost,
            deferred: self.deferred,
            slo_violations: self.completions.slo_violations,
            slo_total: self.completions.slo_total,
            latency_over_time: self.completions.latency_over_time,
            active_hosts_over_time: self.active_hosts_over_time,
            events_processed,
            peak_queue_depth,
            injected,
            end,
        }
    }

    // --- Data plane --------------------------------------------------------

    fn on_incoming(&mut self, now: SimTime, tenant: usize) {
        if self.active.is_empty() {
            // No routable host. If capacity is provisioning — or the
            // control loop is still alive to provision some — park the
            // request briefly; otherwise it is genuinely unservable.
            let provisioning = self.count(HostState::Booting) > 0;
            let loop_alive = self.control_period.is_some() && now.as_secs_f64() < self.duration_s;
            if provisioning || loop_alive {
                self.deferred += 1;
                self.events.push(
                    now + SimDuration::from_secs_f64(DEFER_RETRY_S),
                    FleetEvent::Incoming { tenant },
                );
            } else {
                self.lost += 1;
            }
            return;
        }
        let (vm, dep) = self.slot_of_tenant[tenant];
        // Load-aware routers get fresh snapshots; load-blind ones only
        // see the slice's length, which the placeholder entries keep
        // (resized only when the Active set changes size).
        if self.router_needs_loads {
            self.route_loads.clear();
            self.route_loads.extend(
                self.active
                    .iter()
                    .map(|&i| self.hosts[i].sim().load_snapshot(vm, dep)),
            );
        } else {
            self.route_loads.resize(
                self.active.len(),
                HostLoad {
                    warm_idle: 0,
                    alive: 0,
                    queued: 0,
                    active: 0,
                    free_bytes: 0,
                },
            );
        }
        let r = self.router.route(tenant, &self.route_loads);
        assert!(
            r < self.active.len(),
            "router returned host {r} of {}",
            self.active.len()
        );
        let host = self.active[r];
        self.routed[host][tenant] += 1;
        self.hosts[host].sim_mut().handle(
            now,
            Event::Arrival { vm, dep },
            &mut HostSink {
                host,
                events: &mut self.events,
                completions: &mut self.completions,
            },
        );
    }

    // --- Control plane -----------------------------------------------------

    fn on_control(&mut self, now: SimTime) {
        // Self-healing comes before policy: crashes can sink the fleet
        // below its floor (even to zero hosts, where no load-driven
        // policy gets a signal to act on), so the control loop boots
        // replacements up to `min_hosts` outside the policy and its
        // cooldown. A fixed fleet has no control loop and therefore no
        // healing — its crash losses are permanent by design.
        let provisioned = self.provisioned();
        if provisioned < self.opts.min_hosts {
            self.boot_hosts(now, self.opts.min_hosts - provisioned);
        }
        let active_loads: Vec<HostLoad> = self
            .active
            .iter()
            .map(|&i| self.hosts[i].sim().total_load())
            .collect();
        let booting = self.count(HostState::Booting);
        let draining = self.count(HostState::Draining);
        let window = self
            .completions
            .window
            .as_mut()
            .expect("a control loop keeps a latency window");
        let view = FleetView {
            now_s: now.as_secs_f64(),
            active: &active_loads,
            booting,
            draining,
            slots_per_host: self.slots_per_host,
            recent: window.as_slice(),
            slo: &self.completions.slo,
        };
        let decision = self.policy.decide(&view);
        window.clear();

        let in_cooldown = self
            .last_action_at
            .is_some_and(|t| now.since(t).as_secs_f64() < self.opts.cooldown_s);
        if !in_cooldown {
            match decision {
                ScaleDecision::Hold => {}
                ScaleDecision::Up(n) => self.scale_up(now, n),
                ScaleDecision::Down(n) => self.scale_down(now, n),
            }
        }

        if let Some(period) = self.control_period {
            let next = now + SimDuration::from_secs_f64(period);
            if next.as_secs_f64() <= self.duration_s {
                self.events.push(next, FleetEvent::Control);
            }
        }
    }

    fn count(&self, state: HostState) -> usize {
        self.hosts.iter().filter(|s| s.state == state).count()
    }

    /// Active plus Booting hosts — the capacity the limits clamp.
    fn provisioned(&self) -> usize {
        self.active.len() + self.count(HostState::Booting)
    }

    fn scale_up(&mut self, now: SimTime, n: u32) {
        let room = self.opts.max_hosts.saturating_sub(self.provisioned());
        let n = (n as usize).min(room);
        if n > 0 {
            self.boot_hosts(now, n);
            self.last_action_at = Some(now);
        }
    }

    /// Boots `n` hosts from the template (provisioning delay applies).
    /// Used by both policy scale-ups and min-floor self-healing;
    /// cooldown bookkeeping stays with the caller.
    fn boot_hosts(&mut self, now: SimTime, n: usize) {
        for _ in 0..n {
            // Each booted host re-derives its jitter seed from the
            // template by global host ordinal: deterministic, and no
            // two hosts ever share a stream.
            let ordinal = self.hosts.len() as u64;
            let mut cfg = self.template.clone();
            cfg.seed = DetRng::new(self.template.seed)
                .derive(BOOT_STREAM)
                .derive(ordinal)
                .seed();
            let mut sim = HostSim::new(cfg).expect("fleet template host boots");
            if self.bounded_metrics {
                sim.enable_bounded_metrics();
            }
            self.hosts.push(Slot::new(sim, HostState::Booting, now));
            self.routed.push(vec![0; self.slot_of_tenant.len()]);
            let host = self.hosts.len() - 1;
            self.events.push(
                now + SimDuration::from_secs_f64(self.opts.boot_delay_s),
                FleetEvent::HostReady { host },
            );
            self.scale_ups += 1;
        }
    }

    fn scale_down(&mut self, now: SimTime, n: u32) {
        let allowed = self.provisioned().saturating_sub(self.opts.min_hosts);
        let n = (n as usize).min(allowed).min(self.active.len());
        if n == 0 {
            return;
        }
        // Drain the least-pressured hosts: they quiesce fastest and
        // carry the least warm state worth keeping.
        let mut candidates: Vec<(usize, usize)> = self
            .active
            .iter()
            .map(|&i| (self.hosts[i].sim().total_load().pressure(), i))
            .collect();
        candidates.sort_unstable();
        for &(_, host) in candidates.iter().take(n) {
            self.set_state(now, host, HostState::Draining);
            self.scale_downs += 1;
            self.maybe_retire(now, host);
        }
        self.last_action_at = Some(now);
        self.push_active_count(now);
    }

    fn on_host_ready(&mut self, now: SimTime, host: usize) {
        if self.hosts[host].state != HostState::Booting {
            return;
        }
        self.set_state(now, host, HostState::Active);
        // Start the host's metrics sample chain.
        self.events.push(
            now,
            FleetEvent::Host {
                host,
                ev: Event::Sample,
            },
        );
        self.push_active_count(now);
    }

    /// Retires a draining host once it has nothing left to do.
    fn maybe_retire(&mut self, now: SimTime, host: usize) {
        let slot = &self.hosts[host];
        if slot.state == HostState::Draining && slot.sim().is_quiescent() {
            self.set_state(now, host, HostState::Retired);
        }
    }

    /// Moves `host` to `state`, keeping the Active index list in step.
    /// A host that stops (Retired or Failed) is finished right away: it
    /// will never handle another event, so its result is final, and
    /// dropping it frees its VMs and memmap for the rest of the run.
    fn set_state(&mut self, now: SimTime, host: usize, state: HostState) {
        let slot = &mut self.hosts[host];
        if slot.state == HostState::Active {
            let at = self.active.binary_search(&host).expect("active host");
            self.active.remove(at);
        }
        if state == HostState::Active {
            let at = self.active.binary_search(&host).unwrap_err();
            self.active.insert(at, host);
        }
        slot.state = state;
        if matches!(state, HostState::Retired | HostState::Failed) {
            slot.stop_at = Some(now);
            let sim = slot.sim.take().expect("a host stops once");
            slot.result = Some(sim.finish());
        }
    }

    // --- Failure plane -----------------------------------------------------

    fn on_crash(&mut self, now: SimTime) {
        // Any serving host can die — draining ones included.
        let candidates: Vec<usize> = self
            .hosts
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s.state, HostState::Active | HostState::Draining))
            .map(|(i, _)| i)
            .collect();
        let Some(victim) = self.injector.pick_victim(&candidates) else {
            return;
        };
        self.crashes += 1;
        let sim = self.hosts[victim].sim_mut();
        // In-flight executions die with the host.
        self.lost += sim.busy_instances() as u64;
        let queued = sim.drain_queued_requests();
        self.set_state(now, victim, HostState::Failed);
        // Queued requests are re-routed to the survivors, as a client
        // retry would: their latency clocks restart at the crash.
        for (vm, dep) in queued {
            let tenant = self.tenant_of_slot[vm][dep];
            assert_ne!(tenant, usize::MAX, "queued request belongs to a tenant");
            self.requeued += 1;
            self.events.push(now, FleetEvent::Incoming { tenant });
        }
        self.push_active_count(now);
    }

    // --- Accounting --------------------------------------------------------

    fn push_active_count(&mut self, now: SimTime) {
        self.active_hosts_over_time
            .push(now, self.active.len() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{LeastLoaded, RoundRobin};
    use crate::config::{BackendKind, Deployment, HarvestConfig, VmSpec};

    fn host_cfg(tenants: usize, seed: u64, duration_s: f64) -> SimConfig {
        SimConfig {
            backend: BackendKind::Squeezy,
            harvest: HarvestConfig::default(),
            vms: vec![VmSpec {
                deployments: (0..tenants)
                    .map(|_| Deployment {
                        kind: FunctionKind::Html,
                        concurrency: 2,
                    })
                    .collect(),
                vcpus: Some(2.0),
            }],
            host_capacity: u64::MAX / 2,
            keepalive_s: 15.0,
            duration_s,
            unplug_deadline_ms: 5_000,
            record_latency_points: false,
            seed,
            trial: 0,
        }
    }

    fn fleet_cfg(
        initial: usize,
        tenants: Vec<Vec<f64>>,
        duration_s: f64,
        opts: AutoscaleOpts,
    ) -> FleetConfig {
        let template = host_cfg(tenants.len(), 0xF0, duration_s);
        FleetConfig {
            initial_hosts: (0..initial)
                .map(|h| host_cfg(tenants.len(), 1 + h as u64, duration_s))
                .collect(),
            template,
            tenants,
            autoscale: opts,
            failures: FailureConfig::off(),
            slo: default_slos([FunctionKind::Html]),
            seed: 0xF1EE7,
        }
    }

    fn burst_tenants(n_arrivals: usize, start: f64, gap: f64) -> Vec<Vec<f64>> {
        vec![(0..n_arrivals).map(|i| start + i as f64 * gap).collect()]
    }

    fn fixed_opts(hosts: usize) -> AutoscaleOpts {
        AutoscaleOpts {
            min_hosts: hosts,
            max_hosts: hosts,
            ..AutoscaleOpts::default()
        }
    }

    #[test]
    #[should_panic(expected = "initial host 1 runs for 90 s, but initial host 0 runs for 60 s")]
    fn hosts_with_different_horizons_are_rejected() {
        let mut cfg = fleet_cfg(2, burst_tenants(4, 1.0, 0.5), 60.0, fixed_opts(2));
        cfg.initial_hosts[1].duration_s = 90.0;
        let _ = FleetSim::new(cfg, Box::new(RoundRobin::default()), Box::new(FixedFleet));
    }

    #[test]
    #[should_panic(expected = "the template host runs for 90 s")]
    fn a_template_with_another_horizon_is_rejected() {
        let mut cfg = fleet_cfg(1, burst_tenants(4, 1.0, 0.5), 60.0, fixed_opts(1));
        cfg.template.duration_s = 90.0;
        let _ = FleetSim::new(cfg, Box::new(RoundRobin::default()), Box::new(FixedFleet));
    }

    #[test]
    #[should_panic(expected = "initial host 0 has 1 deployment slots for 2 tenants")]
    fn more_tenants_than_slots_is_rejected() {
        let mut cfg = fleet_cfg(1, burst_tenants(4, 1.0, 0.5), 60.0, fixed_opts(1));
        cfg.tenants.push(vec![2.0]);
        let _ = FleetSim::new(cfg, Box::new(RoundRobin::default()), Box::new(FixedFleet));
    }

    #[test]
    #[should_panic(expected = "a streamed fleet takes its arrivals from the source")]
    fn a_streamed_fleet_refuses_tenant_arrivals() {
        let cfg = fleet_cfg(1, burst_tenants(4, 1.0, 0.5), 60.0, fixed_opts(1));
        let source = MaterializedSource::new(vec![TenantLoad {
            kind: FunctionKind::Html,
            arrivals: vec![1.0],
        }]);
        let _ = FleetSim::with_source(
            cfg,
            Box::new(RoundRobin::default()),
            Box::new(FixedFleet),
            Box::new(source),
            "test",
        );
    }

    /// Scale-down test policy: drains one host at a fixed tick.
    struct DrainOnce {
        ticks: u32,
        at: u32,
    }

    impl AutoscalePolicy for DrainOnce {
        fn name(&self) -> &'static str {
            "drain-once"
        }

        fn period_s(&self) -> Option<f64> {
            Some(5.0)
        }

        fn decide(&mut self, _view: &FleetView) -> ScaleDecision {
            self.ticks += 1;
            if self.ticks == self.at {
                ScaleDecision::Down(1)
            } else {
                ScaleDecision::Hold
            }
        }
    }

    #[test]
    fn fixed_fleet_serves_everything_and_never_scales() {
        let tenants = burst_tenants(8, 1.0, 0.2);
        let cfg = fleet_cfg(2, tenants, 80.0, fixed_opts(2));
        let r = FleetSim::new(cfg, Box::new(RoundRobin::default()), Box::new(FixedFleet))
            .expect("boot")
            .run();
        assert_eq!(r.completed, 8);
        assert_eq!(r.scale_ups + r.scale_downs + r.crashes, 0);
        assert_eq!(r.lost + r.deferred, 0);
        assert_eq!(r.peak_active(), 2);
        assert_eq!(r.min_active(), 2);
        assert!(r.hosts.iter().all(|h| h.final_state == HostState::Active));
        assert_eq!(
            r.latency_over_time.seen(),
            8,
            "reservoir sees every completion"
        );
        assert!(r.slo_total == 8, "every completion is SLO-tracked");
    }

    #[test]
    fn autoscaler_grows_under_backlog_and_boot_delay_gates_readiness() {
        // One host, 30 near-simultaneous arrivals at concurrency 2: the
        // queue-depth policy must boot more hosts; they become routable
        // only after the provisioning delay.
        let tenants = burst_tenants(30, 1.0, 0.05);
        let cfg = fleet_cfg(
            1,
            tenants,
            240.0,
            AutoscaleOpts {
                min_hosts: 1,
                max_hosts: 4,
                boot_delay_s: 10.0,
                cooldown_s: 6.0,
            },
        );
        let r = FleetSim::new(
            cfg,
            Box::new(LeastLoaded),
            Box::new(QueueDepth::default_policy()),
        )
        .expect("boot")
        .run();
        assert!(
            r.scale_ups >= 1,
            "backlog triggered growth: {}",
            r.scale_ups
        );
        assert!(r.peak_active() >= 2, "peak {}", r.peak_active());
        assert_eq!(r.completed, 30, "every request eventually served");
        assert_eq!(r.lost, 0);
        // Booted hosts were not routable before the delay: the first
        // activation can be no earlier than boot_delay after t=0.
        let first_boot = r
            .hosts
            .iter()
            .skip(1)
            .map(|h| h.boot_s)
            .fold(f64::INFINITY, f64::min);
        assert!(
            first_boot >= 5.0,
            "first boot decision at a tick: {first_boot}"
        );
    }

    #[test]
    fn autoscaler_shrinks_an_idle_fleet_to_the_floor() {
        // Load only in the first seconds of a long run: queue-depth
        // sheds idle hosts down to min_hosts, gracefully.
        let tenants = burst_tenants(6, 1.0, 0.1);
        let cfg = fleet_cfg(
            3,
            tenants,
            200.0,
            AutoscaleOpts {
                min_hosts: 1,
                max_hosts: 3,
                boot_delay_s: 10.0,
                cooldown_s: 5.0,
            },
        );
        let r = FleetSim::new(
            cfg,
            Box::new(RoundRobin::default()),
            Box::new(QueueDepth::default_policy()),
        )
        .expect("boot")
        .run();
        assert_eq!(r.completed, 6, "drains lose nothing");
        assert!(
            r.scale_downs >= 2,
            "idle fleet shed hosts: {}",
            r.scale_downs
        );
        assert_eq!(r.min_active(), 1, "never below the floor");
        let retired = r
            .hosts
            .iter()
            .filter(|h| h.final_state == HostState::Retired)
            .count();
        assert_eq!(retired, 2, "drained hosts reached Retired");
        assert!(
            r.host_hours() < 3.0 * 200.0 / 3600.0 - 1e-9,
            "retiring early saves host-hours: {}",
            r.host_hours()
        );
    }

    #[test]
    fn graceful_drain_finishes_inflight_work_before_retiring() {
        // Drain fires at the first tick (t=5) while the burst from t=4
        // is still queued/executing on both hosts: the draining host
        // must finish its share, then expire its warm instances
        // (keepalive 15 s) before retiring.
        let tenants = burst_tenants(8, 4.0, 0.05);
        let cfg = fleet_cfg(
            2,
            tenants,
            120.0,
            AutoscaleOpts {
                min_hosts: 1,
                max_hosts: 2,
                boot_delay_s: 10.0,
                cooldown_s: 1.0,
            },
        );
        let r = FleetSim::new(
            cfg,
            Box::new(RoundRobin::default()),
            Box::new(DrainOnce { ticks: 0, at: 1 }),
        )
        .expect("boot")
        .run();
        assert_eq!(r.completed, 8, "no request dropped by the drain");
        assert_eq!(r.scale_downs, 1);
        let drained: Vec<&HostOutcome> = r
            .hosts
            .iter()
            .filter(|h| h.final_state == HostState::Retired)
            .collect();
        assert_eq!(drained.len(), 1);
        // Retirement waits for the keepalive window (instances warm
        // until ~ last_use + 15 s), so it lands well after the drain
        // decision at t=5 — and the host completed work after t=5.
        assert!(
            drained[0].stop_s > 15.0,
            "retired at {:.1}s only after quiescence",
            drained[0].stop_s
        );
        assert!(drained[0].result.completed > 0, "served before retiring");
    }

    #[test]
    fn crashes_requeue_queued_work_to_survivors() {
        // Two hosts, a long arrival train, and a forced crash window:
        // the victim's queued requests must re-route to the survivor.
        let tenants = burst_tenants(40, 1.0, 0.5);
        let mut cfg = fleet_cfg(2, tenants, 120.0, fixed_opts(2));
        cfg.failures = FailureConfig { mtbf_s: 40.0 };
        let run = || {
            FleetSim::new(
                cfg.clone(),
                Box::new(RoundRobin::default()),
                Box::new(FixedFleet),
            )
            .expect("boot")
            .run()
        };
        let r = run();
        assert!(r.crashes >= 1, "at least one injected crash");
        let failed = r
            .hosts
            .iter()
            .filter(|h| h.final_state == HostState::Failed)
            .count();
        assert_eq!(failed as u64, r.crashes);
        // Conservation: every arrival completed, died in-flight, or
        // (if every host crashed) was dropped as unservable.
        assert!(r.completed + r.lost <= 40 + r.requeued);
        assert!(r.completed > 0, "survivors keep serving");
        for h in r
            .hosts
            .iter()
            .filter(|h| h.final_state == HostState::Failed)
        {
            assert!(h.stop_s < 120.0, "crash recorded mid-run");
        }
    }

    #[test]
    fn fleet_runs_are_deterministic() {
        let tenants = burst_tenants(20, 1.0, 0.3);
        let mk = || {
            let mut cfg = fleet_cfg(
                2,
                tenants.clone(),
                150.0,
                AutoscaleOpts {
                    min_hosts: 1,
                    max_hosts: 4,
                    boot_delay_s: 8.0,
                    cooldown_s: 5.0,
                },
            );
            cfg.failures = FailureConfig { mtbf_s: 60.0 };
            FleetSim::new(
                cfg,
                Box::new(LeastLoaded),
                Box::new(TargetUtilization::default_policy()),
            )
            .expect("boot")
            .run()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.routed, b.routed);
        assert_eq!(
            (a.scale_ups, a.scale_downs, a.crashes, a.requeued, a.lost),
            (b.scale_ups, b.scale_downs, b.crashes, b.requeued, b.lost)
        );
        assert_eq!(a.slo_violations, b.slo_violations);
        assert_eq!(
            a.latency_over_time.sorted_points(),
            b.latency_over_time.sorted_points()
        );
        let da: Vec<u64> = a.hosts.iter().map(|h| h.result.digest()).collect();
        let db: Vec<u64> = b.hosts.iter().map(|h| h.result.digest()).collect();
        assert_eq!(da, db);
    }

    #[test]
    fn slam_policy_scales_on_slo_pressure() {
        // A sustained train at ~4 rps against one 2-slot host: queueing
        // pushes p99 over the SLO and the SLAM policy must grow the
        // fleet.
        let tenants = burst_tenants(200, 1.0, 0.25);
        let cfg = fleet_cfg(
            1,
            tenants,
            180.0,
            AutoscaleOpts {
                min_hosts: 1,
                max_hosts: 5,
                boot_delay_s: 8.0,
                cooldown_s: 5.0,
            },
        );
        let r = FleetSim::new(
            cfg,
            Box::new(LeastLoaded),
            Box::new(SlamSlo::default_policy()),
        )
        .expect("boot")
        .run();
        assert!(r.scale_ups >= 1, "SLO pressure grew the fleet");
        assert!(r.slo_total > 0);
        assert_eq!(r.completed, 200);
    }
}
