//! The three benchmark workloads and how each is set up.
//!
//! All three are open loops in simulated time: arrival times are fixed
//! by the generator or the trace, whatever the service time. Each is
//! built from the seed alone and handed to the public [`FleetSim`]
//! entry, plain or with the [`crate::spans`] decorators around its
//! router, policy and trace source.

use std::rc::Rc;
use std::time::Instant;

use faas::cluster::{RoundRobin, Router};
use faas::config::BackendKind;
use faas::fleet::{AutoscalePolicy, FixedFleet, FleetConfig, FleetSim};
use faas::scenario::{Scenario, Topology, WorkloadSpec};
use faas::{PolicyKind, RouterKind};
use sim_core::DetRng;
use squeezy_bench::perf::PerfConfig;
use workloads::{TraceSource, WorkloadKind};

use crate::spans::{Span, TimedPolicy, TimedRouter, TimedSource};

/// The committed 3-day azure-minute trace the `trace` workload slices.
pub const AZURE_TRACE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../examples/traces/azure_3day.csv"
);

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The `repro perf` drumbeat: 32 Squeezy hosts, round-robin, fixed
    /// fleet, almost every request warm. Engine-bound.
    Warm,
    /// A streamed slice of the committed Azure trace on an elastic
    /// Squeezy fleet of one-slot hosts (power-of-two router, SLAM-style
    /// policy, 1 to 8 hosts).
    Trace,
    /// A virtio-mem fixed fleet with a 2 s keep-alive: nearly every
    /// request is cold, and every reclaim migrates pages.
    Churn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Warm, Workload::Trace, Workload::Churn];

    pub fn key(self) -> &'static str {
        match self {
            Workload::Warm => "warm",
            Workload::Trace => "trace",
            Workload::Churn => "churn",
        }
    }

    pub fn from_key(key: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.key() == key)
    }

    /// Independent replays one benchmark run pools, each on a seed of
    /// its own ([`replay_seed`]). A single elastic trace replay or a
    /// 1,200-request churn replay swings with its seed; pooling several
    /// keeps a run's figures steady from seed to seed.
    pub fn replays(self) -> usize {
        match self {
            Workload::Warm => 1,
            Workload::Trace => 8,
            Workload::Churn => 3,
        }
    }
}

/// The seed of replay `k` of a benchmark run on `seed`.
pub fn replay_seed(seed: u64, k: usize) -> u64 {
    DetRng::new(seed).derive(k as u64).seed()
}

/// How much simulated work one run does: `Bench` is what the benchmark
/// measures, `Test` a miniature of the same set-up for the package's
/// own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Bench,
    Test,
}

/// The spans a traced run records, one per wrapped layer boundary.
#[derive(Default)]
pub struct Spans {
    pub route: Rc<Span>,
    pub decide: Rc<Span>,
    pub next_arrival: Rc<Span>,
}

/// A built simulator and what building it cost.
pub struct Prepared {
    pub sim: FleetSim,
    /// Spans of the decorated layers (`None` for a plain run).
    pub spans: Option<Spans>,
    /// Hosts booted before the run starts.
    pub initial_hosts: usize,
    /// Wall seconds to generate arrivals (or open the trace).
    pub generate_s: f64,
    /// Wall seconds of `FleetSim` construction: vmm + guest-mm boot of
    /// the initial hosts.
    pub build_s: f64,
    /// Resident-set growth across the construction, in MiB.
    pub build_rss_mib: f64,
    /// Wall seconds from the start of set-up to the built simulator.
    pub setup_s: f64,
}

/// The inputs of one run before the simulator is built.
struct Parts {
    fleet: FleetConfig,
    router: Box<dyn Router>,
    policy: Box<dyn AutoscalePolicy>,
    source: Option<Box<dyn TraceSource>>,
}

impl Parts {
    /// Wraps the router, policy and source in timing decorators that
    /// record into `spans`.
    fn timed(self, spans: &Spans) -> Parts {
        Parts {
            fleet: self.fleet,
            router: Box::new(TimedRouter {
                inner: self.router,
                span: spans.route.clone(),
            }),
            policy: Box::new(TimedPolicy {
                inner: self.policy,
                span: spans.decide.clone(),
            }),
            source: self.source.map(|inner| {
                Box::new(TimedSource {
                    inner,
                    span: spans.next_arrival.clone(),
                }) as Box<dyn TraceSource>
            }),
        }
    }
}

/// Generates `workload`'s inputs from `seed` and builds the simulator,
/// wrapping its router, policy and source in timing decorators when
/// `traced`.
pub fn prepare(workload: Workload, seed: u64, scale: Scale, traced: bool) -> Prepared {
    let t0 = Instant::now();
    let parts = match workload {
        Workload::Warm => warm(seed, scale),
        Workload::Trace => fleet_parts(&trace_spec(seed, scale), seed),
        Workload::Churn => fleet_parts(&churn_spec(seed, scale), 0),
    };
    let generate_s = t0.elapsed().as_secs_f64();

    let (parts, spans) = if traced {
        let spans = Spans::default();
        (parts.timed(&spans), Some(spans))
    } else {
        (parts, None)
    };

    let initial_hosts = parts.fleet.initial_hosts.len();
    let rss0 = crate::mem::rss_mib();
    let t1 = Instant::now();
    let sim = match parts.source {
        Some(source) => {
            FleetSim::with_source(parts.fleet, parts.router, parts.policy, source, AZURE_TRACE)
        }
        None => FleetSim::new(parts.fleet, parts.router, parts.policy),
    }
    .expect("benchmark hosts boot");
    let build_s = t1.elapsed().as_secs_f64();
    let build_rss_mib = crate::mem::rss_mib() - rss0;
    Prepared {
        sim,
        spans,
        initial_hosts,
        generate_s,
        build_s,
        build_rss_mib,
        setup_s: t0.elapsed().as_secs_f64(),
    }
}

/// `warm`: the pinned `repro perf` drumbeat stretched in duration, with
/// per-host jitter streams and the fleet's own streams drawn from the
/// seed.
fn warm(seed: u64, scale: Scale) -> Parts {
    let perf = match scale {
        Scale::Bench => PerfConfig {
            duration_s: 4_000.0,
            ..PerfConfig::quick()
        },
        Scale::Test => PerfConfig {
            hosts: 4,
            duration_s: 600.0,
            ..PerfConfig::quick()
        },
    };
    let mut cluster = perf.cluster();
    let root = DetRng::new(seed);
    for (h, host) in cluster.hosts.iter_mut().enumerate() {
        host.seed = root.derive(h as u64).seed();
    }
    Parts {
        fleet: FleetConfig::fixed(cluster, root.derive(u64::MAX).seed()),
        router: Box::new(RoundRobin::default()),
        policy: Box::new(FixedFleet),
        source: None,
    }
}

/// `trace`: the first hours of the committed Azure trace, its per-minute
/// counts expanded on the seed's jitter stream, on an elastic fleet.
fn trace_spec(seed: u64, scale: Scale) -> Scenario {
    let mut s = Scenario::new(
        "bench-trace",
        Topology::Fleet,
        WorkloadSpec::Trace(AZURE_TRACE.to_string()),
    );
    s.params.duration_s = match scale {
        Scale::Bench => 6.0 * 3600.0,
        Scale::Test => 600.0,
    };
    s.concurrency = 1;
    s.keepalive_s = 60.0;
    s.host_capacity = 16 << 30;
    s.router = RouterKind::PowerOfTwo;
    s.policy = PolicyKind::SlamSlo;
    s.min_hosts = 1;
    s.max_hosts = 8;
    s.boot_delay_s = 30.0;
    s.cooldown_s = 120.0;
    s.seed = seed;
    s
}

/// `churn`: sparse Poisson arrivals on a virtio-mem fixed fleet whose
/// 2 s keep-alive expires nearly every instance between requests.
fn churn_spec(seed: u64, scale: Scale) -> Scenario {
    let mut s = Scenario::new("bench-churn", Topology::Fleet, WorkloadKind::Churn);
    s.backends = vec![BackendKind::VirtioMem];
    s.params.tenants = 8;
    s.params.rps = 20.0;
    s.params.duration_s = match scale {
        Scale::Bench => 60.0,
        Scale::Test => 10.0,
    };
    s.keepalive_s = 2.0;
    s.router = RouterKind::LeastLoaded;
    s.policy = PolicyKind::Fixed;
    s.min_hosts = 4;
    s.max_hosts = 4;
    s.seed = seed;
    s
}

/// Builds a scenario's fleet inputs through the scenario front door's
/// own constructors; a trace workload's source is opened on jitter
/// stream `trial`.
fn fleet_parts(spec: &Scenario, trial: u64) -> Parts {
    spec.validate().expect("benchmark scenario is valid");
    let source = match &spec.workload {
        WorkloadSpec::Trace(path) => {
            Some(workloads::open_trace(path, trial).unwrap_or_else(|e| panic!("trace {path}: {e}")))
        }
        WorkloadSpec::Named(_) => None,
    };
    Parts {
        fleet: FleetConfig::from_scenario(spec, spec.backends[0], 0),
        router: spec.router.build(spec.router_seed(0)),
        policy: spec.policy.build(),
        source,
    }
}
