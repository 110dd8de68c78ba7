//! Golden digests of every topology, all run on the one fleet engine.
//!
//! Three pins, captured from the three separate run loops the engine
//! replaced (single-host, fixed cluster, elastic fleet) and held
//! byte-for-byte since:
//!
//! * **Single host** — the [`FaasSim`] digest of 12 random one-host
//!   configs (every backend, bursty traces, half under memory
//!   pressure, latency points on or off).
//! * **Fixed fleet** — per-host digests and the `[host][tenant]`
//!   routing table of 10 random fixed fleets, one per router kind
//!   draw.
//! * **Committed specs** — the `--quick` digest of every
//!   `examples/scenarios/*.scn`, as `repro run --quick` computes it
//!   (the two bench grids are pinned in `crates/bench/tests/grids.rs`).
//!
//! The generators are the ones the former `cluster_equivalence` and
//! `fleet_equivalence` property suites drew from, so the pinned values
//! stand in for the reference loops those suites compared against.

use faas::{
    BackendKind, ClusterConfig, Deployment, FaasSim, FixedFleet, FleetConfig, FleetSim,
    HarvestConfig, LeastLoaded, PowerOfTwoChoices, RoundRobin, Router, SimConfig, SweepSpec,
    VmSpec, WarmAffinity, WorkloadSpec,
};
use mem_types::GIB;
use sim_core::{DetRng, ExpOpts};
use workloads::{bursty_arrivals, BurstyTraceConfig, FunctionKind};

fn bursty(rng: &mut DetRng, duration_s: f64, stream: u64) -> Vec<f64> {
    let trace = BurstyTraceConfig {
        duration_s,
        base_rps: rng.range_f64(0.05, 0.3),
        burst_rps: rng.range_f64(1.0, 4.0),
        mean_burst_s: 10.0,
        mean_idle_s: 30.0,
    };
    let mut trng = rng.derive(stream);
    bursty_arrivals(&trace, &mut trng)
}

// --- Single host -----------------------------------------------------------

/// A random one-host config and its per-slot arrival lists.
fn random_single(rng: &mut DetRng) -> (SimConfig, Vec<Vec<f64>>) {
    let backends = BackendKind::ALL;
    let backend = backends[rng.range(0, backends.len() as u64) as usize];
    let kinds = [FunctionKind::Html, FunctionKind::Cnn, FunctionKind::Bfs];
    let duration_s = 120.0;
    let ndeps = 1 + rng.range(0, 2) as usize;
    let (arrivals, deployments) = (0..ndeps)
        .map(|d| {
            let arrivals = bursty(rng, duration_s, d as u64 + 1);
            let deployment = Deployment {
                kind: kinds[rng.range(0, kinds.len() as u64) as usize],
                concurrency: 2 + rng.range(0, 3) as u32,
            };
            (arrivals, deployment)
        })
        .unzip();
    let cfg = SimConfig {
        backend,
        harvest: HarvestConfig::default(),
        vms: vec![VmSpec {
            deployments,
            vcpus: Some(2.0),
        }],
        // Half the runs under real memory pressure.
        host_capacity: if rng.chance(0.5) {
            3 * GIB
        } else {
            u64::MAX / 2
        },
        keepalive_s: rng.range_f64(10.0, 40.0),
        duration_s,
        unplug_deadline_ms: 5_000,
        record_latency_points: rng.chance(0.5),
        seed: rng.range(0, 1 << 32),
        trial: rng.range(0, 8),
    };
    (cfg, arrivals)
}

#[test]
fn single_host_digests_are_pinned() {
    let expected = "\
0:Static:56c17961f4076d91:49
1:Static:14cadb46afd70957:200
2:Squeezy:0c944ad460d3b1da:165
3:SqueezySoft:ea8493c5903fdf9d:72
4:VirtioMem:cc4c00dd6cd827ee:36
5:Static:2ae2cfa6b3539227:168
6:Squeezy:93a4b0fa1c9f36f1:176
7:Squeezy:bf68b2f2a8b10b00:121
8:Squeezy:979bbadee2821a3f:84
9:HarvestOpts:3c985e313cd62044:33
10:Static:428d932899ec98a7:153
11:Static:d908c329acde38b2:60
";
    let mut rng = DetRng::new(0x50C1E7);
    let got: String = (0..12)
        .map(|case| {
            let (cfg, arrivals) = random_single(&mut rng);
            let backend = cfg.backend;
            let r = FaasSim::new(cfg, arrivals).expect("boot").run();
            format!("{case}:{backend:?}:{:016x}:{}\n", r.digest(), r.completed)
        })
        .collect();
    assert_eq!(got, expected);
}

// --- Fixed fleet -----------------------------------------------------------

fn random_host(rng: &mut DetRng, tenants: usize, duration_s: f64) -> SimConfig {
    let backends = BackendKind::ALL;
    let kinds = [FunctionKind::Html, FunctionKind::Cnn, FunctionKind::Bfs];
    SimConfig {
        backend: backends[rng.range(0, backends.len() as u64) as usize],
        harvest: HarvestConfig::default(),
        vms: vec![VmSpec {
            deployments: (0..tenants)
                .map(|d| Deployment {
                    kind: kinds[d % kinds.len()],
                    concurrency: 2 + rng.range(0, 3) as u32,
                })
                .collect(),
            vcpus: Some(2.0),
        }],
        host_capacity: if rng.chance(0.5) {
            4 * GIB
        } else {
            u64::MAX / 2
        },
        keepalive_s: rng.range_f64(10.0, 40.0),
        duration_s,
        unplug_deadline_ms: 5_000,
        record_latency_points: rng.chance(0.5),
        seed: rng.range(0, 1 << 32),
        trial: rng.range(0, 8),
    }
}

fn random_cluster(rng: &mut DetRng) -> ClusterConfig {
    let duration_s = 100.0;
    let nhosts = 1 + rng.range(0, 3) as usize;
    let ntenants = 1 + rng.range(0, 3) as usize;
    let hosts = (0..nhosts)
        .map(|_| random_host(rng, ntenants, duration_s))
        .collect();
    let tenants = (0..ntenants)
        .map(|d| bursty(rng, duration_s, d as u64 + 1))
        .collect();
    ClusterConfig { hosts, tenants }
}

fn random_router(rng: &mut DetRng) -> (Box<dyn Router>, &'static str) {
    match rng.range(0, 4) {
        0 => (Box::new(RoundRobin::default()), "round-robin"),
        1 => (Box::new(LeastLoaded), "least-loaded"),
        2 => (Box::new(WarmAffinity), "warm-affinity"),
        _ => (
            Box::new(PowerOfTwoChoices::from_seed(rng.range(0, 1 << 32))),
            "power-of-two",
        ),
    }
}

#[test]
fn fixed_fleet_digests_and_routing_are_pinned() {
    let expected = "\
0:warm-affinity:c242c9a5fea1ee8a:[[68]]:68
1:round-robin:59946f895f11d37c,39c123dbe3985219:[[52], [51]]:103
2:power-of-two:b0e7f31fd4cd74c8,0cf600adff37edf0,546c8e3055044b0c:[[27, 33], [19, 28], [8, 11]]:126
3:least-loaded:50eb217ea6654de5,dfe0e64429463fda:[[82], [37]]:119
4:power-of-two:4a406bf60789b771,4de6748fe1ed61e0:[[38, 87, 22], [43, 65, 19]]:274
5:round-robin:9fe5f3f420fef7b2:[[48, 104]]:152
6:power-of-two:3594e38bc734cd3c,346d74e23688f153:[[81], [36]]:117
7:warm-affinity:33735df7351bf689:[[64, 73, 98]]:235
8:round-robin:498ac5b75ea904d8,6f4814f2bd5b69c0:[[27, 95, 63], [27, 90, 68]]:370
9:least-loaded:e8a7161d09d4ca2f,d330682084e3ce8e,f6cbed49a9e8d5c6:[[36, 57], [9, 27], [5, 5]]:139
";
    let mut rng = DetRng::new(0xF1EE7E57);
    let mut got = String::new();
    for case in 0..10 {
        let cluster = random_cluster(&mut rng);
        let (router, router_name) = random_router(&mut rng);
        let fleet_seed = rng.range(0, 1 << 32);
        let r = FleetSim::new(
            FleetConfig::fixed(cluster, fleet_seed),
            router,
            Box::new(FixedFleet),
        )
        .expect("fleet boots")
        .run();
        assert_eq!(
            r.scale_ups + r.scale_downs + r.crashes + r.lost + r.deferred,
            0,
            "case {case}: a fixed fleet takes no control action"
        );
        let digests: Vec<String> = r
            .hosts
            .iter()
            .map(|h| format!("{:016x}", h.result.digest()))
            .collect();
        got.push_str(&format!(
            "{case}:{router_name}:{}:{:?}:{}\n",
            digests.join(","),
            r.routed,
            r.completed
        ));
    }
    assert_eq!(got, expected);
}

// --- Committed specs ---------------------------------------------------------

fn repo(rel: &str) -> String {
    format!("{}/../../{rel}", env!("CARGO_MANIFEST_DIR"))
}

/// The `--quick` digest of one committed spec, as [`SweepSpec::run`]
/// computes it: a plain scenario's [`faas::ScenarioResult::digest`]
/// (its one cell), or a sweep grid's [`faas::GridOutcome::digest`].
/// Trace paths in specs are relative to the repository root.
fn spec_digest(file: &str) -> u64 {
    let text = std::fs::read_to_string(repo(&format!("examples/scenarios/{file}")))
        .expect("committed spec reads");
    let mut spec = SweepSpec::parse(&text).expect("committed spec parses");
    if let WorkloadSpec::Trace(path) = &spec.base.workload {
        spec.base.workload = WorkloadSpec::Trace(repo(path));
    }
    let out = spec.quick().run(&ExpOpts::serial()).expect("runs");
    if spec.axes.is_empty() {
        out.cells[0].1.digest()
    } else {
        out.digest()
    }
}

/// The two committed bench grids are pinned by the release-only
/// `committed_grid_digests_are_pinned` test in
/// `crates/bench/tests/grids.rs`: the fleet grid alone takes about a
/// minute in a debug build.
const PINNED_IN_BENCH: [&str; 2] = ["cluster_grid.scn", "fleet_grid.scn"];

#[test]
fn committed_spec_digests_are_pinned() {
    let expected = "\
churn_cluster.scn:6517007c203a9cf3
cluster_routing.scn:b7a56f81b7f563c7
fleet_fixed_crashes.scn:91e5bdf6f1abf181
fleet_slam.scn:b279badaa6e275f5
memhog_pressure.scn:d8acfbf923a2bb00
single_azure.scn:d1f32605c696491e
sweep_policy_grid.scn:c19404c5fb92f683
trace_replay.scn:1a8b60299f532222
";
    let mut files: Vec<String> = std::fs::read_dir(repo("examples/scenarios"))
        .expect("spec dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .filter(|f| f.ends_with(".scn") && !PINNED_IN_BENCH.contains(&f.as_str()))
        .collect();
    files.sort();
    let got: String = files
        .iter()
        .map(|f| format!("{f}:{:016x}\n", spec_digest(f)))
        .collect();
    assert_eq!(got, expected);
}
