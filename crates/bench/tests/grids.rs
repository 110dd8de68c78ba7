//! The committed bench grids, `examples/scenarios/cluster_grid.scn`
//! (routing × backend) and `fleet_grid.scn` (autoscale policy ×
//! backend), which `repro cluster` and `repro fleet` run.
//!
//! The default tier parses each file, shrinks its scale fields to a
//! debug-sized grid and checks the grid's behavior relative to itself:
//! load served, latency order, warm-affinity's cold-start edge, the
//! fixed fleet never scaling, SLO-aware sizing undercutting peak
//! provisioning, `--jobs` byte-identity and the spec round trip. The
//! committed scale runs under `slow-tests` (release), which pins the
//! grid digests and the files' own `expect.*` gates.

use faas::{BackendKind, PolicyKind, RouterKind, Scenario, ScenarioOutcome, SweepSpec, Topology};
use mem_types::GIB;
use sim_core::experiment::mean_over;
use sim_core::ExpOpts;

/// Repo-root-relative path, anchored on this crate's manifest so the
/// tests pass whatever the working directory.
fn repo(rel: &str) -> String {
    format!("{}/../../{rel}", env!("CARGO_MANIFEST_DIR"))
}

fn committed(file: &str) -> SweepSpec {
    let text = std::fs::read_to_string(repo(&format!("examples/scenarios/{file}")))
        .expect("committed grid reads");
    SweepSpec::parse(&text).expect("committed grid parses")
}

/// Rebuilds a spec after its base was edited, re-validating every cell.
fn rebuilt(spec: SweepSpec) -> SweepSpec {
    SweepSpec::new(spec.base, spec.axes, spec.expect).expect("test-scale grid is valid")
}

/// The cluster grid at a debug-test scale: two hosts, two tenants,
/// a 40 s trace.
fn tiny_cluster() -> SweepSpec {
    let mut spec = committed("cluster_grid.scn");
    let s = &mut spec.base;
    s.topology = Topology::Cluster(2);
    s.params.tenants = 2;
    s.params.duration_s = 40.0;
    s.params.rps = 1.5;
    s.params.zipf_exponent = 1.0;
    s.host_capacity = 5 * GIB;
    s.concurrency = 2;
    s.keepalive_s = 15.0;
    s.seed = 0xC1;
    rebuilt(spec)
}

/// The fleet grid at a debug-test scale: one 60 s diurnal cycle over
/// 1-3 hosts.
fn tiny_fleet() -> SweepSpec {
    let mut spec = committed("fleet_grid.scn");
    let s = &mut spec.base;
    s.params.tenants = 3;
    s.params.duration_s = 60.0;
    s.params.trough_rps = 0.5;
    s.params.rps = 3.5;
    s.params.period_s = 60.0;
    s.params.zipf_exponent = 1.0;
    s.host_capacity = 5 * GIB;
    s.concurrency = 2;
    s.keepalive_s = 12.0;
    s.min_hosts = 1;
    s.max_hosts = 3;
    s.boot_delay_s = 8.0;
    s.cooldown_s = 6.0;
    s.mtbf_s = 45.0;
    s.seed = 0xF7;
    rebuilt(spec)
}

/// Each cell's scenario and trials, in expansion order.
fn run(spec: &SweepSpec) -> Vec<(Scenario, Vec<ScenarioOutcome>)> {
    spec.run(&ExpOpts::default())
        .expect("grid runs")
        .cells
        .into_iter()
        .map(|(_, mut result)| (result.spec, result.cells.remove(0).1))
        .collect()
}

fn fleet_mean(trials: &[ScenarioOutcome], get: fn(&faas::FleetStats) -> f64) -> f64 {
    mean_over(trials, |t| get(t.fleet.as_ref().expect("fleet stats")))
}

#[test]
fn cluster_grid_serves_the_offered_load() {
    let cells = run(&tiny_cluster());
    assert_eq!(cells.len(), 12, "4 routers x 3 backends");
    for (s, trials) in &cells {
        let offered = mean_over(trials, |t| t.offered as f64);
        let completed = mean_over(trials, |t| t.completed as f64);
        assert!(offered > 0.0);
        assert!(
            completed >= offered * 0.95,
            "{} served {completed}/{offered}",
            s.name
        );
        let p50 = mean_over(trials, |t| t.merged_latency().p50());
        let p99 = mean_over(trials, |t| t.merged_latency().p99());
        assert!(p99 >= p50, "{}: p99 {p99} < p50 {p50}", s.name);
    }
    let cold = |r: RouterKind| {
        cells
            .iter()
            .find(|(s, _)| s.router == r && s.backends == [BackendKind::Squeezy])
            .map(|(_, trials)| mean_over(trials, |t| t.cold_ratio()))
            .expect("cell present")
    };
    assert!(
        cold(RouterKind::WarmAffinity) <= cold(RouterKind::RoundRobin) + 1e-9,
        "affinity {} ≤ round-robin {}",
        cold(RouterKind::WarmAffinity),
        cold(RouterKind::RoundRobin)
    );
}

#[test]
fn fleet_grid_serves_the_load_and_scales() {
    let spec = tiny_fleet();
    let cells = run(&spec);
    assert_eq!(cells.len(), 12, "4 policies x 3 backends");
    for (s, trials) in &cells {
        let offered = mean_over(trials, |t| t.offered as f64);
        let completed = mean_over(trials, |t| t.completed as f64);
        let lost = fleet_mean(trials, |f| f.lost as f64);
        assert!(offered > 0.0);
        assert!(
            completed + lost >= offered * 0.8,
            "{} accounted for {completed}+{lost} of {offered}",
            s.name
        );
        assert!(fleet_mean(trials, |f| f.host_hours) > 0.0);
        assert!(
            fleet_mean(trials, |f| f.peak_active as f64)
                >= fleet_mean(trials, |f| f.min_active as f64)
        );
        if s.policy == PolicyKind::Fixed {
            assert_eq!(
                fleet_mean(trials, |f| (f.scale_ups + f.scale_downs) as f64),
                0.0,
                "fixed never scales"
            );
        }
    }
    // Elastic sizing must undercut undegraded peak provisioning
    // (max_hosts for the whole run). The fixed baseline's *row* can
    // come in under that bound too, but only by losing crashed hosts
    // forever — degraded capacity, not efficiency — so the fair cost
    // yardstick is the full peak-provisioned burn.
    let peak_hours = spec.base.max_hosts as f64 * spec.base.params.duration_s / 3600.0;
    let slam_hours = cells
        .iter()
        .find(|(s, _)| s.policy == PolicyKind::SlamSlo && s.backends == [BackendKind::Squeezy])
        .map(|(_, trials)| fleet_mean(trials, |f| f.host_hours))
        .expect("cell present");
    assert!(
        slam_hours < peak_hours,
        "slam {slam_hours} < peak-provisioned {peak_hours}"
    );
}

#[test]
fn cluster_grid_is_byte_identical_for_any_job_count() {
    let spec = tiny_cluster();
    let serial = spec.run(&ExpOpts::serial()).expect("runs").render();
    let parallel = spec
        .run(&ExpOpts::serial().with_jobs(4))
        .expect("runs")
        .render();
    assert_eq!(serial, parallel);
}

#[test]
fn fleet_grid_is_byte_identical_for_any_job_count() {
    let spec = tiny_fleet();
    let serial = spec.run(&ExpOpts::serial()).expect("runs").render();
    let parallel = spec
        .run(&ExpOpts::serial().with_jobs(4))
        .expect("runs")
        .render();
    assert_eq!(serial, parallel);
}

#[test]
fn cluster_grid_spec_round_trips() {
    for spec in [committed("cluster_grid.scn"), tiny_cluster()] {
        assert_eq!(spec.cells().len(), 12, "4 routers x 3 backends");
        let reparsed = SweepSpec::parse(&spec.render()).expect("renders valid spec");
        assert_eq!(reparsed, spec);
    }
}

#[test]
fn fleet_grid_spec_round_trips() {
    for spec in [committed("fleet_grid.scn"), tiny_fleet()] {
        assert_eq!(spec.cells().len(), 12, "4 policies x 3 backends");
        let reparsed = SweepSpec::parse(&spec.render()).expect("renders valid spec");
        assert_eq!(reparsed, spec);
    }
}

/// The committed grids at their own scale and at `--quick`: pinned
/// [`faas::GridOutcome::digest`]s (serial), and every `expect.*` gate
/// the files declare holds. Release only (slow-tests job): the fleet
/// grid alone takes about a minute in a debug build.
#[test]
#[cfg_attr(not(feature = "slow-tests"), ignore = "enable the slow-tests feature")]
fn committed_grid_digests_are_pinned() {
    let expected = "\
cluster_grid.scn:41a85650f2db1ae5
cluster_grid.scn --quick:41a85650f2db1ae5
fleet_grid.scn:8082b856997b468d
fleet_grid.scn --quick:36b97273f27356cf
";
    let mut got = String::new();
    for file in ["cluster_grid.scn", "fleet_grid.scn"] {
        let spec = committed(file);
        for (label, spec) in [
            (file.to_string(), spec.clone()),
            (format!("{file} --quick"), spec.quick()),
        ] {
            let out = spec.run(&ExpOpts::serial()).expect("runs");
            assert!(!out.failed(), "{label}:\n{}", out.render());
            got.push_str(&format!("{label}:{:016x}\n", out.digest()));
        }
    }
    assert_eq!(got, expected);
}
