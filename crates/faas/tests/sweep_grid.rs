//! End-to-end grid runs: a sweep expands, runs byte-identically for
//! any job count, evaluates its `expect.*` gates per cell, and the
//! compare report is deterministic — the behavioral contract `repro
//! run` builds on.

use faas::{compare_results, Scenario, SweepSpec};
use sim_core::ExpOpts;
use workloads::WorkloadKind;

/// A grid small enough for the debug test tier: 2 backends × 2 hosts
/// × 2 keepalives = 8 cells of a short cluster trace.
fn grid_text() -> String {
    "name = grid-it\n\
     topology = cluster(2)\n\
     workload = zipf-cluster\n\
     backend = virtio-mem, squeezy\n\
     hosts = 2, 3\n\
     tenants = 2\n\
     duration_s = 30\n\
     rps = 1.5\n\
     keepalive_s = 10, 20\n\
     seed = 77\n"
        .to_string()
}

#[test]
fn grid_runs_byte_identically_for_any_job_count() {
    let spec = SweepSpec::parse(&grid_text()).expect("parses");
    let serial = spec.run(&ExpOpts::serial()).expect("runs");
    let parallel = spec.run(&ExpOpts::serial().with_jobs(5)).expect("runs");
    assert_eq!(serial.cells.len(), 8, "2 backends x 2 hosts x 2 keepalives");
    assert_eq!(serial.render(), parallel.render());
    assert_eq!(serial.digest(), parallel.digest());
}

#[test]
fn trials_flag_overrides_per_cell_trial_counts() {
    let spec = SweepSpec::parse(&grid_text()).expect("parses");
    let opts = ExpOpts::serial().with_jobs(2);
    let mut opts3 = opts;
    opts3.trials = 3;
    let out = spec.run(&opts3).expect("runs");
    for (name, result) in &out.cells {
        for (_, trials) in &result.cells {
            assert_eq!(trials.len(), 3, "{name}");
        }
    }
}

#[test]
fn gates_fail_the_grid_and_render_per_cell_verdicts() {
    let text = format!(
        "{}expect.completion_min = 99.9\nexpect.p99_ms_max = 0.001\n",
        grid_text()
    );
    let spec = SweepSpec::parse(&text).expect("parses");
    let out = spec.run(&ExpOpts::serial()).expect("runs");
    // Sub-microsecond p99 is impossible; full completion at this load
    // is expected — both verdict polarities appear, and any failure
    // fails the grid.
    assert_eq!(out.verdicts.len(), 16, "2 gates x 8 cells");
    assert!(out
        .verdicts
        .iter()
        .all(|v| v.kind.key() != "expect.p99_ms_max" || !v.pass));
    assert!(out.failed());
    let rendered = out.render();
    assert!(rendered.contains("FAIL"), "{rendered}");
    assert!(rendered.contains("expectations:"), "{rendered}");
}

#[test]
fn passing_gates_leave_the_grid_green() {
    let text = format!(
        "{}expect.completion_min = 10\nexpect.p99_ms_max = 1000000\n",
        grid_text()
    );
    let spec = SweepSpec::parse(&text).expect("parses");
    let out = spec.run(&ExpOpts::serial()).expect("runs");
    assert!(!out.failed(), "{}", out.render());
    assert!(out.verdicts.iter().all(|v| v.pass));
}

#[test]
fn compare_is_deterministic_and_marks_direction() {
    // Two scalar specs differing only in keepalive; paired seeds make
    // the diff meaningful, and two runs must render identically
    // (the bootstrap stream is seeded, not ambient).
    let mut a = Scenario::new("a", faas::Topology::Cluster(2), WorkloadKind::ZipfCluster);
    a.params.tenants = 2;
    a.params.duration_s = 30.0;
    a.params.rps = 1.5;
    a.trials = 3;
    a.seed = 77;
    let mut b = a.clone();
    b.name = "b".to_string();
    b.keepalive_s = 1.0;
    let run = |s: Scenario| {
        let spec = SweepSpec::new(s, Vec::new(), Vec::new()).expect("valid spec");
        let mut out = spec.run(&ExpOpts::serial()).expect("runs");
        out.cells.remove(0).1
    };
    let ra = run(a);
    let rb = run(b);
    let r1 = compare_results("a", &ra, "b", &rb).render();
    let r2 = compare_results("a", &ra, "b", &rb).render();
    assert_eq!(r1, r2, "compare is deterministic");
    assert!(r1.contains("p99_ms"), "{r1}");
    let self_cmp = compare_results("a", &ra, "a", &ra);
    for (_, diffs) in &self_cmp.rows {
        for d in diffs {
            assert_eq!(d.diff(), 0.0, "self-compare has zero deltas");
            assert!(!d.significant(), "self-compare is never significant");
        }
    }
}

#[test]
fn trace_scenarios_report_the_trace_files_tenant_count() {
    // The spec's own `tenants` (default 4) is not what a trace replay
    // deploys: the file's `# tenants = html, cnn` directive is.
    let path = format!(
        "{}/../../examples/traces/opendc_sample.csv",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = format!(
        "name = opendc\ntopology = cluster(2)\nworkload = trace({path})\nduration_s = 120\n"
    );
    let spec = SweepSpec::parse(&text).expect("parses");
    assert_eq!(spec.base.params.tenants, 4, "spec default");
    let rendered = spec.run(&ExpOpts::serial()).expect("runs").render();
    assert!(rendered.contains("(2 tenants, 120s)"), "{rendered}");
}
