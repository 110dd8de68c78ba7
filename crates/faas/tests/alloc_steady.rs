//! Steady-state allocation audit of the event engine.
//!
//! The perf tentpole's contract: once a host is warmed up, the
//! per-event path — arrival, routing, dispatch, CPU completion,
//! keep-alive — performs no heap allocation. Timer-wheel slots, the
//! flat `IdMap`s, the CPU pool's water-filling scratch, the routing
//! load-snapshot buffer and the fleet's latency reservoir all reuse
//! capacity, so the only allocations left are amortized buffer growth
//! (logarithmic in run length) and per-sample metrics appends.
//!
//! The test pins that by differencing: two identical drumbeat runs, one
//! twice as long as the other. The extra invocations ride entirely on
//! warmed-up buffers, so the allocation *delta* per extra invocation
//! must be far below one — a per-event allocation anywhere in the
//! engine would push it to one or more. Two inputs: one host (the
//! paper's deployment), and a 4-host fleet behind the least-loaded
//! router, which takes a load snapshot of every host per arrival.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use faas::config::{BackendKind, Deployment, HarvestConfig, SimConfig, VmSpec};
use faas::{ClusterConfig, FaasSim, FixedFleet, FleetConfig, FleetSim, LeastLoaded};
use workloads::FunctionKind;

/// A pass-through allocator that counts allocation calls.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The counter is process-wide, so the audits take turns.
static SERIAL: Mutex<()> = Mutex::new(());

/// A warm drumbeat: fixed-cadence arrivals on one Html deployment, far
/// inside the keep-alive window, so after the first cold start every
/// invocation runs the steady-state dispatch/complete path.
fn drumbeat(duration_s: f64) -> (SimConfig, Vec<f64>) {
    let gap = 0.1;
    let mut arrivals = Vec::new();
    let mut t = 0.05;
    while t < duration_s {
        arrivals.push(t);
        t += gap;
    }
    let cfg = SimConfig {
        backend: BackendKind::Squeezy,
        harvest: HarvestConfig::default(),
        vms: vec![VmSpec {
            deployments: vec![Deployment {
                kind: FunctionKind::Html,
                concurrency: 2,
            }],
            vcpus: Some(4.0),
        }],
        host_capacity: u64::MAX / 2,
        keepalive_s: 60.0,
        duration_s,
        unplug_deadline_ms: 5_000,
        record_latency_points: false,
        seed: 0x57EAD,
        trial: 0,
    };
    (cfg, arrivals)
}

/// Allocation calls spent inside `run()` for a single-host drumbeat
/// of `duration_s` (setup is excluded: booting VMs legitimately
/// allocates).
fn single_host_allocs(duration_s: f64) -> (u64, u64) {
    let (cfg, arrivals) = drumbeat(duration_s);
    let n = arrivals.len() as u64;
    let sim = FaasSim::new(cfg, vec![arrivals]).expect("host boots");
    let before = ALLOCS.load(Ordering::Relaxed);
    let result = sim.run();
    let spent = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(result.completed, n, "drumbeat must be fully served");
    (spent, n)
}

/// The same drumbeat, four times as dense, on a fixed 4-host fleet
/// routed least-loaded: every arrival snapshots every host's load.
fn fleet_allocs(duration_s: f64) -> (u64, u64) {
    let hosts = 4;
    let mut arrivals = Vec::new();
    let mut t = 0.05;
    while t < duration_s {
        arrivals.push(t);
        t += 0.1 / hosts as f64;
    }
    let n = arrivals.len() as u64;
    let (cfg, _) = drumbeat(duration_s);
    let cluster = ClusterConfig {
        hosts: (0..hosts)
            .map(|h| SimConfig {
                seed: cfg.seed + h,
                ..cfg.clone()
            })
            .collect(),
        tenants: vec![arrivals],
    };
    let sim = FleetSim::new(
        FleetConfig::fixed(cluster, cfg.seed),
        Box::new(LeastLoaded),
        Box::new(FixedFleet),
    )
    .expect("hosts boot");
    let before = ALLOCS.load(Ordering::Relaxed);
    let result = sim.run();
    let spent = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(result.completed, n, "drumbeat must be fully served");
    (spent, n)
}

/// Runs `allocs_for` at two lengths and checks the allocation delta
/// per extra (pure steady-state) invocation.
fn assert_steady(allocs_for: fn(f64) -> (u64, u64)) {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (short, n_short) = allocs_for(100.0);
    let (long, n_long) = allocs_for(200.0);
    let extra_invocations = (n_long - n_short) as f64;
    // The longer run's extra invocations are pure steady state; allow a
    // generous budget for amortized growth and per-sample metrics, but
    // a true per-event allocation (≥1 per invocation, usually several)
    // is far outside it.
    let delta = long.saturating_sub(short) as f64;
    let per_invocation = delta / extra_invocations;
    assert!(
        per_invocation < 0.5,
        "steady state allocates {per_invocation:.2} times per invocation \
         (short run: {short} allocs / {n_short} inv, \
         long run: {long} allocs / {n_long} inv)"
    );
}

#[test]
fn steady_state_invocations_do_not_allocate_per_event() {
    assert_steady(single_host_allocs);
}

#[test]
fn least_loaded_fleet_routing_does_not_allocate_per_event() {
    assert_steady(fleet_allocs);
}
