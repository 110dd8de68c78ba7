//! Figure 6: latency to reclaim 2 GiB from a 64 GiB VM while the
//! utilization of the rest of the memory grows. Vanilla virtio-mem
//! latency climbs (and fluctuates) with occupancy; Squeezy stays flat.
//!
//! Following the paper, page-zeroing overheads are disabled for vanilla
//! virtio-mem too, isolating the effect of page migrations.

use guest_mm::GuestMmConfig;
use mem_types::{GIB, MIB};
use sim_core::experiment::{mean_over, run_experiment, ExpOpts, Experiment, TrialCtx};
use sim_core::{CostModel, DetRng, SimDuration, TextTable};
use squeezy::{SqueezyConfig, SqueezyManager};
use vmm::{HostMemory, Vm, VmConfig};
use workloads::Memhog;

use crate::setup::{churn_seeded, fill_interleaved};

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Fig6Config {
    /// Total VM (hotplug) size (paper: 64 GiB).
    pub vm_bytes: u64,
    /// Reclaim target (paper: 2 GiB).
    pub reclaim_bytes: u64,
    /// Utilization points in percent.
    pub utilizations: Vec<u32>,
}

impl Fig6Config {
    /// The paper's configuration.
    pub fn paper() -> Self {
        Fig6Config {
            vm_bytes: 64 * GIB,
            reclaim_bytes: 2 * GIB,
            utilizations: (0..=10).map(|u| u * 10).collect(),
        }
    }

    /// Scaled-down configuration for tests.
    pub fn quick() -> Self {
        Fig6Config {
            vm_bytes: 4 * GIB,
            reclaim_bytes: GIB,
            utilizations: vec![0, 50, 90],
        }
    }
}

/// One point of the figure.
#[derive(Clone, Copy, Debug)]
pub struct Fig6Point {
    /// Memory utilization of the rest of the VM (%).
    pub utilization_pct: u32,
    /// Vanilla virtio-mem reclaim latency.
    pub virtio_ms: f64,
    /// Squeezy reclaim latency.
    pub squeezy_ms: f64,
}

/// One sweep cell: a utilization level measured under one method.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Method {
    Virtio,
    Squeezy,
}

/// The `utilizations × methods` sweep on the engine. Virtio trials
/// re-shuffle the survivor subset and churn from independent streams
/// and the latencies are averaged — the sampling noise shrinks with
/// `1/sqrt(trials)`. The Squeezy path is fully deterministic, so its
/// cells run once and skip (return `None` for) the repeat trials
/// instead of re-simulating identical results.
struct Fig6Exp<'a> {
    cfg: &'a Fig6Config,
    trials: u32,
}

impl Experiment for Fig6Exp<'_> {
    type Point = (u32, Method);
    type Output = Option<SimDuration>;

    fn points(&self) -> Vec<(u32, Method)> {
        self.cfg
            .utilizations
            .iter()
            .flat_map(|&u| [(u, Method::Virtio), (u, Method::Squeezy)])
            .collect()
    }

    fn trials(&self) -> u32 {
        self.trials
    }

    fn seed(&self) -> u64 {
        0x51EE2
    }

    fn run_trial(&self, &(u, method): &Self::Point, ctx: &mut TrialCtx) -> Option<SimDuration> {
        let cost = CostModel::default();
        match method {
            Method::Virtio => Some(virtio_point(self.cfg, u, &cost, &mut ctx.rng)),
            Method::Squeezy if ctx.trial == 0 => Some(squeezy_point(self.cfg, u, &cost)),
            Method::Squeezy => None,
        }
    }
}

/// Runs the sweep.
pub fn run(cfg: &Fig6Config) -> Vec<Fig6Point> {
    run_with(cfg, &ExpOpts::default())
}

/// [`run`] with explicit engine options.
pub fn run_with(cfg: &Fig6Config, opts: &ExpOpts) -> Vec<Fig6Point> {
    let exp = Fig6Exp {
        cfg,
        trials: opts.trials,
    };
    let cells = run_experiment(&exp, opts.effective_jobs());
    // Cells arrive as (virtio, squeezy) pairs per utilization; skipped
    // repeat trials (deterministic Squeezy cells) drop out of the mean.
    let mean_ms = |trials: &[Option<SimDuration>]| {
        let ran: Vec<SimDuration> = trials.iter().flatten().copied().collect();
        mean_over(&ran, |d| d.as_millis_f64())
    };
    cfg.utilizations
        .iter()
        .zip(cells.chunks(2))
        .map(|(&u, pair)| Fig6Point {
            utilization_pct: u,
            virtio_ms: mean_ms(&pair[0]),
            squeezy_ms: mean_ms(&pair[1]),
        })
        .collect()
}

/// Vanilla: fully occupy the VM with small interleaved memhogs, then
/// kill a random subset so the *remaining* utilization is `u` % — the
/// survivors' pages stay scattered across every block, exactly the
/// "random placement ... over multiple memory blocks" the paper
/// attributes the latency growth and fluctuation to (§6.1.1). Finally
/// unplug the reclaim target.
fn virtio_point(cfg: &Fig6Config, u: u32, cost: &CostModel, rng: &mut DetRng) -> SimDuration {
    let mut host = HostMemory::new(cfg.vm_bytes + 8 * GIB);
    let mut vm = Vm::boot(
        VmConfig {
            guest: GuestMmConfig {
                boot_bytes: GIB,
                hotplug_bytes: cfg.vm_bytes,
                kernel_bytes: 192 * MIB,
                init_on_alloc: true,
            },
            vcpus: 8.0,
        },
        &mut host,
    )
    .expect("host fits");
    // Isolate migrations: no zeroing for vanilla either (paper §6.1.1).
    vm.guest.unplug_aware_zeroing_skip = true;
    vm.plug(cfg.vm_bytes, cost).expect("plug region");

    // Fill everything except the reclaim target with 256 MiB hogs whose
    // footprints interleave at 16 MiB granularity.
    let hog_bytes = 256 * MIB;
    let n = (cfg.vm_bytes - cfg.reclaim_bytes) / hog_bytes;
    let mut hogs = Vec::new();
    for _ in 0..n {
        hogs.push(Memhog::spawn(&mut vm, hog_bytes));
    }
    fill_interleaved(&mut vm, &mut host, &hogs, cost);
    churn_seeded(&mut vm, &mut host, &hogs, 1, cost, rng);

    // Kill a random subset until utilization drops to `u` %.
    let mut order: Vec<usize> = (0..hogs.len()).collect();
    rng.shuffle(&mut order);
    let keep = (hogs.len() as u64 * u as u64 / 100) as usize;
    for &i in order.iter().skip(keep) {
        hogs[i].kill(&mut vm).expect("alive");
    }

    let report = vm
        .unplug(
            &mut host,
            mem_types::align_up_to_block(cfg.reclaim_bytes),
            None,
            cost,
        )
        .expect("reclaimable");
    report.latency()
}

/// Squeezy: identical occupancy, but instances are partitioned; reclaim
/// one empty populated partition.
fn squeezy_point(cfg: &Fig6Config, u: u32, cost: &CostModel) -> SimDuration {
    let part_bytes = mem_types::align_up_to_block(cfg.reclaim_bytes);
    let n_parts = (cfg.vm_bytes / part_bytes) as u32;
    let mut host = HostMemory::new(cfg.vm_bytes + 8 * GIB);
    let mut vm = Vm::boot(
        VmConfig {
            guest: GuestMmConfig {
                boot_bytes: GIB,
                hotplug_bytes: cfg.vm_bytes,
                kernel_bytes: 192 * MIB,
                init_on_alloc: true,
            },
            vcpus: 8.0,
        },
        &mut host,
    )
    .expect("host fits");
    let mut sq = SqueezyManager::install(
        &mut vm,
        SqueezyConfig {
            partition_bytes: part_bytes,
            shared_bytes: 0,
            concurrency: n_parts,
        },
        cost,
    )
    .expect("layout fits");

    // Occupy `u` % of the other partitions with instances.
    let occupied_parts = ((n_parts - 1) as u64 * u as u64 / 100) as u32;
    for _ in 0..occupied_parts {
        let hog = Memhog::spawn(&mut vm, part_bytes * 9 / 10);
        sq.plug_partition(&mut vm, cost).expect("partition");
        sq.attach(&mut vm, hog.pid).expect("attach");
        hog.warm_up(&mut vm, &mut host, cost).expect("fits");
    }
    // The measured partition: populated, then its instance exits.
    let victim = Memhog::spawn(&mut vm, part_bytes / 2);
    sq.plug_partition(&mut vm, cost).expect("partition");
    sq.attach(&mut vm, victim.pid).expect("attach");
    victim.warm_up(&mut vm, &mut host, cost).expect("fits");
    victim.kill(&mut vm).expect("alive");
    sq.detach(victim.pid).expect("attached");

    let (_, report) = sq
        .unplug_partition(&mut vm, &mut host, cost)
        .expect("free partition");
    report.latency()
}

/// Renders the figure as a text table.
pub fn render(points: &[Fig6Point]) -> String {
    let mut t = TextTable::new(&["Utilization(%)", "Virtio-mem(ms)", "Squeezy(ms)"]);
    for p in points {
        t.row(vec![
            format!("{}", p.utilization_pct),
            format!("{:.0}", p.virtio_ms),
            format!("{:.0}", p.squeezy_ms),
        ]);
    }
    let mut out =
        String::from("Figure 6: reclaiming 2 GiB out of a 64 GiB VM vs. memory utilization\n");
    out.push_str(&t.render());
    if let (Some(first), Some(last)) = (points.first(), points.last()) {
        out.push_str(&format!(
            "virtio-mem latency grows {:.1}x from {}% to {}% utilization; \
             Squeezy varies {:.2}x (paper: flat ~125 ms)\n",
            last.virtio_ms / first.virtio_ms.max(1.0),
            first.utilization_pct,
            last.utilization_pct,
            last.squeezy_ms / first.squeezy_ms.max(1.0),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(
        not(feature = "slow-tests"),
        ignore = "heavy simulation; enable with --features slow-tests"
    )]
    fn virtio_grows_with_utilization_squeezy_flat() {
        let points = run_with(&Fig6Config::quick(), &ExpOpts::auto().with_trials(2));
        assert_eq!(points.len(), 3);
        let lo = &points[0];
        let hi = &points[2];
        assert!(
            hi.virtio_ms > 2.0 * lo.virtio_ms,
            "virtio {} -> {} should grow",
            lo.virtio_ms,
            hi.virtio_ms
        );
        let ratio = hi.squeezy_ms / lo.squeezy_ms;
        assert!(
            (0.8..1.2).contains(&ratio),
            "squeezy {} -> {} should stay flat",
            lo.squeezy_ms,
            hi.squeezy_ms
        );
        // Squeezy beats virtio at every point.
        for p in &points {
            assert!(p.squeezy_ms < p.virtio_ms, "{p:?}");
        }
    }

    #[test]
    #[cfg_attr(
        not(feature = "slow-tests"),
        ignore = "heavy simulation; enable with --features slow-tests"
    )]
    fn render_mentions_paper_target() {
        let points = run(&Fig6Config::quick());
        let s = render(&points);
        assert!(s.contains("Figure 6"));
        assert!(s.contains("paper: flat"));
    }
}
