//! Ablation: temporal segregation of invocation memory (§7, FaaSMem).
//!
//! With instance-granular Squeezy (the paper's design), scratch memory
//! a function allocates *during* an invocation is freed in the guest
//! when the invocation ends — but the host keeps backing it until the
//! whole instance is evicted (Figure 1's guest/host gap, at partition
//! scale). Temporal segregation plugs the scratch region per invocation
//! and instantly unplugs it after, so the host holds only the base
//! footprint between invocations.
//!
//! For each Table-1 function the ablation measures, on the real stack:
//!
//! * `idle_mib` — host memory held while the instance sits warm between
//!   invocations;
//! * `invoke_overhead_ms` — extra latency per invocation (ephemeral
//!   plug + fresh nested faults on scratch, vs. refaulting
//!   already-backed memory).

use guest_mm::{AllocPolicy, GuestMmConfig};
use mem_types::{GIB, MIB, PAGE_SIZE};
use sim_core::experiment::{run_experiment, ExpOpts, Experiment, TrialCtx};
use sim_core::{CostModel, SimDuration, TextTable};
use squeezy::{FlexManager, TemporalInstance};
use vmm::{HostMemory, Vm, VmConfig};
use workloads::FunctionKind;

/// Memory layout policy under comparison.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Granularity {
    /// Paper design: one partition per instance; scratch stays
    /// host-backed between invocations.
    Instance,
    /// §7 + FaaSMem: scratch partition plugged per invocation.
    Invocation,
}

impl Granularity {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Granularity::Instance => "per-instance",
            Granularity::Invocation => "per-invocation",
        }
    }
}

/// One measured row.
#[derive(Clone, Copy, Debug)]
pub struct TemporalRow {
    /// Function under test.
    pub kind: FunctionKind,
    /// Reclamation granularity.
    pub granularity: Granularity,
    /// Host memory held between invocations (MiB).
    pub idle_mib: f64,
    /// Mean per-invocation latency attributable to memory management
    /// (faults + plug/unplug), over `rounds` invocations (ms).
    pub invoke_mm_ms: f64,
}

/// Scratch fraction of the anon working set allocated per invocation.
const SCRATCH_NUM: u64 = 6;
const SCRATCH_DEN: u64 = 10;

/// The `functions × granularities` grid on the engine; the invocation
/// cycle is deterministic, so it clamps to one trial.
struct TemporalExp;

impl Experiment for TemporalExp {
    type Point = (FunctionKind, Granularity);
    type Output = TemporalRow;

    fn points(&self) -> Vec<(FunctionKind, Granularity)> {
        FunctionKind::ALL
            .into_iter()
            .flat_map(|k| [(k, Granularity::Instance), (k, Granularity::Invocation)])
            .collect()
    }

    fn run_trial(&self, &(kind, granularity): &Self::Point, _ctx: &mut TrialCtx) -> TemporalRow {
        measure(kind, granularity, 5, &CostModel::default())
    }
}

/// Runs the ablation: every function × both granularities, 5 rounds.
pub fn run() -> Vec<TemporalRow> {
    run_with(&ExpOpts::default())
}

/// [`run`] with explicit engine options.
pub fn run_with(opts: &ExpOpts) -> Vec<TemporalRow> {
    run_experiment(&TemporalExp, opts.effective_jobs())
        .into_iter()
        .map(|mut trials| trials.remove(0))
        .collect()
}

fn boot(cost: &CostModel) -> (Vm, HostMemory, FlexManager) {
    let mut host = HostMemory::new(16 * GIB);
    let mut vm = Vm::boot(
        VmConfig {
            guest: GuestMmConfig {
                boot_bytes: 512 * MIB,
                hotplug_bytes: 8 * GIB,
                kernel_bytes: 128 * MIB,
                init_on_alloc: true,
            },
            vcpus: 2.0,
        },
        &mut host,
    )
    .expect("host fits");
    let flex = FlexManager::install(&mut vm);
    let _ = cost;
    (vm, host, flex)
}

fn measure(
    kind: FunctionKind,
    granularity: Granularity,
    rounds: u32,
    cost: &CostModel,
) -> TemporalRow {
    let profile = kind.profile();
    let anon = profile.anon_pages();
    let scratch = anon * SCRATCH_NUM / SCRATCH_DEN;
    let base = anon - scratch;
    let base_bytes = mem_types::align_up_to_block(base * PAGE_SIZE);
    let scratch_bytes = mem_types::align_up_to_block(scratch * PAGE_SIZE);

    let (mut vm, mut host, mut flex) = boot(cost);
    let pid = vm.guest.spawn_process(AllocPolicy::MovableDefault);

    let mut invoke = SimDuration::ZERO;
    let mut idle_rss = 0u64;
    match granularity {
        Granularity::Instance => {
            // One partition sized for base + scratch.
            let total = base_bytes + scratch_bytes;
            let (id, _) = flex
                .create(&mut vm, total, total, cost)
                .expect("layout fits");
            flex.attach(&mut vm, id, pid).expect("attach");
            vm.touch_anon(&mut host, pid, base, cost)
                .expect("base fits");
            for _ in 0..rounds {
                let c = vm.touch_anon(&mut host, pid, scratch, cost).expect("fits");
                invoke += c.latency;
                // Invocation ends: guest frees scratch, host keeps it.
                vm.guest.free_anon(pid, scratch).expect("alive");
                idle_rss = vm.host_rss();
            }
        }
        Granularity::Invocation => {
            let (mut inst, _) =
                TemporalInstance::create(&mut flex, &mut vm, pid, base_bytes, scratch_bytes, cost)
                    .expect("layout fits");
            vm.touch_anon(&mut host, pid, base, cost)
                .expect("base fits");
            for _ in 0..rounds {
                if let Some(plug) = inst
                    .begin_invocation(&mut flex, &mut vm, cost)
                    .expect("scratch span reserved")
                {
                    invoke += plug.latency();
                }
                let c = vm.touch_anon(&mut host, pid, scratch, cost).expect("fits");
                invoke += c.latency;
                if let Some(unplug) = inst
                    .end_invocation(&mut flex, &mut vm, &mut host, cost)
                    .expect("drained")
                {
                    invoke += unplug.latency();
                }
                idle_rss = vm.host_rss();
            }
        }
    }

    TemporalRow {
        kind,
        granularity,
        idle_mib: idle_rss as f64 / MIB as f64,
        invoke_mm_ms: invoke.as_millis_f64() / rounds as f64,
    }
}

/// Renders the ablation.
pub fn render(rows: &[TemporalRow]) -> String {
    let mut t = TextTable::new(&["Function", "Granularity", "Idle(MiB)", "MM-per-invoke(ms)"]);
    for r in rows {
        t.row(vec![
            r.kind.name().to_string(),
            r.granularity.name().to_string(),
            format!("{:.0}", r.idle_mib),
            format!("{:.1}", r.invoke_mm_ms),
        ]);
    }
    let mut out = String::from(
        "Ablation: temporal segregation — reclaiming at invocation granularity (§7, FaaSMem)\n",
    );
    out.push_str(&t.render());
    // Average idle saving.
    let mut saved = 0.0;
    let mut n = 0.0;
    for kind in FunctionKind::ALL {
        let inst = rows
            .iter()
            .find(|r| r.kind == kind && r.granularity == Granularity::Instance)
            .expect("grid");
        let invo = rows
            .iter()
            .find(|r| r.kind == kind && r.granularity == Granularity::Invocation)
            .expect("grid");
        saved += (inst.idle_mib - invo.idle_mib) / inst.idle_mib;
        n += 1.0;
    }
    out.push_str(&format!(
        "per-invocation reclamation cuts idle host memory by {:.0}% on average\n",
        100.0 * saved / n,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invocation_granularity_slims_idle_footprint() {
        let rows = run();
        for kind in FunctionKind::ALL {
            let inst = rows
                .iter()
                .find(|r| r.kind == kind && r.granularity == Granularity::Instance)
                .unwrap();
            let invo = rows
                .iter()
                .find(|r| r.kind == kind && r.granularity == Granularity::Invocation)
                .unwrap();
            assert!(
                invo.idle_mib < inst.idle_mib * 0.75,
                "{kind:?}: idle {} vs {}",
                invo.idle_mib,
                inst.idle_mib
            );
            // The per-invocation price is bounded (plug + refaults).
            assert!(
                invo.invoke_mm_ms < inst.invoke_mm_ms + 300.0,
                "{kind:?}: overhead {} vs {}",
                invo.invoke_mm_ms,
                inst.invoke_mm_ms
            );
        }
    }

    #[test]
    fn render_reports_saving() {
        let s = render(&run());
        assert!(s.contains("per-invocation reclamation cuts idle host memory"));
        assert!(s.contains("per-instance"));
    }
}
